"""Fuzz the CLI contract: every argv ends in exit code 0, 1, 2 or 3.

Each case calls ``cli.main`` in-process with argv drawn for one of the
five subcommands; argparse's own ``SystemExit`` counts by its code.
Steps stay at most 12, so no case allocates more than a few MB.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from rampwalk import cli

TMP = "<tmp>"
ANGLES = ("0", "1/8", "-3/7", "1/4", "0.3", "1/0", "1e400", "-1e400", "nan", "inf", "x", "",
          "1e10000000", "-1e-10000000", "2E+3000000")
NUMBERS = ("0", "0.5", "0.918", "1", "1.2", "-1", "nan", "inf", "1e400", "x", "")
OUTPUTS = ("-", f"{TMP}/out.json", f"{TMP}/missing/out.json")
REMOVED_OPTIONS = ("--workers", "--max-denominator", "--refine-tol", "--omega-count")
REMOVED_VERIFY_OPTIONS = ("--catalog",)

angle_text = st.sampled_from(ANGLES) | st.builds(
    "{}/{}".format, st.integers(-9, 9), st.integers(0, 8)
)
number_text = st.sampled_from(NUMBERS) | st.floats(-2.0, 2.0).map(repr)
step_count = st.integers(-2, 12)
steps_text = step_count.map(str)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(ANGLES),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


def documents(field, fields):
    """An object whose `field` lists records, or arbitrary JSON.

    A record either draws each field from its strategy, or maps some of
    the field names to arbitrary JSON.
    """
    record = st.fixed_dictionaries(fields)
    loose = st.dictionaries(st.sampled_from(sorted(fields)), json_values, max_size=6)
    return st.fixed_dictionaries({field: st.lists(record | loose, max_size=4)}) | json_values


def comma_list(element):
    return st.lists(element, min_size=1, max_size=2).map(",".join)


@st.composite
def options(draw, **choices):
    """``--name=value`` for a random subset of the given option strategies."""
    argv = []
    for name, values in choices.items():
        if draw(st.integers(0, 2)) == 2:
            argv.append(f"--{name.replace('_', '-')}={draw(values)}")
    return argv


def flags(draw, *names):
    return [f"--{name}" for name in names if draw(st.integers(0, 3)) == 3]


@st.composite
def cli_cases(draw):
    """(argv, {file name: JSON document}) for one subcommand."""
    command = draw(
        st.sampled_from(("walk", "search", "verify-table", "noise-sweep", "effective-coin"))
    )
    files = {}
    if command == "verify-table":
        angle = st.floats(0.0, 2.0)
        candidate_fields = dict(
            steps=step_count, theta=angle, omega=angle, omega_pi=angle_text,
            complete=st.booleans(), residual=angle,
        )
        files["candidates.json"] = draw(documents("candidates", candidate_fields))
        missing = draw(st.integers(0, 4)) == 4
        argv = [command, f"{TMP}/none.json" if missing else f"{TMP}/candidates.json"]
        argv += draw(options(json_out=st.sampled_from(OUTPUTS)))
        if draw(st.integers(0, 9)) == 9:
            argv.append(f"{draw(st.sampled_from(REMOVED_VERIFY_OPTIONS))}={TMP}/candidates.json")
        return argv, files
    if command == "search":
        argv = [command] + draw(
            options(
                steps=comma_list(steps_text),
                theta=comma_list(angle_text),
                omega_min=angle_text,
                omega_max=angle_text,
                json_out=st.sampled_from(OUTPUTS),
            )
        )
        argv += flags(draw, "zero-based", "radians")
        if draw(st.integers(0, 9)) == 9:
            argv.append(f"{draw(st.sampled_from(REMOVED_OPTIONS))}=2")
        return argv, files
    # walk, noise-sweep and effective-coin share the schedule options, all required
    schedule = [f"--theta={draw(angle_text)}", f"--omega={draw(angle_text)}"]
    schedule.append(f"--steps={draw(steps_text)}")
    if draw(st.integers(0, 9)) == 9:
        del schedule[draw(st.integers(0, 2))]
    argv = [command] + schedule
    argv += flags(draw, "zero-based", "radians")
    if command == "walk":
        outputs = st.sampled_from(OUTPUTS)
        argv += draw(options(visibility=number_text, csv_out=outputs))
        if draw(st.integers(0, 9)) != 9:  # walk exits 2 when asked for no output
            argv.append(f"--json-out={draw(outputs)}")
    elif command == "noise-sweep":
        argv += draw(
            options(
                visibilities=comma_list(number_text),
                target_p0=number_text,
                json_out=st.sampled_from(OUTPUTS),
            )
        )
    else:
        argv += draw(options(json_out=st.sampled_from(OUTPUTS)))
    return argv, files


def exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


@given(case=cli_cases())
@example(case=(["search", "--workers", "2"], {}))
@example(case=(["search", "--max-denominator", "64", "--steps", "2"], {}))
@example(case=(["search", "--refine-tol", "1e-12", "--steps", "2"], {}))
@example(case=(["search", "--omega-count", "5", "--steps", "2"], {}))
@example(case=(["verify-table", f"{TMP}/c.json", f"--catalog={TMP}/c.json"], {"c.json": {"candidates": []}}))
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_argv_ends_in_a_documented_exit_code(tmp_path, case):
    argv, files = case
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    argv = [arg.replace(TMP, str(tmp_path)) for arg in argv]
    code = exit_code(argv)
    assert code in (0, 1, 2, 3)
    # exit 1 means only "verification mismatch"
    assert code != 1 or argv[0] == "verify-table"
    # search takes no worker count, cap on the fraction denominators, residual
    # tolerance or grid size, and verify-table no catalog of its own
    if any(arg.partition("=")[0] in REMOVED_OPTIONS + REMOVED_VERIFY_OPTIONS for arg in argv):
        assert code == 2
