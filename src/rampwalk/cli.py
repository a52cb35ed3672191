"""Command line interface for running walks, scans, and table checks.

Angles are given as rational multiples of pi by default ("1/8" means
pi/8); pass --radians to supply raw radians instead. JSON output uses
sorted keys and round-trip float formatting, so identical runs produce
byte-identical files. Exit codes: 0 success, 1 verification mismatch,
2 usage error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import _classify_each, classify, effective_coin_balanced_strings
from .coins import StepConvention
from .evolution import WalkSchedule, bisect_visibility
from .search import (
    RevivalCandidate,
    SearchConfig,
    angle_fraction,
    json_records,
    parse_fraction,
    scan,
    typed_field,
    verify_table,
)
from .states import reduced_coin_state


def _parse_angle(text: str, radians: bool) -> float:
    try:
        value = float(text) if radians else float(parse_fraction(text)) * math.pi
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"angle {text!r} is not a finite number")
    return value


def _angle_doc(value: float) -> dict:
    frac = angle_fraction(value)
    return {"radians": float(value), "of_pi": str(frac) if frac is not None else None}


def _schedule_doc(schedule: WalkSchedule) -> dict:
    return {
        "theta": _angle_doc(schedule.theta),
        "omega": _angle_doc(schedule.omega),
        "steps": int(schedule.steps),
        "convention": schedule.convention.value,
    }


def _complex_doc(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _matrix_doc(matrix: np.ndarray) -> list:
    return [[_complex_doc(complex(entry)) for entry in row] for row in np.asarray(matrix)]


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_walk(
    schedule: WalkSchedule, csv_out: str | None = None, json_out: str | None = None
) -> int:
    """Run one walk and emit the distributions and summaries of steps 1..T."""
    report = classify(schedule)
    distributions = report.distributions
    lattice = distributions.lattice
    rows = distributions.probabilities[1:]

    if csv_out is not None:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["step", "site", "probability"])
        sites = lattice.sites().tolist()
        for step_number, row in enumerate(rows.tolist(), start=1):
            writer.writerows([step_number, site, p] for site, p in zip(sites, row))
        _write_text(csv_out, buffer.getvalue())

    if json_out is not None:
        doc = {
            "schedule": {**_schedule_doc(schedule), "visibility": float(schedule.visibility)},
            "sites": lattice.sites().tolist(),
            "probabilities": rows.tolist(),
            "origin_probability": distributions.at_site(0)[1:].tolist(),
            "tv_distance": distributions.tv_from_start()[1:].tolist(),
            "polya_truncated": float(report.polya_truncated),
            "reduced_coin": _matrix_doc(reduced_coin_state(report.final)),
        }
        _write_text(json_out, _dump_json(doc))
    return 0


def cmd_search(config: SearchConfig, json_out: str | None = "-") -> int:
    """Scan for revivals and emit the candidate list as JSON."""
    candidates = scan(config)
    lo, hi = config.omega_grid
    # each theta is rationalised once, and its candidates share the fraction
    thetas = {theta: _angle_doc(theta) for theta in config.theta_values}
    doc = {
        "config": {
            "step_counts": list(config.step_counts),
            "theta": list(thetas.values()),
            "omega_grid": {"min": float(lo), "max": float(hi)},
            "convention": config.convention.value,
        },
        "candidates": [_candidate_doc(candidate, thetas[candidate.theta]["of_pi"]) for candidate in candidates],
    }
    _write_text(json_out, _dump_json(doc))
    return 0


def _candidate_doc(candidate: RevivalCandidate, theta_pi: str | None) -> dict:
    """The candidate's JSON object; ``theta_pi`` is its theta's ``of_pi`` text."""
    k, m = candidate.omega_rational  # reduced, so this is str(Fraction(k, m))
    return {
        "steps": int(candidate.steps),
        "theta": float(candidate.theta),
        "theta_pi": theta_pi,
        "omega": float(candidate.omega),
        "omega_pi": f"{k}/{m}" if m != 1 else str(k),
        "complete": bool(candidate.complete),
        "residual": float(candidate.residual),
    }


def _candidate_from_doc(raw: dict) -> RevivalCandidate:
    theta, omega, residual = (typed_field(raw, key, float) for key in ("theta", "omega", "residual"))
    if not all(math.isfinite(value) for value in (theta, omega, residual)):
        raise ValueError(f"candidate has a non-finite theta, omega or residual: {raw!r}")
    return RevivalCandidate(
        steps=typed_field(raw, "steps", int),
        theta=theta,
        omega=omega,
        omega_rational=parse_fraction(typed_field(raw, "omega_pi", str)).as_integer_ratio(),
        complete=typed_field(raw, "complete", bool),
        residual=residual,
    )


def cmd_verify_table(candidates_path: str, json_out: str | None = "-") -> int:
    """Diff a candidates file against the bundled reference catalog."""
    text = Path(candidates_path).read_text(encoding="utf-8")
    diff = verify_table(json_records(text, "candidates", _candidate_from_doc))
    _write_text(json_out, _dump_json(diff.to_dict()))
    return 0 if diff.ok else 1


def cmd_noise_sweep(
    schedule: WalkSchedule,
    visibilities: list[float],
    target_p0: float | None = None,
    json_out: str | None = "-",
) -> int:
    """Evaluate the walk under coin dephasing at several visibilities.

    The rows come from one coin stack and one noiseless walk, and each
    report is reduced to its row before the next visibility is walked.
    The calibration to ``target_p0`` runs first, so an impossible target
    is refused before any row is walked; the keys are sorted on output.
    """
    for visibility in visibilities:  # a visibility outside [0, 1] fails here, before any walk
        schedule.with_visibility(visibility)
    doc = _schedule_doc(schedule)
    if target_p0 is not None:
        visibility, achieved = bisect_visibility(schedule, target_p0)
        doc["calibration"] = {
            "target_origin_probability": float(target_p0),
            "visibility": float(visibility),
            "origin_probability": float(achieved),
        }
    doc["rows"] = [
        {
            "visibility": float(visibility),
            "origin_probability": float(report.origin_probability),
            "tv_distance": float(report.tv_distance),
            "overlap_initial": report.overlap_initial,
        }
        for visibility, report in zip(visibilities, _classify_each(schedule, visibilities))
    ]
    _write_text(json_out, _dump_json(doc))
    return 0


def cmd_effective_coin(schedule: WalkSchedule, json_out: str | None = "-") -> int:
    """Compute the effective coin by both constructions and compare them.

    ``classify`` runs first, so a walk too large for memory fails before
    the string sum; an odd step count then fails in the sum, since the
    walker cannot return to the origin.
    """
    report = classify(schedule)
    from_strings = effective_coin_balanced_strings(schedule)
    doc = {
        **_schedule_doc(schedule),
        "balanced_strings": _matrix_doc(from_strings),
        "operator_block": _matrix_doc(report.effective_coin),
        "max_abs_difference": float(np.max(np.abs(from_strings - report.effective_coin))),
        "complete": report.is_complete,
    }
    _write_text(json_out, _dump_json(doc))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rampwalk",
        description="Discrete-time walk with a linearly ramped coin.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    schedule = argparse.ArgumentParser(add_help=False)
    schedule.add_argument("--theta", required=True, help="bias angle (fraction of pi)")
    schedule.add_argument("--omega", required=True, help="ramp rate (fraction of pi)")
    schedule.add_argument("--steps", "--T", dest="steps", type=int, required=True)
    schedule.add_argument("--zero-based", action="store_true", help="ramp steps from t = 0")
    schedule.add_argument("--radians", action="store_true", help="angles are raw radians")

    walk = sub.add_parser("walk", parents=[schedule], help="run one walk and write distributions")
    walk.add_argument("--visibility", type=float, default=1.0)
    walk.add_argument("--csv-out", default=None, help="CSV path or - for stdout")
    walk.add_argument("--json-out", default=None, help="JSON path or - for stdout")

    defaults = SearchConfig()
    search_p = sub.add_parser("search", help="scan for revival parameters")
    search_p.add_argument("--steps", "--T", dest="steps",
                          default=",".join(str(steps) for steps in defaults.step_counts),
                          help="comma separated even step counts")
    search_p.add_argument("--theta", default=None,
                          help="comma separated bias angles (default 0,1/4)")
    search_p.add_argument("--omega-min", default=None, help="default 0")
    search_p.add_argument("--omega-max", default=None, help="default 1/2 (pi/2 radians)")
    search_p.add_argument("--zero-based", action="store_true")
    search_p.add_argument("--radians", action="store_true")
    search_p.add_argument("--json-out", default="-")

    verify = sub.add_parser("verify-table", help="diff candidates against the catalog")
    verify.add_argument("candidates", help="candidates JSON from the search command")
    verify.add_argument("--json-out", default="-")

    noise = sub.add_parser("noise-sweep", parents=[schedule], help="walk under coin dephasing")
    noise.add_argument("--visibilities", default="1,0.996,0.99,0.95,0.9")
    noise.add_argument("--target-p0", type=float, default=None,
                       help="calibrate visibility to this final origin probability")
    noise.add_argument("--json-out", default="-")

    effective = sub.add_parser(
        "effective-coin", parents=[schedule], help="effective coin, both constructions"
    )
    effective.add_argument("--json-out", default="-")

    return parser


def _convention(args: argparse.Namespace) -> StepConvention:
    if args.zero_based:
        return StepConvention.ZERO_BASED
    return StepConvention.ONE_BASED


def _schedule(args: argparse.Namespace, visibility: float = 1.0) -> WalkSchedule:
    return WalkSchedule(
        theta=_parse_angle(args.theta, args.radians),
        omega=_parse_angle(args.omega, args.radians),
        steps=args.steps,
        convention=_convention(args),
        visibility=visibility,
    )


def _dispatch(args: argparse.Namespace) -> int:
    if args.command in ("walk", "noise-sweep") and args.steps < 1:
        raise ValueError(f"steps must be at least 1, got {args.steps}")

    if args.command == "walk":
        if args.csv_out is None and args.json_out is None:
            raise ValueError("nothing to do: pass --csv-out and/or --json-out")
        return cmd_walk(_schedule(args, args.visibility), args.csv_out, args.json_out)

    if args.command == "search":
        step_counts = tuple(int(part) for part in args.steps.split(","))
        defaults = SearchConfig()
        thetas = defaults.theta_values
        if args.theta is not None:
            thetas = tuple(_parse_angle(part, args.radians) for part in args.theta.split(","))
        omega_min, omega_max = defaults.omega_grid
        if args.omega_min is not None:
            omega_min = _parse_angle(args.omega_min, args.radians)
        if args.omega_max is not None:
            omega_max = _parse_angle(args.omega_max, args.radians)
        config = SearchConfig(
            step_counts=step_counts,
            theta_values=thetas,
            omega_grid=(omega_min, omega_max),
            convention=_convention(args),
        )
        return cmd_search(config, json_out=args.json_out)

    if args.command == "verify-table":
        return cmd_verify_table(args.candidates, args.json_out)

    if args.command == "noise-sweep":
        visibilities = [float(part) for part in args.visibilities.split(",") if part]
        if not visibilities and args.target_p0 is None:
            raise ValueError("need --visibilities and/or --target-p0")
        return cmd_noise_sweep(_schedule(args), visibilities, args.target_p0, args.json_out)

    if args.command == "effective-coin":
        return cmd_effective_coin(_schedule(args), args.json_out)

    raise ValueError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except OSError as exc:
        print(f"rampwalk: i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, ZeroDivisionError, json.JSONDecodeError) as exc:
        print(f"rampwalk: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"rampwalk: error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
