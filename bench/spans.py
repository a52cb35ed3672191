"""In-memory span tracer for the traced run.

``Tracer.install`` replaces every module-level binding of each public
rampwalk function with one wrapper per function, so a call records a
span whichever module it is reached through (for example
``analysis.multi_step_operator`` and ``evolution.multi_step_operator``).
It also wraps the state validators, which are not public functions.
``uninstall`` puts the originals back, so untraced passes in the same
process run unpatched code.

The runner wraps its own call of each operation as ``bench.op``, so
every span has that root and the self times of all spans add up to the
time of the pass less the loop around it.

A span is ``(name index, start, end, parent span, operation id, note)``;
the note is a small value taken from the result where a metric needs it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from pathlib import Path

LAYERS = ("cli", "search", "analysis", "evolution", "states", "coins")

# Values kept from a function's result, by span name.
NOTES = {
    "search.scan": len,
    "search.rationalize": lambda r: r is not None,
    "analysis.is_revival_operator": bool,
    "evolution.multi_step_operator": lambda r: int(r.shape[0]),
}

# Validators that are not public functions: (module, owner attribute or None, name).
VALIDATORS = (
    ("states", "WalkerCoinPureState", "__post_init__"),
    ("states", "WalkerCoinDensityMatrix", "__post_init__"),
    ("states", None, "_check_density"),
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """``fn`` recording a span named ``name``; a span with no parent starts a new operation."""
        fid = len(self.names)
        self.names.append(name)
        note_of = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self.op_id += 1
            stack.append(idx)
            note = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note_of is not None:
                    note = note_of(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.op_id, note)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {"rampwalk": self.package}
        modules.update({layer: getattr(self.package, layer) for layer in LAYERS})
        wrappers: dict[int, object] = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self.wrap(f"{layer}.{value.__name__}", value)
                self._patch(module, attr, wrappers[id(value)])
        for layer, owner_name, attr in VALIDATORS:
            owner = getattr(modules[layer], owner_name) if owner_name else modules[layer]
            label = f"{layer}.{owner_name}.{attr}" if owner_name else f"{layer}.{attr}"
            self._patch(owner, attr, self.wrap(label, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle)


def layer_metrics(names: list[str], spans: list[tuple], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass of the input set, from completed spans."""
    n = len(spans)
    child = [0.0] * n
    for fid, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS + ("bench",)}
    under: dict[str, list[bool]] = {"search.scan": [False] * n, "evolution.bisect_visibility": [False] * n}
    stats = {"accepts": 0, "checks_in_scan": 0, "snaps": 0, "rejects": 0, "max_dim": 0,
             "walks_in_bisect": 0, "pure": 0, "density": 0, "validate_s": 0.0}
    for i, (fid, start, end, parent, _, note) in enumerate(spans):
        name = names[fid]
        own = end - start - child[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        layer_self[name.partition(".")[0]] += own
        for outer, flags in under.items():
            flags[i] = parent >= 0 and (names[spans[parent][0]] == outer or flags[parent])
        if name == "search.scan":
            stats["accepts"] += note
        elif name == "search.rationalize":
            stats["snaps"] += note
        elif name == "analysis.is_revival_operator":
            stats["rejects"] += not note
            stats["checks_in_scan"] += under["search.scan"][i]
        elif name == "evolution.multi_step_operator":
            stats["max_dim"] = max(stats["max_dim"], note)
        elif name == "evolution.evolve_density":
            stats["walks_in_bisect"] += under["evolution.bisect_visibility"][i]
        if name.startswith("states.") and name.rpartition(".")[2] in ("__post_init__", "_check_density"):
            stats["validate_s"] += own
            stats["pure" if "PureState" in name else "density"] += 1

    def c(name):
        return calls.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in ("search.scan", "search.rationalize", "analysis.classify", "analysis.is_revival_operator",
                 "analysis.effective_coin_from_operator", "evolution.multi_step_operator", "evolution.evolve",
                 "evolution.step", "evolution.evolve_density", "evolution.bisect_visibility",
                 "coins.coin_at_step", "cli.main"):
        out[f"{name}.calls"] = (c(name) / passes, "count")
    for name in ("search.scan", "analysis.classify", "analysis.is_revival_operator",
                 "analysis.effective_coin_from_operator", "evolution.multi_step_operator", "evolution.step",
                 "evolution.evolve_density", "cli.main"):
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) / passes, "s")
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = (value / passes, "s")
    out["search.rationalize.snap_ratio"] = (ratio(stats["snaps"], c("search.rationalize")), "ratio")
    out["search.accept_ratio"] = (ratio(stats["accepts"], stats["checks_in_scan"]), "ratio")
    out["analysis.is_revival_operator.reject_ratio"] = (
        ratio(stats["rejects"], c("analysis.is_revival_operator")), "ratio")
    out["evolution.multi_step_operator.max_dim"] = (float(stats["max_dim"]), "count")
    out["evolution.bisect_visibility.walks_per_call"] = (
        ratio(stats["walks_in_bisect"], c("evolution.bisect_visibility")), "count")
    out["states.pure_validations"] = (stats["pure"] / passes, "count")
    out["states.density_validations"] = (stats["density"] / passes, "count")
    out["states.validate_s"] = (stats["validate_s"] / passes, "s")
    out["trace.self_sum_s"] = (sum(layer_self.values()) / passes, "s")
    return out
