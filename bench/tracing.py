"""Spans around the calls into each layer, recorded from outside the program.

The program imports its layer functions by name (`from .exactlp import
solve`), so replacing the name inside the importing module puts a wrapper
on exactly the calls that module makes:

* `solve` and `strict_feasible` as seen by `dominance`, `qcc` and
  `geometry` are the exact-LP layer;
* the stage functions and grid scans as seen by `cli` are the layers the
  pipelines call;
* `run_harness` and `analyze_problem` in `cli` are the top spans, one per
  call the benchmark makes.

A span is [name, start, end, parent, info]; spans stay in memory and are
written out when the run ends.  Self time is a span's duration minus the
durations of its direct children (children never overlap: one thread).

The same wrappers also keep the arguments and result of the stage calls a
tracer is asked to keep, which is how the corpus checks see the verdict
objects behind each harness record.
"""

from __future__ import annotations

import json
from contextlib import ExitStack, contextmanager
from time import perf_counter

LP_SITES = ("dominance", "qcc", "geometry")
LP_FUNCTIONS = ("solve", "strict_feasible")

# cli attribute -> span name
CLI_SITES = {
    "iterated_elimination": "dominance.elimination",
    "mixed_dominance_certificate": "dominance.audit",
    "check_qcc": "qcc",
    "check_argmax_convexity": "geometry.convexity",
    "check_nesting": "geometry.nesting",
    "relabel_for_lsc": "lsc",
    "check_lsc": "lsc",
    "find_grid_dip": "oracle.grid",
    "find_grid_gap": "oracle.grid",
}
TOP_SITES = {
    "run_harness": "cli.run_harness",
    "analyze_problem": "cli.analyze_problem",
}


@contextmanager
def patched(module, attr: str, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield original
    finally:
        setattr(module, attr, original)


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _lp_info(args, result):
    system = args[0]
    strict = system.has_strict_rows or system.interior_required
    values = list(result.witness.coordinates) if result.witness is not None else []
    if result.slack is not None:
        values.append(result.slack)
    return (
        len(system.rows), system.dimension, strict,
        result.witness is not None, max(map(_bits, values), default=0),
    )


_INFO = {
    "exactlp": _lp_info,
    "dominance.elimination": lambda args, result: args[0].num_actions,
    "qcc": lambda args, result: result.checked_triples,
    "oracle.grid": lambda args, result: args[1].count,
}


class Tracer:
    """Spans of the wrapped calls, and (name, args, result) of every call
    to a span named in `keep`, in call order."""

    def __init__(self, keep=()) -> None:
        self.spans: list[list] = []
        self.calls: list[tuple] = []
        self.keep = frozenset(keep)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        info = _INFO.get(name)
        keep = name in self.keep

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            if keep:
                calls.append((name, args, result))
            return result

        return traced

    @contextmanager
    def installed(self, qccheck_modules: dict, every_layer: bool = True):
        """Wrap every layer boundary for the duration of the block; with
        `every_layer` false, only the `cli` stage calls named in `keep`."""
        cli = qccheck_modules["cli"]
        if every_layer:
            sites = [(qccheck_modules[site], fn, "exactlp")
                     for site in LP_SITES for fn in LP_FUNCTIONS
                     if hasattr(qccheck_modules[site], fn)]
            sites += [(cli, attr, name) for attr, name in {**CLI_SITES, **TOP_SITES}.items()]
        else:
            sites = [(cli, attr, name) for attr, name in CLI_SITES.items() if name in self.keep]
        with ExitStack() as stack:
            for module, attr, name in sites:
                stack.enter_context(patched(module, attr, self.wrap(name, getattr(module, attr))))
            yield self

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, _ in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer figures per round of the workload."""
    duration = [end - start for _, start, end, _, _ in spans]
    children = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]] += duration[index]

    seconds: dict[str, float] = {}
    self_seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    lp_calls: dict[str, int] = {}
    for index, (name, _, _, parent, _) in enumerate(spans):
        seconds[name] = seconds.get(name, 0.0) + duration[index]
        self_seconds[name] = self_seconds.get(name, 0.0) + duration[index] - children[index]
        calls[name] = calls.get(name, 0) + 1
        if name == "exactlp":
            owner = spans[parent][0] if parent >= 0 else "none"
            lp_calls[owner] = lp_calls.get(owner, 0) + 1

    lp = [span[4] for span in spans if span[0] == "exactlp"]
    strict = [info for info in lp if info[2]]
    input_actions = sum(span[4] for span in spans if span[0] == "dominance.elimination")
    top = [name for name in seconds if name.startswith("cli.")]

    def per_round(value):
        return value / rounds

    n_lp = len(lp)
    return {
        "exactlp.calls": per_round(n_lp),
        "exactlp.s": per_round(seconds.get("exactlp", 0.0)),
        "exactlp.us_per_call": seconds.get("exactlp", 0.0) / n_lp * 1e6 if n_lp else 0.0,
        "exactlp.witness_bits_max": max((info[4] for info in lp), default=0),
        "exactlp.rows_mean": sum(info[0] for info in lp) / n_lp if n_lp else 0.0,
        "exactlp.dim_mean": sum(info[1] for info in lp) / n_lp if n_lp else 0.0,
        "exactlp.open_feasible_ratio": (
            sum(info[3] for info in strict) / len(strict) if strict else 0.0
        ),
        "dominance.elimination.s": per_round(seconds.get("dominance.elimination", 0.0)),
        "dominance.elimination.self_s": per_round(self_seconds.get("dominance.elimination", 0.0)),
        "dominance.elimination.lp_calls": per_round(lp_calls.get("dominance.elimination", 0)),
        "dominance.audit.s": per_round(seconds.get("dominance.audit", 0.0)),
        "dominance.audit.lp_calls": per_round(lp_calls.get("dominance.audit", 0)),
        "dominance.lp_calls_per_action": (
            lp_calls.get("dominance.elimination", 0) / input_actions if input_actions else 0.0
        ),
        "qcc.s": per_round(seconds.get("qcc", 0.0)),
        "qcc.lp_calls": per_round(lp_calls.get("qcc", 0)),
        "qcc.triples_checked": per_round(sum(s[4] for s in spans if s[0] == "qcc")),
        "geometry.convexity.s": per_round(seconds.get("geometry.convexity", 0.0)),
        "geometry.convexity.lp_calls": per_round(lp_calls.get("geometry.convexity", 0)),
        "geometry.nesting.s": per_round(seconds.get("geometry.nesting", 0.0)),
        "geometry.nesting.lp_calls": per_round(lp_calls.get("geometry.nesting", 0)),
        "lsc.s": per_round(seconds.get("lsc", 0.0)),
        "oracle.grid.s": per_round(seconds.get("oracle.grid", 0.0)),
        "oracle.grid.calls": per_round(calls.get("oracle.grid", 0)),
        "oracle.grid_points": per_round(sum(s[4] for s in spans if s[0] == "oracle.grid")),
        "cli.self_s": per_round(sum(self_seconds[name] for name in top)),
    }
