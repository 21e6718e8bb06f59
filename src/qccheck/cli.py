"""Command-line front end: problem file I/O, analysis commands, reports.

Problem files are JSON documents with `states` (labels), `actions`
(rationals as integers or strings like "7/2"), and a row-major `payoff`
matrix; polynomial files carry an `interval` and per-state ascending-power
`coefficients`.  Rationals are always serialized as strings, never floats,
so reports round-trip exactly.

Exit codes: 0 analysis completed (verdicts live inside the report),
1 malformed input, 2 violated internal invariant (accompanied by a
machine-readable diagnostic naming the invariant and the pipeline stage).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Iterator, Optional, Sequence

from .dominance import EliminationReport, iterated_elimination, mixed_dominance_certificate
from .errors import InternalInvariantError
from .geometry import ConvexityVerdict, NestingReport, check_argmax_convexity, check_nesting
from .lsc import check_lsc, relabel_for_lsc
from .oracle import GridSpec, SplitMix64, find_grid_dip, find_grid_gap, random_problem
from .problems import Belief, DecisionProblem, DifferenceVector, PolynomialProblem, as_fraction
from .qcc import QccVerdict, check_qcc

OUT_DIR_ENV = "QCCHECK_OUT_DIR"

# Largest belief grid `--grid` may ask for, in beliefs per problem.  A larger
# sweep would not finish in useful time, so it is refused before any work.
_MAX_GRID_BELIEFS = 10**6
# Largest action count, in triples C(m, 3), that the commands running
# elimination or the unimodality check accept; refused for the same reason.
_MAX_TRIPLES = 551_300
# Largest `verify-props --max-states`, and `--max-actions` x `--max-states`,
# refused at every `--grid` for the same reason: the audit's LPs grow with
# both, one instance taking 5.6-12.2 s at 600 cells and 27.8 s at 12 x 100.
_MAX_STATES = 100
_MAX_CELLS = 600
# Largest `discretize --grid-points` output, in payoff cells (points x
# states) and Horner steps (points x all coefficients), refused for the same
# reason; 3 quadratics at 333,333 points take 14.2 s.  A step costs more as
# the degree grows, since each one adds an action's bits to the exact value:
# 10,000 coefficients at 300 points are 3 x 10**6 steps but take 121 s.  So
# the work is bounded too, as points x the squared coefficient count of each
# state x the squared bits of an action's numerator and denominator: one
# state at this limit took 8.6-17.8 s, and 10,000 coefficients at 300 points
# over [0, 3/2] are 30 times it.
_MAX_PAYOFF_CELLS = 10**6
_MAX_HORNER_STEPS = 3 * 10**6
_MAX_HORNER_WORK = 4 * 10**11


class InputFileError(ValueError):
    """Malformed problem or polynomial file; maps to exit code 1."""


# ---------------------------------------------------------------------------
# Serialization: rationals as strings end to end.
# ---------------------------------------------------------------------------

def _rational_json(value: Fraction) -> str:
    """A rational as a report string.  Values computed from a large input,
    such as a belief or an expected payoff, can pass the digit limit of
    `str`; that is refused as an input error."""
    try:
        return str(value)
    except ValueError as exc:
        raise InputFileError(f"a report value cannot be written: {exc}") from exc


def _parse_rational(value: Any, where: str) -> Fraction:
    """Parse one rational, refusing an exponent past the integer digit limit,
    which `Fraction` would take too long to build, and what `str` cannot write."""
    if isinstance(value, (bool, float)):
        raise InputFileError(
            f"{where}: expected an integer or a rational string, got {value!r}"
        )
    try:
        exponent = value.lower().partition("e")[2] if isinstance(value, str) else ""
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if exponent and abs(int(exponent)) > limit:
            raise ValueError(f"exponent beyond the {limit}-digit limit")
        parsed = as_fraction(value)
        str(parsed)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputFileError(f"{where}: not a rational: {value!r} ({exc})") from exc
    return parsed


def _document(doc: Any, kind: str, required: tuple[str, ...]) -> tuple[str, ...]:
    """Check that a `kind` file is an object with every `required` field,
    and return its states."""
    if not isinstance(doc, dict):
        raise InputFileError(f"{kind} file must be a JSON object")
    for field in required:
        if field not in doc:
            raise InputFileError(f"{kind} file is missing the {field!r} field")
    states = doc["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise InputFileError("'states' must be a list of strings")
    return tuple(states)


def _rational_rows(rows: list, name: str) -> tuple[tuple[Fraction, ...], ...]:
    """Parse rows of rationals, naming a bad entry `name[i][j]`."""
    return tuple(
        tuple(_parse_rational(v, f"{name}[{i}][{j}]") for j, v in enumerate(row))
        for i, row in enumerate(rows)
    )


def problem_from_json(doc: Any) -> DecisionProblem:
    states = _document(doc, "problem", ("states", "actions", "payoff"))
    actions = doc["actions"]
    if not isinstance(actions, list):
        raise InputFileError("'actions' must be a list of rationals")
    payoff = doc["payoff"]
    if not isinstance(payoff, list) or not all(isinstance(row, list) for row in payoff):
        raise InputFileError("'payoff' must be a list of rows")
    parsed_actions = tuple(_parse_rational(a, f"actions[{i}]") for i, a in enumerate(actions))
    parsed_payoff = _rational_rows(payoff, "payoff")
    try:
        return DecisionProblem(parsed_actions, states, parsed_payoff)
    except ValueError as exc:
        raise InputFileError(str(exc)) from exc


def problem_to_json(problem: DecisionProblem) -> dict:
    return {
        "states": list(problem.states),
        "actions": [_rational_json(a) for a in problem.actions],
        "payoff": [[_rational_json(v) for v in row] for row in problem.payoff],
    }


def polynomial_from_json(doc: Any) -> PolynomialProblem:
    states = _document(doc, "polynomial", ("interval", "states", "coefficients"))
    interval = doc["interval"]
    if not isinstance(interval, list) or len(interval) != 2:
        raise InputFileError("'interval' must be a [lower, upper] pair")
    coefficients = doc["coefficients"]
    if not isinstance(coefficients, list) or not all(
        isinstance(poly, list) for poly in coefficients
    ):
        raise InputFileError("'coefficients' must be a list of coefficient lists")
    lo = _parse_rational(interval[0], "interval[0]")
    hi = _parse_rational(interval[1], "interval[1]")
    parsed = _rational_rows(coefficients, "coefficients")
    try:
        return PolynomialProblem((lo, hi), states, parsed)
    except ValueError as exc:
        raise InputFileError(str(exc)) from exc


def _json(value: Any) -> Any:
    """A verdict object as report JSON: a rational as its string, a belief
    or difference vector as its list, a dataclass as its fields in
    declaration order (so that order is the report's key order), a tuple or
    list as a list."""
    if isinstance(value, Fraction):
        return _rational_json(value)
    if isinstance(value, Belief):
        return _json(value.coordinates)
    if isinstance(value, DifferenceVector):
        return _json(value.entries)
    if is_dataclass(value):
        return {field.name: _json(getattr(value, field.name)) for field in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    return value


def problem_digest(problem: DecisionProblem) -> str:
    # Imported here: hashlib loads OpenSSL, and `verify-props` needs a digest
    # only on its exit-2 path.
    import hashlib

    canonical = json.dumps(problem_to_json(problem), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _input_json(problem: DecisionProblem) -> dict:
    return {"digest": problem_digest(problem), "problem": problem_to_json(problem)}


def _lsc_block(before: DecisionProblem, after: DecisionProblem) -> dict:
    """Both single-crossing modes, before and after the relabeling; an
    identity relabeling returns the problem itself, whose verdicts are
    the same."""
    verdicts = {mode: _json(check_lsc(before, mode)) for mode in ("relaxed", "literal")}
    if after is before:
        return {"before": verdicts, "after_relabel": verdicts}
    return {"before": verdicts, "after_relabel": {
        mode: _json(check_lsc(after, mode)) for mode in ("relaxed", "literal")}}


def _elimination_json(report: EliminationReport) -> dict:
    return {
        "surviving_indices": list(report.surviving_indices),
        "removed": [
            {
                "original_index": r.original_index,
                "reason": r.reason,
                "mixture": {str(j): _rational_json(w) for j, w in r.mixture},
            }
            for r in report.removed
        ],
        "surviving_problem": problem_to_json(report.surviving),
        "condition_38_witnesses": _json(report.witnesses),
    }


# ---------------------------------------------------------------------------
# Analysis pipelines.
# ---------------------------------------------------------------------------

@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Name the pipeline stage on an invariant violation raised in the block:
    audit, elimination, qcc, convexity, nesting, lsc or oracle."""
    try:
        yield
    except InternalInvariantError as exc:
        exc.stage = name
        raise


def _oracle_cross_check(
    problem: DecisionProblem,
    qcc_verdict: QccVerdict,
    convexity_verdict: ConvexityVerdict,
    denominator: int,
) -> tuple[Optional[tuple[Belief, tuple[int, int, int]]], ...]:
    """Grid sweep versus the solver verdicts: any grid witness to a failure
    the solver claims cannot exist is an internal inconsistency.  Returns
    the grid's first (dip, gap), each None when the grid has none; a gap is
    a dip, so the gap walk runs only after a dip."""
    spec = GridSpec(denominator, problem.num_states)
    dip = find_grid_dip(problem, spec)
    gap = None if dip is None else find_grid_gap(problem, spec)
    if dip is not None and qcc_verdict.holds:
        raise InternalInvariantError(
            "oracle-lp-consistency",
            f"grid dip at {dip[0].coordinates} but the solver reported "
            "whole-simplex unimodality",
        )
    if gap is not None and convexity_verdict.holds:
        raise InternalInvariantError(
            "oracle-lp-consistency",
            f"grid argmax gap at {gap[0].coordinates} but the solver reported "
            "convex optimal-action sets",
        )
    return dip, gap


def _run_stages(
    problem: DecisionProblem,
) -> tuple[EliminationReport, QccVerdict, ConvexityVerdict, NestingReport]:
    """Eliminate, then run the unimodality, convexity and nesting checks on
    the surviving problem, in that order, each under its stage name."""
    with _stage("elimination"):
        elimination = iterated_elimination(problem)
    surviving = elimination.surviving
    with _stage("qcc"):
        qcc_verdict = check_qcc(surviving)
    with _stage("convexity"):
        convexity_verdict = check_argmax_convexity(surviving, qcc_verdict)
    with _stage("nesting"):
        nesting = check_nesting(surviving)
    return elimination, qcc_verdict, convexity_verdict, nesting


def analyze_problem(problem: DecisionProblem, grid_denominator: int = 0) -> dict:
    """Full pipeline: eliminate, certify, then run every whole-simplex check
    on the surviving problem."""
    start = time.perf_counter()
    elimination, qcc_verdict, convexity_verdict, nesting = _run_stages(problem)
    surviving = elimination.surviving
    with _stage("lsc"):
        relabeling, relabeled = relabel_for_lsc(surviving)
        lsc = _lsc_block(surviving, relabeled)
    report = {
        "command": "analyze",
        "input": _input_json(problem),
        "elimination": _elimination_json(elimination),
        "qcc": _json(qcc_verdict),
        "convexity": _json(convexity_verdict),
        "equivalence_agreement": qcc_verdict.holds == convexity_verdict.holds,
        "nesting": _json(nesting),
        "relabeling": _json(relabeling),
        "lsc": lsc,
        "oracle": None,
    }
    if grid_denominator > 0:
        with _stage("oracle"):
            dip, gap = _oracle_cross_check(surviving, qcc_verdict, convexity_verdict,
                                           grid_denominator)
        report["oracle"] = {
            "grid_denominator": grid_denominator,
            "dip": None if dip is None else {"belief": _json(dip[0]), "triple": _json(dip[1])},
            "gap": None if gap is None else {"belief": _json(gap[0]), "triple": _json(gap[1])},
            "consistent": True,
        }
    report["timing"] = {"seconds": time.perf_counter() - start}
    return report


def harness_instances(seed: int, count: int, max_actions: int, max_states: int,
                      magnitude: int):
    """The harness's reproducible instance stream: yields
    (index, instance_seed, problem) with sizes drawn uniformly from
    1..max_actions and 1..max_states."""
    stream = SplitMix64(seed)
    for index in range(count):
        n_actions = stream.next_int(1, max_actions)
        n_states = stream.next_int(1, max_states)
        instance_seed = stream.next_uint64()
        yield index, instance_seed, random_problem(instance_seed, n_actions, n_states,
                                                   magnitude)


def run_harness(instances: int, max_actions: int, max_states: int, magnitude: int,
                seed: int, grid: int) -> dict:
    """Randomized validation harness over reproducible instances.

    Per instance: audit the dominance duality on every action, eliminate and
    certify, compare the unimodality and convexity verdicts, probe the
    halfspace nesting, relabel and re-check single crossing in both modes,
    and (optionally) sweep a belief grid for counterexamples the solver must
    also have found.  The report is deterministic byte-for-byte for a fixed
    configuration: it contains no timing and no floats.  A violated internal
    invariant is re-raised with the instance's index, seed and problem digest
    in front of its details, and with its stage kept.
    The summary's `duality_violations` and `witness_soundness_failures`
    therefore always read 0: such a violation ends the run with exit 2
    instead of being counted.  They stay to keep the report's bytes stable.
    """
    if instances < 1:
        raise InputFileError("need at least one instance")
    if max_actions < 1 or max_states < 1 or magnitude < 1:
        raise InputFileError("max-actions, max-states, and magnitude must be >= 1")
    records = []
    for index, instance_seed, problem in harness_instances(
        seed, instances, max_actions, max_states, magnitude
    ):
        try:
            record = _harness_record(problem, grid)
        except InternalInvariantError as exc:
            located = InternalInvariantError(
                exc.invariant,
                f"instance {index} (seed {instance_seed}, problem digest "
                f"{problem_digest(problem)}): {exc.details}",
            )
            located.stage = exc.stage
            raise located from exc
        records.append({"index": index, "seed": instance_seed, **record})

    qcc_holding = [r for r in records if r["qcc_holds"]]
    summary = {
        "instances": instances,
        "prop1_agreements": sum(r["prop1_agreement"] for r in records),
        "prop1_disagreements": sum(not r["prop1_agreement"] for r in records),
        "qcc_holding": len(qcc_holding),
        "prop3_relaxed_successes": sum(r["lsc_after_relabel_relaxed"] for r in qcc_holding),
        "prop3_relaxed_failures": sum(not r["lsc_after_relabel_relaxed"] for r in qcc_holding),
        "lsc_literal_divergences": sum(
            r["lsc_after_relabel_relaxed"] and not r["lsc_after_relabel_literal"]
            for r in qcc_holding
        ),
        "nesting_failures": sum(not r["nesting_ok"] for r in qcc_holding),
        "forward_contiguity_violations": sum(
            r.get("grid_gap_found", False) for r in qcc_holding
        ),
        "relabel_idempotence_failures": sum(not r["relabel_idempotent"] for r in records),
        "duality_violations": 0,
        "witness_soundness_failures": 0,
    }
    return {
        "command": "verify-props",
        "config": dict(instances=instances, max_actions=max_actions, max_states=max_states,
                       magnitude=magnitude, seed=seed, grid=grid),
        "instances": records,
        "summary": summary,
    }


def _harness_record(problem: DecisionProblem, grid: int) -> dict:
    """Check one harness instance and return its record."""
    # Exactly one of witness/certificate per action; violations raise.
    if problem.num_actions >= 2:
        with _stage("audit"):
            for action in range(problem.num_actions):
                mixed_dominance_certificate(problem, action)

    elimination, qcc_verdict, convexity_verdict, nesting = _run_stages(problem)
    surviving = elimination.surviving
    with _stage("lsc"):
        relabeling, relabeled = relabel_for_lsc(surviving)
        relaxed = check_lsc(relabeled, "relaxed")
        literal = check_lsc(relabeled, "literal")
        # an identity relabel returns the survivors themselves, and
        # relabeling them again is the same identity
        idempotent = relabeled is surviving or (
            relabel_for_lsc(relabeled)[0].permutation == tuple(range(relabeled.num_states)))

    record = {
        "actions": problem.num_actions,
        "states": problem.num_states,
        "eliminated": len(elimination.removed),
        "surviving": surviving.num_actions,
        "qcc_holds": qcc_verdict.holds,
        "convexity_holds": convexity_verdict.holds,
        "prop1_agreement": qcc_verdict.holds == convexity_verdict.holds,
        "nesting_ok": nesting.chain_holds and nesting.region_identification_holds,
        "lsc_after_relabel_relaxed": relaxed.holds,
        "lsc_after_relabel_literal": literal.holds,
        "relabel_idempotent": idempotent,
    }

    if grid > 0:
        with _stage("oracle"):
            dip, gap = _oracle_cross_check(surviving, qcc_verdict, convexity_verdict, grid)
        record["grid_dip_found"] = dip is not None
        record["grid_gap_found"] = gap is not None
    return record


# ---------------------------------------------------------------------------
# Command plumbing.
# ---------------------------------------------------------------------------

def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # past the digit or recursion limit
        raise InputFileError(f"{path}: unreadable JSON: {exc}") from exc


def _out_path(out: str) -> str:
    """Where `--out` writes: a relative path goes under `$QCCHECK_OUT_DIR`
    when that is set."""
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not os.path.isabs(out):
        return os.path.join(out_dir, out)
    return out


def _check_out(out: Optional[str]) -> None:
    """Refuse an `--out` that names a directory, or whose directory is
    missing or not writable, before any work."""
    if out is None:
        return
    path = _out_path(out)
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise InputFileError(f"cannot write {path}: no directory {directory}")
    if not os.access(directory, os.W_OK):
        raise InputFileError(f"cannot write {path}: directory {directory} is not writable")
    if os.path.isdir(path):
        raise InputFileError(f"cannot write {path}: it is a directory")


def _write_report(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2)
    if out is None:
        print(text)
        return
    out = _out_path(out)
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise InputFileError(f"cannot write {out}: {exc}") from exc


def _check_size(what: str, count: int, unit: str, limit: int) -> None:
    """Refuse work of more than `limit` units, before any of it starts."""
    if count > limit:
        raise InputFileError(f"{what} is {count} {unit}; the limit is {limit}")


def _check_grid(denominator: int, states: int) -> None:
    """Refuse a `--grid` that is negative or exceeds `_MAX_GRID_BELIEFS`
    beliefs over `states` states."""
    if denominator < 0:
        raise InputFileError(f"--grid must be 0 (off) or positive, got {denominator}")
    if denominator and states > 0:
        count = GridSpec(denominator, states).count
        _check_size(f"--grid {denominator} over {states} states", count, "beliefs",
                    _MAX_GRID_BELIEFS)


def _check_actions(what: str, actions: int) -> None:
    """Refuse an action count with more than `_MAX_TRIPLES` triples C(m, 3)."""
    _check_size(f"{what} {actions} actions", math.comb(max(actions, 0), 3), "triples",
                _MAX_TRIPLES)


def _read_problem(path: str, budgeted: bool = True) -> DecisionProblem:
    """Read a problem file; when `budgeted`, refuse one with more than
    `_MAX_TRIPLES` action triples."""
    problem = problem_from_json(_load_json(path))
    if budgeted:
        _check_actions(f"{path} with", problem.num_actions)
    return problem


# Each command's handler takes the parsed arguments and returns the report.

def _analyze(args: argparse.Namespace) -> dict:
    problem = _read_problem(args.file)
    _check_grid(args.grid, problem.num_states)
    return analyze_problem(problem, args.grid)


def _one_stage(command: str, budgeted: bool, sections, args: argparse.Namespace) -> dict:
    problem = _read_problem(args.file, budgeted)
    start = time.perf_counter()
    report = {"command": command, "input": _input_json(problem), **sections(problem)}
    report["timing"] = {"seconds": time.perf_counter() - start}
    return report


def _discretize(args: argparse.Namespace) -> dict:
    poly = polynomial_from_json(_load_json(args.polyfile))
    if args.grid_points < 2:
        raise InputFileError("--grid-points must be at least 2")
    what = f"--grid-points {args.grid_points} over {len(poly.states)} states"
    _check_size(what, args.grid_points * len(poly.states), "payoff cells", _MAX_PAYOFF_CELLS)
    steps = args.grid_points * sum(map(len, poly.coefficients))
    _check_size(what, steps, "Horner steps", _MAX_HORNER_STEPS)
    lo, hi = poly.interval
    denominator = (args.grid_points - 1) * lo.denominator * hi.denominator
    bits = denominator.bit_length() + (max(-lo, hi) * denominator).numerator.bit_length()
    work = args.grid_points * sum(len(c) ** 2 for c in poly.coefficients) * bits ** 2
    _check_size(what, work, "units of Horner work", _MAX_HORNER_WORK)
    return problem_to_json(poly.discretize(args.grid_points))


def _verify_props(args: argparse.Namespace) -> dict:
    _check_size("--max-states", args.max_states, "states", _MAX_STATES)
    _check_grid(args.grid, args.max_states)
    _check_actions("--max-actions", args.max_actions)
    _check_size(f"--max-actions {args.max_actions} x --max-states {args.max_states}",
                args.max_actions * args.max_states, "cells", _MAX_CELLS)
    return run_harness(instances=args.instances, max_actions=args.max_actions,
                       max_states=args.max_states, magnitude=args.magnitude,
                       seed=args.seed, grid=args.grid)


def _relabel_sections(problem: DecisionProblem) -> dict:
    relabeling, relabeled = relabel_for_lsc(problem)
    return {
        "relabeling": _json(relabeling),
        "relabeled_problem": problem_to_json(relabeled),
        "lsc": _lsc_block(problem, relabeled),
    }


# Commands that run one stage on one problem file, without elimination:
# name -> (help, whether the triple budget applies, report sections built
# from the problem).
_PROBLEM_COMMANDS = {
    "check-qcc": ("whole-simplex unimodality only", True,
                  lambda problem: {"qcc": _json(check_qcc(problem))}),
    "check-convexity": ("optimal-action convexity only", True, lambda problem: {
        "convexity": _json(check_argmax_convexity(problem, check_qcc(problem)))}),
    "eliminate": ("iterated weak-dominance elimination", True, lambda problem: {
        "elimination": _elimination_json(iterated_elimination(problem))}),
    "relabel": ("state relabeling and single-crossing checks", False, _relabel_sections),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not 2
        raise InputFileError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qccheck",
        description="Exact verification of unimodality, dominance, and "
        "single-crossing structure in finite decision problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline on a problem file")
    p.add_argument("file")
    p.add_argument("--grid", type=int, default=0, metavar="D",
                   help="cross-check against the belief grid with denominator D")
    p.set_defaults(handler=_analyze)

    for name, (help_text, budgeted, sections) in _PROBLEM_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        p.set_defaults(handler=partial(_one_stage, name, budgeted, sections))

    p = sub.add_parser("discretize", help="grid a polynomial problem into a problem file")
    p.add_argument("polyfile")
    p.add_argument("--grid-points", type=int, required=True, metavar="M")
    p.set_defaults(handler=_discretize)

    p = sub.add_parser("verify-props", help="randomized theorem-validation harness")
    p.add_argument("--instances", type=int, required=True, metavar="N")
    p.add_argument("--max-actions", type=int, default=6, metavar="K")
    p.add_argument("--max-states", type=int, default=4, metavar="S")
    p.add_argument("--magnitude", type=int, default=10, metavar="M")
    p.add_argument("--seed", type=int, default=0, metavar="s")
    p.add_argument("--grid", type=int, default=0, metavar="D")
    p.set_defaults(handler=_verify_props)

    for p in sub.choices.values():
        p.add_argument("--out", help="write the report here instead of stdout")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_out(args.out)
        _write_report(args.handler(args), args.out)
    except InputFileError as exc:
        print(f"qccheck: input error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        diagnostic = {"error": "internal-invariant-violation", "invariant": exc.invariant,
                      "stage": exc.stage, "details": exc.details}
        print(json.dumps(diagnostic, indent=2))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
