"""Command-line front end: problem file I/O, analysis commands, reports.

Problem files are JSON documents with `states` (labels), `actions`
(rationals as integers or strings like "7/2"), and a row-major `payoff`
matrix; polynomial files carry an `interval` and per-state ascending-power
`coefficients`.  Rationals are always serialized as strings, never floats,
so reports round-trip exactly.

Exit codes: 0 analysis completed (verdicts live inside the report),
1 malformed input, 2 violated internal invariant (accompanied by a
machine-readable diagnostic naming the invariant).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from typing import Any, Optional, Sequence

from .dominance import (
    EliminationReport,
    iterated_elimination,
    mixed_dominance_certificate,
)
from .errors import InternalInvariantError
from .geometry import ConvexityVerdict, NestingReport, check_argmax_convexity, check_nesting
from .lsc import LscVerdict, Relabeling, check_lsc, relabel_for_lsc
from .oracle import GridSpec, SplitMix64, find_grid_dip, find_grid_gap, random_problem
from .problems import Belief, DecisionProblem, PolynomialProblem, as_fraction
from .qcc import QccVerdict, check_qcc, unimodality_profile

OUT_DIR_ENV = "QCCHECK_OUT_DIR"

# Largest belief grid `--grid` may ask for, in beliefs per problem.  A larger
# sweep would not finish in useful time, so it is refused before any work.
_MAX_GRID_BELIEFS = 10**6


class InputFileError(ValueError):
    """Malformed problem or polynomial file; maps to exit code 1."""


# ---------------------------------------------------------------------------
# Serialization: rationals as strings end to end.
# ---------------------------------------------------------------------------

def _parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputFileError(
            f"{where}: expected an integer or a rational string, got {value!r}"
        )
    try:
        return as_fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputFileError(f"{where}: not a rational: {value!r} ({exc})") from exc


def problem_from_json(doc: Any) -> DecisionProblem:
    if not isinstance(doc, dict):
        raise InputFileError("problem file must be a JSON object")
    for field in ("states", "actions", "payoff"):
        if field not in doc:
            raise InputFileError(f"problem file is missing the {field!r} field")
    states = doc["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise InputFileError("'states' must be a list of strings")
    actions = doc["actions"]
    if not isinstance(actions, list):
        raise InputFileError("'actions' must be a list of rationals")
    payoff = doc["payoff"]
    if not isinstance(payoff, list) or not all(isinstance(row, list) for row in payoff):
        raise InputFileError("'payoff' must be a list of rows")
    parsed_actions = tuple(
        _parse_rational(a, f"actions[{i}]") for i, a in enumerate(actions)
    )
    parsed_payoff = tuple(
        tuple(
            _parse_rational(v, f"payoff[{i}][{j}]") for j, v in enumerate(row)
        )
        for i, row in enumerate(payoff)
    )
    try:
        return DecisionProblem(parsed_actions, tuple(states), parsed_payoff)
    except ValueError as exc:
        raise InputFileError(str(exc)) from exc


def problem_to_json(problem: DecisionProblem) -> dict:
    return {
        "states": list(problem.states),
        "actions": [str(a) for a in problem.actions],
        "payoff": [[str(v) for v in row] for row in problem.payoff],
    }


def polynomial_from_json(doc: Any) -> PolynomialProblem:
    if not isinstance(doc, dict):
        raise InputFileError("polynomial file must be a JSON object")
    for field in ("interval", "states", "coefficients"):
        if field not in doc:
            raise InputFileError(f"polynomial file is missing the {field!r} field")
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
    parsed = tuple(
        tuple(
            _parse_rational(c, f"coefficients[{j}][{d}]") for d, c in enumerate(poly)
        )
        for j, poly in enumerate(coefficients)
    )
    try:
        return PolynomialProblem((lo, hi), tuple(doc["states"]), parsed)
    except ValueError as exc:
        raise InputFileError(str(exc)) from exc


def _belief_json(belief: Belief) -> list[str]:
    return [str(c) for c in belief.coordinates]


def problem_digest(problem: DecisionProblem) -> str:
    canonical = json.dumps(problem_to_json(problem), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _qcc_json(verdict: QccVerdict) -> dict:
    counterexample = None
    if verdict.counterexample is not None:
        ce = verdict.counterexample
        counterexample = {
            "belief": _belief_json(ce.belief),
            "triple": list(ce.triple),
            "values": [str(v) for v in ce.values],
        }
    return {
        "holds": verdict.holds,
        "checked_triples": verdict.checked_triples,
        "counterexample": counterexample,
    }


def _convexity_json(verdict: ConvexityVerdict) -> dict:
    counterexample = None
    if verdict.counterexample is not None:
        ce = verdict.counterexample
        counterexample = {"belief": _belief_json(ce.belief), "triple": list(ce.triple)}
    return {"holds": verdict.holds, "counterexample": counterexample}


def _nesting_json(report: NestingReport) -> dict:
    return {
        "chain_holds": report.chain_holds,
        "chain_failures": [
            {"index": f.index, "belief": _belief_json(f.belief)}
            for f in report.chain_failures
        ],
        "region_identification_holds": report.region_identification_holds,
        "region_failures": [
            {"index": f.index, "other": f.other, "belief": _belief_json(f.belief)}
            for f in report.region_failures
        ],
    }


def _lsc_json(verdict: LscVerdict) -> dict:
    vector = None
    if verdict.failing_vector is not None:
        vector = [str(v) for v in verdict.failing_vector.entries]
    return {
        "holds": verdict.holds,
        "mode": verdict.mode,
        "failing_action": verdict.failing_action,
        "failing_vector": vector,
    }


def _relabeling_json(relabeling: Relabeling) -> dict:
    return {
        "permutation": list(relabeling.permutation),
        "sort_keys": [str(k) for k in relabeling.sort_keys],
    }


def _elimination_json(report: EliminationReport) -> dict:
    return {
        "surviving_indices": list(report.surviving_indices),
        "removed": [
            {
                "original_index": r.original_index,
                "reason": r.reason,
                "mixture": {str(j): str(w) for j, w in r.mixture},
            }
            for r in report.removed
        ],
        "surviving_problem": problem_to_json(report.surviving),
        "condition_38_witnesses": [_belief_json(w) for w in report.witnesses],
    }


# ---------------------------------------------------------------------------
# Analysis pipelines.
# ---------------------------------------------------------------------------

def _oracle_cross_check(
    problem: DecisionProblem,
    qcc_verdict: QccVerdict,
    convexity_verdict: ConvexityVerdict,
    denominator: int,
) -> dict:
    """Grid sweep versus the solver verdicts: any grid witness to a failure
    the solver claims cannot exist is an internal inconsistency."""
    spec = GridSpec(denominator, problem.num_states)
    dip = find_grid_dip(problem, spec)
    gap = find_grid_gap(problem, spec)
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
    if qcc_verdict.counterexample is not None:
        _, unimodal = unimodality_profile(problem, qcc_verdict.counterexample.belief)
        if unimodal:
            raise InternalInvariantError(
                "oracle-lp-consistency", "solver dip witness is unimodal pointwise"
            )
    return {
        "grid_denominator": denominator,
        "dip": None
        if dip is None
        else {"belief": _belief_json(dip[0]), "triple": list(dip[1])},
        "gap": None
        if gap is None
        else {"belief": _belief_json(gap[0]), "triple": list(gap[1])},
        "consistent": True,
    }


def analyze_problem(problem: DecisionProblem, grid_denominator: int = 0) -> dict:
    """Full pipeline: eliminate, certify, then run every whole-simplex check
    on the surviving problem."""
    start = time.perf_counter()
    elimination = iterated_elimination(problem)
    surviving = elimination.surviving
    qcc_verdict = check_qcc(surviving)
    convexity_verdict = check_argmax_convexity(surviving)
    nesting = check_nesting(surviving)
    relabeling, relabeled = relabel_for_lsc(surviving)
    report = {
        "command": "analyze",
        "input": {"digest": problem_digest(problem), "problem": problem_to_json(problem)},
        "elimination": _elimination_json(elimination),
        "qcc": _qcc_json(qcc_verdict),
        "convexity": _convexity_json(convexity_verdict),
        "equivalence_agreement": qcc_verdict.holds == convexity_verdict.holds,
        "nesting": _nesting_json(nesting),
        "relabeling": _relabeling_json(relabeling),
        "lsc": {
            "before": {
                "relaxed": _lsc_json(check_lsc(surviving, "relaxed")),
                "literal": _lsc_json(check_lsc(surviving, "literal")),
            },
            "after_relabel": {
                "relaxed": _lsc_json(check_lsc(relabeled, "relaxed")),
                "literal": _lsc_json(check_lsc(relabeled, "literal")),
            },
        },
        "oracle": None,
    }
    if grid_denominator > 0:
        report["oracle"] = _oracle_cross_check(
            surviving, qcc_verdict, convexity_verdict, grid_denominator
        )
    report["timing"] = {"seconds": time.perf_counter() - start}
    return report


def harness_instances(
    seed: int, count: int, max_actions: int, max_states: int, magnitude: int
):
    """The harness's reproducible instance stream: yields
    (index, instance_seed, problem) with sizes drawn uniformly from
    1..max_actions and 1..max_states."""
    stream = SplitMix64(seed)
    for index in range(count):
        n_actions = stream.next_int(1, max_actions)
        n_states = stream.next_int(1, max_states)
        instance_seed = stream.next_uint64()
        yield index, instance_seed, random_problem(
            instance_seed, n_actions, n_states, magnitude
        )


def run_harness(
    instances: int,
    max_actions: int,
    max_states: int,
    magnitude: int,
    seed: int,
    grid: int,
) -> dict:
    """Randomized validation harness over reproducible instances.

    Per instance: audit the dominance duality on every action, eliminate and
    certify, compare the unimodality and convexity verdicts, probe the
    halfspace nesting, relabel and re-check single crossing in both modes,
    and (optionally) sweep a belief grid for counterexamples the solver must
    also have found.  The report is deterministic byte-for-byte for a fixed
    configuration: it contains no timing and no floats.
    """
    if instances < 1:
        raise InputFileError("need at least one instance")
    if max_actions < 1 or max_states < 1 or magnitude < 1:
        raise InputFileError("max-actions, max-states, and magnitude must be >= 1")
    records = []
    summary = {
        "instances": instances,
        "prop1_agreements": 0,
        "prop1_disagreements": 0,
        "qcc_holding": 0,
        "prop3_relaxed_successes": 0,
        "prop3_relaxed_failures": 0,
        "lsc_literal_divergences": 0,
        "nesting_failures": 0,
        "forward_contiguity_violations": 0,
        "relabel_idempotence_failures": 0,
        "duality_violations": 0,
        "witness_soundness_failures": 0,
    }
    for index, instance_seed, problem in harness_instances(
        seed, instances, max_actions, max_states, magnitude
    ):
        n_actions, n_states = problem.num_actions, problem.num_states

        # Exactly one of witness/certificate per action; violations raise.
        if problem.num_actions >= 2:
            for action in range(problem.num_actions):
                mixed_dominance_certificate(problem, action)

        elimination = iterated_elimination(problem)
        surviving = elimination.surviving
        qcc_verdict = check_qcc(surviving)
        convexity_verdict = check_argmax_convexity(surviving)
        agreement = qcc_verdict.holds == convexity_verdict.holds
        nesting = check_nesting(surviving)
        nesting_ok = nesting.chain_holds and nesting.region_identification_holds
        relabeling, relabeled = relabel_for_lsc(surviving)
        relaxed = check_lsc(relabeled, "relaxed")
        literal = check_lsc(relabeled, "literal")
        again, _ = relabel_for_lsc(relabeled)
        idempotent = again.permutation == tuple(range(relabeled.num_states))

        record = {
            "index": index,
            "seed": instance_seed,
            "actions": n_actions,
            "states": n_states,
            "eliminated": len(elimination.removed),
            "surviving": surviving.num_actions,
            "qcc_holds": qcc_verdict.holds,
            "convexity_holds": convexity_verdict.holds,
            "prop1_agreement": agreement,
            "nesting_ok": nesting_ok,
            "lsc_after_relabel_relaxed": relaxed.holds,
            "lsc_after_relabel_literal": literal.holds,
            "relabel_idempotent": idempotent,
        }

        summary["prop1_agreements" if agreement else "prop1_disagreements"] += 1
        if not idempotent:
            summary["relabel_idempotence_failures"] += 1
        if qcc_verdict.holds:
            summary["qcc_holding"] += 1
            if relaxed.holds:
                summary["prop3_relaxed_successes"] += 1
            else:
                summary["prop3_relaxed_failures"] += 1
            if relaxed.holds and not literal.holds:
                summary["lsc_literal_divergences"] += 1
            if not nesting_ok:
                summary["nesting_failures"] += 1

        if grid > 0:
            spec = GridSpec(grid, surviving.num_states)
            dip = find_grid_dip(surviving, spec)
            gap = find_grid_gap(surviving, spec)
            if dip is not None and qcc_verdict.holds:
                raise InternalInvariantError(
                    "oracle-lp-consistency",
                    f"instance {index}: grid dip contradicts the unimodality verdict",
                )
            if gap is not None and convexity_verdict.holds:
                raise InternalInvariantError(
                    "oracle-lp-consistency",
                    f"instance {index}: grid gap contradicts the convexity verdict",
                )
            forward_violation = qcc_verdict.holds and gap is not None
            record["grid_dip_found"] = dip is not None
            record["grid_gap_found"] = gap is not None
            if forward_violation:
                summary["forward_contiguity_violations"] += 1

        records.append(record)

    return {
        "command": "verify-props",
        "config": {
            "instances": instances,
            "max_actions": max_actions,
            "max_states": max_states,
            "magnitude": magnitude,
            "seed": seed,
            "grid": grid,
        },
        "instances": records,
        "summary": summary,
    }


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


def _load_problem(path: str) -> DecisionProblem:
    return problem_from_json(_load_json(path))


def _write_report(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2)
    if out is None:
        print(text)
        return
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not os.path.isabs(out):
        out = os.path.join(out_dir, out)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


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

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("analyze", help="full pipeline on a problem file")
    p.add_argument("file")
    p.add_argument("--grid", type=int, default=0, metavar="D",
                   help="cross-check against the belief grid with denominator D")
    add_out(p)

    p = sub.add_parser("check-qcc", help="whole-simplex unimodality only")
    p.add_argument("file")
    add_out(p)

    p = sub.add_parser("check-convexity", help="optimal-action convexity only")
    p.add_argument("file")
    add_out(p)

    p = sub.add_parser("eliminate", help="iterated weak-dominance elimination")
    p.add_argument("file")
    add_out(p)

    p = sub.add_parser("relabel", help="state relabeling and single-crossing checks")
    p.add_argument("file")
    add_out(p)

    p = sub.add_parser("discretize", help="grid a polynomial problem into a problem file")
    p.add_argument("polyfile")
    p.add_argument("--grid-points", type=int, required=True, metavar="M")
    add_out(p)

    p = sub.add_parser("verify-props", help="randomized theorem-validation harness")
    p.add_argument("--instances", type=int, required=True, metavar="N")
    p.add_argument("--max-actions", type=int, default=6, metavar="K")
    p.add_argument("--max-states", type=int, default=4, metavar="S")
    p.add_argument("--magnitude", type=int, default=10, metavar="M")
    p.add_argument("--seed", type=int, default=0, metavar="s")
    p.add_argument("--grid", type=int, default=0, metavar="D")
    add_out(p)

    return parser


def _check_grid(denominator: int, states: int) -> None:
    """Refuse a `--grid` that is negative or exceeds `_MAX_GRID_BELIEFS`
    beliefs over `states` states."""
    if denominator < 0:
        raise InputFileError(f"--grid must be 0 (off) or positive, got {denominator}")
    if denominator and states > 0:
        count = GridSpec(denominator, states).count
        if count > _MAX_GRID_BELIEFS:
            raise InputFileError(
                f"--grid {denominator} over {states} states is {count} beliefs; "
                f"the limit is {_MAX_GRID_BELIEFS}"
            )


def _timed(builder) -> dict:
    start = time.perf_counter()
    doc = builder()
    doc["timing"] = {"seconds": time.perf_counter() - start}
    return doc


def _dispatch(args: argparse.Namespace) -> dict:
    if args.command == "analyze":
        problem = _load_problem(args.file)
        _check_grid(args.grid, problem.num_states)
        return analyze_problem(problem, args.grid)
    if args.command == "check-qcc":
        problem = _load_problem(args.file)

        def build() -> dict:
            return {
                "command": "check-qcc",
                "input": {"digest": problem_digest(problem),
                          "problem": problem_to_json(problem)},
                "qcc": _qcc_json(check_qcc(problem)),
            }

        return _timed(build)
    if args.command == "check-convexity":
        problem = _load_problem(args.file)

        def build() -> dict:
            return {
                "command": "check-convexity",
                "input": {"digest": problem_digest(problem),
                          "problem": problem_to_json(problem)},
                "convexity": _convexity_json(check_argmax_convexity(problem)),
            }

        return _timed(build)
    if args.command == "eliminate":
        problem = _load_problem(args.file)

        def build() -> dict:
            return {
                "command": "eliminate",
                "input": {"digest": problem_digest(problem),
                          "problem": problem_to_json(problem)},
                "elimination": _elimination_json(iterated_elimination(problem)),
            }

        return _timed(build)
    if args.command == "relabel":
        problem = _load_problem(args.file)

        def build() -> dict:
            relabeling, relabeled = relabel_for_lsc(problem)
            return {
                "command": "relabel",
                "input": {"digest": problem_digest(problem),
                          "problem": problem_to_json(problem)},
                "relabeling": _relabeling_json(relabeling),
                "relabeled_problem": problem_to_json(relabeled),
                "lsc": {
                    "before": {
                        "relaxed": _lsc_json(check_lsc(problem, "relaxed")),
                        "literal": _lsc_json(check_lsc(problem, "literal")),
                    },
                    "after_relabel": {
                        "relaxed": _lsc_json(check_lsc(relabeled, "relaxed")),
                        "literal": _lsc_json(check_lsc(relabeled, "literal")),
                    },
                },
            }

        return _timed(build)
    if args.command == "discretize":
        poly = polynomial_from_json(_load_json(args.polyfile))
        if args.grid_points < 2:
            raise InputFileError("--grid-points must be at least 2")
        return problem_to_json(poly.discretize(args.grid_points))
    if args.command == "verify-props":
        _check_grid(args.grid, args.max_states)
        return run_harness(
            instances=args.instances,
            max_actions=args.max_actions,
            max_states=args.max_states,
            magnitude=args.magnitude,
            seed=args.seed,
            grid=args.grid,
        )
    raise InputFileError(f"unknown command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = _dispatch(args)
    except InputFileError as exc:
        print(f"qccheck: input error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        diagnostic = {
            "error": "internal-invariant-violation",
            "invariant": exc.invariant,
            "details": exc.details,
        }
        print(json.dumps(diagnostic, indent=2))
        return 2
    _write_report(report, getattr(args, "out", None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
