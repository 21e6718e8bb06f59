"""Correctness checks written apart from the program.

Every check recomputes its claim in `Fraction` from the input payoffs (parsed
here from the input text, not through the program), and returns a list of
failure messages instead of raising, so one bad verdict counts as one failed
operation and the run goes on.

An `Outcome` is one problem's verdicts in plain Python values, built either
from an `analyze` report (ladder, wide) or from the objects the corpus
harness produced (captured at the calls into each layer).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

Payoff = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def parse_payoff(text: str) -> Payoff:
    return tuple(tuple(Fraction(v) for v in row) for row in json.loads(text)["payoff"])


@dataclass
class Outcome:
    payoff: Payoff
    surviving: tuple[int, ...]
    removed: list[tuple[int, str, dict[int, Fraction]]]
    witnesses: list[Vector]
    qcc_holds: bool
    qcc_triple: Optional[tuple[int, int, int]] = None
    qcc_belief: Optional[Vector] = None
    qcc_values: Optional[Vector] = None
    convexity_holds: bool = True
    convexity_triple: Optional[tuple[int, int, int]] = None
    convexity_belief: Optional[Vector] = None
    chain_failures: list[tuple[int, Vector]] = field(default_factory=list)
    region_failures: list[tuple[int, int, Vector]] = field(default_factory=list)


def _vec(strings) -> Vector:
    return tuple(Fraction(s) for s in strings)


def outcome_from_report(payoff: Payoff, report: dict) -> Outcome:
    """Read the verdicts of one `analyze` report."""
    elim = report["elimination"]
    qcc = report["qcc"]
    conv = report["convexity"]
    nest = report["nesting"]
    out = Outcome(
        payoff=payoff,
        surviving=tuple(elim["surviving_indices"]),
        removed=[
            (r["original_index"], r["reason"],
             {int(j): Fraction(w) for j, w in r["mixture"].items()})
            for r in elim["removed"]
        ],
        witnesses=[_vec(w) for w in elim["condition_38_witnesses"]],
        qcc_holds=qcc["holds"],
        convexity_holds=conv["holds"],
        chain_failures=[(f["index"], _vec(f["belief"])) for f in nest["chain_failures"]],
        region_failures=[
            (f["index"], f["other"], _vec(f["belief"])) for f in nest["region_failures"]
        ],
    )
    if qcc["counterexample"] is not None:
        ce = qcc["counterexample"]
        out.qcc_triple = tuple(ce["triple"])
        out.qcc_belief = _vec(ce["belief"])
        out.qcc_values = _vec(ce["values"])
    if conv["counterexample"] is not None:
        ce = conv["counterexample"]
        out.convexity_triple = tuple(ce["triple"])
        out.convexity_belief = _vec(ce["belief"])
    return out


def outcome_from_objects(payoff: Payoff, elimination, qcc, convexity, nesting) -> Outcome:
    """Read the verdict objects one corpus instance produced."""
    out = Outcome(
        payoff=payoff,
        surviving=tuple(elimination.surviving_indices),
        removed=[(r.original_index, r.reason, dict(r.mixture)) for r in elimination.removed],
        witnesses=[tuple(w.coordinates) for w in elimination.witnesses],
        qcc_holds=qcc.holds,
        convexity_holds=convexity.holds,
        chain_failures=[(f.index, tuple(f.belief.coordinates)) for f in nesting.chain_failures],
        region_failures=[
            (f.index, f.other, tuple(f.belief.coordinates)) for f in nesting.region_failures
        ],
    )
    if qcc.counterexample is not None:
        ce = qcc.counterexample
        out.qcc_triple = tuple(ce.triple)
        out.qcc_belief = tuple(ce.belief.coordinates)
        out.qcc_values = tuple(ce.values)
    if convexity.counterexample is not None:
        ce = convexity.counterexample
        out.convexity_triple = tuple(ce.triple)
        out.convexity_belief = tuple(ce.belief.coordinates)
    return out


def _dot(row: Vector, belief: Vector) -> Fraction:
    return sum((u * p for u, p in zip(row, belief)), Fraction(0))


def _diff(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def _is_belief(belief: Vector, states: int) -> bool:
    return len(belief) == states and all(p >= 0 for p in belief) and sum(belief) == 1


def _unimodal(values) -> bool:
    fallen = False
    for prev, cur in zip(values, values[1:]):
        if cur > prev and fallen:
            return False
        if cur < prev:
            fallen = True
    return True


def dominates(payoff: Payoff, target: int, weights: dict[int, Fraction]) -> bool:
    """The mixture is a probability vector over other actions that matches
    or beats the target in every state."""
    if target in weights or sum(weights.values()) != 1 or any(w < 0 for w in weights.values()):
        return False
    return all(
        sum((w * payoff[j][s] for j, w in weights.items()), Fraction(0)) >= payoff[target][s]
        for s in range(len(payoff[target]))
    )


def check_outcome(o: Outcome) -> list[str]:
    """Certificates and counterexamples of one problem, by substitution."""
    errors = []
    n, states = len(o.payoff), len(o.payoff[0])
    removed_ids = [r[0] for r in o.removed]
    if sorted(o.surviving + tuple(removed_ids)) != list(range(n)) or list(o.surviving) != sorted(o.surviving):
        errors.append(f"survivors {o.surviving} and removals {removed_ids} do not partition {n} actions")
        return errors

    for index, reason, mixture in o.removed:
        if reason == "duplicate":
            (kept, weight), = mixture.items()
            if weight != 1 or kept == index or o.payoff[kept] != o.payoff[index]:
                errors.append(f"action {index}: duplicate certificate {mixture} is wrong")
        elif not (all(w > 0 for w in mixture.values()) and dominates(o.payoff, index, mixture)):
            errors.append(f"action {index}: mixture {mixture} does not match-or-beat it")

    rows = [o.payoff[i] for i in o.surviving]
    if len(o.witnesses) != len(rows):
        errors.append(f"{len(o.witnesses)} witnesses for {len(rows)} survivors")
    for position, belief in enumerate(o.witnesses):
        if not (_is_belief(belief, states) and all(p > 0 for p in belief)):
            errors.append(f"witness {position} is not an interior belief")
            continue
        values = [_dot(row, belief) for row in rows]
        if any(v >= values[position] for k, v in enumerate(values) if k != position):
            errors.append(f"witness {position} does not make its action uniquely optimal")
        if o.qcc_holds and not _unimodal(values):
            errors.append(f"qcc holds but the profile at witness {position} dips")

    if o.qcc_holds != (o.qcc_triple is None):
        errors.append("qcc verdict and counterexample disagree")
    elif o.qcc_triple is not None:
        i, j, k = o.qcc_triple
        belief = o.qcc_belief
        if not (i < j < k < len(rows) and _is_belief(belief, states)):
            errors.append(f"qcc counterexample {o.qcc_triple} is malformed")
        else:
            v = tuple(_dot(rows[a], belief) for a in (i, j, k))
            if not (v[1] < v[0] and v[1] < v[2]) or v != o.qcc_values:
                errors.append(f"qcc counterexample {o.qcc_triple} shows no dip")

    if o.convexity_holds != (o.convexity_triple is None):
        errors.append("convexity verdict and counterexample disagree")
    elif o.convexity_triple is not None:
        i, j, k = o.convexity_triple
        belief = o.convexity_belief
        if not (i < j < k < len(rows) and _is_belief(belief, states)):
            errors.append(f"convexity counterexample {o.convexity_triple} is malformed")
        else:
            values = [_dot(row, belief) for row in rows]
            best = max(values)
            if not (values[i] == best == values[k] and values[j] < best):
                errors.append(f"convexity counterexample {o.convexity_triple} shows no gap")

    for i, belief in o.chain_failures:
        adjacent = _dot(_diff(rows[i], rows[i + 1]), belief)
        successor = _dot(_diff(rows[i + 1], rows[i + 2]), belief)
        if not (_is_belief(belief, states) and adjacent > 0 and successor <= 0):
            errors.append(f"nesting chain failure at {i} does not hold at its belief")
    for i, other, belief in o.region_failures:
        adjacent = _dot(_diff(rows[i], rows[i + 1]), belief)
        comparison = _dot(_diff(rows[i], rows[other]), belief)
        if not (_is_belief(belief, states) and other >= i + 2 and adjacent > 0 and comparison <= 0):
            errors.append(f"nesting region failure ({i}, {other}) does not hold at its belief")
    return errors


def two_state_breakpoints(payoff: Payoff) -> tuple[bool, bool]:
    """Complete decision for two states: the weak order of the actions is
    constant between consecutive indifference points, so testing every
    crossing, both ends and each midpoint decides (no dip anywhere,
    optimal set contiguous everywhere)."""
    points = {Fraction(0), Fraction(1)}
    for a in range(len(payoff)):
        for b in range(a + 1, len(payoff)):
            d0 = payoff[a][0] - payoff[b][0]
            d1 = payoff[a][1] - payoff[b][1]
            if d0 != d1 and 0 <= d0 / (d0 - d1) <= 1:
                points.add(d0 / (d0 - d1))
    ordered = sorted(points)
    no_dip = contiguous = True
    for q in ordered + [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]:
        values = [row[0] * (1 - q) + row[1] * q for row in payoff]
        no_dip = no_dip and _unimodal(values)
        best = [i for i, v in enumerate(values) if v == max(values)]
        contiguous = contiguous and best == list(range(best[0], best[-1] + 1))
    return no_dip, contiguous


_TALLIES = (
    "prop1_agreements", "prop1_disagreements", "qcc_holding",
    "prop3_relaxed_successes", "prop3_relaxed_failures", "lsc_literal_divergences",
    "nesting_failures", "forward_contiguity_violations", "relabel_idempotence_failures",
    "duality_violations", "witness_soundness_failures",
)


def corpus_record(instance, record: dict, outcome: Outcome) -> list[str]:
    """Method properties of one `verify-props` record."""
    errors = []
    actions, states = len(instance.payoff), len(instance.payoff[0])
    if (record["index"], record["seed"], record["actions"], record["states"]) != (
        instance.index, instance.seed, actions, states
    ):
        errors.append("record does not describe the generated instance")
    if record["eliminated"] + record["surviving"] != actions:
        errors.append("eliminated + surviving != actions")
    if (record["surviving"], record["qcc_holds"], record["convexity_holds"]) != (
        len(outcome.surviving), outcome.qcc_holds, outcome.convexity_holds
    ):
        errors.append("record disagrees with the verdicts it was built from")
    if record["qcc_holds"] != record["convexity_holds"] or not record["prop1_agreement"]:
        errors.append("qcc and convexity verdicts differ (equivalence theorem)")
    if record["qcc_holds"] and not (record["lsc_after_relabel_relaxed"] and record["nesting_ok"]):
        errors.append("qcc holds but relaxed LSC after relabel or nesting fails")
    if not record["relabel_idempotent"]:
        errors.append("relabel is not idempotent")
    if record.get("grid_dip_found") and record["qcc_holds"]:
        errors.append("grid dip under a holding qcc verdict")
    if record.get("grid_gap_found") and record["convexity_holds"]:
        errors.append("grid gap under a holding convexity verdict")
    if states == 2 and record["eliminated"] == 0:
        if two_state_breakpoints(instance.payoff) != (record["qcc_holds"], record["convexity_holds"]):
            errors.append("two-state verdicts disagree with the breakpoint decision")
    return errors


def corpus_summary(report: dict) -> list[str]:
    """The summary tallies must be the tallies of the records."""
    expected = dict.fromkeys(_TALLIES, 0)
    for r in report["instances"]:
        expected["prop1_agreements" if r["prop1_agreement"] else "prop1_disagreements"] += 1
        expected["relabel_idempotence_failures"] += not r["relabel_idempotent"]
        if r["qcc_holds"]:
            expected["qcc_holding"] += 1
            relaxed = r["lsc_after_relabel_relaxed"]
            expected["prop3_relaxed_successes" if relaxed else "prop3_relaxed_failures"] += 1
            expected["lsc_literal_divergences"] += relaxed and not r["lsc_after_relabel_literal"]
            expected["nesting_failures"] += not r["nesting_ok"]
            expected["forward_contiguity_violations"] += bool(r.get("grid_gap_found"))
    summary = report["summary"]
    errors = [
        f"summary {key} = {summary[key]}, records give {value}"
        for key, value in expected.items() if summary[key] != value
    ]
    if summary["instances"] != len(report["instances"]):
        errors.append("summary instance count differs from the records")
    return errors


def ladder_payoff(m: int, coefficients: list[list[Fraction]]) -> Payoff:
    """The polynomials evaluated at the m equally spaced actions of [0, 1]."""
    return tuple(
        tuple(sum((c * a ** d for d, c in enumerate(poly)), Fraction(0)) for poly in coefficients)
        for a in (Fraction(t, m - 1) for t in range(m))
    )


def ladder_report(payoff: Payoff, report: dict) -> list[str]:
    """Concave ladder problems: every check holds and nothing is removed."""
    errors = []
    if report["input"]["problem"]["payoff"] != [[str(v) for v in row] for row in payoff]:
        errors.append("discretized payoffs differ from the polynomials")
    if report["elimination"]["removed"] or len(report["elimination"]["surviving_indices"]) != len(payoff):
        errors.append("an action was eliminated from a concave ladder problem")
    nesting = report["nesting"]
    if not (report["qcc"]["holds"] and report["convexity"]["holds"]
            and nesting["chain_holds"] and nesting["region_identification_holds"]):
        errors.append("a whole-simplex check fails on a concave problem")
    if not report["lsc"]["after_relabel"]["relaxed"]["holds"]:
        errors.append("relaxed LSC fails after relabel")
    oracle = report["oracle"]
    if not oracle["consistent"] or oracle["dip"] is not None or oracle["gap"] is not None:
        errors.append("the grid oracle found a dip or gap")
    return errors


def wide_report(text: str, report: dict) -> list[str]:
    """Random wide problems: the equivalence theorem and the grid oracle."""
    errors = []
    if report["input"]["problem"] != json.loads(text):
        errors.append("report input differs from the problem file")
    if report["qcc"]["holds"] != report["convexity"]["holds"] or not report["equivalence_agreement"]:
        errors.append("qcc and convexity verdicts differ (equivalence theorem)")
    oracle = report["oracle"]
    if not oracle["consistent"]:
        errors.append("oracle cross-check is not consistent")
    if (oracle["dip"] is not None and report["qcc"]["holds"]) or (
        oracle["gap"] is not None and report["convexity"]["holds"]
    ):
        errors.append("grid counterexample under a holding verdict")
    return errors
