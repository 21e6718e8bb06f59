"""Belief-simplex geometry of optimal-action regions.

Three related views of the same arrangement of affine payoff differences:

* convexity of the optimal-action set at every belief (no belief may make
  two actions optimal while skipping one strictly between them),
* the pairwise indifference hyperplanes given by payoff-row differences,
* the nesting structure of adjacent-comparison halfspaces, under which the
  region where action i beats everything above it is carved out by the
  single comparison against its immediate successor.

A gap at a belief is a strict dip there: if i and k are optimal and j is
not, then u_i - u_j > 0 and u_k - u_j > 0.  So convexity reads the
unimodality verdict of `check_qcc`, which has already decided every dip:
when it holds there is no gap, and when it fails at (i0, j0, k0) no pair
below i0 can have one.  Every pair from i0 on is searched for a gap on the
point masses and edges of the simplex (`exactlp.edge_witness`), and only
when no pair has one does each pair get an exact LP on the rows its search
read.
The nesting questions are two-row systems, decided in the plane with no LP.
The m - 2 chain questions are asked first, and a chain of holding links
answers every region question above it by transitivity (see
`check_nesting`), so on a problem whose chain holds no region question is
asked.  Convexity and nesting read the payoffs scaled once to
integers (`problems.integer_payoff`): a belief comes from
`exactlp.edge_witness`, or in nesting from `exactlp.edge_point`'s
numerators, and in nesting "no belief" rests on a verified Motzkin
(alpha, beta) from `exactlp.motzkin_certificate`.  Every reported failure
belief is re-verified by substitution: a convexity gap on the exact
payoffs, a nesting belief by integer dot products of its numerators with
the scaled rows, before its `Belief` is built.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalInvariantError
from .exactlp import LinearSystem, edge_point, edge_witness, motzkin_certificate, solve
from .problems import Belief, DecisionProblem, integer_payoff
from .qcc import QccVerdict


@dataclass(frozen=True)
class ConvexityCounterexample:
    """A belief where the outer two actions of the triple are optimal but the
    middle one is not."""

    belief: Belief
    triple: tuple[int, int, int]


@dataclass(frozen=True)
class ConvexityVerdict:
    holds: bool
    counterexample: Optional[ConvexityCounterexample]


@dataclass(frozen=True)
class NestingFailure:
    """A belief where action `index` beats its successor yet the successor
    fails to beat the next action: the adjacent halfspaces are not nested."""

    index: int
    belief: Belief


@dataclass(frozen=True)
class RegionFailure:
    """A belief where action `index` beats its successor but not action
    `other`, so the adjacent comparison does not identify the region."""

    index: int
    other: int
    belief: Belief


@dataclass(frozen=True)
class NestingReport:
    chain_holds: bool
    chain_failures: tuple[NestingFailure, ...]
    region_identification_holds: bool
    region_failures: tuple[RegionFailure, ...]


def indifference_hyperplane(
    problem: DecisionProblem, i: int, j: int
) -> tuple[Fraction, ...]:
    """Coefficient vector of the affine payoff difference between actions i
    and j; its inner product with a belief is the expected-payoff gap, and
    its zero set is the indifference hyperplane."""
    if i == j:
        raise ValueError("indifference hyperplane needs two distinct actions")
    problem._check_action(i)
    problem._check_action(j)
    return tuple(a - b for a, b in zip(problem.payoff[i], problem.payoff[j]))


def check_argmax_convexity(problem: DecisionProblem, qcc: QccVerdict) -> ConvexityVerdict:
    """Decide whether the optimal-action set is a contiguous index range at
    every belief in the closed simplex.

    `qcc` must be `check_qcc`'s verdict for the same problem.  A gap is a
    dip, so a holding verdict means convexity holds, and a verdict failing
    at (i0, j0, k0) means no pair i < i0 has a gap: `check_qcc` found every
    triple below i0 infeasible.  Each later pair i < k, k >= i + 2, gets
    its integer rows once: the tie u_i - u_k, the gaps u_i - u_l to the
    other actions, and the summed gaps to the actions between.
    `edge_witness` first looks on every pair, in lexicographic order, for a
    point mass or edge belief with the tie 0, the other gaps >= 0 and the
    summed gaps > 0, which is a gap.  Only when no pair has one does each
    pair, in the same order, get an LP: maximize the summed gaps under the
    same rows, positive exactly at a gap, as every gap is >= 0 there.  The
    pair reported is the first found, with j the lowest action between i
    and k that is not optimal at the belief.
    """
    if qcc.holds:
        return ConvexityVerdict(holds=True, counterexample=None)
    assert qcc.counterexample is not None
    m, first = problem.num_actions, qcc.counterexample.triple[0]
    scaled = integer_payoff(problem)
    pairs = []
    for i in range(first, m - 2):
        gaps = [[a - b for a, b in zip(scaled[i], row)] for row in scaled]
        for k in range(i + 2, m):
            others = [gaps[other] for other in range(m) if other not in (i, k)]
            summed = [sum(column) for column in zip(*gaps[i + 1:k])]
            rows = [gaps[k], [-d for d in gaps[k]], *others, summed]
            belief = edge_witness(list(zip(*rows)), (False,) * (len(rows) - 1) + (True,))
            if belief is not None:
                return _gap_verdict(problem, belief, i, k)
            pairs.append((i, k, gaps[k], others, summed))
    for i, k, tie, others, summed in pairs:
        rows = [(tie, "==", 0)] + [(row, ">=", 0) for row in others]
        result = solve(LinearSystem.build(problem.num_states, rows, summed))
        if result.is_optimal and result.value > 0:
            assert result.witness is not None
            return _gap_verdict(problem, result.witness, i, k)
    return ConvexityVerdict(holds=True, counterexample=None)


def _gap_verdict(problem: DecisionProblem, belief: Belief, i: int, k: int) -> ConvexityVerdict:
    """The failing verdict for a gap between i and k at `belief`, re-verified
    by substitution, with j the lowest skipped action."""
    optimal = problem.argmax_set(belief)
    skipped = [j for j in range(i + 1, k) if j not in optimal]
    if i not in optimal or k not in optimal or not skipped:
        raise InternalInvariantError(
            "convexity-counterexample-substitution",
            f"belief {belief.coordinates} does not realize a gap "
            f"between {i} and {k}",
        )
    return ConvexityVerdict(
        holds=False,
        counterexample=ConvexityCounterexample(belief, (i, skipped[0], k)),
    )


def check_nesting(problem: DecisionProblem) -> NestingReport:
    """Probe the halfspace structure behind the equivalence theorem.

    Chain: for each adjacent pair boundary, the set where action i beats
    action i+1 must lie inside the set where i+1 beats i+2.  Region
    identification: beating the immediate successor must imply beating every
    later action.  Both are expected to hold on problems that pass the
    dominance certification and the whole-simplex unimodality check; the
    operation also runs on anything else, as a diagnostic of how the
    structure breaks.

    The m - 2 chain questions are asked first, and they answer every region
    question (i, j) whose chain links i, ..., j - 2 all hold: at a belief
    with u_i > u_{i+1}, link i gives u_{i+1} > u_{i+2}, link i + 1 gives
    u_{i+2} > u_{i+3}, and so on up to u_{j-1} > u_j, so u_i > u_j.  Each
    holding link rests on a verified Motzkin certificate, so the region
    question is settled with no belief to find.  Only a pair (i, j) with a
    failing link k, i <= k <= j - 2, is asked, in (i, j) order.
    """
    scaled = integer_payoff(problem)
    m = problem.num_actions
    chain_failures = []
    for i in range(m - 2):
        belief = _beats_without(scaled, (i, i + 1), (i + 1, i + 2), "nesting-chain")
        if belief is not None:
            chain_failures.append(NestingFailure(i, belief))
    failing = [failure.index for failure in chain_failures]
    region_failures = []
    for i in range(m - 2):
        # the lowest failing link at or above i; the pairs below it are settled
        k = next((k for k in failing if k >= i), m)
        for j in range(k + 2, m):
            belief = _beats_without(scaled, (i, i + 1), (i, j), "nesting-region")
            if belief is not None:
                region_failures.append(RegionFailure(i, j, belief))

    return NestingReport(
        chain_holds=not chain_failures,
        chain_failures=tuple(chain_failures),
        region_identification_holds=not region_failures,
        region_failures=tuple(region_failures),
    )


def _beats_without(
    scaled: Sequence[Sequence[int]],
    positive: tuple[int, int],
    nonpositive: tuple[int, int],
    invariant: str,
) -> Optional[Belief]:
    """A belief where u_p - u_q > 0 for (p, q) = `positive` and
    u_r - u_s <= 0 for (r, s) = `nonpositive`, decided on the integer payoffs
    `scaled` and re-verified by substitution of its numerators into rows
    p, q, r and s, or None when the simplex has no such belief, which a
    verified Motzkin certificate backs."""
    (p, q), (r, s) = positive, nonpositive
    points = [(up - uq, us - ur)
              for up, uq, ur, us in zip(scaled[p], scaled[q], scaled[r], scaled[s])]
    point = edge_point(points, (True, False))
    if point is None:
        motzkin_certificate(points, (True, False))
        return None
    weights, denominator = point
    value = [sum(map(operator.mul, weights, scaled[a])) for a in (p, q, r, s)]
    pos, neg = value[0] - value[1], value[2] - value[3]
    if not (pos > 0 and neg <= 0):
        raise InternalInvariantError(
            invariant,
            f"numerators {weights} over {denominator} fail substitution: "
            f"{pos} > 0 and {neg} <= 0 expected",
        )
    return Belief.from_numerators(weights, denominator)
