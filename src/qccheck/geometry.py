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
below i0 can have one.  Each pair from i0 on is searched for a gap on the
point masses and edges of the simplex first (`exactlp.edge_witness`), and
an exact LP is solved only for a pair where no point mass or edge has one.
The nesting questions are two-row systems, decided in the plane with no LP.
The edge search and nesting read the payoffs scaled once to integers
(`problems.integer_payoff`): a belief comes from `exactlp.edge_witness`,
and in nesting "no belief" rests on a verified Motzkin (alpha, beta) from
`exactlp.motzkin_certificate`.  Every reported failure belief is
re-verified by substitution on the exact payoffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalInvariantError
from .exactlp import LinearSystem, edge_witness, motzkin_certificate, solve
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
    triple below i0 infeasible.  Each pair i < k with i >= i0 has an LP:
    on the face where i and k are both optimal (one equality plus global
    weak comparisons), maximize the sum of the gaps u_i - u_j over the
    actions j strictly between.  Every gap is nonnegative there, so the
    optimum is positive exactly when some belief skips a middle action.
    Before the LP, `edge_witness` looks for a point mass or edge belief
    that meets the LP's rows with its objective as the one strict row;
    such a belief is a gap, so the LP runs only when no point mass or edge
    has one.  The first pair with a gap in lexicographic order is reported,
    with j the lowest action between i and k that is not optimal at the
    belief found.
    """
    if qcc.holds:
        return ConvexityVerdict(holds=True, counterexample=None)
    assert qcc.counterexample is not None
    m = problem.num_actions
    scaled = integer_payoff(problem)
    for i in range(qcc.counterexample.triple[0], m - 2):
        gaps = [[a - b for a, b in zip(scaled[i], row)] for row in scaled]
        for k in range(i + 2, m):
            # the pair's LP rows, its objective as the one strict row
            rows = [gaps[k], [-d for d in gaps[k]]]
            rows += [gaps[other] for other in range(m) if other not in (i, k)]
            rows.append([sum(column) for column in zip(*gaps[i + 1:k])])
            belief = edge_witness(list(zip(*rows)), (False,) * (len(rows) - 1) + (True,))
            if belief is None:
                lp_rows = [(indifference_hyperplane(problem, i, k), "==", 0)]
                lp_rows += [(indifference_hyperplane(problem, i, other), ">=", 0)
                            for other in range(m) if other != i]
                middle = [indifference_hyperplane(problem, i, j) for j in range(i + 1, k)]
                objective = [sum(column) for column in zip(*middle)]
                result = solve(LinearSystem.build(problem.num_states, lp_rows, objective))
                if not result.is_optimal or result.value <= 0:
                    continue
                belief = result.witness
                assert belief is not None
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
    return ConvexityVerdict(holds=True, counterexample=None)


def check_nesting(problem: DecisionProblem) -> NestingReport:
    """Probe the halfspace structure behind the equivalence theorem.

    Chain: for each adjacent pair boundary, the set where action i beats
    action i+1 must lie inside the set where i+1 beats i+2.  Region
    identification: beating the immediate successor must imply beating every
    later action.  Both are expected to hold on problems that pass the
    dominance certification and the whole-simplex unimodality check; the
    operation also runs on anything else, as a diagnostic of how the
    structure breaks.
    """
    scaled = integer_payoff(problem)
    chain_failures = []
    region_failures = []
    for i in range(problem.num_actions - 2):
        belief = _beats_without(problem, scaled, (i, i + 1), (i + 1, i + 2), "nesting-chain")
        if belief is not None:
            chain_failures.append(NestingFailure(i, belief))
        for j in range(i + 2, problem.num_actions):
            belief = _beats_without(problem, scaled, (i, i + 1), (i, j), "nesting-region")
            if belief is not None:
                region_failures.append(RegionFailure(i, j, belief))

    return NestingReport(
        chain_holds=not chain_failures,
        chain_failures=tuple(chain_failures),
        region_identification_holds=not region_failures,
        region_failures=tuple(region_failures),
    )


def _beats_without(
    problem: DecisionProblem,
    scaled: Sequence[Sequence[int]],
    positive: tuple[int, int],
    nonpositive: tuple[int, int],
    invariant: str,
) -> Optional[Belief]:
    """A belief where u_p - u_q > 0 for (p, q) = `positive` and
    u_r - u_s <= 0 for (r, s) = `nonpositive`, decided on the integer payoffs
    `scaled` and re-verified by substitution on the exact ones, or None when
    the simplex has no such belief, which a verified Motzkin certificate
    backs."""
    (p, q), (r, s) = positive, nonpositive
    points = [(up - uq, us - ur)
              for up, uq, ur, us in zip(scaled[p], scaled[q], scaled[r], scaled[s])]
    belief = edge_witness(points, (True, False))
    if belief is None:
        motzkin_certificate(points)
        return None
    value = problem.expected_payoff
    pos, neg = value(p, belief) - value(q, belief), value(r, belief) - value(s, belief)
    if not (pos > 0 and neg <= 0):
        raise InternalInvariantError(
            invariant,
            f"belief {belief.coordinates} fails substitution: {pos} > 0 and "
            f"{neg} <= 0 expected",
        )
    return belief
