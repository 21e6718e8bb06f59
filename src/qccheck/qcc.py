"""Decide unimodality of expected payoffs over the entire belief simplex.

A problem fails exactly when some belief produces a strict interior dip in
the action-indexed expected-payoff sequence.  Each candidate dip pattern
(i, j, k) is a pair of strict linear inequalities in the belief,
u_i - u_j > 0 and u_k - u_j > 0, decided exactly in the plane of the points
(u_i - u_j, u_k - u_j) over the states (`exactlp.planar_feasible`), on the
payoffs scaled once to integers (`problems.integer_payoff`).  A
feasible pattern yields a counterexample belief that is re-verified
pointwise before being reported; an infeasible one comes with a verified
Motzkin certificate (alpha, beta): action j weakly dominates the mixture of
i and k with weights proportional to alpha and beta.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InternalInvariantError
from .exactlp import planar_feasible
from .problems import Belief, DecisionProblem, integer_payoff, is_unimodal


@dataclass(frozen=True)
class QccCounterexample:
    """A belief with a strict dip: the middle action of the triple is worse
    than both the lower and the higher one."""

    belief: Belief
    triple: tuple[int, int, int]
    values: tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class QccVerdict:
    holds: bool
    counterexample: Optional[QccCounterexample]
    checked_triples: int


def unimodality_profile(
    problem: DecisionProblem, belief: Belief
) -> tuple[tuple[Fraction, ...], bool]:
    """Exact expected payoffs across actions at one belief, plus the
    unimodality flag.  This is the pointwise oracle counterexamples are
    validated against."""
    values = problem.payoff_profile(belief)
    return values, is_unimodal(values)


def check_qcc(problem: DecisionProblem) -> QccVerdict:
    """Decide whether every belief yields a unimodal payoff sequence.

    Triples are examined in lexicographic order and the first feasible dip
    is returned as the counterexample; with fewer than three actions the
    property holds vacuously.
    """
    scaled = integer_payoff(problem)
    count = 0
    for i, j, k in itertools.combinations(range(problem.num_actions), 3):
        count += 1
        # j strictly worse than both i and k: u_i - u_j > 0 and u_k - u_j > 0
        points = [(a - c, b - c) for a, b, c in zip(scaled[i], scaled[k], scaled[j])]
        belief = planar_feasible(points, strict=True).witness
        if belief is not None:
            values, unimodal = unimodality_profile(problem, belief)
            if unimodal or not (values[j] < values[i] and values[j] < values[k]):
                raise InternalInvariantError(
                    "qcc-counterexample-substitution",
                    f"belief {belief.coordinates} does not realize the dip "
                    f"({i}, {j}, {k})",
                )
            dip = QccCounterexample(belief, (i, j, k), (values[i], values[j], values[k]))
            return QccVerdict(holds=False, counterexample=dip, checked_triples=count)
    return QccVerdict(holds=True, counterexample=None, checked_triples=count)
