"""Decide unimodality of expected payoffs over the entire belief simplex.

A problem fails exactly when some belief produces a strict interior dip in
the action-indexed expected-payoff sequence.  Each candidate dip pattern
(i, j, k) is a pair of strict linear inequalities in the belief,
u_i - u_j > 0 and u_k - u_j > 0, decided exactly in the plane of the points
(u_i - u_j, u_k - u_j) over the states (`exactlp.planar_feasible`).  A
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
from .exactlp import LinearSystem, planar_feasible
from .problems import Belief, DecisionProblem, is_unimodal


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
    count = 0
    for i, j, k in itertools.combinations(range(problem.num_actions), 3):
        count += 1
        # j strictly worse than both i and k: u_i - u_j > 0 and u_k - u_j > 0
        rows = [(tuple(a - b for a, b in zip(problem.payoff[outer], problem.payoff[j])), ">", 0)
                for outer in (i, k)]
        result = planar_feasible(LinearSystem.build(problem.num_states, rows=rows))
        if result.open_feasible:
            belief = result.witness
            assert belief is not None
            values, unimodal = unimodality_profile(problem, belief)
            triple_values = (values[i], values[j], values[k])
            if unimodal or not (
                triple_values[1] < triple_values[0]
                and triple_values[1] < triple_values[2]
            ):
                raise InternalInvariantError(
                    "qcc-counterexample-substitution",
                    f"belief {belief.coordinates} does not realize the dip "
                    f"({i}, {j}, {k})",
                )
            return QccVerdict(
                holds=False,
                counterexample=QccCounterexample(belief, (i, j, k), triple_values),
                checked_triples=count,
            )
    return QccVerdict(holds=True, counterexample=None, checked_triples=count)
