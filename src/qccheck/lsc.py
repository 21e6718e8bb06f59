"""Difference vectors, the local single-crossing check, and state relabeling.

For each action beyond the first, the difference vector records the
state-wise payoff increment over the predecessor action.  The problem is
locally single-crossing when every such vector is quasi-monotone: along the
state order, increments never switch from strictly positive back to strictly
negative.

`relabel_for_lsc` realizes the constructive half of the theory: sorting the
states by the lowest optimal action of their point-mass beliefs turns any
whole-simplex-unimodal problem into one that passes the (relaxed) check.

Both read signs and maxima off the problem's scaled payoffs
(`DecisionProblem.scaled_payoff`), which one positive scale leaves unchanged.
Fractions are first built for the report: `check_lsc` builds the
`DifferenceVector` of the failing action only, and a holding check builds
none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .problems import DecisionProblem, DifferenceVector, QuasiMonotoneMode, is_quasi_monotone


@dataclass(frozen=True)
class Relabeling:
    """A state permutation together with the sort keys that produced it.

    Position m of `permutation` holds the original index of the state placed
    m-th; `sort_keys[m]` is that state's key, the label of the lowest action
    that is optimal under the state's point-mass belief.  Keys are
    nondecreasing along the permutation by construction.
    """

    permutation: tuple[int, ...]
    sort_keys: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        n = len(self.permutation)
        if sorted(self.permutation) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.permutation}")
        if len(self.sort_keys) != n:
            raise ValueError("need one sort key per state")
        if any(a > b for a, b in zip(self.sort_keys, self.sort_keys[1:])):
            raise ValueError(f"sort keys must be nondecreasing: {self.sort_keys}")


@dataclass(frozen=True)
class LscVerdict:
    holds: bool
    mode: QuasiMonotoneMode
    failing_action: Optional[int]
    failing_vector: Optional[DifferenceVector]


def difference_vectors(problem: DecisionProblem) -> tuple[DifferenceVector, ...]:
    """State-wise increments of each action over its predecessor; the vector
    for action 0 is identically zero."""
    return tuple(_difference_vector(problem, i) for i in range(problem.num_actions))


def _difference_vector(problem: DecisionProblem, action_index: int) -> DifferenceVector:
    if action_index == 0:
        return DifferenceVector(0, tuple(Fraction(0) for _ in range(problem.num_states)))
    entries = tuple(
        a - b for a, b in zip(problem.payoff[action_index], problem.payoff[action_index - 1])
    )
    return DifferenceVector(action_index, entries)


def check_lsc(
    problem: DecisionProblem, mode: QuasiMonotoneMode = "relaxed"
) -> LscVerdict:
    """Check that every difference vector is quasi-monotone in the given
    mode; the first failing action is reported.  The signs are read off
    the scaled payoffs, and only the failing action's vector is built."""
    rows = problem.scaled_payoff
    entries = [0] * problem.num_states
    for i in range(problem.num_actions):
        if i:
            entries = [a - b for a, b in zip(rows[i], rows[i - 1])]
        ok, _ = is_quasi_monotone(entries, mode)
        if not ok:
            return LscVerdict(
                holds=False,
                mode=mode,
                failing_action=i,
                failing_vector=_difference_vector(problem, i),
            )
    return LscVerdict(holds=True, mode=mode, failing_action=None, failing_vector=None)


def lowest_optimal_action(problem: DecisionProblem, state_index: int) -> int:
    """Index of the lowest action maximizing the payoff column of a state,
    i.e. the minimum of the optimal-action set under the point-mass belief;
    read off the scaled payoffs."""
    problem._check_state(state_index)
    column = [row[state_index] for row in problem.scaled_payoff]
    return column.index(max(column))


def relabel_for_lsc(problem: DecisionProblem) -> tuple[Relabeling, DecisionProblem]:
    """Sort states by their lowest optimal action and permute the columns.

    The sort is stable on the original state index, so tie handling is
    deterministic; applying the operation to its own output therefore yields
    the identity permutation.  Returns the relabeling and the relabeled
    problem, which is the problem itself when the permutation is the
    identity.
    """
    keys = [lowest_optimal_action(problem, j) for j in range(problem.num_states)]
    permutation = tuple(sorted(range(problem.num_states), key=keys.__getitem__))
    relabeling = Relabeling(
        permutation=permutation,
        sort_keys=tuple(problem.actions[keys[j]] for j in permutation),
    )
    return relabeling, problem.permute_states(permutation)
