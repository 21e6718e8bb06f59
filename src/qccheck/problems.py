"""Domain types for finite decision problems and their pointwise evaluators.

A decision problem pairs an ordered finite set of actions with a payoff
matrix over a finite set of states.  All payoffs, beliefs, and derived
quantities are exact rationals (`fractions.Fraction`), so every comparison
made anywhere in the toolkit is a true arithmetic fact rather than a
floating-point approximation.

Each problem also carries one cached copy of its payoffs scaled to integers
by their common denominator (`DecisionProblem.scaled_payoff`).  Every sign
of a payoff difference and every comparison of expected payoffs survives
one positive common factor, so the stages decide on these integers, and on
beliefs kept as integer numerators over one denominator; a `Belief` of
Fractions is built (`Belief.from_numerators`) only for what a report
prints.

The public constructors validate and coerce every field.  What is derived
from a validated object is not validated again: `restrict_actions` and
`permute_states` build their result from the parent's Fractions, return the
problem itself when every action is kept or the permutation is the
identity, and `permute_states` hands the permuted scaled matrix over, as
the same entries keep the same common denominator.
`Belief.from_numerators` checks the simplex conditions on its integers.

The module also provides the elementary sequence predicates the rest of the
toolkit is built from: unimodality (no strict interior dip), quasi-monotone
sign patterns, and contiguity of index sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import pairwise
from typing import Iterable, Iterator, Literal, Optional, Sequence, Union

RationalLike = Union[int, str, Fraction]

QuasiMonotoneMode = Literal["relaxed", "literal"]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or numeric string ("3", "-4", "7/2") to Fraction.

    Floats are rejected: the toolkit's verdicts rely on exact arithmetic and a
    binary float silently misrepresents most decimal inputs.
    """
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass an int, Fraction, or string like '7/2'"
        )
    return Fraction(value)


@dataclass(frozen=True)
class Belief:
    """An exact point of the probability simplex over the state set.

    Coordinates are nonnegative rationals that sum to exactly 1.
    """

    coordinates: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coordinates:
            raise ValueError("belief needs at least one coordinate")
        coords = tuple(as_fraction(c) for c in self.coordinates)
        object.__setattr__(self, "coordinates", coords)
        if any(c < 0 for c in coords):
            raise ValueError(f"belief coordinates must be nonnegative: {coords}")
        total = sum(coords)
        if total != 1:
            raise ValueError(f"belief coordinates must sum to 1, got {total}")

    @classmethod
    def from_numerators(cls, numerators: Sequence[int], denominator: int) -> "Belief":
        """The belief with coordinates numerators[s] / denominator.

        The simplex conditions are checked on the integers: a positive
        denominator, and nonnegative numerators that sum to it.  The
        coordinates then need no coercion and no Fraction re-sum.
        """
        if (not numerators or denominator <= 0 or any(w < 0 for w in numerators)
                or sum(numerators) != denominator):
            raise ValueError(
                f"numerators {list(numerators)} over {denominator} are not a belief: "
                "they must be nonnegative, at least one, and sum to a positive denominator"
            )
        belief = object.__new__(cls)
        object.__setattr__(
            belief, "coordinates", tuple(Fraction(w, denominator) for w in numerators)
        )
        return belief

    @classmethod
    def uniform(cls, dimension: int) -> "Belief":
        return cls(tuple(Fraction(1, dimension) for _ in range(dimension)))

    @classmethod
    def point_mass(cls, index: int, dimension: int) -> "Belief":
        if not 0 <= index < dimension:
            raise IndexError(f"point mass index {index} out of range 0..{dimension - 1}")
        return cls(tuple(Fraction(int(j == index)) for j in range(dimension)))

    @property
    def dimension(self) -> int:
        return len(self.coordinates)

    @property
    def is_interior(self) -> bool:
        """True when every coordinate is strictly positive."""
        return all(c > 0 for c in self.coordinates)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coordinates)

    def __len__(self) -> int:
        return len(self.coordinates)

    def __getitem__(self, index: int) -> Fraction:
        return self.coordinates[index]


@dataclass(frozen=True)
class DecisionProblem:
    """An ordered finite action set with an exact payoff matrix over states.

    `payoff[i][j]` is the payoff of the i-th action in the j-th state.
    Action labels are strictly increasing rationals; only their order matters
    to any check in this toolkit, so algorithms work with indices throughout.
    State labels are opaque.
    """

    actions: tuple[Fraction, ...]
    states: tuple[str, ...]
    payoff: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        actions = tuple(as_fraction(a) for a in self.actions)
        states = tuple(str(s) for s in self.states)
        payoff = tuple(tuple(as_fraction(v) for v in row) for row in self.payoff)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "payoff", payoff)
        if not actions:
            raise ValueError("decision problem needs at least one action")
        if not states:
            raise ValueError("decision problem needs at least one state")
        if any(a >= b for a, b in zip(actions, actions[1:])):
            raise ValueError(f"action labels must be strictly increasing: {actions}")
        if len(payoff) != len(actions):
            raise ValueError(
                f"payoff has {len(payoff)} rows for {len(actions)} actions"
            )
        for i, row in enumerate(payoff):
            if len(row) != len(states):
                raise ValueError(
                    f"payoff row {i} has {len(row)} entries for {len(states)} states"
                )

    @classmethod
    def from_matrix(
        cls,
        payoff: Sequence[Sequence[RationalLike]],
        actions: Optional[Sequence[RationalLike]] = None,
        states: Optional[Sequence[str]] = None,
    ) -> "DecisionProblem":
        """Build a problem from a payoff matrix, defaulting action labels to
        0, 1, ..., k and state labels to "s0", "s1", ..., "sn"."""
        if actions is None:
            actions = range(len(payoff))
        if states is None:
            states = tuple(f"s{j}" for j in range(len(payoff[0]) if payoff else 0))
        return cls(actions, states, payoff)

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @cached_property
    def scaled_payoff(self) -> tuple[tuple[int, ...], ...]:
        """Payoff matrix scaled by the common denominator of all entries,
        computed once per problem: the planar decisions, dominance and its
        LPs, the LSC check and the grid searches all decide on it."""
        scale = math.lcm(*(value.denominator for row in self.payoff for value in row))
        return tuple(
            tuple(value.numerator * (scale // value.denominator) for value in row)
            for row in self.payoff
        )

    def column(self, state_index: int) -> tuple[Fraction, ...]:
        self._check_state(state_index)
        return tuple(row[state_index] for row in self.payoff)

    def _check_state(self, state_index: int) -> None:
        if not 0 <= state_index < self.num_states:
            raise IndexError(f"state index {state_index} out of range")

    def _check_action(self, action_index: int) -> None:
        if not 0 <= action_index < self.num_actions:
            raise IndexError(
                f"action index {action_index} out of range 0..{self.num_actions - 1}"
            )

    def _check_belief(self, belief: Belief) -> None:
        if belief.dimension != self.num_states:
            raise ValueError(
                f"belief has dimension {belief.dimension}, problem has "
                f"{self.num_states} states"
            )

    def expected_payoff(self, action_index: int, belief: Belief) -> Fraction:
        """Exact expected payoff of one action under a belief; states the
        belief rules out are skipped, as in `payoff_profile`."""
        self._check_action(action_index)
        self._check_belief(belief)
        row = self.payoff[action_index]
        return sum((p * u for p, u in zip(belief.coordinates, row) if p), Fraction(0))

    def payoff_profile(self, belief: Belief) -> tuple[Fraction, ...]:
        """Expected payoffs of every action under a belief, in action order;
        states the belief rules out are skipped, so a point mass costs O(m)."""
        self._check_belief(belief)
        return tuple(
            sum((p * u for p, u in zip(belief.coordinates, row) if p), Fraction(0))
            for row in self.payoff
        )

    def argmax_set(self, belief: Belief) -> frozenset[int]:
        """Indices of all actions attaining the exact maximum expected payoff."""
        values = self.payoff_profile(belief)
        best = max(values)
        return frozenset(i for i, v in enumerate(values) if v == best)

    def restrict_actions(self, indices: Sequence[int]) -> "DecisionProblem":
        """Sub-problem keeping only the given action indices (in sorted order);
        the problem itself when every action is kept."""
        kept = sorted(set(indices))
        if not kept:
            raise ValueError("cannot restrict to an empty action set")
        for i in kept:
            self._check_action(i)
        if len(kept) == self.num_actions:
            return self
        return self._derived(
            tuple(self.actions[i] for i in kept),
            self.states,
            tuple(self.payoff[i] for i in kept),
        )

    def permute_states(self, permutation: Sequence[int]) -> "DecisionProblem":
        """Problem with state columns reordered: new column m is old column
        permutation[m]; the problem itself for the identity.  The same
        entries keep the same common denominator, so the scaled matrix is
        permuted rather than computed again."""
        if sorted(permutation) != list(range(self.num_states)):
            raise ValueError(f"not a permutation of 0..{self.num_states - 1}: {permutation}")
        if all(j == m for m, j in enumerate(permutation)):
            return self
        return self._derived(
            self.actions,
            tuple(self.states[j] for j in permutation),
            tuple(tuple(row[j] for j in permutation) for row in self.payoff),
            tuple(tuple(row[j] for j in permutation) for row in self.scaled_payoff),
        )

    @classmethod
    def _derived(
        cls,
        actions: tuple[Fraction, ...],
        states: tuple[str, ...],
        payoff: tuple[tuple[Fraction, ...], ...],
        scaled: Optional[tuple[tuple[int, ...], ...]] = None,
    ) -> "DecisionProblem":
        """A problem made from parts of a validated one, whose invariants
        (Fraction entries, increasing labels, matching shapes) carry over:
        selecting rows in order or permuting every row's columns breaks
        none of them, so `__post_init__` is not run again.  `scaled`, when
        given, is the new payoff's scaled matrix, stored as the cache."""
        problem = object.__new__(cls)
        object.__setattr__(problem, "actions", actions)
        object.__setattr__(problem, "states", states)
        object.__setattr__(problem, "payoff", payoff)
        if scaled is not None:
            problem.__dict__["scaled_payoff"] = scaled
        return problem


@dataclass(frozen=True)
class DifferenceVector:
    """State-wise payoff increment of one action over its predecessor.

    The vector for action 0 is identically zero by convention; for i >= 1 the
    j-th entry is payoff[i][j] - payoff[i-1][j].
    """

    action_index: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        entries = tuple(as_fraction(v) for v in self.entries)
        object.__setattr__(self, "entries", entries)
        if self.action_index < 0:
            raise ValueError("action_index must be nonnegative")
        if not entries:
            raise ValueError("difference vector needs at least one entry")
        if self.action_index == 0 and any(v != 0 for v in entries):
            raise ValueError("the difference vector of action 0 must be all zeros")


@dataclass(frozen=True)
class PolynomialProblem:
    """A continuous-action problem with one polynomial payoff per state.

    The action variable ranges over a closed interval; `coefficients[j]` holds
    the ascending-power coefficients of the payoff polynomial for state j.
    Used only through `discretize`, which samples the interval on an exact
    uniform grid.
    """

    interval: tuple[Fraction, Fraction]
    states: tuple[str, ...]
    coefficients: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        lo, hi = (as_fraction(self.interval[0]), as_fraction(self.interval[1]))
        object.__setattr__(self, "interval", (lo, hi))
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        coeffs = tuple(tuple(as_fraction(c) for c in poly) for poly in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if lo >= hi:
            raise ValueError(f"interval must satisfy lower < upper, got [{lo}, {hi}]")
        if not self.states:
            raise ValueError("polynomial problem needs at least one state")
        if len(coeffs) != len(self.states):
            raise ValueError("need exactly one coefficient sequence per state")
        if any(not poly for poly in coeffs):
            raise ValueError("every polynomial needs at least one coefficient")

    def evaluate(self, state_index: int, action: Fraction) -> Fraction:
        """Exact value of the state's payoff polynomial at the given action."""
        result = Fraction(0)
        for c in reversed(self.coefficients[state_index]):
            result = result * action + c
        return result

    def discretize(self, grid_points: int) -> DecisionProblem:
        """Sample the interval at `grid_points` equally spaced exact actions
        and tabulate the polynomials into a finite decision problem."""
        if grid_points < 2:
            raise ValueError(f"need at least 2 grid points, got {grid_points}")
        lo, hi = self.interval
        step = Fraction(hi - lo, grid_points - 1)
        actions = tuple(lo + t * step for t in range(grid_points))
        payoff = tuple(
            tuple(self.evaluate(j, a) for j in range(len(self.states)))
            for a in actions
        )
        return DecisionProblem(actions, self.states, payoff)


def is_unimodal(values: Sequence[Fraction]) -> bool:
    """True iff the sequence has no strict interior dip.

    A dip is a triple i < j < k with values[j] < values[i] and
    values[j] < values[k]; absence of dips is equivalent to the sequence
    being nondecreasing up to some peak and nonincreasing after it.  The
    one-pass scan below flags exactly the sequences with a strict rise that
    occurs after a strict fall.
    """
    if not values:
        raise ValueError("is_unimodal needs a nonempty sequence")
    fallen = False
    for prev, cur in pairwise(values):
        if cur < prev:
            fallen = True
        elif fallen and cur > prev:
            return False
    return True


def is_quasi_monotone(
    entries: Sequence[Fraction],
    mode: QuasiMonotoneMode = "relaxed",
) -> tuple[bool, Optional[int]]:
    """Decide whether a vector's signs switch at most once, from - to +.

    A split index k certifies the pattern: entries[i] <= 0 for i < k and
    entries[i] >= 0 for i >= k.  In "literal" mode k must lie in 1..len-1;
    in "relaxed" mode (default) k may also be 0 (all entries nonnegative) or
    len (all entries nonpositive), which is equivalent to requiring that no
    strictly positive entry is followed by a strictly negative one.

    Returns (True, smallest valid split index) or (False, None).
    """
    if not entries:
        raise ValueError("is_quasi_monotone needs a nonempty sequence")
    n = len(entries)
    last_negative = -1
    first_positive = n
    for i, v in enumerate(entries):
        if v < 0:
            last_negative = i
        elif v > 0 and first_positive == n:
            first_positive = i
    # Valid split indices are exactly {k : last_negative < k <= first_positive}.
    lo = last_negative + 1
    hi = first_positive
    if mode == "literal":
        lo = max(lo, 1)
        hi = min(hi, n - 1)
    elif mode != "relaxed":
        raise ValueError(f"unknown quasi-monotone mode: {mode!r}")
    if lo > hi:
        return False, None
    return True, lo


def is_contiguous(indices: Iterable[int], universe_size: int) -> bool:
    """True iff the index set is a full run min, min+1, ..., max."""
    index_set = set(indices)
    if not index_set:
        raise ValueError("is_contiguous needs a nonempty index set")
    lo, hi = min(index_set), max(index_set)
    if lo < 0 or hi >= universe_size:
        raise ValueError(
            f"indices {sorted(index_set)} not within 0..{universe_size - 1}"
        )
    return len(index_set) == hi - lo + 1
