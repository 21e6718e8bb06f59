"""Brute-force ground truth, independent of the LP solver.

Three oracles back-stop the exact feasibility checks:

* exhaustive enumeration of all beliefs with a fixed common denominator,
  which can confirm any failure the solver reports (and refute none of its
  successes, since the grid is finite).  One walk moves the integer payoff
  profile by O(m) per belief.  A gap is a dip, so gaps are worth seeking
  only on a grid that dips, and only where the maximum is tied;
* a complete breakpoint oracle for two-state problems, where expected
  payoffs are affine in a single coordinate and the weak order of the
  actions is constant between consecutive pairwise indifference points, so
  finitely many evaluations decide the whole-simplex properties exactly;
* a seed-stable pseudo-random instance generator (SplitMix64) feeding the
  property-test harness.

Nothing in this module touches the LP machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, pairwise
from operator import add
from typing import Iterator, Optional

from .problems import Belief, DecisionProblem, integer_payoff, is_unimodal

# A grid belief with its witnessing action triple.
GridFinding = tuple[Belief, tuple[int, int, int]]


@dataclass(frozen=True)
class GridSpec:
    """All beliefs whose coordinates are multiples of 1/denominator."""

    denominator: int
    dimension: int

    def __post_init__(self) -> None:
        if self.denominator < 1:
            raise ValueError("grid denominator must be at least 1")
        if self.dimension < 1:
            raise ValueError("grid dimension must be at least 1")

    @property
    def count(self) -> int:
        """Number of grid beliefs: C(denominator + dimension - 1, dimension - 1)."""
        return math.comb(self.denominator + self.dimension - 1, self.dimension - 1)

    def belief(self, numerators: list[int]) -> Belief:
        return Belief(tuple(Fraction(m, self.denominator) for m in numerators))


def _successors(total: int, parts: int) -> Iterator[tuple[list[int], int, int]]:
    """Every composition x of `total` into `parts` parts in lexicographic
    order, as one list changed in place (Knuth, TAOCP 4A, 7.2.1.3), with the
    step (q, r) that reached it: one unit moves from x[q] to x[q-1] and r
    from x[q] to the last part.  q is the last nonzero part of the x before;
    r = 0 when that is the last part, else all x[q] - 1 units left there."""
    last = parts - 1
    x = [0] * last + [total]
    yield x, 0, 0
    while last:
        if x[last]:
            x[last - 1], x[last] = x[last - 1] + 1, x[last] - 1
            yield x, last, 0
            continue
        q = last - 1
        while q and not x[q]:
            q -= 1
        if not q:
            return
        r = x[q] - 1
        x[q - 1], x[q], x[last] = x[q - 1] + 1, 0, r
        yield x, q, r


def grid_beliefs(spec: GridSpec) -> Iterator[Belief]:
    """Yield every grid belief in lexicographic order of its coordinates."""
    for numerators, _, _ in _successors(spec.denominator, spec.dimension):
        yield spec.belief(numerators)


def _grid_walk(
    problem: DecisionProblem, spec: GridSpec
) -> Iterator[tuple[list[int], list[int]]]:
    """Yield each grid belief's numerators, in `grid_beliefs` order, with its
    profile on `integer_payoff` times the denominator.  A step (q, r) adds
    column q-1 - column q + r (last column - column q): O(m), not O(mn)."""
    if spec.dimension != problem.num_states:
        raise ValueError("grid dimension does not match the state count")
    columns = list(zip(*integer_payoff(problem)))
    last = columns[-1]
    toward = [[0] * len(last)] + [[a - b for a, b in zip(c, d)] for c, d in pairwise(columns)]
    carry = [[a - b for a, b in zip(last, column)] for column in columns]
    values = [spec.denominator * u for u in last]
    for numerators, q, r in _successors(spec.denominator, spec.dimension):
        if r:
            values = [v + d + r * c for v, d, c in zip(values, toward[q], carry[q])]
        else:
            values = list(map(add, values, toward[q]))
        yield numerators, values


def _first_dip_triple(values: list[int]) -> tuple[int, int, int]:
    for i, j, k in combinations(range(len(values)), 3):
        if values[j] < values[i] and values[j] < values[k]:
            return i, j, k
    raise AssertionError(f"no dip triple in the non-unimodal profile {values}")


def _first_gap_triple(values: list) -> Optional[tuple[int, int, int]]:
    """The first optimal action, the first action after it that is not, and
    the first optimal one after that; None if the optimal set is a run."""
    best = max(values)
    optimal = [i for i, v in enumerate(values) if v == best]
    for i, k in zip(optimal, optimal[1:]):
        if k > i + 1:
            return optimal[0], i + 1, k
    return None


def find_grid_dip(problem: DecisionProblem, spec: GridSpec) -> Optional[GridFinding]:
    """First grid belief whose payoff sequence has a strict dip, with the
    lexicographically first witnessing triple; None if the grid has none.
    One walk over the grid, O(m) per belief plus the unimodality scan."""
    for numerators, values in _grid_walk(problem, spec):
        if not is_unimodal(values):
            return spec.belief(numerators), _first_dip_triple(values)
    return None


def find_grid_gap(problem: DecisionProblem, spec: GridSpec) -> Optional[GridFinding]:
    """First grid belief whose optimal-action set is non-contiguous, with the
    lexicographically first (optimal, skipped, optimal) triple.  The same
    walk as `find_grid_dip`: a gap needs two optimal actions, so the argmax
    is read only where the maximum is tied."""
    for numerators, values in _grid_walk(problem, spec):
        if values.count(max(values)) > 1:
            triple = _first_gap_triple(values)
            if triple is not None:
                return spec.belief(numerators), triple
    return None


def exact_check_two_state(problem: DecisionProblem) -> tuple[bool, bool]:
    """Complete oracle for problems with exactly two states.

    Checks unimodality and argmax contiguity at both endpoints, every
    pairwise indifference point of the affine expected payoffs, and a
    midpoint between consecutive ones.  The weak order of the actions is
    constant strictly between consecutive indifference points, so this
    finite set decides both whole-simplex properties exactly.

    Returns (no dip anywhere, argmax contiguous everywhere).
    """
    if problem.num_states != 2:
        raise ValueError("the complete breakpoint oracle needs exactly 2 states")
    breakpoints = {Fraction(0), Fraction(1)}
    for row, other in combinations(problem.payoff, 2):
        d0, d1 = row[0] - other[0], row[1] - other[1]
        if d0 != d1:  # parallel rows never cross
            breakpoints.add(Fraction(d0, d0 - d1))
    ordered = [q for q in sorted(breakpoints) if 0 <= q <= 1]
    candidates = ordered + [(a + b) / 2 for a, b in pairwise(ordered)]
    profiles = [problem.payoff_profile(Belief((1 - q, q))) for q in candidates]
    return (all(map(is_unimodal, profiles)),
            all(_first_gap_triple(values) is None for values in profiles))


_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny portable PRNG (SplitMix64), used wherever reproducibility across
    platforms matters more than statistical sophistication."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound); modulo bias is irrelevant at
        the tiny bounds used here and keeps the sequence trivially portable."""
        if bound < 1:
            raise ValueError("bound must be positive")
        return self.next_uint64() % bound

    def next_int(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], inclusive on both ends."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_below(hi - lo + 1)


def random_problem(
    seed: int, actions: int, states: int, magnitude: int
) -> DecisionProblem:
    """Deterministic pseudo-random problem with integer payoffs in
    [-magnitude, magnitude], drawn row-major from SplitMix64(seed)."""
    if actions < 1 or states < 1:
        raise ValueError("need at least one action and one state")
    if magnitude < 1:
        raise ValueError("magnitude must be at least 1")
    rng = SplitMix64(seed)
    payoff = tuple(
        tuple(Fraction(rng.next_int(-magnitude, magnitude)) for _ in range(states))
        for _ in range(actions)
    )
    return DecisionProblem.from_matrix(payoff)
