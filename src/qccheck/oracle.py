"""Brute-force ground truth, independent of the LP solver.

Three oracles back-stop the exact feasibility checks:

* exhaustive enumeration of all beliefs with a fixed common denominator,
  which can confirm any failure the solver reports (and refute none of its
  successes, since the grid is finite);
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
from typing import Iterator, Optional

from .problems import Belief, DecisionProblem, integer_payoff, is_contiguous, is_unimodal


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


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def grid_beliefs(spec: GridSpec) -> Iterator[Belief]:
    """Yield every grid belief, ordered with the first coordinate ascending
    and ties broken the same way recursively."""
    for numerators in _compositions(spec.denominator, spec.dimension):
        yield Belief(
            tuple(Fraction(m, spec.denominator) for m in numerators)
        )


def _grid_search(problem: DecisionProblem, spec: GridSpec, first_triple):
    """Walk the grid in `grid_beliefs` order and return the first belief at
    which `first_triple` finds a triple in the integer payoff profile."""
    if spec.dimension != problem.num_states:
        raise ValueError("grid dimension does not match the state count")
    scaled = integer_payoff(problem)
    for numerators in _compositions(spec.denominator, spec.dimension):
        values = [
            sum(m * u for m, u in zip(numerators, row)) for row in scaled
        ]
        triple = first_triple(values)
        if triple is not None:
            belief = Belief(
                tuple(Fraction(m, spec.denominator) for m in numerators)
            )
            return belief, triple
    return None


def _first_dip_triple(values: list[int]) -> Optional[tuple[int, int, int]]:
    if is_unimodal(values):  # O(m) screen before the O(m^3) search
        return None
    for i in range(len(values) - 2):
        for j in range(i + 1, len(values) - 1):
            if values[j] >= values[i]:
                continue
            for k in range(j + 1, len(values)):
                if values[j] < values[k]:
                    return i, j, k
    raise AssertionError(f"no dip triple in the non-unimodal profile {values}")


def _first_gap_triple(values: list[int]) -> Optional[tuple[int, int, int]]:
    best = max(values)
    n = len(values)
    if is_contiguous([i for i, v in enumerate(values) if v == best], n):
        return None
    for i in range(n - 2):
        if values[i] != best:
            continue
        for j in range(i + 1, n - 1):
            if values[j] == best:
                continue
            for k in range(j + 1, n):
                if values[k] == best:
                    return i, j, k
    raise AssertionError(f"no gap triple in the non-contiguous profile {values}")


def find_grid_dip(
    problem: DecisionProblem, spec: GridSpec
) -> Optional[tuple[Belief, tuple[int, int, int]]]:
    """First grid belief whose payoff sequence has a strict dip, with the
    lexicographically first witnessing triple; None if the grid has none."""
    return _grid_search(problem, spec, _first_dip_triple)


def find_grid_gap(
    problem: DecisionProblem, spec: GridSpec
) -> Optional[tuple[Belief, tuple[int, int, int]]]:
    """First grid belief whose optimal-action set is non-contiguous, with the
    lexicographically first (optimal, skipped, optimal) triple."""
    return _grid_search(problem, spec, _first_gap_triple)


def exact_check_two_state(problem: DecisionProblem) -> tuple[bool, bool]:
    """Complete oracle for problems with exactly two states.

    Enumerates every pairwise indifference point of the affine expected
    payoffs on the segment of beliefs, plus both endpoints and a midpoint of
    every gap between consecutive candidates.  The weak order of the actions
    is constant strictly between consecutive indifference points, so checking
    unimodality and argmax contiguity at this finite set decides both
    whole-simplex properties exactly.

    Returns (no dip anywhere, argmax contiguous everywhere).
    """
    if problem.num_states != 2:
        raise ValueError("the complete breakpoint oracle needs exactly 2 states")
    breakpoints = {Fraction(0), Fraction(1)}
    for i in range(problem.num_actions):
        for j in range(i + 1, problem.num_actions):
            d0 = problem.payoff[i][0] - problem.payoff[j][0]
            d1 = problem.payoff[i][1] - problem.payoff[j][1]
            if d0 == d1:
                continue  # parallel: no crossing (or identical rows)
            q = Fraction(d0, d0 - d1)
            if 0 <= q <= 1:
                breakpoints.add(q)
    ordered = sorted(breakpoints)
    candidates = list(ordered)
    for a, b in zip(ordered, ordered[1:]):
        candidates.append((a + b) / 2)

    qcc_ok = True
    convex_ok = True
    for q in candidates:
        belief = Belief((1 - q, q))
        values = problem.payoff_profile(belief)
        if not is_unimodal(values):
            qcc_ok = False
        best = max(values)
        optimal = [i for i, v in enumerate(values) if v == best]
        if not is_contiguous(optimal, len(values)):
            convex_ok = False
    return qcc_ok, convex_ok


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
