"""Brute-force ground truth, independent of the LP solver.

Three oracles back-stop the exact feasibility checks:

* exhaustive search of all beliefs with a fixed common denominator, which
  can confirm any failure the solver reports (and refute none of its
  successes, since the grid is finite).  The dip walk reads every belief in
  lexicographic order and moves the integer payoff profile by O(m) per
  belief.  A gap is a dip, so gaps are worth seeking only on a grid that
  dips, and a gap needs two optimal actions i < k with k >= i + 2, so it
  lies on the tie hyperplane (u_i - u_k).x = 0 of such a pair.  The gap
  search therefore reads the profile only at those ties: it fixes all but
  the last three coordinates depth first, keeps the pairs whose difference
  can vanish on each block, and reads the leaves at their parent.  On a
  leaf each pair's ties lie on one line in the last three coordinates; one
  residue modulo the line's gcd and step rejects nearly every line with no
  integer point in the leaf, and the rest are listed by striding along it;
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
from operator import add, mul
from typing import Iterator, Optional

from .problems import Belief, DecisionProblem, is_unimodal

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
        return Belief.from_numerators(numerators, self.denominator)


def _successors(total: int, parts: int) -> Iterator[tuple[list[int], int, int]]:
    """Every composition x of `total` into `parts` parts in lexicographic
    order, as one list changed in place (Knuth, TAOCP 4A, 7.2.1.3), with the
    step (q, r) that reached it: one unit moves from x[q] to x[q-1] and r
    from x[q] to the last part.  q is the last nonzero part of the x before;
    r = 0 when that is the last part, else all x[q] - 1 units left there.
    `nonzero` is the last nonzero part before the last one, or 0 when there
    is none: each step leaves it one below the part it moved from."""
    last = parts - 1
    x = [0] * last + [total]
    nonzero = 0
    yield x, 0, 0
    while last:
        if x[last]:
            x[last - 1], x[last] = x[last - 1] + 1, x[last] - 1
            nonzero = last - 1
            yield x, last, 0
            continue
        q = nonzero
        if not q:
            return
        r = x[q] - 1
        x[q - 1], x[q], x[last] = x[q - 1] + 1, 0, r
        nonzero = q - 1
        yield x, q, r


def grid_beliefs(spec: GridSpec) -> Iterator[Belief]:
    """Yield every grid belief in lexicographic order of its coordinates."""
    for numerators, _, _ in _successors(spec.denominator, spec.dimension):
        yield spec.belief(numerators)


def _grid_walk(
    problem: DecisionProblem, spec: GridSpec
) -> Iterator[tuple[list[int], list[int]]]:
    """Yield each grid belief's numerators, in `grid_beliefs` order, with its
    profile on `scaled_payoff` times the denominator.  A step (q, r) adds
    column q-1 - column q + r (last column - column q): O(m), not O(mn)."""
    if spec.dimension != problem.num_states:
        raise ValueError("grid dimension does not match the state count")
    columns = list(zip(*problem.scaled_payoff))
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


def _tie_solver(alpha: int, beta: int) -> tuple[int, int, int, int, int, bool]:
    """What a leaf needs of the line c0 + a*alpha + b*beta = 0 apart from
    c0, as (sign, g, step, coef, inverse, swap).  One of a, b is free (u)
    and the other follows from it (w): b follows a unless beta = 0, which
    `swap`s them.  Times sign/g the line reads c + coef*u + step*w = 0 with
    step > 0, so it has a lattice point only when g divides c0, and then u
    runs through the residue class of -c*inverse modulo step, inverse being
    coef's inverse modulo step; w falls by coef as u rises by step.  g = 0
    when alpha = beta = 0: the line is all of a block or none."""
    swap = not beta
    if swap:
        alpha, beta = beta, alpha
    sign = -1 if beta < 0 else 1
    g = math.gcd(alpha, beta)
    if not g:
        return 1, 0, 1, 0, 0, swap
    step, coef = abs(beta) // g, sign * alpha // g
    return sign, g, step, coef, pow(coef, -1, step), swap


def _block_ties(
    c: int, u0: int, solver: tuple[int, int, int, int, int, bool], rest: int,
    tops: tuple[int, int],
) -> list[tuple[int, int]]:
    """The integer points (a, b) of the line c + coef*u + step*w = 0 of
    `solver` with a, b >= 0, a + b <= rest, a <= tops[0] and b <= tops[1],
    given its least u >= 0, u0: u strides from u0 by step up to u-top.
    With g = 0 (the caller has checked that c0 = 0) every point of the
    block is on it."""
    sign, g, step, coef, inverse, swap = solver
    if not g:
        return [(a, b) for a in range(tops[0] + 1) for b in range(min(tops[1], rest - a) + 1)]
    u_top, w_top = tops[::-1] if swap else tops
    points = []
    for u in range(u0, u_top + 1, step):
        w = -(c + u * coef) // step
        if 0 <= w <= w_top and u + w <= rest:
            points.append((w, u) if swap else (u, w))
    return points


def _suffix_extremes(columns: list, pick) -> list[list[int]]:
    """For each state t, the element-wise `pick` (min or max) of
    columns[t:], built from the last column back in one pass."""
    tables = [list(columns[-1])]
    for column in reversed(columns[:-1]):
        tables.append(list(map(pick, column, tables[-1])))
    return tables[::-1]


def find_grid_gap(problem: DecisionProblem, spec: GridSpec) -> Optional[GridFinding]:
    """First grid belief whose optimal-action set is non-contiguous, with the
    lexicographically first (optimal, skipped, optimal) triple, in the order
    of `grid_beliefs`: the same finding as reading every belief's profile.

    A gap needs optimal actions i < k with k >= i + 2, so it lies on the tie
    hyperplane d.x = 0, d = u_i - u_k, of such a pair, and the profile is
    read only at those ties.  The numerators x are searched depth first
    over their first n - 3 parts, in lexicographic order, with an explicit
    stack.  A block that fixes those parts and leaves `rest` units keeps
    the pairs of its parent block whose d takes 0 on it: d's range there is
    exactly d.prefix + rest*[min, max] of d over the states left.

    The leaves, which fix all of the first n - 3 parts, are read at their
    parent, in order, child x[n - 4] = v after child, and are never pushed.
    On a leaf's last three parts (a, b, left - a - b) a pair ties on the
    integer points of one line (`_tie_solver`).  A residue test rejects
    nearly every pair in O(1): the line has no lattice point with u in
    [0, u-top] when g does not divide its constant or when its least u >= 0
    is above u-top.  Of the pairs left, those whose d keeps one sign on the
    leaf are dropped, and `_block_ties` lists the ties of the rest.  Fewer
    than four states pad the front with parts held at 0."""
    if spec.dimension != problem.num_states:
        raise ValueError("grid dimension does not match the state count")
    rows = problem.scaled_payoff
    pairs = [(i, k) for i, k in combinations(range(len(rows)), 2) if k > i + 1]
    if not pairs:
        return None
    diffs = [[a - b for a, b in zip(rows[i], rows[k])] for i, k in pairs]
    pad = max(4 - spec.dimension, 0)
    depth = spec.dimension + pad - 3
    # The min and max of each pair's d over states t..n-1 (lows[t],
    # highs[t]).  With pad > 0 the root is the only block, so t = 0 there
    # also counts the padded parts.
    columns = list(zip(*diffs))
    lows, highs = _suffix_extremes(columns, min), _suffix_extremes(columns, max)
    columns = [(0,) * len(pairs)] * pad + columns
    # On a leaf's last three parts (a, b, left - a - b) pair p's d is
    # c0 + a*alpha + b*beta, where c0 = d.x at a = b = 0.  a and b are free
    # unless padded, and the least and most of a*alpha + b*beta over the
    # leaf are left times spans[p].
    free = (int(pad < 2), int(pad < 3))
    slopes = [(x - z, y - z) for x, y, z in zip(*columns[-3:])]
    solvers = [_tie_solver(alpha, beta) for alpha, beta in slopes]
    spans = [(min(0, free[0] * alpha, free[1] * beta), max(0, free[0] * alpha, free[1] * beta))
             for alpha, beta in slopes]
    last = columns[-1]
    # each action's payoffs on the last four parts
    corner = [((0,) * pad + tuple(row))[-4:] for row in rows]
    live = [(p, 0) for p in range(len(pairs)) if lows[0][p] <= 0 <= highs[0][p]]
    stack = [((), spec.denominator, live, 0)]
    while stack:
        prefix, rest, live, v = stack.pop()
        t = len(prefix)
        head = None
        column = columns[t]
        if t + 1 < depth and rest:
            # the block's children x[t] = 0, 1, ..., rest, one per pop
            if v < rest:
                stack.append((prefix, rest, live, v + 1))
            lo, hi, left = lows[t + 1], highs[t + 1], rest - v
            kept = [(p, c) for p, base in live for c in (base + v * column[p],)
                    if c + left * lo[p] <= 0 <= c + left * hi[p]]
            if kept:
                stack.append((prefix + (v,), left, kept, 0))
            continue
        # the children are leaves: numerators prefix, v, 0, ..., 0, a, b,
        # left - a - b, read here in order (a padded part stays at v = 0; a
        # block with no units left is read as its one child v = 0)
        for v in range(1 if pad else rest + 1):
            left = rest - v
            tops = (left * free[0], left * free[1])
            points = set()
            for p, base in live:
                solver = solvers[p]
                sign, g, step, coef, inverse, swap = solver
                c0 = base + v * column[p] + left * last[p]
                c, u0 = c0 * sign, 0
                if g:
                    # the residue test: no lattice point, or none with u
                    # in [0, u-top]
                    if c % g:
                        continue
                    c //= g
                    u0 = -c * inverse % step
                    if u0 > tops[swap]:
                        continue
                # the few pairs left: does d take 0 on the leaf at all?
                low, high = spans[p]
                if c0 + left * low <= 0 <= c0 + left * high:
                    points.update(_block_ties(c, u0, solver, left, tops))
            if not points:
                continue
            if head is None:
                head = [sum(map(mul, prefix, row)) for row in rows]
            for a, b in sorted(points):
                c = left - a - b
                triple = _first_gap_triple([h + v * w + a * x + b * y + c * z
                                            for h, (w, x, y, z) in zip(head, corner)])
                if triple is not None:
                    numerators = prefix + (v,) + (0,) * (depth - t - 1) + (a, b, c)
                    return spec.belief(list(numerators[pad:])), triple
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
        tuple(rng.next_int(-magnitude, magnitude) for _ in range(states))
        for _ in range(actions)
    )
    return DecisionProblem.from_matrix(payoff)
