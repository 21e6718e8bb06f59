"""Exact rational linear programming over the standard simplex.

Systems are posed in the coordinates of a probability vector: the
constraints x >= 0 and sum(x) = 1 are always implicit, and callers add
equality, weak-inequality, and strict-inequality rows on top.  Everything is
solved with a dense two-phase simplex method over `fractions.Fraction` using
Bland's rule, so there are no tolerances anywhere: Infeasible means exactly
infeasible, and every witness satisfies its system under exact substitution
(this is re-verified before a result is returned).

An infeasible weak system comes with a Farkas certificate read off the
final phase-1 tableau: multipliers lambda, one per row and nonnegative on
`>=` rows, with max_k sum_r lambda_r c_r[k] < sum_r lambda_r rhs_r.  Every
belief x would give sum_r lambda_r c_r.x >= sum_r lambda_r rhs_r, while a
probability vector keeps the left side at most that maximum, so no belief
satisfies the rows (Farkas 1902).  The certificate, too, is re-verified by
substitution before it is returned.

Strict inequalities are decided by slack maximization: each row c.x > r is
rewritten as c.x >= r + t for a fresh variable t bounded by 1, and t is
maximized.  The open system has a solution over the simplex if and only if
the optimum t* is strictly positive; the compactness of the simplex makes
this criterion exact.

`edge_point` is the one search for a belief on the point masses and edges
of the simplex, shared by `qcc`, convexity, nesting and the elimination
screen: the first point mass where every row holds, else the middle of the
interval `segment_interval` finds on the first edge that has one.  The
interval's ends are unreduced (numerator, denominator) pairs, integers on
integer rows, compared by cross-multiplication; one Fraction is built, for
the middle.  `edge_point` returns the belief's integer numerators over one
denominator, which the elimination and nesting use as they are;
`edge_witness` wraps them in a `Belief`.
The belief is re-verified by substitution on the rows, which may be
integers: one positive scale factor leaves it unchanged, as its ends are
roots -u / (v - u).  For two rows the search is complete.  Each state s maps to
the point (a_s, b_s) and the beliefs onto the convex hull of these points;
if the hull meets the open quadrant (or the quadrant with its positive
a-axis), some vertex or edge of a Caratheodory triangle meets it too.
When it misses, `motzkin_certificate` gives alpha, beta >= 0 with
alpha a_s + beta b_s <= 0 in every state (Motzkin 1936): alpha > 0 for
nesting's a.x > 0, b.x >= 0, and not both 0 for `qcc`'s a.x > 0, b.x > 0,
also re-verified on the points.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Literal, Optional, Sequence

from .errors import InternalInvariantError
from .problems import Belief, RationalLike, as_fraction

Relation = Literal[">=", "==", ">"]

_RELATIONS = (">=", "==", ">")
_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LinearRow:
    """One constraint over simplex coordinates: coefficients . x  <rel>  rhs."""

    coefficients: tuple[Fraction, ...]
    relation: Relation
    rhs: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coefficients", tuple(as_fraction(c) for c in self.coefficients)
        )
        object.__setattr__(self, "rhs", as_fraction(self.rhs))
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    def evaluate(self, coords: Sequence[Fraction]) -> Fraction:
        return sum((c * x for c, x in zip(self.coefficients, coords)), _ZERO)

    def satisfied_by(self, coords: Sequence[Fraction]) -> bool:
        lhs = self.evaluate(coords)
        if self.relation == ">=":
            return lhs >= self.rhs
        if self.relation == "==":
            return lhs == self.rhs
        return lhs > self.rhs


@dataclass(frozen=True)
class LinearSystem:
    """A constraint system over the standard simplex in `dimension` coordinates.

    `interior_required` additionally demands x_i > 0 for every coordinate;
    it is honored by `strict_feasible`, which shares one slack variable
    between the strict rows and the interiority constraints.
    """

    dimension: int
    rows: tuple[LinearRow, ...] = ()
    objective: Optional[tuple[Fraction, ...]] = None
    interior_required: bool = False

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        object.__setattr__(self, "rows", tuple(self.rows))
        for row in self.rows:
            if len(row.coefficients) != self.dimension:
                raise ValueError(
                    f"row has {len(row.coefficients)} coefficients, "
                    f"system dimension is {self.dimension}"
                )
        if self.objective is not None:
            objective = tuple(as_fraction(c) for c in self.objective)
            object.__setattr__(self, "objective", objective)
            if len(objective) != self.dimension:
                raise ValueError("objective length must equal the system dimension")

    @classmethod
    def build(
        cls,
        dimension: int,
        rows: Iterable[tuple] = (),
        objective: Optional[Sequence[RationalLike]] = None,
        interior_required: bool = False,
    ) -> "LinearSystem":
        """Construct a system from loose (coefficients, relation, rhs) triples."""
        built = tuple(LinearRow(tuple(coeffs), relation, rhs) for coeffs, relation, rhs in rows)
        obj = None if objective is None else tuple(objective)
        return cls(dimension, built, obj, interior_required)

    @property
    def has_strict_rows(self) -> bool:
        return any(row.relation == ">" for row in self.rows)


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPResult:
    """Outcome of an exact solve: a verdict plus a substitutable witness.

    For `strict_feasible`, `slack` holds the maximized margin t*; the open
    system is feasible exactly when t* > 0, and `witness` is present only in
    that case.  When `solve` finds a system infeasible, `farkas` holds the
    row multipliers that certify it (see the module docstring), aligned with
    the system's rows.  It is None otherwise.
    """

    status: LPStatus
    value: Optional[Fraction] = None
    witness: Optional[Belief] = None
    slack: Optional[Fraction] = None
    farkas: Optional[tuple[Fraction, ...]] = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL

    @property
    def open_feasible(self) -> bool:
        """Whether a strict system was found to have an exact solution: a
        strict result carries a witness only when the system holds."""
        return self.witness is not None


def _pivot(tableau: list[list[Fraction]], zrow: list[Fraction],
           basis: list[int], pr: int, pc: int) -> None:
    pivot_val = tableau[pr][pc]
    tableau[pr] = [v / pivot_val for v in tableau[pr]]
    prow = tableau[pr]
    for r in range(len(tableau)):
        if r != pr:
            f = tableau[r][pc]
            if f != 0:
                tableau[r] = [a - f * b for a, b in zip(tableau[r], prow)]
    f = zrow[pc]
    if f != 0:
        zrow[:] = [a - f * b for a, b in zip(zrow, prow)]
    basis[pr] = pc


def _bland_maximize(tableau: list[list[Fraction]], zrow: list[Fraction],
                    basis: list[int], num_real: int) -> None:
    """Pivot to optimality.  zrow holds z_j - c_j per column plus the current
    objective value in the last cell; only columns < num_real may enter.
    Bland's rule (lowest entering index, lowest basic index on ratio ties)
    guarantees termination."""
    while True:
        pc = -1
        for j in range(num_real):
            if zrow[j] < 0:
                pc = j
                break
        if pc < 0:
            return
        best_key = None
        best_row = -1
        for r, row in enumerate(tableau):
            a = row[pc]
            if a > 0:
                key = (row[-1] / a, basis[r])
                if best_key is None or key < best_key:
                    best_key = key
                    best_row = r
        if best_row < 0:
            # No system over the simplex gets here: phase 1's objective, minus
            # the sum of the artificials, is at most 0, and phase 2 maximizes
            # over a bounded region (x on the simplex, 0 <= t <= 1, and each
            # surplus or slack affine in x and t), so no improving column is
            # unbounded.
            raise InternalInvariantError(
                "lp-boundedness",
                "simplex found an unbounded direction over a compact region",
            )
        _pivot(tableau, zrow, basis, best_row, pc)


def _solve_standard_form(
    eq_rows: Sequence[Sequence[Fraction]],
    eq_rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
) -> tuple[Optional[Fraction], list[Fraction]]:
    """Maximize objective . x subject to eq_rows . x = eq_rhs, x >= 0.

    Returns (optimal value, solution vector), or (None, y) when infeasible:
    y is the phase-1 Farkas ray, one entry per row, with y . eq_rows >= 0
    in every column and y . eq_rhs < 0.
    """
    num_real = len(objective)
    m = len(eq_rows)

    tableau: list[list[Fraction]] = []
    for row, rhs in zip(eq_rows, eq_rhs):
        if rhs < 0:
            tableau.append([-v for v in row] + [_ZERO] * m + [-rhs])
        else:
            tableau.append(list(row) + [_ZERO] * m + [rhs])
    for i in range(m):
        tableau[i][num_real + i] = _ONE
    basis = list(range(num_real, num_real + m))

    # Phase 1: maximize minus the sum of artificials; feasible iff optimum 0.
    zrow = [_ZERO] * (num_real + m + 1)
    for j in range(num_real):
        zrow[j] = -sum(tableau[i][j] for i in range(m))
    zrow[-1] = -sum(tableau[i][-1] for i in range(m))
    _bland_maximize(tableau, zrow, basis, num_real)
    if zrow[-1] != 0:
        # zrow over artificial r is y_r + 1 for the phase-1 multipliers y of
        # the stored rows; rows negated on entry flip back.
        return None, [
            (_ONE - zrow[num_real + r]) if eq_rhs[r] < 0 else (zrow[num_real + r] - _ONE)
            for r in range(m)
        ]

    # Drive any residual degenerate artificials out of the basis; a row with
    # no real-column pivot available is redundant and dropped.
    r = 0
    while r < len(tableau):
        if basis[r] >= num_real:
            pc = next((j for j in range(num_real) if tableau[r][j] != 0), -1)
            if pc < 0:
                del tableau[r]
                del basis[r]
                continue
            _pivot(tableau, zrow, basis, r, pc)
        r += 1

    # Phase 2 with the real objective.
    zrow = [_ZERO] * (num_real + m + 1)
    for j in range(num_real + m + 1):
        acc = _ZERO
        for i, row in enumerate(tableau):
            if basis[i] < num_real:
                acc += objective[basis[i]] * row[j]
        zrow[j] = acc
    for j in range(num_real):
        zrow[j] -= objective[j]
    _bland_maximize(tableau, zrow, basis, num_real)

    solution = [_ZERO] * num_real
    for i, var in enumerate(basis):
        if var < num_real:
            solution[var] = tableau[i][-1]
    return zrow[-1], solution


def _assemble(system: LinearSystem, include_t: bool):
    """Lower a system to standard equality form.

    Variable layout: simplex coordinates, then (optionally) the shared strict
    slack t, then one column per inequality row, in row order, whose sign
    each lowered row carries: -1 for a surplus (>=), +1 for a slack (<=).
    """
    d = system.dimension
    t_width = 1 if include_t else 0
    lowered = [([_ONE] * d + [_ZERO] * t_width, _ONE, _ZERO)]  # the simplex itself
    for row in system.rows:
        dense = list(row.coefficients) + [_ZERO] * t_width
        if row.relation == ">":  # c.x - t >= rhs
            dense[d] = -_ONE
        lowered.append((dense, row.rhs, _ZERO if row.relation == "==" else -_ONE))
    if include_t:
        if system.interior_required:
            for i in range(d):
                dense = [_ZERO] * (d + 1)
                dense[i], dense[d] = _ONE, -_ONE
                lowered.append((dense, _ZERO, -_ONE))  # x_i >= t
        lowered.append(([_ZERO] * d + [_ONE], _ONE, _ONE))  # t <= 1 keeps it bounded
    num_vars = d + t_width + sum(1 for _, _, sign in lowered if sign)
    eq_rows, column = [], d + t_width
    for dense, _, sign in lowered:
        full = dense + [_ZERO] * (num_vars - len(dense))
        if sign:
            full[column] = sign
            column += 1
        eq_rows.append(full)
    return eq_rows, [rhs for _, rhs, _ in lowered], num_vars


def solve(system: LinearSystem) -> LPResult:
    """Exactly decide a weak system over the simplex, optimizing if asked.

    The system may not contain strict rows and may not require interiority;
    use `strict_feasible` for those.  On success the witness satisfies every
    row exactly; on infeasibility the `farkas` multipliers certify it.  Both
    are checked by substitution before returning.
    """
    if system.has_strict_rows or system.interior_required:
        raise ValueError("system has strict requirements; use strict_feasible")
    eq_rows, rhs, num_vars = _assemble(system, include_t=False)
    objective = [_ZERO] * num_vars
    if system.objective is not None:
        objective[: system.dimension] = list(system.objective)
    value, x = _solve_standard_form(eq_rows, rhs, objective)
    if value is None:
        farkas = tuple(-y for y in x[1:])  # row 0 is the simplex itself
        _verify_farkas(system, farkas)
        return LPResult(LPStatus.INFEASIBLE, farkas=farkas)
    witness = Belief(tuple(x[: system.dimension]))
    _verify_witness(system, witness)
    if system.objective is not None:
        attained = sum(
            (c * p for c, p in zip(system.objective, witness.coordinates)), _ZERO
        )
        if attained != value:
            raise InternalInvariantError(
                "lp-witness-value", f"witness attains {attained}, solver said {value}"
            )
        return LPResult(LPStatus.OPTIMAL, value=value, witness=witness)
    return LPResult(LPStatus.OPTIMAL, value=None, witness=witness)


def strict_feasible(system: LinearSystem) -> LPResult:
    """Decide feasibility of a system with strict rows over the closed simplex.

    Rewrites each strict row c.x > r as c.x >= r + t (plus x_i >= t for every
    coordinate when interiority is required), bounds t by 1, and maximizes t.
    The open system has a solution iff the returned slack is positive; only
    then is a witness attached, and it is verified to satisfy the original
    strict rows strictly.
    """
    eq_rows, rhs, num_vars = _assemble(system, include_t=True)
    objective = [_ZERO] * num_vars
    objective[system.dimension] = _ONE  # maximize the shared margin t
    t_star, x = _solve_standard_form(eq_rows, rhs, objective)
    if t_star is None:
        return LPResult(LPStatus.INFEASIBLE)
    if t_star <= 0:
        return LPResult(LPStatus.OPTIMAL, value=t_star, slack=t_star)
    witness = Belief(tuple(x[: system.dimension]))
    _verify_witness(system, witness)
    return LPResult(LPStatus.OPTIMAL, value=t_star, witness=witness, slack=t_star)


def edge_witness(
    columns: Sequence[Sequence[Rational]], strict: Sequence[bool]
) -> Optional[Belief]:
    """`edge_point`'s belief, built from its numerators."""
    point = edge_point(columns, strict)
    return None if point is None else Belief.from_numerators(*point)


def edge_point(
    columns: Sequence[Sequence[Rational]], strict: Sequence[bool]
) -> Optional[tuple[list[int], int]]:
    """A belief where every row r holds: sum_s columns[s][r] x_s > 0 when
    `strict[r]`, >= 0 otherwise, as integer numerators over one positive
    denominator.  `columns[s]` holds the rows' values at state s.  The first
    point mass where they all hold, else the middle of `segment_interval`
    on the first edge (s, t) that has one, else None.  A point mass is
    found by substitution itself; an edge belief is re-verified by
    substitution at its lam, the weight on t."""
    n = len(columns)
    for s, column in enumerate(columns):
        if all(map(_holds, column, strict)):
            return [int(j == s) for j in range(n)], 1
    for s, t in itertools.combinations(range(n), 2):
        interval = segment_interval(zip(columns[s], columns[t], strict))
        if interval is not None:
            lo, lo_den, hi, hi_den = interval
            lam = Fraction(lo * hi_den + hi * lo_den, 2 * lo_den * hi_den)
            p, q = lam.numerator, lam.denominator
            # (1 - lam) u + lam v at lam = p / q, times q
            if not all(_holds((q - p) * u + p * v, row_strict)
                       for u, v, row_strict in zip(columns[s], columns[t], strict)):
                raise InternalInvariantError(
                    "lp-witness-substitution",
                    f"lam = {lam} on edge ({s}, {t}) fails a row of {columns}",
                )
            numerators = [0] * n
            numerators[s], numerators[t] = q - p, p
            return numerators, q
    return None


def _holds(value: Rational, strict: bool) -> bool:
    return value > 0 or (value == 0 and not strict)


def segment_interval(
    constraints: Iterable[tuple[Rational, Rational, bool]]
) -> Optional[tuple[Rational, Rational, Rational, Rational]]:
    """The closure [lo / lo_den, hi / hi_den] of the set of lambda in [0, 1]
    with (1 - lambda) u + lambda v > 0 (or >= 0 when not strict) for every
    (u, v, strict), as (lo, lo_den, hi, hi_den) with positive denominators,
    or None when that set is empty.  Each bound is 0 / 1, 1 / 1 or a root
    -u / (v - u), kept unreduced: integers on integer inputs, and compared
    by cross-multiplication."""
    lo, lo_den, lo_open, hi, hi_den, hi_open = 0, 1, False, 1, 1, False
    for u, v, strict in constraints:
        slope = v - u
        if slope == 0:
            if u < 0 or (u == 0 and strict):
                return None
            continue
        if slope > 0:
            ahead = -u * lo_den - lo * slope  # sign of root - lo
            if ahead > 0 or (ahead == 0 and strict):
                lo, lo_den, lo_open = -u, slope, strict
        else:
            ahead = u * hi_den + hi * slope  # sign of root - hi
            if ahead < 0 or (ahead == 0 and strict):
                hi, hi_den, hi_open = u, -slope, strict
    gap = hi * lo_den - lo * hi_den
    if gap > 0 or (gap == 0 and not lo_open and not hi_open):
        return lo, lo_den, hi, hi_den
    return None


def motzkin_certificate(
    points: Sequence[tuple[Rational, Rational]], strict: Sequence[bool]
) -> tuple[Rational, Rational]:
    """The Motzkin (alpha, beta) >= 0 that certifies no belief gives
    a.x > 0 and b.x > 0 (b.x >= 0 when not `strict[1]`; `strict[0]` holds)
    over the points (a_s, b_s), one per state, re-verified on the points.
    Asked only after `edge_witness(points, strict)` has found no belief, so
    a missing certificate is an internal error.  See the module docstring.
    """
    farkas = _motzkin_multipliers(points, strict)
    if farkas is None:
        raise InternalInvariantError(
            "lp-planar-alternative", f"neither a witness nor a certificate for {points}"
        )
    alpha, beta = farkas
    if (alpha < 0 or beta < 0 or not (alpha > 0 or strict[1] and beta > 0)
            or any(alpha * a + beta * b > 0 for a, b in points)):
        raise InternalInvariantError(
            "lp-farkas-substitution", f"multipliers {farkas} do not separate {points}"
        )
    return farkas


def _motzkin_multipliers(
    points: Sequence[tuple[Rational, Rational]], strict: Sequence[bool]
) -> Optional[tuple[Rational, Rational]]:
    """(alpha, beta) >= 0, alpha > 0 unless both rows are strict, with
    alpha a_s + beta b_s <= 0 for every point; the candidates are the two
    axes and the normals of the lines through the origin and each point."""
    candidates = [(1, 0), (0, 1)] + [(abs(b), abs(a)) for a, b in points]
    for alpha, beta in candidates:
        if (alpha or strict[1] and beta) and all(alpha * a + beta * b <= 0 for a, b in points):
            return alpha, beta
    return None


def _verify_witness(system: LinearSystem, witness: Belief) -> None:
    """Exact substitution check of a solver witness against the original rows."""
    for row in system.rows:
        if not row.satisfied_by(witness.coordinates):
            raise InternalInvariantError(
                "lp-witness-substitution",
                f"witness {witness.coordinates} violates row "
                f"{row.coefficients} {row.relation} {row.rhs}",
            )
    if system.interior_required and not witness.is_interior:
        raise InternalInvariantError(
            "lp-witness-interior", f"witness {witness.coordinates} is not interior"
        )


def _verify_farkas(system: LinearSystem, farkas: tuple[Fraction, ...]) -> None:
    """Exact substitution check of an infeasibility certificate for a weak
    system: nonnegative on `>=` rows, and
    max_k sum_r lambda_r c_r[k] < sum_r lambda_r rhs_r."""
    if any(lam < 0 for lam, row in zip(farkas, system.rows) if row.relation != "=="):
        raise InternalInvariantError(
            "lp-farkas-substitution", f"multipliers {farkas} are negative on an inequality row"
        )
    bound = sum((lam * row.rhs for lam, row in zip(farkas, system.rows)), _ZERO)
    top = max(
        sum((lam * row.coefficients[k] for lam, row in zip(farkas, system.rows)), _ZERO)
        for k in range(system.dimension)
    )
    if top >= bound:
        raise InternalInvariantError(
            "lp-farkas-substitution",
            f"multipliers {farkas} reach {top} on a vertex, at or above {bound}",
        )
