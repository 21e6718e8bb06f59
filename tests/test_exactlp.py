"""Exact simplex solver: hand-checked LPs, witness substitution, and
differential tests against an independent grid sweep and scipy's solver."""

import gc
import importlib
import sys
import weakref
from fractions import Fraction as F

import pytest

import qccheck.exactlp as exactlp
from qccheck import (
    DecisionProblem,
    GridSpec,
    InternalInvariantError,
    LinearSystem,
    LPStatus,
    SplitMix64,
    grid_beliefs,
    solve,
    strict_feasible,
)


def system(dim, rows=(), interior=False):
    return LinearSystem.build(dim, rows, interior)


def maximized(dim, rows, objective):
    """`strict_feasible` on the rows and objective . x > 0, which it decides
    by maximizing objective . x under the rows: the margin is that maximum."""
    return strict_feasible(system(dim, [*rows, (objective, ">", 0)]))


class TestSolve:
    """Weak systems by `solve`, and the one-strict-row systems that
    `strict_feasible` decides by maximizing the strict row."""

    def test_maximize_first_coordinate(self):
        result = maximized(2, [], [1, 0])
        assert result.status is LPStatus.OPTIMAL
        assert result.slack == 1
        assert result.witness.coordinates == (F(1), F(0))

    def test_infeasible_bound(self):
        result = solve(system(2, rows=[((1, 0), ">=", 2)]))
        assert result.status is LPStatus.INFEASIBLE
        assert result.witness is None

    def test_constant_row_objective(self):
        # expected payoff of the first fixture's lowest action as objective:
        # its maximum 0 is the margin, so the open system has no witness
        result = maximized(2, [], [0, -4])
        assert result.status is LPStatus.OPTIMAL
        assert result.slack == 0
        assert result.witness is None
        # a lower bound leaves the maximum's point mass as the witness
        result = strict_feasible(system(2, [((0, -4), ">", -1)]))
        assert result.slack == 1
        assert result.witness.coordinates == (F(1), F(0))

    def test_equality_pins_witness(self):
        result = maximized(2, [((1, -1), "==", 0)], [1, 0])
        assert result.slack == F(1, 2)
        assert result.witness.coordinates == (F(1, 2), F(1, 2))

    def test_redundant_equalities_are_harmless(self):
        result = maximized(
            3,
            [((1, 1, 1), "==", 1), ((2, 2, 2), "==", 2), ((1, 0, 0), "==", 0)],
            [0, 0, 1],
        )
        assert result.slack == 1
        assert result.witness.coordinates == (F(0), F(0), F(1))

    def test_rejects_strict_rows(self):
        with pytest.raises(ValueError):
            solve(system(2, rows=[((1, 0), ">", 0)]))
        with pytest.raises(ValueError):
            solve(system(2, interior=True))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            system(3, rows=[((1, 0), ">=", 0)])

    def test_deterministic(self):
        first = maximized(3, [((1, 2, -1), ">=", 0)], [1, -1, 2])
        for _ in range(3):
            again = maximized(3, [((1, 2, -1), ">=", 0)], [1, -1, 2])
            assert again.slack == first.slack
            assert again.witness.coordinates == first.witness.coordinates


class TestStrictFeasible:
    def test_interior_pair(self):
        result = strict_feasible(system(2, rows=[((1, 0), ">", 0), ((0, 1), ">", 0)]))
        assert result.open_feasible
        assert result.slack == F(1, 2)
        assert result.witness.coordinates == (F(1, 2), F(1, 2))

    def test_contradictory_pair(self):
        result = strict_feasible(system(2, rows=[((1, 0), ">", 0), ((-1, 0), ">", 0)]))
        assert not result.open_feasible
        assert result.witness is None

    def test_fixture_dip_system_is_open_infeasible(self):
        # the single dip pattern of the unimodal fixture needs both
        # coordinates below 1/4, impossible on the simplex
        result = strict_feasible(system(2, rows=[((1, -3), ">", 0), ((-3, 1), ">", 0)]))
        assert not result.open_feasible

    def test_boundary_only_gives_zero_slack(self):
        # p0 > 0 and -p0 >= 0 meet only at p0 = 0
        result = strict_feasible(system(2, rows=[((1, 0), ">", 0), ((-1, 0), ">=", 0)]))
        assert result.status is LPStatus.OPTIMAL
        assert result.slack == 0
        assert not result.open_feasible

    def test_no_rows_interior(self):
        result = strict_feasible(system(3, interior=True))
        assert result.open_feasible
        assert result.witness.coordinates == (F(1, 3), F(1, 3), F(1, 3))
        assert result.slack == F(1, 3)

    def test_infeasible_exactly_when_the_weak_reading_is(self):
        # with its strict rows read as >=, the system has a solution exactly
        # when `strict_feasible` does not answer INFEASIBLE, on one strict
        # row (the maximized row) and on several (the shared slack)
        rng = SplitMix64(3301)
        seen = {(one, status): 0 for one in (True, False) for status in LPStatus}
        for _ in range(400):
            sys_r = _random_system(rng, rng.next_int(1, 4), rng.next_int(1, 4))
            strict_rows = sum(row.relation == ">" for row in sys_r.rows)
            if not strict_rows:
                continue
            weak = system(sys_r.dimension, [
                (row.coefficients, "==" if row.relation == "==" else ">=", row.rhs)
                for row in sys_r.rows])
            result = strict_feasible(sys_r)
            assert result.status == solve(weak).status
            if result.open_feasible:
                assert all(row.satisfied_by(result.witness.coordinates) for row in sys_r.rows)
            seen[strict_rows == 1, result.status] += 1
        assert min(seen.values()) > 10, seen

    def test_witness_respects_weak_and_equality_rows(self):
        result = strict_feasible(
            system(
                3,
                rows=[((1, 0, -1), "==", 0), ((0, 1, 0), ">=", F(1, 4)), ((1, 1, 1), ">", F(1, 2))],
            )
        )
        assert result.open_feasible
        w = result.witness.coordinates
        assert w[0] == w[2] and w[1] >= F(1, 4) and sum(w) > F(1, 2)


def _random_system(rng, dim, num_rows):
    rows = []
    for _ in range(num_rows):
        coeffs = tuple(F(rng.next_int(-4, 4)) for _ in range(dim))
        relation = (">=", ">", "==")[rng.next_below(3)]
        # keep equalities satisfiable reasonably often
        rhs = F(rng.next_int(-2, 2), 4) if relation != "==" else F(0)
        rows.append((coeffs, relation, rhs))
    return LinearSystem.build(dim, rows)


def certifies_infeasibility(sys_r, farkas):
    """The Farkas check, written out apart from the solver."""
    if len(farkas) != len(sys_r.rows):
        return False
    if any(lam < 0 for lam, row in zip(farkas, sys_r.rows) if row.relation == ">="):
        return False
    bound = sum(lam * row.rhs for lam, row in zip(farkas, sys_r.rows))
    return all(
        sum(lam * row.coefficients[k] for lam, row in zip(farkas, sys_r.rows)) < bound
        for k in range(sys_r.dimension)
    )


def _random_weak_system(rng, dim, num_rows):
    rows = []
    for _ in range(num_rows):
        coeffs = tuple(F(rng.next_int(-4, 4)) for _ in range(dim))
        relation = (">=", "==")[rng.next_below(2)]
        rows.append((coeffs, relation, F(rng.next_int(-3, 3), rng.next_int(1, 3))))
    return LinearSystem.build(dim, rows)


class TestFarkasRay:
    def test_hand_checked_rays(self):
        # x0 >= 2 on the simplex: one unit of the row gives 1 < 2 at best
        assert solve(system(2, rows=[((1, 0), ">=", 2)])).farkas == (F(1),)
        # x0 - x1 == -3 is stored negated; the ray flips back to -1, and
        # -(x0 - x1) reaches 1 at most, below 3
        assert solve(system(2, rows=[((1, -1), "==", -3)])).farkas == (F(-1),)

    def test_only_infeasible_weak_systems_carry_a_ray(self):
        assert solve(system(2, rows=[((1, 0), ">=", 0)])).farkas is None
        assert strict_feasible(system(2, rows=[((1, 0), ">", 2)])).farkas is None

    def test_random_infeasible_systems(self):
        rng = SplitMix64(6151)
        infeasible = equality_rows = 0
        for _ in range(300):
            sys_r = _random_weak_system(rng, rng.next_int(1, 4), rng.next_int(1, 4))
            result = solve(sys_r)
            if result.is_optimal:
                assert result.farkas is None
                continue
            infeasible += 1
            equality_rows += any(row.relation == "==" for row in sys_r.rows)
            assert certifies_infeasibility(sys_r, result.farkas)
            # a corrupted ray is refused: negating a certificate breaks it,
            # and so does the zero vector
            for bad in (tuple(-lam for lam in result.farkas), (F(0),) * len(sys_r.rows)):
                assert not certifies_infeasibility(sys_r, bad)
                with pytest.raises(InternalInvariantError, match="lp-farkas-substitution"):
                    exactlp._verify_farkas(sys_r, bad)
        assert infeasible > 100 and equality_rows > 50

    def test_corrupted_ray_raises_inside_solve(self, monkeypatch):
        original = exactlp._solve_standard_form

        def negated_ray(*args):
            value, vector = original(*args)
            return value, vector if value is not None else [-y for y in vector]

        monkeypatch.setattr(exactlp, "_solve_standard_form", negated_ray)
        with pytest.raises(InternalInvariantError, match="lp-farkas-substitution"):
            solve(system(2, rows=[((1, 0), ">=", 2), ((0, 1), "==", F(1, 2))]))


def _points(a, b):
    return list(zip(a, b))


def _reference_system(points, strict):
    """The same question as a `LinearSystem`, for `strict_feasible`."""
    a, b = zip(*points)
    return system(len(points), rows=[(a, ">", 0), (b, ">" if strict else ">=", 0)])


def _random_points(rng):
    n = rng.next_int(1, 8)
    magnitude = (3, 10, 1000)[rng.next_below(3)]
    a = [F(rng.next_int(-magnitude, magnitude)) for _ in range(n)]
    if rng.next_below(4) == 0:  # parallel rows: b_t - b_s is a multiple of a_t - a_s
        scale = F(rng.next_int(-3, 3))
        b = [scale * x for x in a]
    else:
        b = [F(rng.next_int(-magnitude, magnitude)) for _ in range(n)]
    return _points(a, b)


def certifies_motzkin(points, farkas, strict):
    """The Motzkin certificate, written out apart from the solver: alpha > 0
    (or, when both rows are strict, alpha + beta > 0), alpha, beta >= 0, and
    alpha a_s + beta b_s <= 0 in every state."""
    alpha, beta = farkas
    if alpha < 0 or beta < 0 or alpha + (beta if strict else 0) <= 0:
        return False
    return all(alpha * a + beta * b <= 0 for a, b in points)


def _decide(points, strict):
    """The belief for both rows, a.x > 0 and b.x > 0 (or >= 0)."""
    return exactlp.edge_witness(points, (True, strict))


class TestPlanarFeasible:
    @pytest.mark.parametrize("relation", [">", ">="])
    def test_matches_strict_feasible_on_seeded_systems(self, relation):
        strict = relation == ">"
        rng = SplitMix64(7919 if strict else 7927)
        seen = {True: 0, False: 0}
        for _ in range(700):
            points = _random_points(rng)
            reference = _reference_system(points, strict)
            witness = _decide(points, strict)
            if witness is None:
                farkas = exactlp.motzkin_certificate(points, (True, strict))
                assert certifies_motzkin(points, farkas, strict)
            assert (witness is not None) == strict_feasible(reference).open_feasible
            seen[witness is not None] += 1
            if witness is not None:
                assert all(row.satisfied_by(witness.coordinates) for row in reference.rows)
        assert seen[True] > 150 and seen[False] > 150

    def test_integer_points_give_the_fraction_witness(self):
        # one positive factor scales the seeded points to integers, as
        # scaled_payoff scales a problem; the witness must not move
        segments = 0
        for seed, strict in ((7919, True), (7927, False)):
            rng = SplitMix64(seed)
            for n in range(700):
                points = [(a / (1 + s % 4), b / (1 + (s + n) % 6))
                          for s, (a, b) in enumerate(_random_points(rng))]
                scaled = DecisionProblem.from_matrix(points).scaled_payoff
                assert all(type(c) is int for point in scaled for c in point)
                exact, integral = _decide(points, strict), _decide(scaled, strict)
                assert integral == exact
                if exact is not None:
                    segments += sum(c != 0 for c in exact.coordinates) == 2
        assert segments > 50

    def test_one_state(self):
        assert exactlp.edge_witness(_points([3], [1]), (True, True)).coordinates == (F(1),)
        assert _decide(_points([3], [0]), False).coordinates == (F(1),)
        assert exactlp.edge_witness(_points([3], [0]), (True, True)) is None
        assert exactlp.edge_witness(_points([0], [5]), (True, True)) is None
        for a, b, strict, farkas in [
            ([3], [-2], False, (F(2), F(3))),
            ([0], [0], False, (F(1), F(0))),
            # the strict pair at (1, 0): only (0, beta) certifies
            ([1], [0], True, (F(0), F(1))),
            ([-1], [-1], True, (F(1), F(0))),
        ]:
            assert _decide(_points(a, b), strict) is None
            assert exactlp.motzkin_certificate(_points(a, b), (True, strict)) == farkas

    @pytest.mark.parametrize("scale", [F(2), F(0), F(-1)])
    @pytest.mark.parametrize("relation", [">", ">="])
    def test_parallel_rows(self, scale, relation):
        a = (F(-2), F(5), F(1))
        strict = relation == ">"
        points = _points(a, tuple(scale * x for x in a))
        feasible = _decide(points, strict) is not None
        assert feasible == strict_feasible(_reference_system(points, strict)).open_feasible
        assert feasible == (scale > 0 or (scale == 0 and not strict))

    def test_edge_witness_is_the_middle_of_the_open_interval(self):
        # no point mass works; on the segment, 2 - 3 lam > 0 and -1 + 3 lam > 0
        # leave lam in (1/3, 2/3), and either end would make a row zero
        witness = exactlp.edge_witness(_points([2, -1], [-1, 2]), (True, True))
        assert witness.coordinates == (F(1, 2), F(1, 2))
        witness = _decide(_points([0, 4, -4], [0, -1, 3]), False)
        assert witness.coordinates == (F(0), F(5, 8), F(3, 8))

    def test_feasible_set_of_one_closed_point(self):
        # x1 - x2 > 0 and -x2 >= 0 hold only at the point mass on state 0
        assert _decide(_points([1, 1], [0, -1]), False).coordinates == (F(1), F(0))
        # a segment whose two weak constraints leave the single lam = 1/2,
        # given as (lo, lo_den, hi, hi_den)
        constraints = ((F(1), F(-1), False), (F(-1), F(1), False))
        assert exactlp.segment_interval(constraints) == (1, 2, 1, 2)
        strict = ((F(1), F(-1), True), (F(-1), F(1), False))
        assert exactlp.segment_interval(strict) is None
        # the strict row opens the low end at 1/2; a weak row with the same
        # root must not close it, so the closed high end 1/2 leaves nothing
        constraints = [(-1, 1, True), (-1, 1, False), (1, -1, False)]
        assert exactlp.segment_interval(constraints) is None

    def test_half_open_certificate_needs_a_positive_first_multiplier(self, monkeypatch):
        # every b_s < 0, so (0, 1) would separate; the half-open system
        # still gets alpha > 0, from the line through (2, -1)
        points = _points([2, -1], [-1, -3])
        assert exactlp.motzkin_certificate(points, (True, False)) == (F(1), F(2))
        # on (1, 0) and (-1, -1) only (0, beta) separates: the strict pair
        # has that certificate, and the half-open system a witness
        closed = _points([1, -1], [0, -1])
        assert exactlp.motzkin_certificate(closed, (True, True)) == (F(0), F(1))
        assert _decide(closed, False).coordinates == (F(1), F(0))
        monkeypatch.setattr(exactlp, "_motzkin_multipliers", lambda points, strict: (0, 1))
        assert exactlp.motzkin_certificate(points, (True, True)) == (0, 1)
        with pytest.raises(InternalInvariantError, match="lp-farkas-substitution"):
            exactlp.motzkin_certificate(points, (True, False))

    def test_corrupted_witness_raises(self, monkeypatch):
        # lam = 2/3 gives (1/3, 2/3), on the feasible segment's closure but
        # making the first row zero
        monkeypatch.setattr(exactlp, "segment_interval", lambda constraints: (2, 3, 2, 3))
        with pytest.raises(InternalInvariantError, match="lp-witness-substitution"):
            exactlp.edge_witness(_points([2, -1], [-1, 2]), (True, True))

    @pytest.mark.parametrize(
        "bad", [(F(0), F(0)), (F(-1), F(0)), (F(1), F(0)), (F(0), F(1))]
    )
    def test_corrupted_certificate_raises(self, bad, monkeypatch):
        # infeasible: the only state with a > 0 has b < 0
        monkeypatch.setattr(exactlp, "_motzkin_multipliers", lambda points, strict: bad)
        with pytest.raises(InternalInvariantError, match="lp-farkas-substitution"):
            exactlp.motzkin_certificate(_points([1, -1], [-1, 0]), (True, False))

    def test_missing_alternative_raises(self, monkeypatch):
        monkeypatch.setattr(exactlp, "_motzkin_multipliers", lambda points, strict: None)
        with pytest.raises(InternalInvariantError, match="lp-planar-alternative"):
            exactlp.motzkin_certificate(_points([1, -1], [-1, 0]), (True, False))


def reference_interval(constraints):
    """The closure of {lam in [0, 1]: every constraint holds}, in plain
    Fractions and apart from the solver.  The set is an interval whose ends
    are among 0, 1 and the roots, and no constraint changes sign between two
    neighbouring ones, so those points and the middles between them decide
    it: an end is the last point at or before the first feasible candidate,
    or the first at or after the last one."""
    rows = [(F(u), F(v), strict) for u, v, strict in constraints]
    points = {F(0), F(1)}
    for u, v, _ in rows:
        if u != v and 0 <= u / (u - v) <= 1:
            points.add(u / (u - v))
    ordered = sorted(points)

    def holds(lam):
        values = [((1 - lam) * u + lam * v, strict) for u, v, strict in rows]
        return all(value > 0 or (value == 0 and not strict) for value, strict in values)

    candidates = ordered + [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    feasible = [lam for lam in candidates if holds(lam)]
    if not feasible:
        return None
    return (max(p for p in ordered if p <= min(feasible)),
            min(p for p in ordered if p >= max(feasible)))


def seeded_constraints(rng, case):
    """One to five constraints with entries in -3..3, Fractions in every
    other case; a third of the rows repeat the previous root, scaled, with
    a freshly drawn strictness, so strict and weak roots often coincide."""
    out = []
    for _ in range(1 + rng.next_below(5)):
        strict = rng.next_below(2) == 1
        if out and rng.next_below(3) == 0:
            u, v, _ = out[-1]
            k = 1 + rng.next_below(3)
            out.append((k * u, k * v, strict))
            continue
        u, v = rng.next_below(7) - 3, rng.next_below(7) - 3
        if case % 2:
            u, v = F(u, 1 + rng.next_below(4)), F(v, 1 + rng.next_below(4))
        out.append((u, v, strict))
    return out


class TestSegmentInterval:
    def test_matches_the_fraction_reference(self):
        rng = SplitMix64(1968)
        seen = {"empty": 0, "point": 0, "flat": 0, "open_lo_on_weak_root": 0}
        for case in range(3200):
            constraints = seeded_constraints(rng, case)
            found = exactlp.segment_interval(iter(constraints))
            if found is not None:
                lo, lo_den, hi, hi_den = found
                assert lo_den > 0 and hi_den > 0
                if case % 2 == 0:
                    assert all(type(x) is int for x in found)
                found = F(lo, lo_den), F(hi, hi_den)
            assert found == reference_interval(constraints), constraints
            if found is None:
                seen["empty"] += 1
            else:
                seen["point"] += found[0] == found[1]
            seen["flat"] += any(u == v for u, v, _ in constraints)
            # a strict rising row, then a weak one through the same root
            seen["open_lo_on_weak_root"] += any(
                s_strict and not w_strict and s_v > s_u and w_v > w_u
                and s_u * (w_u - w_v) == w_u * (s_u - s_v)
                for (s_u, s_v, s_strict), (w_u, w_v, w_strict)
                in zip(constraints, constraints[1:])
            )
        assert min(seen.values()) >= 100, seen


class TestStrictAgainstGridOracle:
    """The slack criterion t* > 0 must agree with exhaustive grid search:
    a strict witness is itself a grid point at its own denominator, and an
    open-infeasible system admits no strict grid point at any denominator
    we can afford to sweep."""

    def test_random_strict_systems(self):
        rng = SplitMix64(977)
        feasible_seen = infeasible_seen = 0
        for _ in range(120):
            dim = rng.next_int(2, 3)
            sys_r = _random_system(rng, dim, rng.next_int(1, 3))
            result = strict_feasible(sys_r)
            if result.open_feasible:
                feasible_seen += 1
                witness = result.witness
                assert all(row.satisfied_by(witness.coordinates) for row in sys_r.rows)
            else:
                infeasible_seen += 1
                for denominator in range(1, 13):
                    for belief in grid_beliefs(GridSpec(denominator, dim)):
                        assert not all(
                            row.satisfied_by(belief.coordinates) for row in sys_r.rows
                        )
        assert feasible_seen > 10 and infeasible_seen > 10

    def test_witness_is_a_grid_point_at_its_denominator(self):
        result = strict_feasible(
            system(2, rows=[((1, 0), ">", F(1, 3)), ((0, 1), ">", F(1, 5))])
        )
        assert result.open_feasible
        import math

        d = math.lcm(*(c.denominator for c in result.witness.coordinates))
        grid = [b.coordinates for b in grid_beliefs(GridSpec(d, 2))]
        assert result.witness.coordinates in grid


class TestAgainstScipy:
    """Float cross-check of one-strict-row margins on random systems: the
    margin of objective . x > 0 under weak rows is scipy's maximum of
    objective . x, and the system is infeasible exactly when that maximum
    is negative or the weak rows have no solution."""

    def test_optimal_values_match(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = SplitMix64(4242)
        compared = 0
        for _ in range(60):
            dim = rng.next_int(2, 4)
            num_rows = rng.next_int(0, 3)
            rows = []
            for _ in range(num_rows):
                coeffs = tuple(F(rng.next_int(-4, 4)) for _ in range(dim))
                rows.append((coeffs, ">=", F(rng.next_int(-2, 1))))
            objective = tuple(F(rng.next_int(-5, 5)) for _ in range(dim))
            exact = maximized(dim, rows, objective)

            a_ub = [[-float(c) for c in row[0]] for row in rows]
            b_ub = [-float(row[2]) for row in rows]
            res = scipy_opt.linprog(
                [-float(c) for c in objective],
                A_ub=a_ub or None,
                b_ub=b_ub or None,
                A_eq=[[1.0] * dim],
                b_eq=[1.0],
                bounds=[(0, None)] * dim,
                method="highs",
            )
            if exact.status is LPStatus.INFEASIBLE:
                assert res.status == 2 or -res.fun < -1e-8
            else:
                assert res.status == 0
                assert abs(float(exact.slack) - (-res.fun)) < 1e-8
                compared += 1
        assert compared > 20


def _package_modules():
    return [name for name in sys.modules if name == "qccheck" or name.startswith("qccheck.")]


class TestModuleLifetime:
    def test_dropped_copy_of_the_package_is_collected(self):
        # a process that re-imports the package (a benchmark taking fresh
        # set-ups) must not keep every earlier copy alive through a cache:
        # every module's annotations name Belief, so an annotation evaluated
        # into typing's cache anywhere would keep it alive
        saved = {name: sys.modules.pop(name) for name in _package_modules()}
        try:
            importlib.import_module("qccheck")
            refs = [
                weakref.ref(importlib.import_module("qccheck.exactlp").LinearRow),
                weakref.ref(importlib.import_module("qccheck.problems").Belief),
            ]
        finally:
            for name in _package_modules():
                del sys.modules[name]
            sys.modules.update(saved)
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
