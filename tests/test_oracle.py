"""Grid enumeration, the complete two-state oracle, and the instance
generator."""

import ast
import math
from fractions import Fraction as F
from itertools import combinations, islice, product
from pathlib import Path

import pytest

import qccheck.oracle as oracle_module
from qccheck import (
    Belief,
    DecisionProblem,
    GridSpec,
    SplitMix64,
    check_argmax_convexity,
    check_qcc,
    exact_check_two_state,
    find_grid_dip,
    find_grid_gap,
    grid_beliefs,
    is_contiguous,
    iterated_elimination,
    random_problem,
    unimodality_profile,
)
from qccheck.oracle import (
    _block_ties,
    _first_gap_triple,
    _grid_walk,
    _successors,
    _tie_solver,
)
from qccheck.problems import integer_payoff


class TestGridBeliefs:
    def test_order_and_count_for_two_states(self):
        beliefs = [b.coordinates for b in grid_beliefs(GridSpec(2, 2))]
        assert beliefs == [(F(0), F(1)), (F(1, 2), F(1, 2)), (F(1), F(0))]

    def test_vertices_at_denominator_one(self):
        beliefs = list(grid_beliefs(GridSpec(1, 3)))
        assert len(beliefs) == 3
        assert all(max(b.coordinates) == 1 for b in beliefs)

    def test_count_formula(self):
        for denominator in (1, 2, 4, 7):
            for dimension in (1, 2, 3, 4):
                spec = GridSpec(denominator, dimension)
                assert spec.count == math.comb(
                    denominator + dimension - 1, dimension - 1
                )
                assert len(list(grid_beliefs(spec))) == spec.count

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            GridSpec(0, 2)

    def test_successors_match_the_scanning_reference(self):
        # keeping the last nonzero part gives the compositions and the steps
        # (q, r) that scanning back for it gives
        def reference(total, parts):
            last = parts - 1
            x = [0] * last + [total]
            yield tuple(x), 0, 0
            while last:
                if x[last]:
                    x[last - 1], x[last] = x[last - 1] + 1, x[last] - 1
                    yield tuple(x), last, 0
                    continue
                q = last - 1
                while q and not x[q]:
                    q -= 1
                if not q:
                    return
                r = x[q] - 1
                x[q - 1], x[q], x[last] = x[q - 1] + 1, 0, r
                yield tuple(x), q, r

        for parts in range(1, 7):
            for total in range(7):
                expected = list(reference(total, parts))
                # one step past the end, so a walk that never ends fails
                steps = islice(_successors(total, parts), len(expected) + 1)
                assert [(tuple(x), q, r) for x, q, r in steps] == expected


class TestGridDip:
    def test_finds_fixture_dip(self, p2):
        found = find_grid_dip(p2, GridSpec(5, 2))
        assert found is not None
        belief, triple = found
        values, unimodal = unimodality_profile(p2, belief)
        assert not unimodal
        i, j, k = triple
        assert values[j] < values[i] and values[j] < values[k]

    def test_absent_on_unimodal_fixture(self, p1):
        assert find_grid_dip(p1, GridSpec(100, 2)) is None

    def test_single_action_never_dips(self):
        problem = DecisionProblem.from_matrix([[1, 2]])
        assert find_grid_dip(problem, GridSpec(10, 2)) is None

    def test_dimension_mismatch(self, p1):
        with pytest.raises(ValueError):
            find_grid_dip(p1, GridSpec(5, 3))

    def test_agrees_with_profile_on_every_grid_point(self):
        # the scaled-integer fast path must equal the exact profile verdict
        problem = random_problem(seed=31, actions=4, states=3, magnitude=5)
        spec = GridSpec(6, 3)
        dips = {
            belief.coordinates
            for belief in grid_beliefs(spec)
            if not unimodality_profile(problem, belief)[1]
        }
        found = find_grid_dip(problem, spec)
        if dips:
            assert found is not None and found[0].coordinates in dips
        else:
            assert found is None


class TestGridGap:
    def test_finds_fixture_gap(self, p2):
        found = find_grid_gap(p2, GridSpec(4, 2))
        assert found is not None
        belief, triple = found
        assert belief.coordinates == (F(3, 4), F(1, 4))
        assert triple == (0, 1, 2)

    def test_absent_on_unimodal_fixture(self, p1):
        assert find_grid_gap(p1, GridSpec(60, 2)) is None

    def test_two_actions_never_gap(self):
        problem = DecisionProblem.from_matrix([[1, 0], [0, 1]])
        assert find_grid_gap(problem, GridSpec(30, 2)) is None

    def test_dimension_mismatch(self, p1):
        with pytest.raises(ValueError):
            find_grid_gap(p1, GridSpec(5, 3))

    def test_gap_triples_reverify(self):
        for seed in range(15):
            problem = random_problem(seed=3200 + seed, actions=4, states=2, magnitude=6)
            found = find_grid_gap(problem, GridSpec(24, 2))
            if found is not None:
                belief, (i, j, k) = found
                optimal = problem.argmax_set(belief)
                assert i in optimal and k in optimal and j not in optimal
                assert not is_contiguous(optimal, problem.num_actions)


def _reference_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _reference_compositions(total - first, parts - 1):
            yield (first,) + rest


def _reference_search(problem, spec):
    """(first dip, first gap) by brute force: every composition built
    recursively, the whole Fraction profile at every belief, and every
    triple tried in lexicographic order, with no unimodality screen."""
    dip = gap = None
    for numerators in _reference_compositions(spec.denominator, spec.dimension):
        belief = Belief(tuple(F(m, spec.denominator) for m in numerators))
        values = problem.payoff_profile(belief)
        best = max(values)
        for i, j, k in combinations(range(len(values)), 3):
            if dip is None and values[j] < values[i] and values[j] < values[k]:
                dip = (belief, (i, j, k))
            if gap is None and values[i] == values[k] == best != values[j]:
                gap = (belief, (i, j, k))
        if dip is not None and gap is not None:
            break
    return dip, gap


def _walker_cases():
    """Seeded problems over 1-8 states and 1-7 actions, integer and rational
    payoffs with small magnitudes (so grid beliefs tie), grids 1-20 cut
    down to at most 400 beliefs."""
    rng = SplitMix64(20240613)
    for case in range(224):
        states, actions = 1 + case % 8, 1 + case // 8 % 7
        denominator = 1 + rng.next_below(20)
        while GridSpec(denominator, states).count > 400:
            denominator -= 1
        problem = random_problem(rng.next_uint64(), actions, states, 1 + case % 4)
        if case // 56 % 2:
            problem = DecisionProblem.from_matrix([
                [v / (1 + rng.next_below(4)) for v in row] for row in problem.payoff
            ])
        yield problem, GridSpec(denominator, states)


class TestGridWalk:
    def test_walk_matches_the_brute_force_reference(self):
        shapes, findings = set(), []
        for problem, spec in _walker_cases():
            shapes.add((problem.num_states, problem.num_actions))
            walked = [(tuple(x), values) for x, values in _grid_walk(problem, spec)]
            assert len(walked) == spec.count
            assert [spec.belief(x) for x, _ in walked] == list(grid_beliefs(spec))
            scaled = integer_payoff(problem)
            for x, values in walked:
                assert values == [sum(m * u for m, u in zip(x, row)) for row in scaled]
            found = (find_grid_dip(problem, spec), find_grid_gap(problem, spec))
            assert found == _reference_search(problem, spec)
            findings.append(found)
        assert (1, 1) in shapes and (8, 7) in shapes
        # the comparison must not pass on problems with nothing to find
        assert sum(dip is not None for dip, _ in findings) >= 140
        assert sum(gap is not None for _, gap in findings) >= 110


def _walked_gap(problem, spec):
    """The first gap as the walk finds it: the whole profile at every grid
    belief, in order, read by `_first_gap_triple`."""
    for numerators, values in _grid_walk(problem, spec):
        triple = _first_gap_triple(values)
        if triple is not None:
            return spec.belief(numerators), triple
    return None


def _assert_search_matches_walk(cases):
    findings = [find_grid_gap(problem, spec) for problem, spec in cases]
    assert findings == [_walked_gap(problem, spec) for problem, spec in cases]
    return findings


def _leaf_lines():
    """(states, c0, alpha, beta, rest) rows: random 4-state lines, with
    beta = 0, alpha = beta = 0 and negative beta among them, and the lines
    that 1-3 states pad to, where c0 = -rest*alpha or a multiple of rest."""
    rng = SplitMix64(5150)
    rows = [(4, 0, 0, 0, 3), (4, 5, 0, 0, 3), (4, 6, -3, 0, 4), (4, 7, -3, 0, 4),
            (4, -4, 2, -2, 5), (4, 9, 6, -4, 7), (4, 0, 0, 0, 0), (4, 3, 1, 1, 0)]
    for _ in range(400):
        rows.append((4, rng.next_int(-40, 40), rng.next_int(-7, 7), rng.next_int(-7, 7),
                     rng.next_int(0, 9)))
    for _ in range(60):
        alpha, beta, rest = rng.next_int(-5, 5), rng.next_int(-5, 5), rng.next_int(1, 9)
        rows.append((3, rest * rng.next_int(-5, 5), alpha, beta, rest))
        rows.append((2, -rest * alpha, alpha, beta, rest))
        rows.append((1, -rest * alpha, alpha, alpha, rest))
    return rows


def _leaf_problem(states, c0, alpha, beta, rest):
    """A problem and grid whose gap search reads a leaf with `rest` units
    left on which the pair (0, 2) ties on c0 + a*alpha + b*beta = 0.  Its d
    is row 0, and row 1 is best everywhere, so no gap stops the search.
    With 4 states that leaf is x0 = 1; with fewer the root is the leaf."""
    if states == 4:
        d, denominator = [c0, alpha, beta, 0], rest + 1
    elif states == 3:
        d, denominator = [alpha + c0 // rest, beta + c0 // rest, c0 // rest], rest
    elif states == 2:
        d, denominator = [beta - alpha, -alpha], rest
    else:
        d, denominator = [-alpha], rest
    high = 1 + max(0, *d)
    problem = DecisionProblem.from_matrix([d, [high] * states, [0] * states])
    return problem, GridSpec(denominator, states)


class TestGapSearch:
    """The tie search against the walk it replaced, gap for gap."""

    def test_wide_shapes(self):
        cases = [
            (random_problem(9300 + 10 * seed + actions, actions, states, 1000),
             GridSpec(12, states))
            for states in (6, 7, 8) for actions in (4, 5, 6) for seed in range(3)
        ]
        findings = _assert_search_matches_walk(cases)
        assert 0 < sum(found is not None for found in findings) < len(cases)

    def test_many_action_survivors(self):
        cases = []
        for seed, actions, states in ((501, 40, 5), (500, 24, 6), (500, 24, 7), (501, 24, 8)):
            surviving = iterated_elimination(random_problem(seed, actions, states, 1000)).surviving
            assert 15 <= surviving.num_actions <= 22
            cases.append((surviving, GridSpec(10, states)))
        findings = _assert_search_matches_walk(cases)
        assert 0 < sum(found is not None for found in findings) < len(cases)

    def test_rational_payoffs(self):
        rng = SplitMix64(77)
        cases = []
        for case in range(40):
            states, actions = 3 + case % 4, 3 + case // 4 % 5
            problem = random_problem(rng.next_uint64(), actions, states, 4)
            problem = DecisionProblem.from_matrix([
                [v / (1 + rng.next_below(6)) for v in row] for row in problem.payoff
            ])
            cases.append((problem, GridSpec(5 + case % 4, states)))
        findings = _assert_search_matches_walk(cases)
        assert 0 < sum(found is not None for found in findings) < len(cases)

    def test_one_and_two_states(self):
        cases = [
            (random_problem(9400 + seed, 3 + seed % 5, 1 + seed % 2, 1 + seed % 3),
             GridSpec(1 + seed % 13, 1 + seed % 2))
            for seed in range(60)
        ]
        findings = _assert_search_matches_walk(cases)
        assert sum(found is not None for found in findings) >= 10

    def test_identical_rows_tie_on_every_belief(self):
        # rows 0 and 2 tie everywhere; row 1 is optimal only where its
        # middle payoffs beat them, so gaps cover all the rest of the grid
        cases = []
        for states in (2, 3, 5):
            row = [3 * (s % 2) for s in range(states)]
            middle = [4 * (s == 0) for s in range(states)]
            cases.append((DecisionProblem.from_matrix([row, middle, row]), GridSpec(6, states)))
            cases.append((DecisionProblem.from_matrix([row, [9] * states, row]), GridSpec(6, states)))
        findings = _assert_search_matches_walk(cases)
        assert [found is None for found in findings] == [False, True] * 3

    def test_difference_constant_on_the_last_three_states(self):
        # d = u_0 - u_2 is constant on the last three states, so the tie
        # line of a block is all of it or nothing
        cases = []
        for c in (0, 1, -2):
            for states in (3, 4, 6):
                head = [(-1) ** s * (s + 1) for s in range(states - 3)]
                u2 = [s % 3 - 1 for s in range(states)]
                u0 = [a + b for a, b in zip(head + [c] * 3, u2)]
                u1 = [min(a, b) - 1 for a, b in zip(u0, u2)]
                cases.append((DecisionProblem.from_matrix([u0, u1, u2]), GridSpec(7, states)))
        findings = _assert_search_matches_walk(cases)
        assert 0 < sum(found is not None for found in findings) < len(cases)

    def test_block_ties_list_every_lattice_point_on_the_line(self):
        # u0 is found by trying every u below step, apart from the inverse
        # the search uses; a line rejected by its residue has no point
        for alpha, beta in product(range(-5, 6), repeat=2):
            solver = _tie_solver(alpha, beta)
            sign, g, step, coef, _, swap = solver
            for rest in range(6):
                for tops in ((rest, rest), (0, rest), (rest, 0), (0, 0)):
                    for c0 in range(-15, 16):
                        expected = [
                            (a, b) for a in range(tops[0] + 1) for b in range(tops[1] + 1)
                            if a + b <= rest and c0 + a * alpha + b * beta == 0
                        ]
                        if not g:
                            if c0:
                                assert expected == []
                            else:
                                assert sorted(_block_ties(0, 0, solver, rest, tops)) == expected
                            continue
                        if c0 * sign % g:
                            assert expected == []
                            continue
                        c = c0 * sign // g
                        u0 = next(u for u in range(step) if (c + coef * u) % step == 0)
                        if u0 > tops[swap]:
                            assert expected == []
                        else:
                            assert sorted(_block_ties(c, u0, solver, rest, tops)) == expected

    def test_leaf_calls_block_ties_only_where_its_line_can_meet_it(self, monkeypatch):
        # one row per leaf line c0 + a*alpha + b*beta = 0 with `rest` units:
        # the search calls `_block_ties` for it exactly when the line has a
        # lattice point whose free coordinate u is in [0, u-top] and the
        # plane meets the leaf, and the points it lists are all of the ties
        calls = []

        def recorded(c, u0, solver, rest, tops):
            points = _block_ties(c, u0, solver, rest, tops)
            calls.append((rest, tops, sorted(points)))
            return points

        monkeypatch.setattr(oracle_module, "_block_ties", recorded)
        outcomes = set()
        for states, c0, alpha, beta, rest in _leaf_lines():
            tops = {4: (rest, rest), 3: (rest, rest), 2: (0, rest), 1: (0, 0)}[states]
            calls.clear()
            assert find_grid_gap(*_leaf_problem(states, c0, alpha, beta, rest)) is None
            listed = [points for left, at, points in calls if left == rest]
            assert all(at == tops for left, at, _ in calls if left == rest)
            ties = [(a, b) for a in range(tops[0] + 1) for b in range(tops[1] + 1)
                    if a + b <= rest and c0 + a * alpha + b * beta == 0]
            # u is a, or b when beta = 0; the other coordinate is w
            if beta:
                lattice = any((c0 + a * alpha) % beta == 0 for a in range(tops[0] + 1))
            else:
                lattice = not alpha or c0 % alpha == 0
            ends = (c0, c0 + tops[0] * alpha, c0 + tops[1] * beta)
            meets = min(ends) <= 0 <= max(ends)
            assert len(listed) == (lattice and meets)
            assert (listed or [[]])[0] == ties
            outcomes.add((states, lattice, meets, bool(ties)))
        # every state count reaches a call that lists ties, and the 4-state
        # rows also reach each reject alone and a call that lists none
        assert {(states, True, True, True) for states in (1, 2, 3, 4)} <= outcomes
        assert {(4, False, True, False), (4, True, False, False), (4, True, True, False)} <= outcomes

    def test_deep_grids_need_no_recursion(self):
        cases = [(random_problem(7, 3, 2000, 1000), GridSpec(1, 2000)),
                 (random_problem(7, 3, 1200, 1000), GridSpec(2, 1200))]
        assert [found is None for found in _assert_search_matches_walk(cases)] == [True, False]


class TestOneSidedSoundness:
    def test_grid_findings_imply_solver_failures(self):
        # a finite grid can only confirm failures: any dip or gap it finds
        # must already be reflected in the whole-simplex verdicts
        for seed in range(25):
            problem = random_problem(
                seed=4600 + seed, actions=3 + seed % 3, states=2 + seed % 3, magnitude=7
            )
            spec = GridSpec(8, problem.num_states)
            if find_grid_dip(problem, spec) is not None:
                assert not check_qcc(problem).holds
            if find_grid_gap(problem, spec) is not None:
                assert not check_argmax_convexity(problem, check_qcc(problem)).holds

    def test_solver_counterexamples_confirmed_pointwise(self):
        for seed in range(25):
            problem = random_problem(
                seed=4700 + seed, actions=3 + seed % 3, states=2 + seed % 3, magnitude=7
            )
            verdict = check_qcc(problem)
            if verdict.counterexample is not None:
                _, unimodal = unimodality_profile(problem, verdict.counterexample.belief)
                assert not unimodal


class TestExactTwoState:
    def test_fixture_verdicts(self, p1, p2):
        assert exact_check_two_state(p1) == (True, True)
        assert exact_check_two_state(p2) == (False, False)

    def test_crossing_two_action_problem(self):
        problem = DecisionProblem.from_matrix([[1, 0], [0, 1]])
        assert exact_check_two_state(problem) == (True, True)

    def test_requires_two_states(self):
        with pytest.raises(ValueError):
            exact_check_two_state(DecisionProblem.from_matrix([[1, 2, 3]]))

    def test_complete_agreement_with_solver_verdicts(self):
        # the breakpoint oracle is complete for two states, so it must match
        # the LP route exactly, with or without dominated actions present
        disagreements = 0
        for seed in range(80):
            problem = random_problem(
                seed=12000 + seed, actions=1 + seed % 6, states=2, magnitude=9
            )
            oracle_verdict = exact_check_two_state(problem)
            qcc_verdict = check_qcc(problem)
            lp_verdict = (
                qcc_verdict.holds,
                check_argmax_convexity(problem, qcc_verdict).holds,
            )
            if oracle_verdict != lp_verdict:
                disagreements += 1
        assert disagreements == 0


class TestSplitMix64:
    def test_reference_sequence(self):
        # first outputs for seed 1234567, frozen for cross-platform stability
        rng = SplitMix64(1234567)
        values = [rng.next_uint64() for _ in range(3)]
        assert values == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_bounded_draws(self):
        rng = SplitMix64(99)
        draws = [rng.next_int(-10, 10) for _ in range(500)]
        assert all(-10 <= d <= 10 for d in draws)
        assert min(draws) == -10 and max(draws) == 10

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SplitMix64(1).next_int(3, 2)


class TestIndependence:
    def test_the_only_package_import_is_the_problem_model(self):
        # the oracle cross-checks the LP verdicts, so it may not import the
        # LP machinery or anything built on it
        tree = ast.parse(Path(oracle_module.__file__).read_text())
        imports = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level or (node.module or "").split(".")[0] == "qccheck":
                    imports.append((node.level, node.module))
            elif isinstance(node, ast.Import):
                imports += [(0, alias.name) for alias in node.names
                            if alias.name.split(".")[0] == "qccheck"]
        assert imports == [(1, "problems")]


class TestRandomProblem:
    def test_deterministic(self):
        a = random_problem(seed=77, actions=3, states=2, magnitude=10)
        b = random_problem(seed=77, actions=3, states=2, magnitude=10)
        assert a == b

    def test_entries_within_bounds(self):
        problem = random_problem(seed=5, actions=6, states=4, magnitude=3)
        assert all(abs(v) <= 3 for row in problem.payoff for v in row)
        assert all(type(v) is F for row in problem.payoff for v in row)

    def test_different_seeds_differ(self):
        a = random_problem(seed=1, actions=4, states=4, magnitude=10)
        b = random_problem(seed=2, actions=4, states=4, magnitude=10)
        assert a != b  # smoke check, not a guarantee

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            random_problem(seed=1, actions=0, states=2, magnitude=5)
        with pytest.raises(ValueError):
            random_problem(seed=1, actions=2, states=2, magnitude=0)
