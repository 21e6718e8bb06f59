"""Dominance duality, certificates, and iterated elimination."""

import math
from fractions import Fraction as F

import pytest

from qccheck import (
    Belief,
    DecisionProblem,
    GridSpec,
    InternalInvariantError,
    PolynomialProblem,
    grid_beliefs,
    iterated_elimination,
    mixed_dominance_certificate,
    random_problem,
    unique_optimality_witness,
)
import qccheck.dominance as dominance_module
from qccheck.dominance import _duality_check, _verify_mixture
from qccheck.oracle import SplitMix64
from qccheck.problems import integer_payoff


def mixture_dominates(problem, action_index, weights):
    if weights[action_index] != 0 or sum(weights) != 1 or any(w < 0 for w in weights):
        return False
    return all(
        sum(w * problem.payoff[m][j] for m, w in enumerate(weights))
        >= problem.payoff[action_index][j]
        for j in range(problem.num_states)
    )


class TestUniqueOptimalityWitness:
    def test_fixture_middle_action(self, p1):
        witness = unique_optimality_witness(p1, 1)
        assert witness.coordinates == (F(1, 2), F(1, 2))
        assert witness.is_interior
        assert p1.argmax_set(witness) == {1}

    def test_dominated_action_has_none(self):
        problem = DecisionProblem.from_matrix([[1, 1], [2, 2]])
        assert unique_optimality_witness(problem, 0) is None

    def test_duplicate_rows_have_none(self):
        problem = DecisionProblem.from_matrix([[1, 1], [1, 1]])
        assert unique_optimality_witness(problem, 0) is None
        assert unique_optimality_witness(problem, 1) is None

    def test_index_out_of_range(self, p1):
        with pytest.raises(IndexError):
            unique_optimality_witness(p1, 3)


class TestMixedDominanceCertificate:
    def test_strict_mixture_needed(self):
        problem = DecisionProblem.from_matrix([[0, 0], [2, -1], [-1, 2]])
        weights = mixed_dominance_certificate(problem, 0)
        assert weights is not None
        assert mixture_dominates(problem, 0, weights)

    def test_pure_dominance(self):
        problem = DecisionProblem.from_matrix([[1, 1], [2, 2]])
        assert mixed_dominance_certificate(problem, 0) == (F(0), F(1))

    def test_essential_action_has_no_certificate(self, p1):
        assert mixed_dominance_certificate(p1, 1) is None

    def test_exactly_one_side_exists_on_random_problems(self):
        # exact LP duality: witness xor certificate, for every action of
        # every instance (the certificate call itself re-checks and raises
        # on disagreement; here we also assert the pairing explicitly)
        for seed in range(40):
            problem = random_problem(
                seed=900 + seed, actions=2 + seed % 4, states=1 + seed % 3, magnitude=6
            )
            for action in range(problem.num_actions):
                witness = unique_optimality_witness(problem, action)
                certificate = mixed_dominance_certificate(problem, action)
                assert (witness is None) != (certificate is None)
                if certificate is not None:
                    assert mixture_dominates(problem, action, certificate)


CONCAVE_POLY = PolynomialProblem(
    (F(0), F(2)), ("low", "high"), ((F(0), F(0), F(-1)), (F(-4), F(4), F(-1)))
)


class TestWitnessFromFarkasRay:
    """The witness read off the mixture LP against the strict LP of
    `unique_optimality_witness`, an independent route."""

    @staticmethod
    def check_both_routes(problem):
        """Returns how many actions are essential (have a witness)."""
        essential = 0
        for action in range(problem.num_actions):
            weights, point = _duality_check(problem, action, integer_payoff(problem))
            assert (weights is None) != (point is None)
            assert (weights is None) == (unique_optimality_witness(problem, action) is not None)
            if weights is not None:
                assert mixture_dominates(problem, action, weights)
            else:
                witness = Belief.from_numerators(*point)
                assert witness.is_interior
                assert problem.argmax_set(witness) == {action}
                essential += 1
        return essential

    def test_random_problems(self):
        essential = total = 0
        for seed in range(60):
            problem = random_problem(
                seed=8300 + seed, actions=2 + seed % 5, states=1 + seed % 4, magnitude=2 + seed % 5
            )
            essential += self.check_both_routes(problem)
            total += problem.num_actions
        # the seeds exercise both sides of the duality
        assert 20 < essential < total - 20

    @pytest.mark.parametrize("actions", [3, 5, 8])
    def test_discretized_problems(self, actions):
        problem = CONCAVE_POLY.discretize(actions)
        assert self.check_both_routes(problem) == actions

    @pytest.mark.parametrize(
        "matrix, action, witness",
        [
            # the ray is the vertex (1, 0) and the uniform belief prefers
            # action 1, so the step is e = 1/(2 * 11/2) = 1/11, not 1/2
            ([[1, 0], [0, 10]], 0, (F(21, 22), F(1, 22))),
            # vertex (1, 0, 0); uniform margin -2 against ray margin 3: e = 3/10
            ([[3, 0, 0], [0, 0, 9], [0, 9, 0]], 0, (F(4, 5), F(1, 10), F(1, 10))),
        ],
    )
    def test_boundary_ray_moves_inside(self, matrix, action, witness):
        problem = DecisionProblem.from_matrix(matrix)
        weights, found = _duality_check(problem, action, integer_payoff(problem))
        assert weights is None
        assert Belief.from_numerators(*found).coordinates == witness
        self.check_both_routes(problem)

    def test_one_state_problem(self):
        # the only belief is interior, and only the best action is essential
        problem = DecisionProblem.from_matrix([[1], [4], [2]])
        weights, found = _duality_check(problem, 1, integer_payoff(problem))
        assert weights is None and Belief.from_numerators(*found) == Belief((F(1),))
        assert self.check_both_routes(problem) == 1

    def test_duplicate_rows(self):
        # each copy is dominated by the other; the third action is not
        problem = DecisionProblem.from_matrix([[1, 1], [1, 1], [0, 3]])
        assert _duality_check(problem, 0, integer_payoff(problem))[0] == (F(0), F(1), F(0))
        assert _duality_check(problem, 1, integer_payoff(problem))[0] == (F(1), F(0), F(0))
        assert self.check_both_routes(problem) == 1


class TestMixtureVerifier:
    # action 2 is matched by the even mix of 0 and 1; every bad mixture below
    # would pass the state-by-state comparison but for its one defect
    PROBLEM = DecisionProblem.from_matrix([[4, 0], [0, 4], [2, 2], [-4, -4]])

    def test_dominating_mixture_passes(self):
        _verify_mixture(self.PROBLEM, 2, ((0, F(1, 2)), (1, F(1, 2))))

    @pytest.mark.parametrize(
        "mixture, invariant",
        [
            (((0, F(1, 3)), (1, F(2, 3))), "dominance-mixture-substitution"),
            (((2, F(1)),), "dominance-mixture-shape"),
            (((0, F(2, 3)), (1, F(2, 3))), "dominance-mixture-shape"),
            (((0, F(3, 4)), (1, F(3, 4)), (3, F(-1, 2))), "dominance-mixture-shape"),
        ],
        ids=["not-dominating", "contains-target", "sum-above-one", "negative-weight"],
    )
    def test_bad_mixture_raises(self, mixture, invariant):
        with pytest.raises(InternalInvariantError) as raised:
            _verify_mixture(self.PROBLEM, 2, mixture)
        assert raised.value.invariant == invariant


class TestIteratedElimination:
    def test_duplicates_then_mixture(self):
        problem = DecisionProblem.from_matrix([[1, 1], [1, 1], [0, 0]])
        report = iterated_elimination(problem)
        assert report.surviving_indices == (0,)
        assert [(r.original_index, r.reason) for r in report.removed] == [
            (1, "duplicate"),
            (2, "mixed-dominated"),
        ]
        assert report.removed[0].mixture == ((0, F(1)),)
        assert report.removed[1].mixture == ((0, F(1)),)

    def test_fixture_all_survive_with_witnesses(self, p1):
        report = iterated_elimination(p1)
        assert report.surviving_indices == (0, 1, 2)
        assert report.removed == ()
        for i, witness in enumerate(report.witnesses):
            assert witness.is_interior
            assert report.surviving.argmax_set(witness) == {i}

    def test_single_action_survives(self):
        problem = DecisionProblem.from_matrix([[3, -3, 0]])
        report = iterated_elimination(problem)
        assert report.surviving_indices == (0,)
        assert report.witnesses[0].is_interior

    def test_one_state_keeps_only_best(self):
        problem = DecisionProblem.from_matrix([[1], [4], [2]])
        report = iterated_elimination(problem)
        assert report.surviving_indices == (1,)

    def test_mixtures_refer_to_original_indices(self):
        # action 3 is dominated by mixing 0 and 2; action 1 duplicates 0
        problem = DecisionProblem.from_matrix([[4, 0], [4, 0], [0, 4], [1, 1]])
        report = iterated_elimination(problem)
        assert (0, 2) == report.surviving_indices
        for removal in report.removed:
            weights = [F(0)] * problem.num_actions
            for j, w in removal.mixture:
                weights[j] = w
            assert mixture_dominates(problem, removal.original_index, tuple(weights))

    def test_grid_max_payoff_preserved(self):
        # removing weakly dominated actions never changes the attainable
        # maximum at any belief; checked exhaustively on a grid
        for seed in range(12):
            problem = random_problem(
                seed=7000 + seed, actions=2 + seed % 4, states=2 + seed % 2, magnitude=5
            )
            report = iterated_elimination(problem)
            survivors = set(report.surviving_indices)
            for belief in grid_beliefs(GridSpec(6, problem.num_states)):
                values = problem.payoff_profile(belief)
                assert max(values) == max(values[i] for i in survivors)


def restart_elimination(problem):
    """Reference scan: after every removal, start again at the lowest index.

    Returns the surviving original indices and each removal as
    (original_index, reason, mixture)."""
    removed = []
    seen = {}
    active = []
    for i, row in enumerate(problem.payoff):
        if row in seen:
            removed.append((i, "duplicate", ((seen[row], F(1)),)))
        else:
            seen[row] = i
            active.append(i)
    while len(active) > 1:
        sub = problem.restrict_actions(active)
        for position, original in enumerate(active):
            weights = mixed_dominance_certificate(sub, position)
            if weights is not None:
                mixture = tuple((active[j], w) for j, w in enumerate(weights) if w != 0)
                removed.append((original, "mixed-dominated", mixture))
                del active[position]
                break
        else:
            break
    return tuple(active), removed


class TestResumedScan:
    def test_matches_restart_scan_and_witnesses_substitute(self):
        reasons = []
        for seed in range(60):
            problem = random_problem(
                seed=4100 + seed, actions=2 + seed % 6, states=1 + seed % 4, magnitude=1 + seed % 3
            )
            report = iterated_elimination(problem)
            survivors, removals = restart_elimination(problem)
            assert report.surviving_indices == survivors
            assert [
                (r.original_index, r.reason, r.mixture) for r in report.removed
            ] == removals
            assert report.surviving == problem.restrict_actions(survivors)
            for position, witness in enumerate(report.witnesses):
                assert witness.is_interior
                assert report.surviving.argmax_set(witness) == {position}
            reasons += [reason for _, reason, _ in removals]
        # the seeds exercise both kinds of removal
        assert reasons.count("duplicate") >= 5
        assert reasons.count("mixed-dominated") >= 20


def settled_by_inspection(problem, action):
    """True when the action beats every other action in some state, in the
    sum over states (the uniform belief), or somewhere on an edge between
    two point masses."""
    row = problem.payoff[action]
    others = [other for j, other in enumerate(problem.payoff) if j != action]
    return any(
        all(other[state] < row[state] for other in others)
        for state in range(problem.num_states)
    ) or all(sum(other) < sum(row) for other in others) or any(
        beats_all_on_edge(row, others, s, t)
        for s in range(problem.num_states) for t in range(s + 1, problem.num_states)
    )


def beats_all_on_edge(row, others, s, t):
    """Whether (1 - lam) row[s] + lam row[t] beats every other row for some
    lam in [0, 1].  No payoff difference changes sign between two neighbouring
    crossings, so the middles of the gaps between crossings settle it."""
    def margin(other, lam):
        return (1 - lam) * (row[s] - other[s]) + lam * (row[t] - other[t])

    crossings = {F(0), F(1)}
    for other in others:
        at_s, at_t = row[s] - other[s], row[t] - other[t]
        if at_s != at_t and 0 <= at_s / (at_s - at_t) <= 1:
            crossings.add(at_s / (at_s - at_t))
    ordered = sorted(crossings)
    return any(
        all(margin(other, (a + b) / 2) > 0 for other in others)
        for a, b in zip(ordered, ordered[1:])
    )


def screen_cases():
    """330 seeded problems, 1-8 states by 1-7 actions, with payoffs of
    magnitude at most 3, so that ties and duplicate rows are common; every
    other problem has its rows divided by small integers."""
    rng = SplitMix64(2024)
    for case in range(330):
        states, actions = 1 + case % 8, 1 + case // 8 % 7
        problem = random_problem(rng.next_uint64(), actions, states, 1 + case % 3)
        if case % 2:
            problem = DecisionProblem.from_matrix([
                [v / (1 + rng.next_below(3)) for v in row] for row in problem.payoff
            ])
        yield problem


class TestEliminationScreen:
    def test_screen_keeps_every_removal_and_certifies_its_witnesses(self, monkeypatch):
        screen = dominance_module._screened_witness
        screened = []

        def recorded(rows, action):
            start = screen(rows, action)
            if start is not None:
                screened.append(rows[action])
            return start

        settled, reasons = 0, []
        for problem in screen_cases():
            monkeypatch.setattr(dominance_module, "_screened_witness", lambda rows, action: None)
            reference = iterated_elimination(problem)
            monkeypatch.setattr(dominance_module, "_screened_witness", recorded)
            screened.clear()
            report = iterated_elimination(problem)
            assert report.surviving_indices == reference.surviving_indices
            assert report.removed == reference.removed
            # a screened action has a witness, so it is never removed; the
            # screen sees the input problem's integer rows, one per survivor
            scaled = integer_payoff(problem)
            rows = [scaled[i] for i in report.surviving_indices]
            assert all(row in rows for row in screened)
            for row in screened:
                witness = report.witnesses[rows.index(row)]
                assert witness.is_interior
                assert report.surviving.argmax_set(witness) == {rows.index(row)}
            settled += len(screened)
            reasons += [removal.reason for removal in report.removed]
        # the cases exercise the screen, the LP it stands in front of, and
        # the duplicate collapse
        assert settled >= 761
        assert reasons.count("mixed-dominated") >= 300
        assert reasons.count("duplicate") >= 40


class TestEliminationLpCount:
    @staticmethod
    def count_lps(problem, monkeypatch):
        import qccheck.dominance as dominance

        calls = []
        for name in ("solve", "strict_feasible"):
            original = getattr(dominance, name)

            def counted(system, _original=original):
                calls.append(system)
                return _original(system)

            monkeypatch.setattr(dominance, name, counted)
        report = iterated_elimination(problem)
        return report, len(calls)

    @pytest.mark.parametrize("actions", [3, 5, 8])
    def test_lps_only_for_unscreened_actions_when_nothing_is_removed(
        self, actions, monkeypatch
    ):
        # concave in the action at every belief: each grid action is
        # uniquely optimal where the belief puts the peak on it; only those
        # best neither in a state, nor at the uniform belief, nor anywhere
        # on an edge need an LP
        problem = CONCAVE_POLY.discretize(actions)
        report, lps = self.count_lps(problem, monkeypatch)
        assert report.removed == ()
        assert lps == sum(
            not settled_by_inspection(problem, action) for action in range(actions)
        )
        assert lps < actions

    @pytest.mark.parametrize("actions", [3, 5, 8])
    def test_one_lp_per_action_when_nothing_is_removed(self, actions, monkeypatch):
        # with the screen switched off every scanned action is settled by
        # exactly one LP, and the LP path alone still removes nothing
        monkeypatch.setattr(dominance_module, "_screened_witness", lambda rows, action: None)
        report, lps = self.count_lps(CONCAVE_POLY.discretize(actions), monkeypatch)
        assert report.removed == ()
        assert lps == actions

    @pytest.mark.parametrize(
        "matrix, lps",
        [
            ([[3, -3, 0]], 0),  # one action: nothing to solve
            ([[0, 0], [1, 1]], 1),  # the survivor is never scanned
        ],
    )
    def test_lone_survivor_needs_no_witness_lp(self, matrix, lps, monkeypatch):
        report, count = self.count_lps(DecisionProblem.from_matrix(matrix), monkeypatch)
        assert len(report.witnesses) == 1
        assert count == lps


def numerators(belief):
    """A belief's coordinates as integers over their common denominator."""
    q = math.lcm(*(c.denominator for c in belief))
    return [c.numerator * (q // c.denominator) for c in belief]


class TestIntegerSubstitution:
    """The elimination's "uniquely best" check, integer dot products on the
    scaled payoffs, against `argmax_set` on the exact ones."""

    def test_matches_argmax_set_on_seeded_problems(self):
        rng = SplitMix64(1868)
        unique = tied = 0
        for case in range(120):
            states, actions = 1 + case % 4, 2 + case % 5
            problem = random_problem(rng.next_uint64(), actions, states, 1 + case % 3)
            problem = DecisionProblem.from_matrix([
                [v / (1 + rng.next_below(4)) for v in row] for row in problem.payoff
            ])
            rows = integer_payoff(problem)
            beliefs = list(grid_beliefs(GridSpec(4, states)))
            for _ in range(3):
                weights = [1 + rng.next_below(9) for _ in range(states)]
                beliefs.append(Belief(tuple(F(w, sum(weights)) for w in weights)))
            for belief in beliefs:
                optimal = problem.argmax_set(belief)
                unique += len(optimal) == 1
                tied += len(optimal) > 1
                for action in range(actions):
                    assert dominance_module._uniquely_best(rows, action, numerators(belief)) == (
                        optimal == {action}
                    )
        # small payoffs make ties common, so both answers are exercised
        assert unique > 1500 and tied > 100

    def test_a_tie_is_not_unique(self):
        problem = DecisionProblem.from_matrix([[1, 0], [0, 1], [F(1, 4), F(1, 4)]])
        rows = integer_payoff(problem)
        uniform = Belief.uniform(2)
        assert problem.argmax_set(uniform) == {0, 1}
        assert not any(dominance_module._uniquely_best(rows, a, [1, 1]) for a in range(3))
        assert dominance_module._uniquely_best(rows, 0, [3, 2])

    @pytest.mark.parametrize(
        "matrix",
        [
            # the uniform belief ties the two actions, and the step keeps it there
            [[1, 0], [0, 1]],
            # action 0 loses at the start and at the uniform belief alike
            # (g = d < 0), so the step's ratio would have a zero denominator
            [[0, 0], [1, 1], [0, 3]],
        ],
    )
    def test_corrupt_stepped_belief_raises(self, matrix, monkeypatch):
        problem = DecisionProblem.from_matrix(matrix)
        monkeypatch.setattr(
            dominance_module, "_screened_witness", lambda rows, action: ([1, 1], 2)
        )
        with pytest.raises(InternalInvariantError) as caught:
            iterated_elimination(problem)
        assert caught.value.invariant == "dominance-duality"

    @pytest.mark.parametrize(
        "stored",
        [
            lambda rows, action, p: ([1, 1], 2),  # action 1 loses there
            lambda rows, action, p: p,  # a point mass has a zero numerator
            # numerators summing to 3 over 2, though action 0 is best at them
            lambda rows, action, p: ([2, 1], 2) if action == 0 else ([1, 4], 5),
        ],
    )
    def test_corrupt_stored_witness_raises(self, stored, monkeypatch):
        problem = DecisionProblem.from_matrix([[3, 0], [0, 1]])
        monkeypatch.setattr(dominance_module, "_interior_witness", stored)
        with pytest.raises(InternalInvariantError) as caught:
            iterated_elimination(problem)
        assert caught.value.invariant == "post-elimination-certification"


def reference_step(rows, action, start):
    """The interior step in Fractions: `_interior_witness`'s formula as it
    was computed on a `Belief` before the step moved to integer numerators."""
    n = len(start)
    q = math.lcm(*(c.denominator for c in start))
    weights = [c.numerator * (q // c.denominator) for c in start]
    at_p = [sum(w * r for w, r in zip(weights, row)) for row in rows]
    sums = [sum(row) for row in rows]
    epsilon = F(1, 2)
    for at_j, sum_j in zip(at_p, sums):
        g, d = at_p[action] - at_j, sums[action] - sum_j
        if d < 0 < g:
            epsilon = min(epsilon, F(g * n, 2 * (g * n - d * q)))
    return Belief(tuple((1 - epsilon) * a + epsilon / n for a in start))


def step_cases():
    """2,100 seeded problems, 1-6 states by 2-8 actions, with payoffs of
    magnitude 3, 10 or 1000; one problem in seven has its rows divided by
    small integers."""
    rng = SplitMix64(2357)
    for case in range(2100):
        states, actions = 1 + case % 6, 2 + case // 6 % 7
        magnitude = (3, 10, 1000)[case // 42 % 3]
        problem = random_problem(rng.next_uint64(), actions, states, magnitude)
        if case % 7 == 3:
            problem = DecisionProblem.from_matrix([
                [v / (1 + rng.next_below(5)) for v in row] for row in problem.payoff
            ])
        yield problem


class TestIntegerStep:
    def test_stored_witnesses_equal_the_fraction_step(self, monkeypatch):
        # every interior step, from every kind of start, against the
        # Fraction reference, and every stored witness against its step
        step, duality, solve = (dominance_module._interior_witness,
                                dominance_module._duality_check, dominance_module.solve)
        farkas, starts, steps = [], [], {}
        kinds = {"point-mass": 0, "uniform": 0, "edge": 0, "farkas": 0}

        def recorded_solve(system):
            result = solve(system)
            farkas.append(result.farkas)
            return result

        def recorded_duality(problem, action, scaled):
            weights, point = duality(problem, action, scaled)
            if point is not None:
                # the start is the LP's Farkas ray, normalized
                (ray,) = farkas
                assert Belief.from_numerators(*starts[-1]) == Belief(
                    tuple(lam / sum(ray) for lam in ray)
                )
                kinds["farkas"] += 1
            farkas.clear()
            return weights, point

        def recorded_step(rows, action, start):
            point = step(rows, action, start)
            starts.append(start)
            reference = reference_step(rows, action, Belief.from_numerators(*start))
            assert Belief.from_numerators(*point) == reference
            if not farkas:  # a screened start
                nonzero = sum(w != 0 for w in start[0])
                if nonzero == 1:
                    kinds["point-mass"] += 1
                elif len(set(start[0])) == 1:
                    kinds["uniform"] += 1
                else:
                    assert nonzero == 2
                    kinds["edge"] += 1
            assert rows[action] not in steps
            steps[rows[action]] = reference
            return point

        monkeypatch.setattr(dominance_module, "solve", recorded_solve)
        monkeypatch.setattr(dominance_module, "_duality_check", recorded_duality)
        monkeypatch.setattr(dominance_module, "_interior_witness", recorded_step)
        for problem in step_cases():
            steps.clear()
            report = iterated_elimination(problem)
            scaled = integer_payoff(problem)
            for original, witness in zip(report.surviving_indices, report.witnesses):
                expected = steps.get(scaled[original], Belief.uniform(problem.num_states))
                assert witness == expected
        assert min(kinds.values()) >= 60, kinds


class TestEliminationPayoffCount:
    def test_integer_payoff_once_and_no_fraction_profile(self, monkeypatch):
        # 3 states, parabolas peaking at 0, 1/2 and 1: every action survives
        poly = PolynomialProblem(
            (F(0), F(1)),
            ("low", "mid", "high"),
            ((F(0), F(0), F(-1)), (F(-1, 4), F(1), F(-1)), (F(-1), F(2), F(-1))),
        )
        problem = poly.discretize(9)
        calls = {"payoff_profile": 0, "scaled_payoff": 0}
        profile = DecisionProblem.payoff_profile
        scaled = DecisionProblem.__dict__["scaled_payoff"]
        scale = scaled.func

        def counted_profile(self, belief):
            calls["payoff_profile"] += 1
            return profile(self, belief)

        def counted_scale(problem):
            calls["scaled_payoff"] += 1
            return scale(problem)

        monkeypatch.setattr(DecisionProblem, "payoff_profile", counted_profile)
        monkeypatch.setattr(scaled, "func", counted_scale)
        report = iterated_elimination(problem)
        assert calls == {"payoff_profile": 0, "scaled_payoff": 1}
        assert report.removed == () and len(report.witnesses) == 9
