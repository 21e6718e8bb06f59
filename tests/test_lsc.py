"""Difference vectors, single-crossing checks, and the state relabeling."""

from fractions import Fraction as F

from qccheck import (
    Belief,
    DecisionProblem,
    check_lsc,
    check_qcc,
    difference_vectors,
    is_quasi_monotone,
    lowest_optimal_action,
    random_problem,
    relabel_for_lsc,
)
from qccheck.oracle import SplitMix64


def fraction_lsc(problem, mode):
    """The LSC check on the Fraction difference vectors: (holds, failing
    action, failing vector)."""
    for vector in difference_vectors(problem):
        if not is_quasi_monotone(vector.entries, mode)[0]:
            return False, vector.action_index, vector
    return True, None, None


def lsc_cases():
    """600 seeded rational problems, 1-5 states by 1-6 actions; one in four
    repeats a row next to itself."""
    rng = SplitMix64(4711)
    for case in range(600):
        states, actions = 1 + case % 5, 1 + case // 5 % 6
        problem = random_problem(rng.next_uint64(), actions, states, 1 + case % 4)
        rows = [[v / (1 + rng.next_below(4)) + F(j, 7) for j, v in enumerate(row)]
                for row in problem.payoff]
        if case % 4 == 1:
            at = rng.next_below(actions)
            rows.insert(at, list(rows[at]))
        yield DecisionProblem.from_matrix(rows)


class TestDifferenceVectors:
    def test_fixture_rows(self, p1):
        vectors = difference_vectors(p1)
        assert vectors[0].entries == (F(0), F(0))
        assert vectors[1].entries == (F(-1), F(3))
        assert vectors[2].entries == (F(-3), F(1))

    def test_constant_in_action_problem(self):
        problem = DecisionProblem.from_matrix([[2, -1], [2, -1], [2, -1]])
        for vector in difference_vectors(problem):
            assert all(v == 0 for v in vector.entries)

    def test_telescoping_identity(self):
        for seed in range(10):
            problem = random_problem(seed=150 + seed, actions=4, states=3, magnitude=9)
            vectors = difference_vectors(problem)
            for m in range(problem.num_actions):
                for j in range(problem.num_states):
                    total = sum(vectors[i].entries[j] for i in range(1, m + 1))
                    assert total == problem.payoff[m][j] - problem.payoff[0][j]


class TestCheckLsc:
    def test_fixture_holds_in_both_modes(self, p1):
        assert check_lsc(p1, "relaxed").holds
        assert check_lsc(p1, "literal").holds

    def test_swapped_states_fail_at_first_increment(self, p1):
        swapped = p1.permute_states([1, 0])
        verdict = check_lsc(swapped, "relaxed")
        assert not verdict.holds
        assert verdict.failing_action == 1
        assert verdict.failing_vector.entries == (F(3), F(-1))

    def test_single_action_holds(self):
        problem = DecisionProblem.from_matrix([[1, 2, 3]])
        assert check_lsc(problem).holds

    def test_literal_implies_relaxed(self):
        for seed in range(25):
            problem = random_problem(
                seed=260 + seed, actions=2 + seed % 4, states=2 + seed % 3, magnitude=5
            )
            if check_lsc(problem, "literal").holds:
                assert check_lsc(problem, "relaxed").holds


class TestIntegerSigns:
    def test_check_lsc_matches_the_fraction_check(self):
        seen = {"holds": 0, "fails": 0, "one-state-literal": 0, "equal-rows": 0}
        for problem in lsc_cases():
            vectors = difference_vectors(problem)
            seen["equal-rows"] += any(
                a == b for a, b in zip(problem.payoff, problem.payoff[1:])
            )
            for mode in ("relaxed", "literal"):
                verdict = check_lsc(problem, mode)
                holds, action, vector = fraction_lsc(problem, mode)
                assert (verdict.holds, verdict.failing_action) == (holds, action)
                assert verdict.failing_vector == vector
                if not holds:
                    assert verdict.failing_vector == vectors[action]
                seen["holds" if holds else "fails"] += 1
                if problem.num_states == 1 and mode == "literal":
                    # the zero vector of action 0 has no split in 1..n-1
                    assert action == 0
                    seen["one-state-literal"] += 1
        assert min(seen.values()) >= 100, seen

    def test_lowest_optimal_action_matches_the_fraction_columns(self):
        for problem in lsc_cases():
            for state in range(problem.num_states):
                column = problem.column(state)
                assert lowest_optimal_action(problem, state) == column.index(max(column))


class TestRelabelForLsc:
    def test_sorts_swapped_fixture_back(self, p1):
        swapped = p1.permute_states([1, 0])
        relabeling, relabeled = relabel_for_lsc(swapped)
        assert relabeling.permutation == (1, 0)
        assert relabeled.payoff == p1.payoff
        assert check_lsc(relabeled, "relaxed").holds

    def test_fixture_is_already_sorted(self, p1):
        relabeling, relabeled = relabel_for_lsc(p1)
        assert relabeling.permutation == (0, 1)
        assert relabeling.sort_keys == (F(0), F(2))
        assert relabeled == p1

    def test_identical_columns_keep_stable_order(self):
        problem = DecisionProblem.from_matrix([[1, 1, 1], [0, 0, 0]])
        relabeling, _ = relabel_for_lsc(problem)
        assert relabeling.permutation == (0, 1, 2)

    def test_lowest_optimal_action_breaks_ties_down(self):
        problem = DecisionProblem.from_matrix([[5], [5], [0]])
        assert lowest_optimal_action(problem, 0) == 0

    def test_idempotent(self):
        for seed in range(20):
            problem = random_problem(
                seed=370 + seed, actions=2 + seed % 4, states=2 + seed % 3, magnitude=6
            )
            _, once = relabel_for_lsc(problem)
            relabeling, twice = relabel_for_lsc(once)
            assert relabeling.permutation == tuple(range(once.num_states))
            assert twice == once

    def test_payoff_equivalence_under_belief_permutation(self):
        for seed in range(12):
            problem = random_problem(seed=480 + seed, actions=3, states=3, magnitude=7)
            relabeling, relabeled = relabel_for_lsc(problem)
            rng_nums = [(seed + 1) * (j + 2) for j in range(3)]
            total = sum(rng_nums)
            relabeled_belief = Belief(tuple(F(m, total) for m in rng_nums))
            # the same belief expressed in original state order
            original_coords = [F(0)] * 3
            for position, original_state in enumerate(relabeling.permutation):
                original_coords[original_state] = relabeled_belief[position]
            original_belief = Belief(tuple(original_coords))
            for i in range(problem.num_actions):
                assert relabeled.expected_payoff(i, relabeled_belief) == (
                    problem.expected_payoff(i, original_belief)
                )

    def test_relabeled_qcc_problems_are_single_crossing(self):
        # the constructive theorem: sorting states by lowest optimal action
        # makes every whole-simplex-unimodal problem pass the relaxed check
        checked = 0
        for seed in range(50):
            problem = random_problem(
                seed=590 + seed, actions=2 + seed % 5, states=2 + seed % 4, magnitude=8
            )
            if check_qcc(problem).holds:
                _, relabeled = relabel_for_lsc(problem)
                assert check_lsc(relabeled, "relaxed").holds
                checked += 1
        assert checked > 10
