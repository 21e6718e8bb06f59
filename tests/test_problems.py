"""Domain types and the pointwise evaluators.

Expected values in the example tests were computed by hand (they are small
exact rationals); the sequence predicates are additionally checked against
brute-force restatements of their definitions under hypothesis.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from qccheck import (
    Belief,
    DecisionProblem,
    DifferenceVector,
    PolynomialProblem,
    SplitMix64,
    is_contiguous,
    is_quasi_monotone,
    is_unimodal,
    random_problem,
)


class TestBelief:
    def test_validates_sum(self):
        with pytest.raises(ValueError):
            Belief((F(1, 2), F(1, 3)))

    def test_validates_nonnegative(self):
        with pytest.raises(ValueError):
            Belief((F(3, 2), F(-1, 2)))

    def test_uniform_and_point_mass(self):
        u = Belief.uniform(4)
        assert sum(u.coordinates) == 1 and u.is_interior
        pm = Belief.point_mass(2, 4)
        assert pm[2] == 1 and not pm.is_interior

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Belief((0.5, 0.5))


class TestBeliefFromNumerators:
    def test_equals_the_validated_belief(self):
        for numerators, denominator in [([1], 1), ([0, 3, 1], 4), ([2, 4, 0, 6], 12)]:
            belief = Belief.from_numerators(numerators, denominator)
            assert belief == Belief(tuple(F(w, denominator) for w in numerators))
            assert all(type(c) is F for c in belief.coordinates)

    @pytest.mark.parametrize(
        "numerators, denominator",
        [([2, -1], 1), ([1, 1], 3), ([0, 0], 0), ([1, 0], 0), ([-1, 0], -1), ([], 1),
         ([], 0)],
        ids=["negative", "wrong-sum", "zero-sum-zero-denominator", "zero-denominator",
             "negative-denominator", "empty", "empty-zero-denominator"],
    )
    def test_rejects_a_point_off_the_simplex(self, numerators, denominator):
        with pytest.raises(ValueError):
            Belief.from_numerators(numerators, denominator)


def _derived_cases():
    """Seeded problems with rational payoffs and rational action labels,
    each with a proper subset of its actions and a permutation of its
    states that is not the identity (when it has two or more)."""
    rng = SplitMix64(2024)
    for seed in range(150):
        m, n = 1 + seed % 6, 1 + seed // 6 % 5
        raw = random_problem(5000 + seed, m, n, 1000)
        problem = DecisionProblem(
            tuple(F(i, 1 + seed % 4) for i in range(m)),
            tuple(f"t{j}" for j in range(n)),
            tuple(tuple(v / (1 + (i + j) % 7) for j, v in enumerate(row))
                  for i, row in enumerate(raw.payoff)),
        )
        kept = [i for i in range(m) if rng.next_below(3)] or [rng.next_below(m)]
        if len(kept) == m:
            del kept[rng.next_below(m)]
        order = sorted(range(n), key=lambda j: rng.next_below(1000))
        if n > 1 and order == list(range(n)):
            order = order[1:] + order[:1]
        yield problem, kept, order


class TestDerivedProblems:
    """`restrict_actions` and `permute_states` skip re-validation: their
    results must equal a validated construction of the same fields."""

    def test_equal_to_the_validated_problem(self):
        checked = 0
        for problem, kept, order in _derived_cases():
            derived = [problem.permute_states(order)]
            if kept:
                derived.append(problem.restrict_actions(kept))
            for result in derived:
                validated = DecisionProblem(result.actions, result.states, result.payoff)
                assert result == validated and hash(result) == hash(validated)
                assert all(type(v) is F for row in result.payoff for v in row)
                assert all(type(a) is F for a in result.actions)
                assert all(type(s) is str for s in result.states)
                checked += 1
        assert checked > 250

    def test_handed_over_scaling_equals_a_fresh_one(self):
        permuted_states = 0
        for problem, _, order in _derived_cases():
            permuted = problem.permute_states(order)
            # handed over with the permuted problem, not computed on first read
            assert permuted is problem or "scaled_payoff" in vars(permuted)
            fresh = DecisionProblem(permuted.actions, permuted.states, permuted.payoff)
            assert permuted.scaled_payoff == fresh.scaled_payoff
            permuted_states += permuted is not problem
        assert permuted_states > 100

    def test_identity_returns_the_problem(self):
        for problem, _, _ in _derived_cases():
            m, n = problem.num_actions, problem.num_states
            assert problem.permute_states(list(range(n))) is problem
            assert problem.restrict_actions(range(m)) is problem
            assert problem.restrict_actions([*reversed(range(m)), 0]) is problem

    def test_derived_arguments_are_still_checked(self, p1):
        with pytest.raises(ValueError):
            p1.permute_states([0, 0])
        with pytest.raises(IndexError):
            p1.restrict_actions([0, 3])
        with pytest.raises(ValueError):
            p1.restrict_actions([])


class TestDecisionProblem:
    def test_actions_must_increase(self):
        with pytest.raises(ValueError):
            DecisionProblem.from_matrix([[1], [2]], actions=[3, 3])

    def test_dimensions_must_match(self):
        with pytest.raises(ValueError):
            DecisionProblem.from_matrix([[1, 2], [3]])

    def test_from_matrix_builds_fractions_and_default_labels(self):
        problem = DecisionProblem.from_matrix([[1, "-7/2"], [F(2, 3), "4"]])
        assert problem == DecisionProblem(
            (F(0), F(1)), ("s0", "s1"), ((F(1), F(-7, 2)), (F(2, 3), F(4)))
        )
        assert all(type(v) is F for row in problem.payoff for v in row)
        assert all(type(a) is F for a in problem.actions)
        with pytest.raises(TypeError):
            DecisionProblem.from_matrix([[1, 0.5]])
        with pytest.raises(TypeError):
            DecisionProblem.from_matrix([[1], [2]], actions=[0, 1.5])

    def test_expected_payoff_hand_value(self, p1):
        # action 0 at (3/4, 1/4): -4 * 1/4
        assert p1.expected_payoff(0, Belief((F(3, 4), F(1, 4)))) == -1

    def test_expected_payoff_point_mass_reads_matrix(self, p1):
        for i in range(p1.num_actions):
            for j in range(p1.num_states):
                belief = Belief.point_mass(j, p1.num_states)
                assert p1.expected_payoff(i, belief) == p1.payoff[i][j]

    def test_expected_payoff_matches_the_full_sum(self):
        # skipping the states a belief rules out leaves every value as the
        # sum over all states, on point masses, edges and interior beliefs
        problem = DecisionProblem.from_matrix(
            [[F(3 * i - 2 * j, 7) + i * j for j in range(4)] for i in range(5)]
        )
        beliefs = [Belief.point_mass(s, 4) for s in range(4)]
        beliefs += [Belief(tuple(F(2, 5) if c == s else F(3, 5) if c == t else F(0)
                                 for c in range(4)))
                    for s in range(4) for t in range(4) if s != t]
        beliefs += [Belief.uniform(4), Belief((F(1, 10), F(2, 10), F(3, 10), F(4, 10)))]
        for belief in beliefs:
            for i, row in enumerate(problem.payoff):
                full = sum(p * u for p, u in zip(belief.coordinates, row))
                assert problem.expected_payoff(i, belief) == full
                assert problem.payoff_profile(belief)[i] == full

    def test_constant_row_is_constant(self, p1):
        for belief in (Belief((F(1), F(0))), Belief((F(2, 7), F(5, 7)))):
            assert p1.expected_payoff(1, belief) == -1

    def test_argmax_hand_values(self, p1, p2):
        assert p1.argmax_set(Belief((F(1, 2), F(1, 2)))) == {1}
        assert p2.argmax_set(Belief((F(3, 4), F(1, 4)))) == {0, 2}
        assert p2.payoff_profile(Belief((F(3, 4), F(1, 4)))) == (F(-1), F(-3), F(-1))

    def test_single_action_argmax(self):
        single = DecisionProblem.from_matrix([[5, -5]])
        assert single.argmax_set(Belief((F(1, 3), F(2, 3)))) == {0}

    def test_index_errors(self, p1):
        with pytest.raises(IndexError):
            p1.expected_payoff(3, Belief((F(1), F(0))))
        with pytest.raises(ValueError):
            p1.expected_payoff(0, Belief((F(1),)))

    @given(
        payoffs=st.lists(
            st.lists(st.integers(-9, 9), min_size=2, max_size=2),
            min_size=2,
            max_size=4,
        ),
        num_p=st.lists(st.integers(0, 5), min_size=2, max_size=2),
        num_q=st.lists(st.integers(0, 5), min_size=2, max_size=2),
        lam=st.fractions(min_value=0, max_value=1, max_denominator=20),
    )
    def test_expected_payoff_affine_in_belief(self, payoffs, num_p, num_q, lam):
        if sum(num_p) == 0 or sum(num_q) == 0:
            return
        problem = DecisionProblem.from_matrix(payoffs)
        p = Belief(tuple(F(m, sum(num_p)) for m in num_p))
        q = Belief(tuple(F(m, sum(num_q)) for m in num_q))
        mixed = Belief(tuple(lam * a + (1 - lam) * b for a, b in zip(p, q)))
        for i in range(problem.num_actions):
            expected = lam * problem.expected_payoff(i, p) + (1 - lam) * (
                problem.expected_payoff(i, q)
            )
            assert problem.expected_payoff(i, mixed) == expected

    @given(
        payoffs=st.lists(
            st.lists(st.integers(-9, 9), min_size=2, max_size=3),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        nums=st.lists(st.integers(0, 4), min_size=2, max_size=3),
    )
    def test_argmax_nonempty_and_attains_max(self, payoffs, nums):
        if len(nums) != len(payoffs[0]) or sum(nums) == 0:
            return
        problem = DecisionProblem.from_matrix(payoffs)
        belief = Belief(tuple(F(m, sum(nums)) for m in nums))
        values = problem.payoff_profile(belief)
        optimal = problem.argmax_set(belief)
        assert optimal
        assert all(values[i] == max(values) for i in optimal)


def _unimodal_by_definition(values):
    n = len(values)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if values[j] < values[i] and values[j] < values[k]:
                    return False
    return True


class TestIsUnimodal:
    def test_examples(self):
        assert is_unimodal([F(-2), F(-1), F(-2)])
        assert not is_unimodal([F(-8, 5), F(-12, 5), F(-1)])
        assert is_unimodal([F(0), F(0), F(0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_unimodal([])

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=9))
    def test_matches_triple_definition(self, values):
        assert is_unimodal(values) == _unimodal_by_definition(values)

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=9))
    def test_reversal_symmetry(self, values):
        assert is_unimodal(values) == is_unimodal(values[::-1])


def _quasi_monotone_by_definition(entries, mode):
    n = len(entries)
    splits = range(1, n) if mode == "literal" else range(0, n + 1)
    valid = [
        k
        for k in splits
        if all(e <= 0 for e in entries[:k]) and all(e >= 0 for e in entries[k:])
    ]
    return (True, valid[0]) if valid else (False, None)


class TestIsQuasiMonotone:
    def test_examples(self):
        assert is_quasi_monotone([F(-1), F(0), F(2)], "relaxed") == (True, 1)
        assert is_quasi_monotone([F(-1), F(0), F(2)], "literal") == (True, 1)
        assert is_quasi_monotone([F(1), F(-1)], "relaxed") == (False, None)
        assert is_quasi_monotone([F(1), F(-1)], "literal") == (False, None)
        # all-positive vectors need split 0, which only relaxed mode allows
        assert is_quasi_monotone([F(2), F(3)], "relaxed") == (True, 0)
        assert is_quasi_monotone([F(2), F(3)], "literal") == (False, None)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_quasi_monotone([])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            is_quasi_monotone([F(1)], "strict")

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=8),
        st.sampled_from(["relaxed", "literal"]),
    )
    def test_matches_split_definition(self, entries, mode):
        assert is_quasi_monotone(entries, mode) == _quasi_monotone_by_definition(
            entries, mode
        )

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=8))
    def test_literal_implies_relaxed(self, entries):
        literal_ok, _ = is_quasi_monotone(entries, "literal")
        relaxed_ok, _ = is_quasi_monotone(entries, "relaxed")
        assert not literal_ok or relaxed_ok


class TestIsContiguous:
    def test_examples(self):
        assert is_contiguous({0, 1, 2}, 5)
        assert not is_contiguous({0, 2}, 5)
        assert is_contiguous({3}, 5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_contiguous(set(), 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            is_contiguous({5}, 5)


class TestDifferenceVector:
    def test_action_zero_must_be_zero(self):
        with pytest.raises(ValueError):
            DifferenceVector(0, (F(1),))
        DifferenceVector(0, (F(0), F(0)))  # fine


class TestPolynomialProblem:
    def quadratic_loss(self):
        # payoff -(a - theta)^2 for theta in {0, 2}, ascending coefficients
        return PolynomialProblem(
            (F(0), F(2)),
            ("low", "high"),
            ((F(0), F(0), F(-1)), (F(-4), F(4), F(-1))),
        )

    def test_discretize_reproduces_fixture(self, p1):
        grid = self.quadratic_loss().discretize(3)
        assert grid.actions == (F(0), F(1), F(2))
        assert grid.payoff == p1.payoff

    def test_two_points_are_the_endpoints(self):
        grid = self.quadratic_loss().discretize(2)
        assert grid.actions == (F(0), F(2))
        assert grid.payoff == ((F(0), F(-4)), (F(-4), F(0)))

    def test_constant_polynomials(self):
        poly = PolynomialProblem((F(0), F(1)), ("a", "b"), ((F(7),), (F(-2),)))
        for m in (2, 3, 6):
            grid = poly.discretize(m)
            assert all(row == (F(7), F(-2)) for row in grid.payoff)

    def test_needs_two_grid_points(self):
        with pytest.raises(ValueError):
            self.quadratic_loss().discretize(1)

    def test_interval_must_be_ordered(self):
        with pytest.raises(ValueError):
            PolynomialProblem((F(2), F(0)), ("a",), ((F(1),),))

    @given(
        coeffs=st.lists(
            st.lists(st.integers(-5, 5), min_size=1, max_size=4),
            min_size=1,
            max_size=3,
        ),
        m=st.integers(2, 7),
    )
    def test_point_mass_payoff_equals_polynomial_value(self, coeffs, m):
        poly = PolynomialProblem(
            (F(-1), F(2)),
            tuple(f"s{j}" for j in range(len(coeffs))),
            tuple(tuple(F(c) for c in cs) for cs in coeffs),
        )
        grid = poly.discretize(m)
        for i, action in enumerate(grid.actions):
            for j in range(len(coeffs)):
                belief = Belief.point_mass(j, len(coeffs))
                direct = sum(
                    F(c) * action**d for d, c in enumerate(coeffs[j])
                )
                assert grid.expected_payoff(i, belief) == direct
