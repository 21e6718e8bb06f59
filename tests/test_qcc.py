"""Whole-simplex unimodality checking."""

import itertools
from fractions import Fraction as F

import pytest

import qccheck.exactlp as exactlp
import qccheck.qcc as qcc_module
from qccheck import (
    Belief,
    DecisionProblem,
    GridSpec,
    InternalInvariantError,
    LinearSystem,
    PolynomialProblem,
    check_qcc,
    exact_check_two_state,
    find_grid_dip,
    random_problem,
    strict_feasible,
    unimodality_profile,
)
from qccheck.problems import integer_payoff


def _reference_first_dip(problem):
    """The lexicographically first triple whose dip LP is feasible."""
    for i, j, k in itertools.combinations(range(problem.num_actions), 3):
        rows = [
            (tuple(a - b for a, b in zip(problem.payoff[i], problem.payoff[j])), ">", 0),
            (tuple(a - b for a, b in zip(problem.payoff[k], problem.payoff[j])), ">", 0),
        ]
        if strict_feasible(LinearSystem.build(problem.num_states, rows)).open_feasible:
            return i, j, k
    return None


class TestUnimodalityProfile:
    def test_dipping_fixture(self, p2):
        values, unimodal = unimodality_profile(p2, Belief((F(3, 5), F(2, 5))))
        assert values == (F(-8, 5), F(-12, 5), F(-1))
        assert unimodal is False

    def test_unimodal_fixture(self, p1):
        values, unimodal = unimodality_profile(p1, Belief((F(1, 2), F(1, 2))))
        assert values == (F(-2), F(-1), F(-2))
        assert unimodal is True

    def test_point_mass_reduces_to_column(self, p2):
        for j in range(p2.num_states):
            values, _ = unimodality_profile(p2, Belief.point_mass(j, p2.num_states))
            assert values == p2.column(j)


class TestCheckQcc:
    def test_holds_on_unimodal_fixture(self, p1):
        verdict = check_qcc(p1)
        assert verdict.holds
        assert verdict.checked_triples == 1
        assert verdict.counterexample is None

    def test_fails_on_dipping_fixture(self, p2):
        verdict = check_qcc(p2)
        assert not verdict.holds
        ce = verdict.counterexample
        assert ce.triple == (0, 1, 2)
        # solver-dependent belief, but it must realize the dip exactly
        values, unimodal = unimodality_profile(p2, ce.belief)
        assert not unimodal
        assert ce.values == (values[0], values[1], values[2])
        assert ce.values[1] < ce.values[0] and ce.values[1] < ce.values[2]

    def test_two_actions_trivially_hold(self):
        problem = DecisionProblem.from_matrix([[5, -5], [-5, 5]])
        verdict = check_qcc(problem)
        assert verdict.holds and verdict.checked_triples == 0

    def test_counterexamples_reverify_on_random_problems(self):
        failures = 0
        for seed in range(30):
            problem = random_problem(
                seed=3100 + seed, actions=3 + seed % 3, states=2 + seed % 3, magnitude=8
            )
            verdict = check_qcc(problem)
            if not verdict.holds:
                failures += 1
                _, unimodal = unimodality_profile(problem, verdict.counterexample.belief)
                assert not unimodal
        assert failures > 5  # dips are common among random problems

    def test_matches_the_strict_lp_scan_without_a_simplex_call(self, monkeypatch):
        problems = [
            random_problem(seed=3300 + n, actions=3 + n % 5, states=1 + n % 8,
                           magnitude=(3, 40, 1000)[n % 3])
            for n in range(45)
        ] + [
            # concave in the action in every state: no dip anywhere
            PolynomialProblem(
                (F(-1), F(1)), [f"s{s}" for s in range(states)],
                [(s, 2 - s, -1 - s) for s in range(states)],
            ).discretize(3 + states)
            for states in range(1, 7)
        ]
        references = [_reference_first_dip(problem) for problem in problems]

        def no_simplex(*args):
            raise AssertionError("check_qcc ran the simplex")

        monkeypatch.setattr(exactlp, "_solve_standard_form", no_simplex)
        for problem, reference in zip(problems, references):
            verdict = check_qcc(problem)
            assert verdict.holds == (reference is None)
            if reference is not None:
                assert verdict.counterexample.triple == reference
        assert references.count(None) >= 9

    def test_success_confirmed_by_dense_grids(self):
        # soundness of a positive verdict against exhaustive small-instance
        # sweeps: no grid belief up to denominator 50 may dip
        confirmed = 0
        for seed in range(60):
            problem = random_problem(
                seed=5200 + seed, actions=3, states=2, magnitude=6
            )
            if check_qcc(problem).holds:
                assert find_grid_dip(problem, GridSpec(50, 2)) is None
                confirmed += 1
        assert confirmed > 5

    def test_success_confirmed_on_three_states(self):
        for seed in range(40):
            problem = random_problem(seed=5300 + seed, actions=3, states=3, magnitude=4)
            if check_qcc(problem).holds:
                assert find_grid_dip(problem, GridSpec(25, 3)) is None


def _triple_scan_holds(problem):
    """The triple scan's verdict: no triple's two strict dip rows hold
    together at a point mass or on an edge, each searched by `edge_witness`."""
    scaled = integer_payoff(problem)
    return not any(
        exactlp.edge_witness(
            [(a - c, b - c) for a, b, c in zip(scaled[i], scaled[k], scaled[j])], (True, True)
        )
        for i, j, k in itertools.combinations(range(problem.num_actions), 3)
    )


# the scan passes over (0, 1, 2) and (0, 1, 3) before the dip (0, 2, 3)
SCAN_MATRIX = [[3, 0], [2, 2], [0, 3], [1, -5]]


def _sweep_cases():
    """3,000 seeded problems, 1-7 actions by 1-6 states; payoffs of magnitude
    2 or 3 make ties common, 40 and 1000 make them rare."""
    for case in range(3000):
        actions, states = 1 + case % 7, 1 + case // 7 % 6
        magnitude = (2, 3, 6, 40, 1000)[case // 42 % 5]
        yield random_problem(14000 + case, actions, states, magnitude)


class TestEdgeSweep:
    def test_agrees_with_the_triple_scan_and_the_two_state_oracle(self):
        holding = two_state = 0
        for problem in _sweep_cases():
            swept = qcc_module._edge_sweep(integer_payoff(problem))
            assert swept == _triple_scan_holds(problem)
            if problem.num_states == 2:
                assert swept == exact_check_two_state(problem)[0]
                two_state += 1
            holding += swept
        # both verdicts are common; a sixth of the problems have two states
        assert 1000 <= holding <= 2000
        assert two_state == 504

    @pytest.mark.parametrize(
        "matrix, split",
        [
            # action 0 is at most action 1 for lam >= 1/4, action 2 for
            # lam <= 3/4: the later action takes [0, 3/4], the earlier [3/4, 1]
            ([[0, -4], [-1, -1], [-4, 0]], (F(3, 4), False)),
            # the two sides only touch, where all three actions tie
            ([[1, -1], [0, 0], [-1, 1]], (F(1, 2), False)),
            ([[-1, 1], [0, 0], [1, -1]], (F(1, 2), True)),
            # one side is the whole edge
            ([[0, 0], [1, 1], [2, -3]], (F(1), True)),
            ([[2, -3], [1, 1], [0, 0]], (F(1), False)),
        ],
    )
    def test_split_of_a_holding_edge(self, matrix, split):
        problem = DecisionProblem.from_matrix(matrix)
        ends = [(row[0], row[1]) for row in integer_payoff(problem)]
        (p, q), earlier_left = qcc_module._edge_split(ends, 1)
        assert all(type(x) is int for x in (p, q)) and q > 0
        assert (F(p, q), earlier_left) == split
        assert check_qcc(problem).holds

    @pytest.mark.parametrize("corrupt", [F(1), F(0), F(1, 5), F(5, 4)])
    def test_corrupted_split_raises(self, p1, corrupt, monkeypatch):
        split, pair = qcc_module._edge_split, (corrupt.numerator, corrupt.denominator)
        monkeypatch.setattr(
            qcc_module, "_edge_split", lambda ends, j: (pair, split(ends, j)[1])
        )
        with pytest.raises(InternalInvariantError) as raised:
            check_qcc(p1)
        assert raised.value.invariant == "qcc-edge-split"

    def test_failing_scan_sweeps_once_and_asks_each_triple_once(self, monkeypatch):
        sweeps, searches = [], []
        for name, calls in (("_edge_sweep", sweeps), ("edge_witness", searches)):
            def spied(*args, original=getattr(qcc_module, name), calls=calls):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(qcc_module, name, spied)
        verdict = check_qcc(DecisionProblem.from_matrix(SCAN_MATRIX))
        assert verdict.counterexample.triple == (0, 2, 3)
        assert len(sweeps) == 1 and len(searches) == verdict.checked_triples == 3

    @pytest.mark.parametrize(
        "corrupt", [(1, (0, 0)), (1, (1, 0)), (2, (1, 0)), (2, (-1, 2))]
    )
    def test_corrupted_split_in_the_scan_raises(self, corrupt, monkeypatch):
        # the scan passes over (0, 1, 2) and (0, 1, 3), each on a Motzkin
        # certificate; a bad one for either triple must not pass
        problem = DecisionProblem.from_matrix(SCAN_MATRIX)
        assert check_qcc(problem).counterexample.triple == (0, 2, 3)
        (nth, bad), calls = corrupt, []
        multipliers = exactlp._motzkin_multipliers

        def corrupted(points, strict):
            calls.append(points)
            return bad if len(calls) == nth else multipliers(points, strict)

        monkeypatch.setattr(exactlp, "_motzkin_multipliers", corrupted)
        with pytest.raises(InternalInvariantError) as raised:
            check_qcc(problem)
        assert raised.value.invariant == "lp-farkas-substitution"
        assert len(calls) == nth

    def test_scan_dip_without_an_edge_witness_raises(self, monkeypatch):
        # (0, 2, 3) has a dip, so it has no certificate either
        monkeypatch.setattr(qcc_module, "edge_witness", lambda columns, strict: None)
        with pytest.raises(InternalInvariantError) as raised:
            check_qcc(DecisionProblem.from_matrix(SCAN_MATRIX))
        assert raised.value.invariant == "lp-planar-alternative"

    def test_sweep_dip_that_every_triple_rules_out_raises(self, p1, monkeypatch):
        assert check_qcc(p1).holds
        monkeypatch.setattr(qcc_module, "_edge_sweep", lambda scaled: False)
        with pytest.raises(InternalInvariantError) as raised:
            check_qcc(p1)
        assert raised.value.invariant == "qcc-edge-sweep"

    def test_one_state_reads_the_column(self):
        assert check_qcc(DecisionProblem.from_matrix([[1], [3], [3], [2]])).checked_triples == 4
        verdict = check_qcc(DecisionProblem.from_matrix([[1], [0], [3], [2]]))
        assert verdict.counterexample.triple == (0, 1, 2)


def _scaled_shifted(problem, alpha, offsets):
    payoff = tuple(
        tuple(alpha * value + offsets[j] for j, value in enumerate(row))
        for row in problem.payoff
    )
    return DecisionProblem(problem.actions, problem.states, payoff)


def _reversed_actions(problem):
    return DecisionProblem(
        tuple(-a for a in reversed(problem.actions)),
        problem.states,
        tuple(reversed(problem.payoff)),
    )


class TestQccInvariance:
    def test_positive_affine_rescaling(self):
        alphas = [F(1, 3), F(2), F(7, 5)]
        for seed in range(18):
            problem = random_problem(
                seed=6400 + seed, actions=2 + seed % 4, states=2 + seed % 3, magnitude=6
            )
            base = check_qcc(problem).holds
            alpha = alphas[seed % len(alphas)]
            offsets = tuple(F((-1) ** j * (seed + j), 3) for j in range(problem.num_states))
            assert check_qcc(_scaled_shifted(problem, alpha, offsets)).holds == base

    def test_action_order_reversal(self, p1, p2):
        assert check_qcc(_reversed_actions(p1)).holds
        assert not check_qcc(_reversed_actions(p2)).holds
        for seed in range(18):
            problem = random_problem(
                seed=6500 + seed, actions=2 + seed % 4, states=2 + seed % 3, magnitude=6
            )
            assert check_qcc(_reversed_actions(problem)).holds == check_qcc(problem).holds
