"""Argmax convexity, indifference hyperplanes, and halfspace nesting."""

import itertools
from fractions import Fraction as F

import pytest

import qccheck.exactlp as exactlp
import qccheck.geometry as geometry
from qccheck import (
    Belief,
    DecisionProblem,
    InternalInvariantError,
    LinearSystem,
    PolynomialProblem,
    SplitMix64,
    check_argmax_convexity,
    check_nesting,
    check_qcc,
    indifference_hyperplane,
    iterated_elimination,
    random_problem,
    strict_feasible,
)
from qccheck.geometry import NestingFailure, NestingReport, RegionFailure
from qccheck.problems import integer_payoff


def _triple_gap(problem, i, j, k):
    """Reference per-triple LP: i and k optimal, j strictly worse."""
    rows = [(indifference_hyperplane(problem, i, k), "==", 0)]
    for other in range(problem.num_actions):
        if other != i:
            rows.append((indifference_hyperplane(problem, i, other), ">=", 0))
    rows.append((indifference_hyperplane(problem, i, j), ">", 0))
    return strict_feasible(LinearSystem.build(problem.num_states, rows)).open_feasible


def _counted_solves(monkeypatch):
    calls = []
    solve = geometry.solve

    def counting_solve(system):
        calls.append(system)
        return solve(system)

    monkeypatch.setattr(geometry, "solve", counting_solve)
    return calls


def _reference_first_triple(problem):
    """The per-triple scan: the lexicographically first triple with a gap."""
    triples = itertools.combinations(range(problem.num_actions), 3)
    return next((t for t in triples if _triple_gap(problem, *t)), None)


def _reference_first_pair(problem):
    for i, k in itertools.combinations(range(problem.num_actions), 2):
        if any(_triple_gap(problem, i, j, k) for j in range(i + 1, k)):
            return i, k
    return None


def _edge_beliefs(problem):
    """Every point mass, and on each edge (s, t) every breakpoint where two
    actions' payoff lines cross and a midpoint between consecutive ones, as
    `exact_check_two_state` reads a two-state problem: the weak order of the
    actions is constant between consecutive breakpoints, so these beliefs
    show every optimal set that a point mass or an edge has."""
    n = problem.num_states
    for s, t in itertools.combinations_with_replacement(range(n), 2):
        lines = [(row[s], row[t]) for row in problem.payoff]
        cuts = {F(0), F(1)}
        for (a, b), (c, d) in itertools.combinations(lines, 2):
            if a - c != b - d:
                cuts.add(F(a - c) / ((a - c) - (b - d)))
        ordered = sorted(lam for lam in cuts if 0 <= lam <= 1)
        for lam in ordered + [(x + y) / 2 for x, y in itertools.pairwise(ordered)]:
            coordinates = [F(0)] * n
            coordinates[s] += 1 - lam
            coordinates[t] += lam
            yield Belief(tuple(coordinates))


def _has_edge_gap(problem, i, k):
    """Whether some point mass or edge belief has i and k optimal and an
    action between them not."""
    return any(i in optimal and k in optimal and not set(range(i + 1, k)) <= optimal
               for optimal in map(problem.argmax_set, _edge_beliefs(problem)))


def _reference_edge_pair(problem):
    """The first pair (i, k), k >= i + 2, in lexicographic order with a gap
    on a point mass or an edge of the simplex, or None."""
    return next((pair for pair in itertools.combinations(range(problem.num_actions), 2)
                 if _has_edge_gap(problem, *pair)), None)


def _polynomial(*coefficients):
    states = [f"s{n}" for n in range(len(coefficients))]
    return PolynomialProblem((F(-1), F(1)), states, coefficients)


# the last four seeds skip an action other than i + 1 at the reported belief,
# and two of them report a different j than the per-triple scan
CONVEXITY_PROBLEMS = [
    random_problem(seed=4200 + n, actions=3 + n % 6, states=2 + n % 5, magnitude=8)
    for n in [*range(56), 111, 131, 185, 322]
] + [
    # concave quadratics peaking at different actions: convexity holds
    _polynomial((0, 2, -3), (1, -1, -2), (0, 0, -1)).discretize(7),
    # convex quadratics: the point masses make both ends optimal
    _polynomial((0, 0, 1), (0, 1, 1)).discretize(6),
    _polynomial((0, -1, 0, 1), (1, 0, 2), (0, 1, -1)).discretize(8),
]

# check_qcc's first dip (i0, j0, k0) has i0 >= 1, so the pairs below i0 are
# skipped; convexity holds on the first, fails on the next two, and i0 = 2
# on the last
LATE_DIP_PROBLEMS = [
    random_problem(seed=4300 + n, actions=4 + n % 4, states=2 + n % 3, magnitude=8)
    for n in [57, 81, 291, 349]
]


def _rational(seed, actions, states):
    raw = random_problem(seed, actions, states, 1000)
    return DecisionProblem.from_matrix(
        [[v / 7 + F(j, 3) for j, v in enumerate(row)] for row in raw.payoff]
    )


# each set has pairs whose edge search misses, and reported gaps that only
# the pair LP finds
ROUTE_PROBLEMS = {
    # the benchmark's `wide` shapes: 6-8 states, 4-6 actions, payoffs to 1000
    "wide": [random_problem(7000 + n, 4 + n % 3, 6 + n // 3 % 3, 1000) for n in range(18)],
    # the acceptance corpus shapes: 1-6 actions, 1-4 states, payoffs to 10
    "corpus": [random_problem(7100 + n, 1 + n % 6, 1 + n // 6 % 4, 10) for n in range(48)] + [
        # 0, 1 and 2 tie everywhere, so the pair (0, 2) has a tie face with
        # no gap; the gap is at (0, 4), where 3 is skipped at p0 = 2/3
        DecisionProblem.from_matrix([[0, 0], [0, 0], [0, 0], [-1, -1], [1, -2]]),
    ],
    "rational": [_rational(7200 + n, 4 + n % 3, 3 + n % 6) for n in range(30)],
}


def _routed(problem, monkeypatch, search=True):
    """The convexity verdict with each edge search ("hit" or "miss") and
    each pair LP ("lp") in the order they ran; with `search` off every
    search misses and every pair gets its LP."""
    qcc = check_qcc(problem)
    events = []
    edge_witness, solve = geometry.edge_witness, geometry.solve

    def searched(*args):
        belief = edge_witness(*args) if search else None
        events.append("miss" if belief is None else "hit")
        return belief

    def solved(system):
        events.append("lp")
        return solve(system)

    with monkeypatch.context() as patch:
        patch.setattr(geometry, "edge_witness", searched)
        patch.setattr(geometry, "solve", solved)
        return check_argmax_convexity(problem, qcc), events


class TestIndifferenceHyperplane:
    def test_fixture_rows(self, p1):
        assert indifference_hyperplane(p1, 0, 1) == (F(1), F(-3))

    def test_antisymmetry(self, p2):
        for i in range(3):
            for j in range(3):
                if i != j:
                    forward = indifference_hyperplane(p2, i, j)
                    backward = indifference_hyperplane(p2, j, i)
                    assert forward == tuple(-c for c in backward)

    def test_duplicate_rows_give_zero(self):
        problem = DecisionProblem.from_matrix([[2, 3], [2, 3]])
        assert indifference_hyperplane(problem, 0, 1) == (F(0), F(0))

    def test_equal_indices_rejected(self, p1):
        with pytest.raises(ValueError):
            indifference_hyperplane(p1, 1, 1)


class TestArgmaxConvexity:
    def test_gap_on_dipping_fixture(self, p2):
        verdict = check_argmax_convexity(p2, check_qcc(p2))
        assert not verdict.holds
        ce = verdict.counterexample
        assert ce.triple == (0, 1, 2)
        optimal = p2.argmax_set(ce.belief)
        assert 0 in optimal and 2 in optimal and 1 not in optimal

    def test_holds_on_unimodal_fixture(self, p1):
        assert check_argmax_convexity(p1, check_qcc(p1)).holds

    def test_two_actions_trivially_hold(self):
        problem = DecisionProblem.from_matrix([[1, 0], [0, 1]])
        assert check_argmax_convexity(problem, check_qcc(problem)).holds

    def test_qcc_implies_convexity_unconditionally(self):
        # forward direction needs no dominance hypothesis: a gap at a belief
        # is itself a dip, so unimodality everywhere forbids gaps anywhere;
        # the gaps are decided by the independent per-triple strict LPs
        holding = 0
        for seed in range(25):
            problem = random_problem(
                seed=880 + seed, actions=2 + seed % 4, states=2 + seed % 3, magnitude=7
            )
            if check_qcc(problem).holds:
                holding += 1
                assert _reference_first_triple(problem) is None
        assert holding > 0

    @pytest.mark.parametrize("problem", CONVEXITY_PROBLEMS + LATE_DIP_PROBLEMS)
    def test_matches_the_per_triple_scan(self, problem):
        verdict = check_argmax_convexity(problem, check_qcc(problem))
        reference = _reference_first_triple(problem)
        assert verdict.holds == (reference is None)
        if verdict.holds:
            return
        i, j, k = verdict.counterexample.triple
        # the first pair with a point-mass or edge gap; with none, the first
        # pair with a gap anywhere
        assert (i, k) == (_reference_edge_pair(problem) or _reference_first_pair(problem))
        assert i >= reference[0]
        optimal = problem.argmax_set(verdict.counterexample.belief)
        assert i in optimal and k in optimal and j not in optimal
        assert all(between in optimal for between in range(i + 1, j))

    @pytest.mark.parametrize("search", [True, False], ids=["edge-belief", "lp-belief"])
    def test_belief_failing_substitution_raises(self, p2, search, monkeypatch):
        # both passes hand their belief to the same substitution check
        qcc = check_qcc(p2)
        if not search:
            monkeypatch.setattr(geometry, "edge_witness", lambda *args: None)
        monkeypatch.setattr(DecisionProblem, "argmax_set", lambda self, belief: {0})
        with pytest.raises(InternalInvariantError) as caught:
            check_argmax_convexity(p2, qcc)
        assert caught.value.invariant == "convexity-counterexample-substitution"

    @pytest.mark.parametrize("actions", [3, 4, 6, 9])
    def test_no_lp_when_convexity_holds(self, actions, monkeypatch):
        # concave in the action in both states: no belief has a dip, so no
        # pair can have a gap and none is solved
        calls = _counted_solves(monkeypatch)
        problem = _polynomial((0, 0, -1), (0, 1, -1)).discretize(actions)
        assert check_argmax_convexity(problem, check_qcc(problem)).holds
        assert calls == []

    @pytest.mark.parametrize("problem", CONVEXITY_PROBLEMS + LATE_DIP_PROBLEMS)
    def test_one_lp_per_pair_with_a_feasible_dip(self, problem, monkeypatch):
        # with the edge search off: check_qcc found no dip (i, j, k) with i
        # below its first one, so the pairs below it are skipped; every
        # later pair may have a feasible dip and gets one LP, up to the
        # reported pair.  A holding verdict leaves no pair, and no dip is
        # decided again either way.
        qcc = check_qcc(problem)
        calls = _counted_solves(monkeypatch)
        monkeypatch.setattr(geometry, "edge_witness", lambda *args: None)
        verdict = check_argmax_convexity(problem, qcc)
        if qcc.holds:
            assert verdict.holds and calls == []
            return
        first = qcc.counterexample.triple[0]
        pairs = [(i, k) for i, k in itertools.combinations(range(problem.num_actions), 2)
                 if i >= first and k >= i + 2]
        if not verdict.holds:
            i, _, k = verdict.counterexample.triple
            pairs = pairs[: pairs.index((i, k)) + 1]
        assert len(calls) == len(pairs)


class TestEdgeSearch:
    """The edge search on every pair before any pair LP, against the LP
    route: a belief found on a point mass or an edge satisfies the pair
    LP's rows with a positive objective, so it is a gap, and the LPs are
    solved only when no pair has one."""

    @pytest.mark.parametrize("shape", sorted(ROUTE_PROBLEMS))
    def test_same_verdict_and_pair_as_the_lp_route(self, shape, monkeypatch):
        # the LP route's pair is the first with a gap anywhere; where that
        # pair has a gap on a point mass or an edge, no earlier pair has one,
        # so the search reports the same pair
        misses = kept = 0
        for problem in ROUTE_PROBLEMS[shape]:
            verdict, events = _routed(problem, monkeypatch)
            reference, _ = _routed(problem, monkeypatch, search=False)
            assert verdict.holds == reference.holds
            misses += events.count("miss")
            if verdict.holds:
                continue
            lp_pair = reference.counterexample.triple[::2]
            if _has_edge_gap(problem, *lp_pair):
                assert verdict.counterexample.triple[::2] == lp_pair
                kept += 1
        assert misses > 0 and kept > 0

    @pytest.mark.parametrize("shape", sorted(ROUTE_PROBLEMS))
    def test_pair_as_the_edge_reference(self, shape, monkeypatch):
        moved = 0
        for problem in ROUTE_PROBLEMS[shape]:
            verdict, events = _routed(problem, monkeypatch)
            reference, _ = _routed(problem, monkeypatch, search=False)
            assert verdict.holds == (_reference_first_triple(problem) is None)
            if verdict.holds:
                continue
            i, j, k = verdict.counterexample.triple
            lp_pair = (reference.counterexample.triple[0], reference.counterexample.triple[2])
            assert (i, k) == (_reference_edge_pair(problem) or lp_pair)
            moved += (i, k) != lp_pair
            optimal = problem.argmax_set(verdict.counterexample.belief)
            assert i in optimal and k in optimal and j not in optimal
            assert all(between in optimal for between in range(i + 1, j))
        # the LP route reports a later pair on some problems
        assert moved > 0

    @pytest.mark.parametrize("shape", sorted(ROUTE_PROBLEMS))
    def test_an_lp_only_where_the_search_misses(self, shape, monkeypatch):
        # every pair from check_qcc's i0 on is searched first; a hit ends the
        # check with no LP, and only when every pair misses are the pair LPs
        # solved, in the same order, up to the first that finds a gap
        for problem in ROUTE_PROBLEMS[shape]:
            verdict, events = _routed(problem, monkeypatch)
            missed, reference = _routed(problem, monkeypatch, search=False)
            # with every search missing, the LPs alone decide, after all the
            # searches; their pair is the per-triple scan's first
            searches = reference.count("miss")
            assert reference == ["miss"] * searches + ["lp"] * reference.count("lp")
            assert missed.holds or (missed.counterexample.triple[::2]
                                    == _reference_first_pair(problem))
            if "hit" in events:
                assert events == ["miss"] * events.index("hit") + ["hit"]
                continue
            # no pair has a point-mass or edge gap: the same searches and
            # LPs, and the LP route's pair, j and belief
            assert events == reference
            assert verdict == missed


class TestConvexityLpCount:
    """A work guard: on survivors, where every action is uniquely optimal
    somewhere, a failing `qcc` means a gap, and on these problems a point
    mass or an edge shows one, so no pair LP is solved; the LPs stay the
    complete fallback where no pair has a gap."""

    def test_no_lp_on_survivors_with_a_dip(self, monkeypatch):
        # the benchmark's `wide` shapes after elimination
        failing = []
        for n in range(300):
            raw = random_problem(7000 + n, 4 + n % 3, 6 + n // 3 % 3, 1000)
            survivors = iterated_elimination(raw).surviving
            qcc = check_qcc(survivors)
            if not qcc.holds:
                failing.append((survivors, qcc))
        calls = _counted_solves(monkeypatch)
        assert all(not check_argmax_convexity(*case).holds for case in failing)
        assert len(failing) >= 250 and calls == []

    def test_raw_problems_with_no_gap_solve_every_pair_lp(self, monkeypatch):
        # before elimination qcc can fail with no gap anywhere: every pair
        # from check_qcc's i0 on misses the search and gets its LP
        calls = _counted_solves(monkeypatch)
        cases = 0
        for s in range(60):
            problem = random_problem(30000 + s, 2 + s % 6, 1 + s // 6 % 4, (3, 10, 1000)[s % 3])
            qcc = check_qcc(problem)
            before = len(calls)
            verdict = check_argmax_convexity(problem, qcc)
            if qcc.holds or not verdict.holds:
                continue
            cases += 1
            m, first = problem.num_actions, qcc.counterexample.triple[0]
            assert len(calls) - before == sum(m - i - 2 for i in range(first, m - 2)) > 0
        assert cases >= 10


class TestNesting:
    def test_chain_on_unimodal_fixture(self, p1):
        # adjacent halfspaces {p1 < 1/4} inside {p0 > 1/4}, worked by hand
        report = check_nesting(p1)
        assert report.chain_holds
        assert report.region_identification_holds
        assert report.chain_failures == () and report.region_failures == ()

    def test_chain_breaks_on_dipping_fixture(self, p2):
        report = check_nesting(p2)
        assert not report.chain_holds
        failure = report.chain_failures[0]
        assert failure.index == 0
        adjacent = indifference_hyperplane(p2, 0, 1)
        successor = indifference_hyperplane(p2, 1, 2)
        coords = failure.belief.coordinates
        assert sum(c * p for c, p in zip(adjacent, coords)) > 0
        assert sum(c * p for c, p in zip(successor, coords)) <= 0

    def test_no_simplex_call(self, monkeypatch):
        # every nesting question is a two-row system, decided in the plane
        def no_simplex(*args):
            raise AssertionError("nesting ran the simplex")

        monkeypatch.setattr(exactlp, "_solve_standard_form", no_simplex)
        monkeypatch.setattr(geometry, "solve", no_simplex)
        failures = 0
        for seed in range(30):
            problem = random_problem(
                seed=9500 + seed, actions=3 + seed % 4, states=1 + seed % 5, magnitude=9
            )
            report = check_nesting(problem)
            failures += len(report.chain_failures) + len(report.region_failures)
        assert failures > 10

    def test_two_actions_chain_is_empty(self):
        problem = DecisionProblem.from_matrix([[1, 0], [0, 1]])
        report = check_nesting(problem)
        assert report.chain_holds and report.region_identification_holds

    def test_nesting_follows_from_qcc_plus_certification(self):
        held = 0
        for seed in range(30):
            problem = random_problem(
                seed=9300 + seed, actions=2 + seed % 5, states=2 + seed % 3, magnitude=7
            )
            surviving = iterated_elimination(problem).surviving
            if check_qcc(surviving).holds:
                report = check_nesting(surviving)
                assert report.chain_holds and report.region_identification_holds
                held += 1
        assert held > 10

    def test_region_failures_reverify(self):
        # a problem where an action beats its successor without beating a
        # later action: rows checked by exact substitution
        for seed in range(30):
            problem = random_problem(
                seed=9400 + seed, actions=3 + seed % 3, states=2 + seed % 3, magnitude=6
            )
            report = check_nesting(problem)
            for failure in report.region_failures:
                adjacent = indifference_hyperplane(problem, failure.index, failure.index + 1)
                comparison = indifference_hyperplane(problem, failure.index, failure.other)
                coords = failure.belief.coordinates
                assert sum(c * p for c, p in zip(adjacent, coords)) > 0
                assert sum(c * p for c, p in zip(comparison, coords)) <= 0


def reference_nesting(problem):
    """Every chain and every region question, each decided by `edge_witness`
    or a verified Motzkin certificate and re-verified on the exact payoffs:
    the all-questions loop, the reference for the region questions that
    `check_nesting` leaves to the chain."""
    scaled = integer_payoff(problem)

    def beats_without(p, q, r, s):
        points = [(up - uq, us - ur)
                  for up, uq, ur, us in zip(scaled[p], scaled[q], scaled[r], scaled[s])]
        belief = exactlp.edge_witness(points, (True, False))
        if belief is None:
            exactlp.motzkin_certificate(points, (True, False))
            return None
        value = problem.expected_payoff
        assert value(p, belief) > value(q, belief) and value(r, belief) <= value(s, belief)
        return belief

    chain, region = [], []
    for i in range(problem.num_actions - 2):
        belief = beats_without(i, i + 1, i + 1, i + 2)
        if belief is not None:
            chain.append(NestingFailure(i, belief))
        for j in range(i + 2, problem.num_actions):
            belief = beats_without(i, i + 1, i, j)
            if belief is not None:
                region.append(RegionFailure(i, j, belief))
    return NestingReport(not chain, tuple(chain), not region, tuple(region))


def _valley(rng, actions, states, k):
    """Every state column falls strictly down to action k + 1 and rises
    strictly after it, so at every belief u_k > u_{k+1} <= u_{k+2}, and u_i
    > u_{i+1} holds only for i <= k: chain link k alone fails."""
    columns = []
    for _ in range(states):
        column = [rng.next_int(-3, 3)]
        for i in range(1, actions):
            step = rng.next_int(1, 4)
            column.append(column[-1] - step if i <= k + 1 else column[-1] + step)
        columns.append(column)
    return DecisionProblem.from_matrix([list(row) for row in zip(*columns)])


def _nesting_problems():
    """1,200 seeded problems with 2-8 actions and 1-6 states: integer
    payoffs of magnitude 3, 10 and 1000 with one in seven made rational,
    `discretize` output of random linear, quadratic and cubic polynomials,
    and problems whose chain fails at exactly one link k, for every link of
    3-8 actions."""
    rng = SplitMix64(24)
    for n in range(840):
        m, states, magnitude = 2 + n % 7, 1 + n // 7 % 6, (3, 10, 1000)[n // 42 % 3]
        problem = random_problem(12000 + n, m, states, magnitude)
        if n % 7 == 3:
            problem = DecisionProblem.from_matrix(
                [[v / (2 + j) + F(i, 5) for j, v in enumerate(row)]
                 for i, row in enumerate(problem.payoff)]
            )
        yield problem
    for n in range(180):
        states = 1 + n % 4
        coefficients = [[rng.next_int(-4, 4) for _ in range(2 + n % 3)] for _ in range(states)]
        yield _polynomial(*coefficients).discretize(2 + n % 7)
    for n in range(180):
        m = 3 + n % 6
        yield _valley(rng, m, 1 + n // 6 % 6, n // 36 % (m - 2))


class TestNestingChainSettlesRegions:
    def test_equals_the_all_questions_reference(self):
        seen = {"chain_holds": 0, "some_links_fail": 0, "region_failures": 0,
                "one_failing_link": set()}
        for problem in _nesting_problems():
            report = check_nesting(problem)
            assert report == reference_nesting(problem)
            links, failing = problem.num_actions - 2, len(report.chain_failures)
            seen["chain_holds"] += links > 0 and report.chain_holds
            # some region questions are settled and some are asked
            seen["some_links_fail"] += 0 < failing < links
            seen["region_failures"] += len(report.region_failures)
            if failing == 1:
                seen["one_failing_link"].add(
                    (problem.num_actions, report.chain_failures[0].index))
        assert seen["chain_holds"] > 100 and seen["some_links_fail"] > 400
        assert seen["region_failures"] > 4000
        # every link k of every action count from 3 to 8
        assert seen["one_failing_link"] >= {(m, k) for m in range(3, 9) for k in range(m - 2)}

    def test_substituted_chain_belief_raises(self, p1, monkeypatch):
        # the point mass on state 0 has u_0 > u_1 but also u_1 > u_2
        monkeypatch.setattr(geometry, "edge_point", lambda columns, strict: ([1, 0], 1))
        with pytest.raises(InternalInvariantError) as raised:
            check_nesting(p1)
        assert raised.value.invariant == "nesting-chain"

    def test_substituted_region_belief_raises(self, p2, monkeypatch):
        # link 0 fails with its true belief, so the region question (0, 2)
        # is asked; the point mass on state 1 has u_0 < u_1 there
        calls, edge_point = [], geometry.edge_point

        def corrupted(columns, strict):
            calls.append(columns)
            return edge_point(columns, strict) if len(calls) == 1 else ([0, 1], 1)

        monkeypatch.setattr(geometry, "edge_point", corrupted)
        with pytest.raises(InternalInvariantError) as raised:
            check_nesting(p2)
        assert raised.value.invariant == "nesting-region"
        assert len(calls) == 2


class TestEquivalenceTheorem:
    """The central property: after elimination and certification, the
    whole-simplex unimodality verdict and the convexity verdict coincide."""

    def test_equivalence_on_random_instances(self):
        agreements = 0
        for seed in range(60):
            problem = random_problem(
                seed=11000 + seed,
                actions=1 + seed % 6,
                states=1 + seed % 4,
                magnitude=9,
            )
            surviving = iterated_elimination(problem).surviving
            qcc_verdict = check_qcc(surviving)
            qcc_holds = qcc_verdict.holds
            convex_holds = check_argmax_convexity(surviving, qcc_verdict).holds
            assert qcc_holds == convex_holds
            agreements += 1
        assert agreements == 60
