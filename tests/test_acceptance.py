"""Acceptance suite.

Every criterion runs at its stated scale with exact (tolerance-free)
comparisons and prints one PASS/FAIL line; run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete.

The shared corpus is the harness instance stream: 500 reproducible random
problems with up to 6 actions, up to 4 states, and integer payoffs in
[-10, 10].  Each instance is pushed through the full pipeline once and the
results feed criteria 1, 2, 3, 4, 6, 7, and 9.
"""

import time
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from qccheck import (
    DecisionProblem,
    GridSpec,
    PolynomialProblem,
    SplitMix64,
    check_argmax_convexity,
    check_lsc,
    check_nesting,
    check_qcc,
    exact_check_two_state,
    find_grid_gap,
    indifference_hyperplane,
    iterated_elimination,
    mixed_dominance_certificate,
    random_problem,
    relabel_for_lsc,
    unique_optimality_witness,
)
from qccheck.cli import harness_instances

CORPUS_SEED = 1729
CORPUS_SIZE = 500
TWO_STATE_SEED = 2718
TWO_STATE_SIZE = 200
FORWARD_GRID = 20


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _verify_dip(problem, counterexample) -> bool:
    i, j, k = counterexample.triple
    values = problem.payoff_profile(counterexample.belief)
    return (
        counterexample.values == (values[i], values[j], values[k])
        and values[j] < values[i]
        and values[j] < values[k]
    )


def _verify_gap(problem, counterexample) -> bool:
    i, j, k = counterexample.triple
    optimal = problem.argmax_set(counterexample.belief)
    return i in optimal and k in optimal and j not in optimal


def _verify_nesting_failures(problem, report) -> bool:
    for failure in report.chain_failures:
        adjacent = indifference_hyperplane(problem, failure.index, failure.index + 1)
        successor = indifference_hyperplane(problem, failure.index + 1, failure.index + 2)
        coords = failure.belief.coordinates
        if not (
            sum(c * p for c, p in zip(adjacent, coords)) > 0
            and sum(c * p for c, p in zip(successor, coords)) <= 0
        ):
            return False
    for failure in report.region_failures:
        adjacent = indifference_hyperplane(problem, failure.index, failure.index + 1)
        comparison = indifference_hyperplane(problem, failure.index, failure.other)
        coords = failure.belief.coordinates
        if not (
            sum(c * p for c, p in zip(adjacent, coords)) > 0
            and sum(c * p for c, p in zip(comparison, coords)) <= 0
        ):
            return False
    return True


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


@dataclass
class CorpusResults:
    instances: int = 0
    elapsed_seconds: float = 0.0
    prop1_disagreements: int = 0
    qcc_holding: int = 0
    prop3_failures: int = 0
    forward_gap_violations: int = 0
    nesting_failures: int = 0
    witness_soundness_failures: int = 0
    duality_violations: int = 0
    duality_checked_actions: int = 0
    scaling_violations: int = 0
    reversal_violations: int = 0
    idempotence_failures: int = 0
    literal_divergences: int = 0


@pytest.fixture(scope="session")
def corpus() -> CorpusResults:
    results = CorpusResults()
    start = time.perf_counter()
    for index, instance_seed, problem in harness_instances(
        CORPUS_SEED, CORPUS_SIZE, max_actions=6, max_states=4, magnitude=10
    ):
        results.instances += 1

        # criterion 7: exactly one of interior witness / dominating mixture,
        # for every action of the raw instance
        if problem.num_actions >= 2:
            for action in range(problem.num_actions):
                witness = unique_optimality_witness(problem, action)
                certificate = mixed_dominance_certificate(problem, action)
                results.duality_checked_actions += 1
                if (witness is None) == (certificate is None):
                    results.duality_violations += 1

        elimination = iterated_elimination(problem)
        surviving = elimination.surviving

        # criterion 6: re-verify the certification witnesses independently
        for i, witness in enumerate(elimination.witnesses):
            if not witness.is_interior or surviving.argmax_set(witness) != {i}:
                results.witness_soundness_failures += 1

        qcc_verdict = check_qcc(surviving)
        convexity_verdict = check_argmax_convexity(surviving, qcc_verdict)

        # criterion 1: the equivalence after elimination and certification
        if qcc_verdict.holds != convexity_verdict.holds:
            results.prop1_disagreements += 1

        # criterion 6: every emitted counterexample re-verifies exactly
        if qcc_verdict.counterexample is not None:
            if not _verify_dip(surviving, qcc_verdict.counterexample):
                results.witness_soundness_failures += 1
        if convexity_verdict.counterexample is not None:
            if not _verify_gap(surviving, convexity_verdict.counterexample):
                results.witness_soundness_failures += 1
        nesting = check_nesting(surviving)
        if not _verify_nesting_failures(surviving, nesting):
            results.witness_soundness_failures += 1

        if qcc_verdict.holds:
            results.qcc_holding += 1

            # criterion 2: no argmax gap at any grid belief
            if find_grid_gap(surviving, GridSpec(FORWARD_GRID, surviving.num_states)):
                results.forward_gap_violations += 1

            # criterion 4: the halfspace structure on certified unimodal
            # instances
            if not (nesting.chain_holds and nesting.region_identification_holds):
                results.nesting_failures += 1

            # criterion 3: relabeling yields the relaxed single-crossing
            # property
            _, relabeled = relabel_for_lsc(surviving)
            if not check_lsc(relabeled, "relaxed").holds:
                results.prop3_failures += 1
            if not check_lsc(relabeled, "literal").holds:
                results.literal_divergences += 1

        # criterion 9: invariances, on the analyzed instance
        rng = SplitMix64(instance_seed ^ 0xC0FFEE)
        alpha = F(rng.next_int(1, 8), rng.next_int(1, 8))
        offsets = tuple(
            F(rng.next_int(-12, 12), rng.next_int(1, 4))
            for _ in range(surviving.num_states)
        )
        if check_qcc(_scaled_shifted(surviving, alpha, offsets)).holds != qcc_verdict.holds:
            results.scaling_violations += 1
        reversed_problem = _reversed_actions(surviving)
        reversed_qcc = check_qcc(reversed_problem)
        if (
            reversed_qcc.holds != qcc_verdict.holds
            or check_argmax_convexity(reversed_problem, reversed_qcc).holds
            != convexity_verdict.holds
        ):
            results.reversal_violations += 1
        relabeling_again, _ = relabel_for_lsc(relabel_for_lsc(surviving)[1])
        if relabeling_again.permutation != tuple(range(surviving.num_states)):
            results.idempotence_failures += 1

    results.elapsed_seconds = time.perf_counter() - start
    return results


def test_criterion_1_equivalence(corpus):
    ok = (
        corpus.instances == CORPUS_SIZE
        and corpus.prop1_disagreements == 0
        and corpus.elapsed_seconds < 60.0
    )
    _report(
        1,
        ok,
        f"unimodality/convexity verdicts agreed on {corpus.instances} certified "
        f"instances, 0 disagreements required, got {corpus.prop1_disagreements}; "
        f"corpus pass took {corpus.elapsed_seconds:.1f}s (< 60s)",
    )


def test_criterion_2_forward_direction(corpus):
    ok = corpus.forward_gap_violations == 0
    _report(
        2,
        ok,
        f"argmax contiguous at every denominator-{FORWARD_GRID} grid belief on "
        f"all {corpus.qcc_holding} unimodal instances "
        f"({corpus.forward_gap_violations} violations)",
    )


def test_criterion_3_relabeling_yields_single_crossing(corpus):
    ok = corpus.qcc_holding >= 50 and corpus.prop3_failures == 0
    _report(
        3,
        ok,
        f"{corpus.qcc_holding} unimodal instances (>= 50 required), relaxed "
        f"single-crossing after relabeling failed on {corpus.prop3_failures} "
        f"(literal-mode divergences, recorded not asserted: "
        f"{corpus.literal_divergences})",
    )


def test_criterion_4_nesting_structure(corpus):
    ok = corpus.nesting_failures == 0
    _report(
        4,
        ok,
        f"halfspace chain and region identification held on all "
        f"{corpus.qcc_holding} certified unimodal instances "
        f"({corpus.nesting_failures} failures)",
    )


def test_criterion_5_two_state_oracle_agreement():
    stream = SplitMix64(TWO_STATE_SEED)
    disagreements = 0
    for _ in range(TWO_STATE_SIZE):
        actions = stream.next_int(1, 6)
        seed = stream.next_uint64()
        problem = random_problem(seed, actions, 2, 10)
        oracle_verdict = exact_check_two_state(problem)
        qcc_verdict = check_qcc(problem)
        solver_verdict = (
            qcc_verdict.holds,
            check_argmax_convexity(problem, qcc_verdict).holds,
        )
        if oracle_verdict != solver_verdict:
            disagreements += 1
    ok = disagreements == 0
    _report(
        5,
        ok,
        f"complete breakpoint oracle agreed with both solver verdicts on "
        f"{TWO_STATE_SIZE} two-state instances ({disagreements} disagreements)",
    )


def test_criterion_6_witness_soundness(corpus):
    ok = corpus.witness_soundness_failures == 0
    _report(
        6,
        ok,
        f"every emitted belief re-verified by exact substitution across the "
        f"corpus ({corpus.witness_soundness_failures} failures)",
    )


def test_criterion_7_duality(corpus):
    ok = corpus.duality_violations == 0 and corpus.duality_checked_actions > 500
    _report(
        7,
        ok,
        f"exactly one of witness/certificate existed for each of "
        f"{corpus.duality_checked_actions} actions "
        f"({corpus.duality_violations} violations)",
    )


def test_criterion_8_hand_verified_fixtures():
    p1 = DecisionProblem.from_matrix([[0, -4], [-1, -1], [-4, 0]])
    p2 = DecisionProblem.from_matrix([[0, -4], [-4, 0], [-1, -1]])

    start = time.perf_counter()
    qcc1 = check_qcc(p1)
    convex1 = check_argmax_convexity(p1, qcc1)
    nesting1 = check_nesting(p1)
    lsc1 = check_lsc(p1, "relaxed")
    p1_ok = (
        qcc1.holds
        and convex1.holds
        and nesting1.chain_holds
        and nesting1.region_identification_holds
        and lsc1.holds
    )
    p1_time = time.perf_counter() - start

    start = time.perf_counter()
    qcc2 = check_qcc(p2)
    convex2 = check_argmax_convexity(p2, qcc2)
    p2_ok = (
        not qcc2.holds
        and not convex2.holds
        and _verify_dip(p2, qcc2.counterexample)
        and _verify_gap(p2, convex2.counterexample)
    )
    p2_time = time.perf_counter() - start

    start = time.perf_counter()
    quadratic_loss = PolynomialProblem(
        (F(0), F(2)),
        ("low", "high"),
        ((F(0), F(0), F(-1)), (F(-4), F(4), F(-1))),
    )
    grid = quadratic_loss.discretize(3)
    discretize_ok = grid.payoff == p1.payoff and grid.actions == (F(0), F(1), F(2))
    discretize_time = time.perf_counter() - start

    ok = (
        p1_ok
        and p2_ok
        and discretize_ok
        and p1_time < 0.1
        and p2_time < 0.1
        and discretize_time < 0.1
    )
    _report(
        8,
        ok,
        f"fixtures reproduced hand results in {p1_time * 1000:.1f}ms / "
        f"{p2_time * 1000:.1f}ms / {discretize_time * 1000:.1f}ms "
        f"(each < 100ms)",
    )


def test_criterion_9_invariance_suite(corpus):
    ok = (
        corpus.scaling_violations == 0
        and corpus.reversal_violations == 0
        and corpus.idempotence_failures == 0
    )
    _report(
        9,
        ok,
        f"verdicts invariant under positive affine payoff rescaling "
        f"({corpus.scaling_violations} violations), action-order reversal "
        f"({corpus.reversal_violations}), and relabeling idempotent "
        f"({corpus.idempotence_failures} failures) across the corpus",
    )
