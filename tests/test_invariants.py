"""Every re-verification can fire: one corruption per invariant name.

Each row of `FAULTS` corrupts one certificate or decider output, mostly by
monkeypatch, runs the code that checks it, and expects that check's
invariant name.  `test_every_invariant_name_has_a_row` reads every literal
name raised in `src/qccheck/` and fails on one with no row, so a new check
comes with a test that fires it.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

import qccheck.cli as cli_module
import qccheck.dominance as dominance
import qccheck.exactlp as exactlp
import qccheck.geometry as geometry
import qccheck.qcc as qcc_module
from qccheck import (
    Belief,
    DecisionProblem,
    InternalInvariantError,
    LinearSystem,
    check_argmax_convexity,
    check_nesting,
    check_qcc,
    iterated_elimination,
    mixed_dominance_certificate,
    solve,
    strict_feasible,
    unique_optimality_witness,
)
from qccheck.exactlp import LPResult, LPStatus
from qccheck.geometry import ConvexityVerdict

SRC = Path(__file__).resolve().parent.parent / "src" / "qccheck"

# unimodal everywhere, and its reordering with a dip at the point mass on
# state 0 and a gap between 0 and 2 at p1 = 1/4
UNIMODAL = DecisionProblem.from_matrix([[0, -4], [-1, -1], [-4, 0]])
DIPPING = DecisionProblem.from_matrix([[0, -4], [-4, 0], [-1, -1]])
# action 2 is matched by the even mix of 0 and 1 and by nothing else
MATCHED = DecisionProblem.from_matrix([[4, 0], [0, 4], [2, 2]])
POINT_MASS = Belief((F(1), F(0)))


def _solved_as(value, solution):
    """Make `_solve_standard_form` answer (value, solution) for any system."""
    return lambda eq_rows, eq_rhs, objective: (value, [F(x) for x in solution])


def _corrupt_edge_belief(monkeypatch):
    monkeypatch.setattr(geometry, "edge_witness", lambda columns, strict: POINT_MASS)
    check_argmax_convexity(DIPPING, check_qcc(DIPPING))


def _corrupt_lp_belief(monkeypatch):
    # the pair LP claims a gap at the point mass, where only action 0 is optimal
    monkeypatch.setattr(geometry, "edge_witness", lambda columns, strict: None)
    monkeypatch.setattr(geometry, "solve", lambda system: LPResult(
        LPStatus.OPTIMAL, value=F(1), witness=POINT_MASS))
    check_argmax_convexity(DIPPING, check_qcc(DIPPING))


def _corrupt_stepped_belief(monkeypatch):
    # the uniform belief ties the two actions, and the step keeps it there
    monkeypatch.setattr(dominance, "_screened_witness", lambda rows, action: ([1, 1], 2))
    iterated_elimination(DecisionProblem.from_matrix([[1, 0], [0, 1]]))


def _corrupt_stored_mixture(monkeypatch):
    # actions 0 and 1 are screened; the stored removal of action 2 puts its
    # weight on action 2 itself
    monkeypatch.setattr(dominance, "_duality_check",
                        lambda problem, action, rows: ((F(0), F(0), F(1)), None))
    iterated_elimination(MATCHED)


def _corrupt_mixture_weights(monkeypatch):
    # all weight on action 0, which loses to action 2 in state 1
    monkeypatch.setattr(dominance, "solve", lambda system: LPResult(
        LPStatus.OPTIMAL, witness=POINT_MASS))
    mixed_dominance_certificate(MATCHED, 2)


def _unbounded_tableau(monkeypatch):
    # column 0 improves the objective and has no positive entry
    exactlp._bland_maximize([[F(-1), F(1), F(1)]], [F(-1), F(0), F(0)], [1], 1)


def _negative_farkas_on_a_weak_row(monkeypatch):
    # x0 + x1 >= 0 holds everywhere; the multiplier -1 on it gives
    # max -1 < 0, which only the sign check on `>=` rows rejects
    monkeypatch.setattr(exactlp, "_solve_standard_form", _solved_as(None, [0, 1]))
    solve(LinearSystem.build(2, [((1, 1), ">=", 0)]))


def _missing_planar_alternative(monkeypatch):
    monkeypatch.setattr(exactlp, "_motzkin_multipliers", lambda points, strict: None)
    exactlp.motzkin_certificate([(F(1), F(-1)), (F(-1), F(0))], (True, False))


def _boundary_strict_witness(monkeypatch):
    # the point mass meets x0 > 0, but the system asks for an interior belief
    monkeypatch.setattr(exactlp, "_solve_standard_form", _solved_as(F(1, 2), [1, 0, F(1, 2)]))
    strict_feasible(LinearSystem.build(2, [((1, 0), ">", 0)], interior_required=True))


def _lp_witness_off_its_row(monkeypatch):
    monkeypatch.setattr(exactlp, "_solve_standard_form", _solved_as(F(0), [0, 1, 0]))
    solve(LinearSystem.build(2, [((1, 0), ">=", F(1, 2))]))


def _lp_witness_off_its_value(monkeypatch):
    # the point mass on state 1 attains 0, not the claimed 1
    monkeypatch.setattr(exactlp, "_solve_standard_form", _solved_as(F(1), [0, 1]))
    solve(LinearSystem.build(2, [], objective=(1, 0)))


def _corrupt_qcc_verdict(monkeypatch):
    # a holding verdict for a problem whose grid has a dip
    monkeypatch.setattr(cli_module, "check_qcc", lambda problem: check_qcc(UNIMODAL))
    cli_module.analyze_problem(DIPPING, 4)


def _corrupt_convexity_verdict(monkeypatch):
    # qcc fails truthfully, but convexity claims to hold where the grid has a gap
    monkeypatch.setattr(cli_module, "check_argmax_convexity",
                        lambda problem, qcc: ConvexityVerdict(holds=True, counterexample=None))
    cli_module.analyze_problem(DIPPING, 4)


def _corrupt_survivor_witness(monkeypatch):
    # action 1 loses at the uniform belief
    monkeypatch.setattr(dominance, "_interior_witness", lambda rows, action, p: ([1, 1], 2))
    iterated_elimination(DecisionProblem.from_matrix([[3, 0], [0, 1]]))


def _corrupt_dip_profile(monkeypatch):
    # a profile flagged as not unimodal, yet flat at the dip's triple
    monkeypatch.setattr(qcc_module, "unimodality_profile",
                        lambda problem, belief: ((F(0),) * problem.num_actions, False))
    check_qcc(DIPPING)


def _corrupt_edge_split(monkeypatch):
    split = qcc_module._edge_split
    monkeypatch.setattr(qcc_module, "_edge_split", lambda ends, j: ((1, 1), split(ends, j)[1]))
    check_qcc(UNIMODAL)


def _corrupt_edge_sweep(monkeypatch):
    monkeypatch.setattr(qcc_module, "_edge_sweep", lambda scaled: False)
    check_qcc(UNIMODAL)


def _corrupt_unique_witness(monkeypatch):
    # action 1 is uniquely optimal at the middle, not at the point mass
    monkeypatch.setattr(dominance, "strict_feasible", lambda system: LPResult(
        LPStatus.OPTIMAL, value=F(1), witness=POINT_MASS, slack=F(1)))
    unique_optimality_witness(UNIMODAL, 1)


def _corrupt_chain_belief(monkeypatch):
    # actions 0 and 1 tie everywhere: at the point mass on state 1,
    # u_1 <= u_2 holds but u_0 > u_1 fails with equality
    monkeypatch.setattr(geometry, "edge_point", lambda columns, strict: ([0, 1], 1))
    check_nesting(DecisionProblem.from_matrix([[1, 0], [1, 0], [0, 1]]))


def _corrupt_region_belief(monkeypatch):
    # link 0 fails with its true belief, so the region question (0, 2) is
    # asked; the point mass on state 1 has u_0 < u_1 there
    calls, edge_point = [], geometry.edge_point

    def corrupted(columns, strict):
        calls.append(columns)
        return edge_point(columns, strict) if len(calls) == 1 else ([0, 1], 1)

    monkeypatch.setattr(geometry, "edge_point", corrupted)
    check_nesting(DIPPING)


FAULTS = [
    ("convexity-counterexample-substitution", _corrupt_edge_belief),
    ("convexity-counterexample-substitution", _corrupt_lp_belief),
    ("dominance-duality", _corrupt_stepped_belief),
    ("dominance-mixture-shape", _corrupt_stored_mixture),
    ("dominance-mixture-substitution", _corrupt_mixture_weights),
    ("lp-boundedness", _unbounded_tableau),
    ("lp-farkas-substitution", _negative_farkas_on_a_weak_row),
    ("lp-planar-alternative", _missing_planar_alternative),
    ("lp-witness-interior", _boundary_strict_witness),
    ("lp-witness-substitution", _lp_witness_off_its_row),
    ("lp-witness-value", _lp_witness_off_its_value),
    ("oracle-lp-consistency", _corrupt_qcc_verdict),
    ("oracle-lp-consistency", _corrupt_convexity_verdict),
    ("post-elimination-certification", _corrupt_survivor_witness),
    ("qcc-counterexample-substitution", _corrupt_dip_profile),
    ("qcc-edge-split", _corrupt_edge_split),
    ("qcc-edge-sweep", _corrupt_edge_sweep),
    ("unique-optimality-witness", _corrupt_unique_witness),
    ("nesting-chain", _corrupt_chain_belief),
    ("nesting-region", _corrupt_region_belief),
]


@pytest.mark.parametrize("invariant, fault", FAULTS, ids=[f.__name__[1:] for _, f in FAULTS])
def test_corruption_fires_its_check(invariant, fault, monkeypatch):
    with pytest.raises(InternalInvariantError) as raised:
        fault(monkeypatch)
    assert raised.value.invariant == invariant


def _raised_names():
    """Every literal first argument of `InternalInvariantError(...)` in the
    package, with the two names `_beats_without` is passed."""
    names = {"nesting-chain", "nesting-region"}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "InternalInvariantError" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                names.add(node.args[0].value)
    return names


def test_every_invariant_name_has_a_row():
    names = _raised_names()
    assert len(names) >= 18
    assert names == {invariant for invariant, _ in FAULTS}
