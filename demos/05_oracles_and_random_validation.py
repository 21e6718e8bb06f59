"""Independent oracles and the randomized validation harness.

The exact LP route is cross-checked three ways: exhaustive belief grids
(can confirm any reported failure), a complete breakpoint oracle for
two-state problems (decides both whole-simplex properties by finite
enumeration), and a reproducible random-instance harness that replays the
theory on hundreds of generated problems.
"""

from qccheck import (
    DecisionProblem,
    GridSpec,
    check_argmax_convexity,
    check_qcc,
    exact_check_two_state,
    find_grid_dip,
    find_grid_gap,
    grid_beliefs,
)
from qccheck.cli import run_harness

bumpy = DecisionProblem.from_matrix([[0, -4], [-4, 0], [-1, -1]])

print("Belief grid with denominator 4 over two states:")
print("  " + ", ".join(
    "(" + ",".join(str(c) for c in b.coordinates) + ")"
    for b in grid_beliefs(GridSpec(4, 2))
))

dip = find_grid_dip(bumpy, GridSpec(5, 2))
gap = find_grid_gap(bumpy, GridSpec(4, 2))
print(f"grid dip on the bumpy problem: belief {[str(c) for c in dip[0]]}, triple {dip[1]}")
print(f"grid gap on the bumpy problem: belief {[str(c) for c in gap[0]]}, triple {gap[1]}")

print()
print("Complete two-state oracle versus the LP verdicts:")
oracle_verdict = exact_check_two_state(bumpy)
qcc = check_qcc(bumpy)
lp_verdict = (qcc.holds, check_argmax_convexity(bumpy, qcc).holds)
print(f"  breakpoint oracle: (unimodal, convex) = {oracle_verdict}")
print(f"  LP checkers:       (unimodal, convex) = {lp_verdict}")

print()
print("Randomized harness (50 instances, fully reproducible):")
doc = run_harness(
    instances=50, max_actions=6, max_states=4, magnitude=10, seed=12345, grid=12
)
summary = doc["summary"]
print(f"  equivalence agreements:      {summary['prop1_agreements']}/50")
print(f"  unimodal-everywhere:         {summary['qcc_holding']}")
print(f"  single-crossing after relabel: "
      f"{summary['prop3_relaxed_successes']}/{summary['qcc_holding']}")
print(f"  literal-mode divergences:    {summary['lsc_literal_divergences']}")
print(f"  nesting failures:            {summary['nesting_failures']}")
print(f"  grid contradictions:         {summary['forward_contiguity_violations']}")
