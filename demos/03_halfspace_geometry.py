"""The simplex geometry behind the unimodality/convexity equivalence.

Pairwise payoff differences are affine in the belief, so "action i beats
action j" regions are halfspaces.  On a problem that passes elimination and
is unimodal everywhere, the adjacent-comparison halfspaces are nested, and
beating the immediate successor already implies beating every later action;
on a problem with dips, both statements break at explicit beliefs.
"""

from qccheck import (
    DecisionProblem,
    check_argmax_convexity,
    check_nesting,
    check_qcc,
    indifference_hyperplane,
    iterated_elimination,
)

smooth = DecisionProblem.from_matrix([[0, -4], [-1, -1], [-4, 0]])
bumpy = DecisionProblem.from_matrix([[0, -4], [-4, 0], [-1, -1]])

print("Adjacent-comparison hyperplane coefficients (smooth problem):")
for i in range(smooth.num_actions - 1):
    coeffs = [str(c) for c in indifference_hyperplane(smooth, i, i + 1)]
    print(f"  actions {i} vs {i + 1}: {coeffs}")

print()
print("Optimal-action convexity (no belief may skip a middle action):")
for name, problem in [("smooth", smooth), ("bumpy", bumpy)]:
    verdict = check_argmax_convexity(problem, check_qcc(problem))
    print(f"  {name}: holds={verdict.holds}")
    if verdict.counterexample is not None:
        ce = verdict.counterexample
        coords = [str(c) for c in ce.belief.coordinates]
        optimal = sorted(problem.argmax_set(ce.belief))
        print(f"    at belief {coords}: argmax={optimal}, skipping action {ce.triple[1]}")

print()
print("Halfspace nesting:")
for name, problem in [("smooth", smooth), ("bumpy", bumpy)]:
    report = check_nesting(problem)
    print(
        f"  {name}: chain_holds={report.chain_holds} "
        f"region_identification_holds={report.region_identification_holds}"
    )
    for failure in report.chain_failures:
        coords = [str(c) for c in failure.belief.coordinates]
        print(
            f"    at belief {coords}: action {failure.index} beats its successor, "
            f"but the successor does not beat the next action"
        )

# The equivalence in action: after elimination certifies every survivor,
# the two whole-simplex verdicts always coincide.
print()
print("Equivalence on the certified problems:")
for name, problem in [("smooth", smooth), ("bumpy", bumpy)]:
    surviving = iterated_elimination(problem).surviving
    qcc = check_qcc(surviving)
    convex = check_argmax_convexity(surviving, qcc).holds
    print(f"  {name}: unimodal-everywhere={qcc.holds} convex-everywhere={convex}")
