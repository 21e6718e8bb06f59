"""Approximating a continuous action interval by exact discretization.

Polynomial payoffs over a closed action interval are sampled on a uniform
rational grid, producing an ordinary finite problem whose entries are exact
polynomial values.  Refining the grid probes how the whole-simplex
properties behave as the discretization tightens.
"""

from fractions import Fraction as F

from qccheck import PolynomialProblem, check_argmax_convexity, check_qcc

# u(a, theta) = -(a - theta)^2 on the interval [0, 2], states theta in {0, 2}:
# ascending-power coefficients per state.
quadratic_loss = PolynomialProblem(
    interval=(F(0), F(2)),
    states=("theta=0", "theta=2"),
    coefficients=(
        (F(0), F(0), F(-1)),    # -a^2
        (F(-4), F(4), F(-1)),   # -(a-2)^2
    ),
)

for points in (2, 3, 5, 9, 17):
    grid = quadratic_loss.discretize(points)
    qcc = check_qcc(grid)
    convex = check_argmax_convexity(grid, qcc)
    print(
        f"{points:>2} grid points: actions "
        f"{[str(a) for a in grid.actions[:4]]}{'...' if points > 4 else ''} "
        f"unimodal={qcc.holds} convex={convex.holds}"
    )

# Concave-in-action payoffs stay unimodal at every refinement; the exact
# arithmetic means these verdicts carry no discretization noise beyond the
# grid itself.
