"""Weak dominance analysis and the everyone-uniquely-optimal certificate.

An action is redundant when some mixture of the other actions matches or
beats it in every state; it is essential when some interior belief makes it
the unique optimizer.  These two conditions are mutually exclusive and
jointly exhaustive (Gordan 1873; Farkas 1902), so one LP decides both: the
mixture LP either returns a dominating mixture, or its Farkas certificate of
infeasibility, normalized, is a belief where the action is uniquely optimal;
an exact step toward the uniform belief makes that belief interior.  Each
side is re-verified by substitution, and either one excludes the other.
`unique_optimality_witness` keeps its own strict LP, an independent route
to the same answer that the acceptance tests compare against.

`iterated_elimination` removes duplicates and then mixture-dominated actions
until every survivor carries an interior unique-optimality witness, which
certifies the hypothesis the geometry checks rely on.  Before its LP, each
scanned action is screened by inspection: an action strictly best in some
state, uniquely best at the uniform belief, or uniquely best somewhere on an
edge between two point masses has that belief as a witness (stepped into the
interior the same way), so by duality it is undominated and needs no LP.  On
an edge the expected payoffs are lines in lam, so the set where the action
beats every other one is an open interval cut out by half-lines; the edge
step is `exactlp.edge_point` on the action's margins over the others, the
middle of the first such interval.  The screen is sufficient, not necessary:
an action may be uniquely optimal only in the interior, since the
Caratheodory argument that brings two strict rows to an edge (see `qcc`)
does not reach m - 1 of them.  The mixture LP settles what the screen
leaves.

The elimination runs on the problem's scaled payoffs (`integer_payoff`),
as one positive scale changes no sign: duplicates are equal scaled rows,
and every belief is a `Point`, integer numerators over one denominator.
The screens and the Farkas ray give such points, the interior step computes
its e and the stepped numerators in integers, and every "uniquely best"
check is an integer dot product with the numerators.  Fractions are first
built at the end: one `Belief` per survivor, after its point is re-checked
in integers on the surviving rows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional, Sequence

from .errors import InternalInvariantError
from .exactlp import LinearSystem, edge_point, solve, strict_feasible
from .problems import Belief, DecisionProblem, integer_payoff

RemovalReason = Literal["duplicate", "mixed-dominated"]

# A belief as integer numerators over one positive denominator.
Point = tuple[list[int], int]


@dataclass(frozen=True)
class RemovedAction:
    """One elimination step: which original action fell and why.

    `mixture` maps original action indices to the weights of a mixture that
    matches or beats the removed action in every state; for duplicates it is
    the single kept copy with weight 1.  Weights always refer to original
    indices so the certificate stays checkable against the input problem no
    matter what is removed later.
    """

    original_index: int
    reason: RemovalReason
    mixture: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class EliminationReport:
    """Result of iterated weak-dominance elimination with certificates.

    `witnesses[i]` is an interior belief at which action i of the surviving
    problem is uniquely optimal; its existence for every survivor is exactly
    the condition the equivalence theorem assumes.
    """

    surviving: DecisionProblem
    surviving_indices: tuple[int, ...]
    removed: tuple[RemovedAction, ...]
    witnesses: tuple[Belief, ...]


def unique_optimality_witness(
    problem: DecisionProblem, action_index: int
) -> Optional[Belief]:
    """Find an interior belief at which the action strictly beats all others.

    Returns None when no belief anywhere in the simplex makes the action
    uniquely optimal (an interior witness exists whenever any witness does,
    because the strict inequalities survive a small mix toward the uniform
    belief).
    """
    problem._check_action(action_index)
    target = problem.payoff[action_index]
    rows = []
    for j in range(problem.num_actions):
        if j == action_index:
            continue
        other = problem.payoff[j]
        rows.append((tuple(a - b for a, b in zip(target, other)), ">", 0))
    system = LinearSystem.build(problem.num_states, rows, interior_required=True)
    result = strict_feasible(system)
    if not result.open_feasible:
        return None
    witness = result.witness
    assert witness is not None
    if problem.argmax_set(witness) != {action_index}:
        raise InternalInvariantError(
            "unique-optimality-witness",
            f"witness {witness.coordinates} does not make action "
            f"{action_index} uniquely optimal",
        )
    return witness


def mixed_dominance_certificate(
    problem: DecisionProblem, action_index: int
) -> Optional[tuple[Fraction, ...]]:
    """Find mixture weights over the other actions that weakly dominate one.

    Returns a weight vector aligned with the problem's actions (the target's
    own weight is 0) whose mixture payoff matches or exceeds the target's in
    every state, or None when no such mixture exists.  One LP decides it:
    when no mixture exists, its Farkas certificate is turned into an
    interior belief where the action is uniquely optimal, and that belief is
    re-verified by substitution, so an absent mixture is certified too.
    """
    return _duality_check(problem, action_index, integer_payoff(problem))[0]


def _duality_check(
    problem: DecisionProblem, action_index: int, scaled: Sequence[Sequence[int]]
) -> tuple[Optional[tuple[Fraction, ...]], Optional[Point]]:
    """Both sides of one action's dominance duality from the mixture LP:
    (dominating mixture weights, None), or (None, an interior point where
    the action is uniquely optimal) stepped from the LP's Farkas
    certificate.  `scaled` holds the payoffs times one positive integer."""
    problem._check_action(action_index)
    if problem.num_actions < 2:
        raise ValueError("mixed dominance needs at least two actions")
    others = [j for j in range(problem.num_actions) if j != action_index]
    target = problem.payoff[action_index]
    rows = []
    for state in range(problem.num_states):
        coeffs = tuple(problem.payoff[j][state] for j in others)
        rows.append((coeffs, ">=", target[state]))
    result = solve(LinearSystem.build(len(others), rows))
    if not result.is_optimal:
        assert result.farkas is not None
        # the ray, normalized, is its integer multiple over that multiple's sum
        scale = math.lcm(*(lam.denominator for lam in result.farkas))
        ray = [lam.numerator * (scale // lam.denominator) for lam in result.farkas]
        return None, _interior_witness(scaled, action_index, (ray, sum(ray)))
    assert result.witness is not None
    weights = [Fraction(0)] * problem.num_actions
    for j, w in zip(others, result.witness.coordinates):
        weights[j] = w
    _verify_mixture(problem, action_index, tuple((j, w) for j, w in enumerate(weights) if w))
    return tuple(weights), None


def _interior_witness(
    rows: Sequence[Sequence[int]], action_index: int, start: Point
) -> Point:
    """Step a point p where the action is the only optimal one into the
    interior, keeping it the only optimal one.

    p is the mixture LP's normalized Farkas certificate, or a screened point
    mass, uniform belief or edge point, given as numerators w over their
    denominator Q.  With g_j = p.(u_i - u_j) > 0 and
    d_j = uniform.(u_i - u_j), q = (1 - e) p + e uniform keeps every margin
    (1 - e) g_j + e d_j positive for
    e = min(1/2, min over d_j < 0 of g_j / (2 (g_j - d_j))).
    On the integer rows (the payoffs times S) with n states,
    G_j = w.(r_i - r_j) is g_j Q S and D_j = sum(r_i - r_j) is d_j n S, so
    the same e is G_j n / (2 (G_j n - D_j Q)): the positive scales cancel
    in the ratio.  With e = a / b, q's numerators are (b - a) n w + a Q over
    b Q n.  Every step is an integer operation.
    """
    weights, q = start
    n = len(weights)
    at_p = [sum(map(operator.mul, weights, row)) for row in rows]
    sums = [sum(row) for row in rows]
    a, b = 1, 2
    for at_j, sum_j in zip(at_p, sums):
        g, d = at_p[action_index] - at_j, sums[action_index] - sum_j
        if d < 0 < g:  # with d < 0 and g <= 0 no step helps; the check raises
            top, bottom = g * n, 2 * (g * n - d * q)
            if top * b < a * bottom:
                a, b = top, bottom
    witness = [(b - a) * n * w + a * q for w in weights], b * q * n
    if not _is_witness(rows, action_index, witness):
        raise InternalInvariantError(
            "dominance-duality",
            f"action {action_index}: the numerators {witness[0]} over {witness[1]} "
            f"stepped from {weights} over {q} do not make it uniquely optimal in "
            "the interior",
        )
    return witness


def _is_witness(rows: Sequence[Sequence[int]], action_index: int, point: Point) -> bool:
    """Whether the point is an interior belief, every numerator positive
    and their sum the denominator, where the action alone is optimal."""
    weights, q = point
    return (all(w > 0 for w in weights) and sum(weights) == q
            and _uniquely_best(rows, action_index, weights))


def _uniquely_best(
    rows: Sequence[Sequence[int]], action_index: int, weights: Sequence[int]
) -> bool:
    """Whether the action alone attains the top expected payoff at the
    belief with these numerators, by integer dot products."""
    at = [sum(map(operator.mul, weights, row)) for row in rows]
    return all(v < at[action_index] for j, v in enumerate(at) if j != action_index)


def _screened_witness(rows: Sequence[Sequence[int]], action_index: int) -> Optional[Point]:
    """A point where the action is the only optimal one, found by inspection
    on the integer rows: the point mass on the first state where it beats
    every other action, else the uniform belief if it beats them all there,
    else the middle of the open interval where it beats them all on the
    first edge (s, t) that has one; None if none of these."""
    target = rows[action_index]
    n = len(target)
    others = rows[:action_index] + rows[action_index + 1:]
    for state, value in enumerate(target):
        if all(row[state] < value for row in others):
            return [int(j == state) for j in range(n)], 1
    total = sum(target)
    if all(sum(row) < total for row in others):
        return [1] * n, n
    margins = [[value - row[state] for row in others] for state, value in enumerate(target)]
    return edge_point(margins, (True,) * len(others))


def _verify_mixture(
    problem: DecisionProblem, target: int, mixture: tuple[tuple[int, Fraction], ...]
) -> None:
    """Check that a mixture, as (action, weight) pairs with every weight
    positive and the target left out, matches or beats the target in every
    state."""
    if (any(j == target or w <= 0 for j, w in mixture)
            or sum((w for _, w in mixture), Fraction(0)) != 1):
        raise InternalInvariantError(
            "dominance-mixture-shape", f"bad mixture {mixture} for action {target}"
        )
    for state in range(problem.num_states):
        mixed = sum((w * problem.payoff[j][state] for j, w in mixture), Fraction(0))
        if mixed < problem.payoff[target][state]:
            raise InternalInvariantError(
                "dominance-mixture-substitution",
                f"mixture {mixture} fails to dominate action {target} in state {state}",
            )


def iterated_elimination(problem: DecisionProblem) -> EliminationReport:
    """Remove duplicate and mixture-dominated actions, then certify survivors.

    Duplicate payoff rows are collapsed first (lowest index kept); then the
    lowest-index action with a dominating mixture over the current survivors
    is removed, repeatedly, until none remains.  An action strictly best in
    some state, at the uniform belief, or somewhere on an edge is undominated
    by inspection and takes that belief, stepped into the interior, as its
    witness; every other scanned action gets one mixture LP.  Each distinct
    action's dominance question is settled once: a unique-optimality witness
    stays one when other actions are removed, so the actions before a removal
    stay undominated and the scan resumes at the removal point.  A survivor's
    witness may therefore have been found while more actions were active;
    every witness is re-verified by substitution on the surviving problem,
    and a failure is an internal error because it contradicts the dominance
    duality.
    """
    removed: list[RemovedAction] = []

    scaled = integer_payoff(problem)
    seen: dict[tuple[int, ...], int] = {}
    active: list[int] = []
    for i, row in enumerate(scaled):
        if row in seen:
            removed.append(
                RemovedAction(i, "duplicate", ((seen[row], Fraction(1)),))
            )
        else:
            seen[row] = i
            active.append(i)

    found: dict[int, Point] = {}
    rows = [scaled[i] for i in active]
    surviving = problem.restrict_actions(active)
    position = 0
    while 1 < len(active) and position < len(active):
        screened = _screened_witness(rows, position)
        if screened is not None:
            found[active[position]] = _interior_witness(rows, position, screened)
            position += 1
            continue
        weights, witness = _duality_check(surviving, position, rows)
        if weights is None:
            found[active[position]] = witness
            position += 1
            continue
        mixture = tuple((active[j], w) for j, w in enumerate(weights) if w != 0)
        removed.append(RemovedAction(active[position], "mixed-dominated", mixture))
        del active[position]
        del rows[position]
        surviving = problem.restrict_actions(active)

    n = problem.num_states
    witnesses = []
    for position, original in enumerate(active):
        # A lone survivor the scan never reached is the only action, so it
        # is uniquely optimal everywhere; the uniform belief is interior.
        point = found.get(original, ([1] * n, n))
        if not _is_witness(rows, position, point):
            raise InternalInvariantError(
                "post-elimination-certification",
                f"surviving action {original} has no interior "
                "unique-optimality witness",
            )
        witnesses.append(Belief.from_numerators(*point))

    # each stored certificate, re-checked against the input payoffs
    for removal in removed:
        _verify_mixture(problem, removal.original_index, removal.mixture)

    return EliminationReport(
        surviving=surviving,
        surviving_indices=tuple(active),
        removed=tuple(removed),
        witnesses=tuple(witnesses),
    )
