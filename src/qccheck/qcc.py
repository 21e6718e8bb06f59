"""Decide unimodality of expected payoffs over the entire belief simplex.

A problem fails exactly when some belief produces a strict interior dip in
the action-indexed expected-payoff sequence.  Each candidate dip pattern
(i, j, k) is a pair of strict linear inequalities in the belief,
u_i - u_j > 0 and u_k - u_j > 0.  Two strict rows hold together somewhere in
the simplex exactly when they hold at a point mass or on the segment between
two point masses (the Caratheodory argument in `exactlp`'s docstring), so a
problem is unimodal everywhere exactly when it is unimodal on each of the
C(n, 2) edges of the simplex.

The edge sweep decides this first, on the payoffs scaled once to integers
(`DecisionProblem.scaled_payoff`).  On edge (s, t) the expected payoffs are m
lines in lam, the weight on t.  For each middle action j, L_j is the closed
interval where no earlier action beats j and R_j the one where no later
action does, each an intersection of half-lines (`exactlp.segment_interval`);
the edge has no dip at j exactly when L_j and R_j cover [0, 1].  Then a
split lam* puts one group on [0, lam*] and the other on [lam*, 1], and a
holding verdict rests only on these splits: each is re-verified by
substitution at the ends of both sides, which is enough because the payoffs
are linear in lam.  A one-state problem has no edge and is decided on its
single column.

When the sweep finds a dip, the triples are scanned in lexicographic order
on the points (u_i - u_j, u_k - u_j), one per state: the first belief that
`exactlp.edge_witness` finds is re-verified pointwise and reported, and
each triple passed over rests on a verified `exactlp.motzkin_certificate`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalInvariantError
from .exactlp import edge_witness, motzkin_certificate, segment_interval
from .problems import Belief, DecisionProblem, is_unimodal


@dataclass(frozen=True)
class QccCounterexample:
    """A belief with a strict dip: the middle action of the triple is worse
    than both the lower and the higher one."""

    belief: Belief
    triple: tuple[int, int, int]
    values: tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class QccVerdict:
    holds: bool
    checked_triples: int
    counterexample: Optional[QccCounterexample]


def unimodality_profile(
    problem: DecisionProblem, belief: Belief
) -> tuple[tuple[Fraction, ...], bool]:
    """Exact expected payoffs across actions at one belief, plus the
    unimodality flag.  This is the pointwise oracle counterexamples are
    validated against."""
    values = problem.payoff_profile(belief)
    return values, is_unimodal(values)


def check_qcc(problem: DecisionProblem) -> QccVerdict:
    """Decide whether every belief yields a unimodal payoff sequence.

    The edge sweep decides the question; a holding verdict counts all
    C(m, 3) triples as checked, since the sweep has settled each of them.
    When the sweep finds a dip, the first triple in lexicographic order with
    an `edge_witness` belief is the counterexample, and each one before it
    gets a Motzkin certificate.  With fewer than three actions it holds.
    """
    scaled = problem.scaled_payoff
    if _edge_sweep(scaled):
        return QccVerdict(
            holds=True, counterexample=None, checked_triples=math.comb(problem.num_actions, 3)
        )
    for count, (i, j, k) in enumerate(itertools.combinations(range(problem.num_actions), 3), 1):
        # j strictly worse than both i and k: u_i - u_j > 0 and u_k - u_j > 0
        points = [(a - c, b - c) for a, b, c in zip(scaled[i], scaled[k], scaled[j])]
        belief = edge_witness(points, (True, True))
        if belief is not None:
            break
        motzkin_certificate(points, (True, True))
    else:
        raise InternalInvariantError("qcc-edge-sweep", "every triple rules out the sweep's dip")
    values, unimodal = unimodality_profile(problem, belief)
    if unimodal or not (values[j] < values[i] and values[j] < values[k]):
        raise InternalInvariantError(
            "qcc-counterexample-substitution",
            f"belief {belief.coordinates} does not realize the dip ({i}, {j}, {k})",
        )
    dip = QccCounterexample(belief, (i, j, k), (values[i], values[j], values[k]))
    return QccVerdict(holds=False, counterexample=dip, checked_triples=count)


def _edge_sweep(scaled: Sequence[Sequence[int]]) -> bool:
    """Whether no edge of the simplex carries a dip, on integer payoffs.

    A one-state problem has no edge; its single column is the whole answer.
    Otherwise each middle action j on each edge gets a split from
    `_edge_split`, re-verified by `_verify_split` before it counts.
    """
    if len(scaled[0]) == 1:
        return is_unimodal([row[0] for row in scaled])
    for s, t in itertools.combinations(range(len(scaled[0])), 2):
        ends = [(row[s], row[t]) for row in scaled]
        for j in range(1, len(ends) - 1):
            split = _edge_split(ends, j)
            if split is None:
                return False
            _verify_split(ends, j, *split)
    return True


def _edge_split(
    ends: Sequence[tuple[int, int]], j: int
) -> Optional[tuple[tuple[int, int], bool]]:
    """A split lam* of the edge for action j, or None when the edge has a dip
    at j.  `ends[a]` is action a's payoff at the edge's two ends.

    L and R are the closed intervals where no earlier, respectively no later,
    action beats j, with `segment_interval`'s integer ends.  The split is
    lam* as (numerator, positive denominator), with whether the earlier
    actions take the left side [0, lam*] and the later ones the right side
    [lam*, 1], or the other way round; lam* = 1 means the left group is
    never better than j.
    """
    u_j, v_j = ends[j]

    def never_better(group):
        return segment_interval((u_j - u, v_j - v, False) for u, v in group)

    earlier, later = never_better(ends[:j]), never_better(ends[j + 1:])
    for left, right, earlier_left in ((earlier, later, True), (later, earlier, False)):
        if left is None or left[0] != 0:
            continue
        _, _, p, q = left
        if p == q or (right is not None and right[0] * q <= p * right[1]
                      and right[2] == right[3]):
            return (p, q), earlier_left
    return None


def _verify_split(
    ends: Sequence[tuple[int, int]], j: int, split: tuple[int, int], earlier_left: bool
) -> None:
    """Check by substitution that no action of the left group beats j on
    [0, split] and none of the right group on [split, 1], with the split
    lam* = p / q given as (p, q), q > 0.  The payoffs are linear in lam, so
    the ends of each side are enough; a side of length 0 is covered by the
    other."""
    earlier, later = ends[:j], ends[j + 1:]
    left, right = (earlier, later) if earlier_left else (later, earlier)
    u_j, v_j = ends[j]
    for group, lo, hi in ((left, (0, 1), split), (right, split, (1, 1))):
        if lo[0] * hi[1] == hi[0] * lo[1]:
            continue
        for a, b in (lo, hi):
            # (1 - lam) (u - u_j) + lam (v - v_j) at lam = a / b, times b
            if any((b - a) * (u - u_j) + a * (v - v_j) > 0 for u, v in group):
                raise InternalInvariantError(
                    "qcc-edge-split",
                    f"an action beats {j} at lam = {Fraction(a, b)} on the side "
                    f"[{Fraction(*lo)}, {Fraction(*hi)}] of split {Fraction(*split)}",
                )
