"""Seeded input generation for the three benchmark workloads.

Inputs are generated here, not by the program: each workload turns its seed
into problem or polynomial files (JSON text, the format the command line
reads), and the program only ever sees that text.  The generator is a
private copy of SplitMix64, so the inputs do not depend on the code under
measurement.

* corpus: `verify-props` calls over the acceptance corpus distribution.  The
  program generates the instances itself from each harness seed; the copy
  made here (same stream, same row-major payoff draw as
  `oracle.random_problem`) is what the checks compare them against.
* ladder: 3-state polynomial problems, concave in the action, discretized at
  growing action counts.
* wide: random problems with 6-8 states, 4-6 actions and payoffs in
  [-1000, 1000], one fixed shape schedule per round.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

_MASK64 = (1 << 64) - 1

# corpus: the `verify-props` acceptance configuration.
CORPUS_INSTANCES = 500
CORPUS_MAX_ACTIONS = 6
CORPUS_MAX_STATES = 4
CORPUS_MAGNITUDE = 10
CORPUS_GRID = 20
CORPUS_PER_SHAPE = 20

# ladder: the action count of each problem.  The middle rung has the most
# problems, so the median call is a middle-rung call.
LADDER_SIZES = (8, 8, 8, 10, 10, 10, 10, 10, 12, 12)
LADDER_PEAKS = (Fraction(0), Fraction(1, 2), Fraction(1))
LADDER_GRID = 20

# wide: every (states, actions) shape once per pass, WIDE_PASSES passes.
WIDE_STATES = (6, 7, 8)
WIDE_ACTIONS = (4, 5, 6)
WIDE_PASSES = 5
WIDE_MAGNITUDE = 1000
WIDE_GRID = 12


class SplitMix64:
    """The same portable generator the program uses, kept separate so the
    benchmark's inputs never come from the code it measures."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_int(self, lo: int, hi: int) -> int:
        return lo + self.next_uint64() % (hi - lo + 1)


def random_payoff(seed: int, actions: int, states: int, magnitude: int) -> list[list[int]]:
    """Integer payoffs in [-magnitude, magnitude], drawn row-major."""
    rng = SplitMix64(seed)
    return [
        [rng.next_int(-magnitude, magnitude) for _ in range(states)]
        for _ in range(actions)
    ]


def problem_text(payoff: list[list[int]]) -> str:
    """A problem file with default labels: actions 0..k-1, states s0..sn."""
    return json.dumps({
        "states": [f"s{j}" for j in range(len(payoff[0]))],
        "actions": [str(i) for i in range(len(payoff))],
        "payoff": [[str(v) for v in row] for row in payoff],
    })


@dataclass(frozen=True)
class CorpusInstance:
    index: int
    seed: int
    payoff: tuple[tuple[Fraction, ...], ...]
    text: str


def harness_stream(seed: int, count: int) -> list[CorpusInstance]:
    """The instances `verify-props --seed SEED --instances COUNT` walks:
    sizes drawn uniformly from 1..6 actions and 1..4 states, then one
    instance seed per instance."""
    stream = SplitMix64(seed)
    out = []
    for index in range(count):
        actions = stream.next_int(1, CORPUS_MAX_ACTIONS)
        states = stream.next_int(1, CORPUS_MAX_STATES)
        instance_seed = stream.next_uint64()
        payoff = random_payoff(instance_seed, actions, states, CORPUS_MAGNITUDE)
        out.append(CorpusInstance(
            index, instance_seed,
            tuple(tuple(Fraction(v) for v in row) for row in payoff),
            problem_text(payoff),
        ))
    return out


def corpus_calls(seed: int, acceptance: bool) -> list[tuple[int, list[CorpusInstance]]]:
    """(harness seed, the instances it walks) for each `verify-props` call.

    The acceptance form is one call over the 500-instance stream of the
    seed (seed 1729 is the acceptance corpus).  The default form draws the
    same instance distribution stratified by size: CORPUS_PER_SHAPE
    one-instance calls for each of the 24 (actions, states) sizes, harness
    seeds taken in order from the seed's stream.  Instance cost grows
    steeply with size, so an unstratified 500-instance stream varies by
    about a fifth in total cost from one seed to the next.
    """
    if acceptance:
        return [(seed, harness_stream(seed, CORPUS_INSTANCES))]
    shapes = [
        (a, n) for a in range(1, CORPUS_MAX_ACTIONS + 1) for n in range(1, CORPUS_MAX_STATES + 1)
    ]
    buckets: dict[tuple[int, int], list[int]] = {shape: [] for shape in shapes}
    rng = SplitMix64(seed)
    while any(len(b) < CORPUS_PER_SHAPE for b in buckets.values()):
        call_seed = rng.next_uint64()
        probe = SplitMix64(call_seed)
        shape = (probe.next_int(1, CORPUS_MAX_ACTIONS), probe.next_int(1, CORPUS_MAX_STATES))
        if len(buckets[shape]) < CORPUS_PER_SHAPE:
            buckets[shape].append(call_seed)
    return [
        (buckets[shape][rep], harness_stream(buckets[shape][rep], 1))
        for rep in range(CORPUS_PER_SHAPE) for shape in shapes
    ]


def _quadratic(curvature: int, peak: Fraction, offset: int) -> list[Fraction]:
    """Ascending coefficients of offset - curvature * (a - peak)^2."""
    return [offset - curvature * peak * peak, 2 * curvature * peak, Fraction(-curvature)]


def ladder_polynomials(seed: int) -> list[tuple[int, str]]:
    """(action count, polynomial file) per ladder problem.

    Every state payoff is a downward parabola in the action on [0, 1], so
    the expected payoff is concave in the action at every belief.  The peaks
    sit at 0, 1/2 and 1, so the belief-weighted peak sweeps the whole
    interval and every grid action is uniquely optimal somewhere inside the
    simplex.  The seed draws each parabola's curvature and offset; fixed
    peaks keep the cost of a rung within about a tenth from seed to seed,
    where peaks drawn from the seed moved it by about a fifth.
    """
    rng = SplitMix64(seed)
    out = []
    for m in LADDER_SIZES:
        coefficients = [
            _quadratic(rng.next_int(1, 4), peak, rng.next_int(-3, 3)) for peak in LADDER_PEAKS
        ]
        out.append((m, json.dumps({
            "interval": ["0", "1"],
            "states": ["low", "mid", "high"],
            "coefficients": [[str(c) for c in poly] for poly in coefficients],
        })))
    return out


def wide_problems(seed: int) -> list[str]:
    """Problem files for one wide round, shapes in a fixed order."""
    stream = SplitMix64(seed)
    out = []
    for _ in range(WIDE_PASSES):
        for states in WIDE_STATES:
            for actions in WIDE_ACTIONS:
                payoff = random_payoff(stream.next_uint64(), actions, states, WIDE_MAGNITUDE)
                out.append(problem_text(payoff))
    return out
