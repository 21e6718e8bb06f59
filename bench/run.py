"""qccheck benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload {corpus,ladder,wide} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  One process and one thread send the load, and the next
problem goes out only after the previous verdict returns.  The run repeats
whole rounds of the same inputs and starts no round that would end past
`--seconds` (the first round always runs).  Set-up is timed again between
calls all through the run, so `setup_s` is measured on the same machine
conditions as the calls.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics,
taken from spans around the calls into each layer, and the spans are
written to `bench/out/`.  The metric names and units are the ones listed in
`BENCHMARK.json`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 25
LAYERS = ("cli", "dominance", "qcc", "geometry")


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass
class Inputs:
    """One set-up: the program's modules and the workload's parsed inputs."""

    modules: dict
    problems: list          # what the program is called on
    payoffs: list           # the same inputs, parsed apart from the program
    generated: list         # the workload's own description of each input
    parse_s: float = 0.0
    discretize_s: float = 0.0
    seconds: float = 0.0


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    call_seconds: list = field(default_factory=list)
    messages: list = field(default_factory=list)

    def fail(self, errors: list[str], label: str) -> None:
        self.failed += 1
        self.messages.extend(f"{label}: {e}" for e in errors)


def _program_modules() -> dict:
    return {m: sys.modules[m] for m in sys.modules if m == "qccheck" or m.startswith("qccheck.")}


def _import_program() -> dict:
    for name in _program_modules():
        del sys.modules[name]
    package = importlib.import_module("qccheck")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported qccheck from {package.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"qccheck.{name}") for name in LAYERS}


def set_up(workload: str, seed: int, acceptance: bool) -> Inputs:
    """Import the program, generate the inputs from the seed and parse them
    the way the command line does."""
    start = perf_counter()
    modules = _import_program()
    cli = modules["cli"]
    if workload == "corpus":
        generated = workloads.corpus_calls(seed, acceptance)
        texts = [inst.text for _, instances in generated for inst in instances]
    elif workload == "ladder":
        generated = workloads.ladder_polynomials(seed)
        texts = [text for _, text in generated]
    else:
        generated = texts = workloads.wide_problems(seed)

    parse_start = perf_counter()
    discretize_s = 0.0
    if workload == "ladder":
        problems = []
        for (m, _), text in zip(generated, texts):
            poly = cli.polynomial_from_json(json.loads(text))
            step = perf_counter()
            discretized = json.dumps(cli.problem_to_json(poly.discretize(m)))
            discretize_s += perf_counter() - step
            problems.append(cli.problem_from_json(json.loads(discretized)))
    else:
        problems = [cli.problem_from_json(json.loads(text)) for text in texts]
    end = perf_counter()

    if workload == "corpus":
        payoffs = []  # each corpus instance carries its own
    elif workload == "ladder":
        coefficients = [
            [[Fraction(c) for c in poly] for poly in json.loads(text)["coefficients"]]
            for text in texts
        ]
        payoffs = [checks.ladder_payoff(m, c) for (m, _), c in zip(generated, coefficients)]
    else:
        payoffs = [checks.parse_payoff(text) for text in texts]
    return Inputs(modules, problems, payoffs, generated,
                  parse_s=end - parse_start - discretize_s, discretize_s=discretize_s,
                  seconds=end - start)


class SetupClock:
    """Set-ups timed all through a run.

    The machine's speed drifts over seconds, so set-ups timed only at the
    start of a run would see other conditions than the calls.  `catch_up`
    runs between calls and times one more set-up each time another
    1/SETUP_SAMPLES of the run has gone by; the calls go on using the first
    set-up's modules and inputs.
    """

    def __init__(self, workload: str, seed: int, acceptance: bool, seconds: float) -> None:
        self._args = (workload, seed, acceptance)
        self._interval = seconds / SETUP_SAMPLES
        self.samples: list[dict] = []  # the timings only, so memory stays flat
        self._start = perf_counter()
        self.inputs = self._sample()
        self._program = _program_modules()

    def _sample(self) -> Inputs:
        gc.collect()
        inputs = set_up(*self._args)
        self.samples.append({"seconds": inputs.seconds, "parse_s": inputs.parse_s,
                             "discretize_s": inputs.discretize_s})
        return inputs

    def catch_up(self) -> None:
        while (len(self.samples) < SETUP_SAMPLES
               and len(self.samples) * self._interval <= perf_counter() - self._start):
            self._sample()
            # Put back the modules the calls use, for any import they make.
            for name in _program_modules():
                del sys.modules[name]
            sys.modules.update(self._program)
            gc.collect()

    def median(self, key: str) -> float:
        return statistics.median(s[key] for s in self.samples)


# ---------------------------------------------------------------------------
# Rounds.  Each returns what it attempted, what failed, and the wall time of
# every call into the program; checks and set-up samples run between the
# timed calls.
# ---------------------------------------------------------------------------

# The cli stage calls whose verdict objects the corpus checks read, in the
# order `run_harness` makes them for one instance (the audit once per action).
AUDIT = "dominance.audit"
STAGES = ("dominance.elimination", "qcc", "geometry.convexity", "geometry.nesting")
KEPT = (AUDIT,) + STAGES


def _raised(exc: Exception) -> list[str]:
    return [f"raised {type(exc).__name__}: {exc}"]


def corpus_round(inputs: Inputs, tracer: Tracer, between) -> Round:
    """`verify-props` calls over the corpus, one after the other.

    `tracer` keeps the verdict objects of the stage calls `cli` makes, so
    the certificates behind each record can be checked from the input
    payoffs.
    """
    cli = inputs.modules["cli"]
    out = Round()
    for harness_seed, instances in inputs.generated:
        tracer.calls.clear()
        out.attempted += len(instances)
        start = perf_counter()
        try:
            report = cli.run_harness(
                len(instances), workloads.CORPUS_MAX_ACTIONS, workloads.CORPUS_MAX_STATES,
                workloads.CORPUS_MAGNITUDE, harness_seed, workloads.CORPUS_GRID,
            )
        except Exception as exc:  # no generated instance should raise
            out.call_seconds.append(perf_counter() - start)
            for _ in instances:
                out.fail(_raised(exc), f"harness seed {harness_seed}")
        else:
            out.call_seconds.append(perf_counter() - start)
            _check_corpus_call(out, harness_seed, instances, report, tracer.calls)
        between()
    return out


def _check_corpus_call(out: Round, harness_seed: int, instances, report: dict, calls) -> None:
    summary_errors = checks.corpus_summary(report)
    position = 0
    for inst, record in zip(instances, report["instances"]):
        label = f"harness seed {harness_seed} instance {inst.index}"
        payoff = inst.payoff
        errors = list(summary_errors)
        n = len(payoff)
        audits = calls[position:position + n] if n >= 2 else []
        position += len(audits)
        stages = calls[position:position + len(STAGES)]
        position += len(STAGES)
        mine = audits + stages
        if [c[0] for c in mine] != [AUDIT] * len(audits) + list(STAGES) or any(
            c[1][0].payoff != payoff for c in mine[:len(audits) + 1]
        ):
            out.fail(["layer calls do not follow the generated instance"], label)
            continue
        for (_, (_, action), weights) in audits:
            if weights is not None and not (
                weights[action] == 0
                and checks.dominates(payoff, action,
                                     {j: w for j, w in enumerate(weights) if j != action})
            ):
                errors.append(f"audit mixture for action {action} does not dominate it")
        outcome = checks.outcome_from_objects(payoff, *(c[2] for c in stages))
        errors += checks.check_outcome(outcome) + checks.corpus_record(inst, record, outcome)
        if errors:
            out.fail(errors, label)


def analyze_round(inputs: Inputs, workload: str, between) -> Round:
    """`analyze --grid D` on every input problem in turn."""
    cli = inputs.modules["cli"]
    grid = workloads.LADDER_GRID if workload == "ladder" else workloads.WIDE_GRID
    out = Round()
    for index, (problem, payoff) in enumerate(zip(inputs.problems, inputs.payoffs)):
        out.attempted += 1
        start = perf_counter()
        try:
            report = cli.analyze_problem(problem, grid)
        except Exception as exc:  # no generated problem should raise
            out.call_seconds.append(perf_counter() - start)
            out.fail(_raised(exc), f"problem {index}")
        else:
            out.call_seconds.append(perf_counter() - start)
            if workload == "ladder":
                errors = checks.ladder_report(payoff, report)
            else:
                errors = checks.wide_report(inputs.generated[index], report)
            errors += checks.check_outcome(checks.outcome_from_report(payoff, report))
            if errors:
                out.fail(errors, f"problem {index}")
        between()
    return out


def run_rounds(inputs: Inputs, workload: str, seconds: float, tracer: Tracer,
               between) -> list[Round]:
    rounds = []
    start = perf_counter()
    while True:
        if workload == "corpus":
            rounds.append(corpus_round(inputs, tracer, between))
        else:
            rounds.append(analyze_round(inputs, workload, between))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def untraced_rounds(inputs: Inputs, workload: str, seconds: float, between) -> list[Round]:
    """Rounds with no spans, except the corpus's kept stage calls."""
    capture = Tracer(keep=KEPT)
    with (capture.installed(inputs.modules, every_layer=False) if workload == "corpus"
          else nullcontext()):
        return run_rounds(inputs, workload, seconds, capture, between)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def _declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def measure(args) -> dict:
    if not (SRC / "qccheck" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    end_to_end, per_layer = _declared_metrics()
    sys.path.insert(0, str(SRC))
    clock = SetupClock(args.workload, args.seed, args.acceptance, args.seconds)
    inputs = clock.inputs

    if not args.trace:
        rounds = untraced_rounds(inputs, args.workload, args.seconds, clock.catch_up)
        times = [t for r in rounds for t in r.call_seconds]
        metrics = {
            "setup_s": clock.median("seconds"),
            "problems_per_s": sum(r.attempted - r.failed for r in rounds) / sum(times),
            "latency_p50_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = end_to_end
    else:
        reference = untraced_rounds(inputs, args.workload, 0, clock.catch_up)
        tracer = Tracer(keep=KEPT if args.workload == "corpus" else ())
        with tracer.installed(inputs.modules):
            traced = run_rounds(inputs, args.workload, args.seconds, tracer, clock.catch_up)
        rounds = reference + traced
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")

        def per_round(rs):
            return sum(t for r in rs for t in r.call_seconds) / len(rs)

        metrics = layer_metrics(tracer.spans, len(traced))
        metrics["cli.parse_s"] = clock.median("parse_s")
        metrics["problems.discretize.s"] = clock.median("discretize_s")
        metrics["trace.overhead_pct"] = (per_round(traced) / per_round(reference) - 1) * 100
        units = per_layer

    if set(metrics) != set(units):
        raise BenchError(f"measured {sorted(metrics)} but BENCHMARK.json lists {sorted(units)}")
    for r in rounds:
        for message in r.messages[:5]:
            print(f"FAILED {message}", file=sys.stderr)
    for name in units:
        print(f"{args.workload} {name} {metrics[name]:.6g} {units[name]}")
    failed = sum(r.failed for r in rounds)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "ladder", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--acceptance", action="store_true",
                        help="corpus only: one verify-props call over the 500-instance "
                        "stream of --seed (1729 is the acceptance corpus)")
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
