"""File formats, commands, exit codes, and report stability."""

import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import qccheck.cli as cli_module
import qccheck.geometry as geometry_module
import qccheck.oracle as oracle_module
import qccheck.qcc as qcc_module
from qccheck import (
    Belief,
    DecisionProblem,
    DifferenceVector,
    InternalInvariantError,
    PolynomialProblem,
    SplitMix64,
    check_argmax_convexity,
    check_lsc,
    check_nesting,
    check_qcc,
    find_grid_gap,
    iterated_elimination,
    random_problem,
    relabel_for_lsc,
    unimodality_profile,
)
from qccheck.cli import (
    InputFileError,
    analyze_problem,
    harness_instances,
    main,
    problem_digest,
    problem_from_json,
    problem_to_json,
    run_harness,
)

# the source tree this copy of the package was imported from
SRC = str(Path(cli_module.__file__).resolve().parents[1])

P1_DOC = {
    "states": ["low", "high"],
    "actions": ["0", "1", "2"],
    "payoff": [["0", "-4"], ["-1", "-1"], ["-4", "0"]],
}
P2_DOC = {
    "states": ["low", "high"],
    "actions": [0, 1, 2],
    "payoff": [[0, -4], [-4, 0], [-1, -1]],
}
POLY_DOC = {
    "interval": ["0", "2"],
    "states": ["low", "high"],
    "coefficients": [["0", "0", "-1"], ["-4", "4", "-1"]],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestProblemFiles:
    def test_round_trip_is_identity(self):
        problem = problem_from_json(P1_DOC)
        assert problem_from_json(problem_to_json(problem)) == problem

    def test_accepts_integers_and_fraction_strings(self):
        doc = {"states": ["a"], "actions": [0, "7/2"], "payoff": [["-4"], [3]]}
        problem = problem_from_json(doc)
        assert problem.actions == (F(0), F(7, 2))
        assert problem.payoff == ((F(-4),), (F(3),))

    def test_rejects_floats(self):
        doc = {"states": ["a"], "actions": [0], "payoff": [[0.25]]}
        with pytest.raises(InputFileError, match="payoff"):
            problem_from_json(doc)

    def test_rejects_missing_fields(self):
        with pytest.raises(InputFileError, match="payoff"):
            problem_from_json({"states": ["a"], "actions": [0]})

    def test_rejects_ragged_matrix(self):
        doc = {"states": ["a", "b"], "actions": [0, 1], "payoff": [[1, 2], [3]]}
        with pytest.raises(InputFileError):
            problem_from_json(doc)

    def test_digest_stable_and_sensitive(self):
        p = problem_from_json(P1_DOC)
        q = problem_from_json(P2_DOC)
        assert problem_digest(p) == problem_digest(p)
        assert problem_digest(p) != problem_digest(q)


class TestAnalyzeReport:
    def test_fixture_verdicts(self):
        report = analyze_problem(problem_from_json(P1_DOC), grid_denominator=10)
        assert report["qcc"]["holds"] is True
        assert report["convexity"]["holds"] is True
        assert report["equivalence_agreement"] is True
        assert report["nesting"]["chain_holds"] is True
        assert report["lsc"]["after_relabel"]["relaxed"]["holds"] is True
        assert report["elimination"]["surviving_indices"] == [0, 1, 2]
        assert report["oracle"]["dip"] is None and report["oracle"]["gap"] is None

    @pytest.mark.parametrize("doc, gap_walks", [(P1_DOC, 0), (P2_DOC, 1)], ids=["no-dip", "dip"])
    def test_gap_walk_runs_only_after_a_dip(self, doc, gap_walks, monkeypatch):
        # a gap is a dip, so a grid with no dip has no gap to walk for
        walks = []

        def counted(problem, spec):
            walks.append(spec)
            return find_grid_gap(problem, spec)

        monkeypatch.setattr(cli_module, "find_grid_gap", counted)
        problem = problem_from_json(doc)
        qcc = check_qcc(problem)
        dip, gap = cli_module._oracle_cross_check(
            problem, qcc, check_argmax_convexity(problem, qcc), 10
        )
        assert (dip is not None) == (gap_walks == 1)
        assert len(walks) == gap_walks

    def test_dipping_fixture_witnesses_reverify_after_reparse(self):
        report = analyze_problem(problem_from_json(P2_DOC), grid_denominator=10)
        assert report["qcc"]["holds"] is False
        assert report["convexity"]["holds"] is False
        problem = problem_from_json(report["elimination"]["surviving_problem"])

        dip = report["qcc"]["counterexample"]
        belief = Belief(tuple(F(c) for c in dip["belief"]))
        values, unimodal = unimodality_profile(problem, belief)
        assert not unimodal
        i, j, k = dip["triple"]
        assert [str(values[t]) for t in (i, j, k)] == dip["values"]

        gap = report["convexity"]["counterexample"]
        belief = Belief(tuple(F(c) for c in gap["belief"]))
        optimal = problem.argmax_set(belief)
        i, j, k = gap["triple"]
        assert i in optimal and k in optimal and j not in optimal

        for failure in report["nesting"]["chain_failures"]:
            belief = Belief(tuple(F(c) for c in failure["belief"]))
            idx = failure["index"]
            rows = problem.payoff
            adjacent = sum(
                (a - b) * p
                for a, b, p in zip(rows[idx], rows[idx + 1], belief.coordinates)
            )
            successor = sum(
                (a - b) * p
                for a, b, p in zip(rows[idx + 1], rows[idx + 2], belief.coordinates)
            )
            assert adjacent > 0 and successor <= 0

    def test_condition_38_witnesses_reverify(self):
        report = analyze_problem(problem_from_json(P1_DOC))
        problem = problem_from_json(report["elimination"]["surviving_problem"])
        witnesses = report["elimination"]["condition_38_witnesses"]
        for i, coords in enumerate(witnesses):
            belief = Belief(tuple(F(c) for c in coords))
            assert belief.is_interior
            assert problem.argmax_set(belief) == {i}


class TestCommands:
    def test_analyze_exit_zero(self, tmp_path, capsys):
        path = write_json(tmp_path / "p1.json", P1_DOC)
        assert main(["analyze", path, "--grid", "10"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "analyze"
        assert report["qcc"]["holds"] is True

    def test_check_qcc_runs_without_elimination(self, tmp_path, capsys):
        # a problem with duplicate rows still gets a plain verdict
        doc = {"states": ["a", "b"], "actions": [0, 1], "payoff": [[1, 0], [1, 0]]}
        path = write_json(tmp_path / "dup.json", doc)
        assert main(["check-qcc", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["qcc"]["holds"] is True

    def test_check_convexity(self, tmp_path, capsys):
        path = write_json(tmp_path / "p2.json", P2_DOC)
        assert main(["check-convexity", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["convexity"]["holds"] is False

    def test_eliminate(self, tmp_path, capsys):
        doc = {"states": ["a", "b"], "actions": [0, 1, 2],
               "payoff": [[1, 1], [1, 1], [0, 0]]}
        path = write_json(tmp_path / "dom.json", doc)
        assert main(["eliminate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["elimination"]["surviving_indices"] == [0]
        removed = report["elimination"]["removed"]
        assert [r["reason"] for r in removed] == ["duplicate", "mixed-dominated"]

    def test_relabel(self, tmp_path, capsys):
        doc = {"states": ["high", "low"], "actions": [0, 1, 2],
               "payoff": [[-4, 0], [-1, -1], [0, -4]]}
        path = write_json(tmp_path / "swapped.json", doc)
        assert main(["relabel", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["relabeling"]["permutation"] == [1, 0]
        assert report["lsc"]["before"]["relaxed"]["holds"] is False
        assert report["lsc"]["after_relabel"]["relaxed"]["holds"] is True
        assert report["relabeled_problem"]["payoff"] == P1_DOC["payoff"]

    def test_discretize_feeds_analyze(self, tmp_path, capsys):
        poly_path = write_json(tmp_path / "poly.json", POLY_DOC)
        assert main(["discretize", poly_path, "--grid-points", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["payoff"] == P1_DOC["payoff"]
        problem_path = write_json(tmp_path / "grid.json", doc)
        assert main(["analyze", problem_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["qcc"]["holds"] is True

    def test_analyze_convexity_decides_no_two_row_system(self, tmp_path, capsys, monkeypatch):
        # convexity reads the unimodality verdict instead of deciding dips
        # again, and the holding verdict comes from the edge sweep alone
        inside, decided, from_qcc, sweeps = [], [], [], []
        for module, name, calls in ((geometry_module, "edge_witness", decided),
                                    (qcc_module, "edge_witness", from_qcc)):
            search = getattr(module, name)

            def counting(*args, search=search, calls=calls):
                calls.append(bool(inside))
                return search(*args)

            monkeypatch.setattr(module, name, counting)
        sweep = qcc_module._edge_sweep

        def spied(scaled):
            sweeps.append(scaled)
            return sweep(scaled)

        monkeypatch.setattr(qcc_module, "_edge_sweep", spied)
        convexity = cli_module.check_argmax_convexity

        def tracked(*args):
            inside.append(True)
            try:
                return convexity(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(cli_module, "check_argmax_convexity", tracked)
        poly_path = write_json(tmp_path / "poly.json", POLY_DOC)
        assert main(["discretize", poly_path, "--grid-points", "9"]) == 0
        problem_path = tmp_path / "grid.json"
        problem_path.write_text(capsys.readouterr().out)
        assert main(["analyze", str(problem_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["qcc"]["holds"] and report["convexity"]["holds"]
        assert report["qcc"]["checked_triples"] == 84
        assert decided.count(True) == 0
        assert len(sweeps) == 1 and from_qcc == []

    @pytest.mark.parametrize(
        "command, options",
        [
            ("analyze", {"--grid"}),
            ("check-qcc", set()),
            ("check-convexity", set()),
            ("eliminate", set()),
            ("relabel", set()),
            ("discretize", {"--grid-points"}),
            ("verify-props", {"--instances", "--max-actions", "--max-states", "--magnitude",
                              "--seed", "--grid"}),
        ],
    )
    def test_subcommand_help_and_options(self, command, options, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {"--help", "--out", *options}

    def test_out_flag_writes_file(self, tmp_path):
        path = write_json(tmp_path / "p1.json", P1_DOC)
        out = tmp_path / "report.json"
        assert main(["analyze", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["qcc"]["holds"] is True

    def test_out_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QCCHECK_OUT_DIR", str(tmp_path))
        path = write_json(tmp_path / "p1.json", P1_DOC)
        assert main(["analyze", path, "--out", "nested_report.json"]) == 0
        assert (tmp_path / "nested_report.json").exists()


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert main(["analyze", "/nonexistent/problem.json"]) == 1
        assert "input error" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"states": ["a"],')
        assert main(["analyze", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_float_payoff_is_input_error(self, tmp_path, capsys):
        doc = {"states": ["a"], "actions": [0], "payoff": [[0.5]]}
        path = write_json(tmp_path / "f.json", doc)
        assert main(["check-qcc", str(path)]) == 1
        assert "payoff[0][0]" in capsys.readouterr().err

    def test_usage_error_is_input_error(self, capsys):
        assert main(["no-such-command"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{p1}", "--grid", "-3"],
            ["analyze", "{p1}", "--grid", "2000000"],
            ["verify-props", "--instances", "1", "--grid", "-3"],
            ["verify-props", "--instances", "1", "--max-states", "8", "--grid", "1000000"],
        ],
    )
    def test_unusable_grid_is_refused_up_front(self, argv, tmp_path, capsys):
        path = write_json(tmp_path / "p1.json", P1_DOC)
        assert main([arg.format(p1=path) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert "--grid" in err and len(err.strip().splitlines()) == 1

    def test_state_count_over_the_budget_is_refused_at_grid_zero(self, capsys, monkeypatch):
        # refused before any instance is drawn, so the test starts no long
        # run; the limit itself reaches the harness
        calls = []
        monkeypatch.setattr(cli_module, "run_harness", lambda **kwargs: calls.append(kwargs) or {})
        argv = ["verify-props", "--instances", "1", "--grid", "0", "--max-states"]
        assert main([*argv, "2000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and calls == []
        assert captured.err == ("qccheck: input error: --max-states is 2000 states; "
                                "the limit is 100\n")
        assert main([*argv, "100"]) == 0
        assert [kwargs["max_states"] for kwargs in calls] == [100]

    def test_actions_times_states_over_the_budget_is_refused(self, capsys, monkeypatch):
        # the audit grows with both counts: 12 actions at 100 states took
        # 27.8 s an instance, so the product is bounded before any work
        calls = []
        monkeypatch.setattr(cli_module, "run_harness", lambda **kwargs: calls.append(kwargs) or {})
        argv = ["verify-props", "--instances", "1", "--max-states", "100", "--max-actions"]
        assert main([*argv, "12"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and calls == []
        assert captured.err == ("qccheck: input error: --max-actions 12 x --max-states 100 "
                                "is 1200 cells; the limit is 600\n")
        assert main([*argv, "6"]) == 0
        assert [kwargs["max_actions"] for kwargs in calls] == [6]

    @pytest.mark.parametrize(
        "text, argv",
        [
            (json.dumps({**POLY_DOC, "states": 3}), ["discretize", "{path}", "--grid-points", "3"]),
            (json.dumps({**POLY_DOC, "states": "ab"}),
             ["discretize", "{path}", "--grid-points", "3"]),
            ('{"states": ["a"], "actions": [0], "payoff": [[' + "9" * 5000 + "]]}",
             ["check-qcc", "{path}"]),
            (json.dumps(P1_DOC), ["check-qcc", "{path}", "--out", "{tmp}/missing/dir/x.json"]),
            ("[" * 100_000, ["check-qcc", "{path}"]),
            ('{"states": ["a"], "actions": [0], "payoff": [["1e4300"]]}', ["check-qcc", "{path}"]),
            (json.dumps({"interval": ["0", "1" + "0" * 1000], "states": ["a"],
                         "coefficients": [["0", "0", "0", "0", "0", "1"]]}),
             ["discretize", "{path}", "--grid-points", "3"]),
        ],
        ids=["int-states", "string-states", "5000-digit-integer", "out-in-missing-dir",
             "100000-nested-brackets", "4301-digit-value", "5001-digit-discretize-payoff"],
    )
    def test_unusable_file_is_one_line_input_error(self, text, argv, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(text)
        assert main([arg.format(path=path, tmp=tmp_path) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qccheck: input error: ")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "out_dir, out, existing",
        [(None, "{tmp}/missing/dir/x.json", False), ("{tmp}/missing", "x.json", False),
         (None, "{tmp}/missing", True)],
        ids=["absolute", "under-out-dir-env", "existing-directory"],
    )
    def test_unusable_out_is_refused_before_any_work(
        self, out_dir, out, existing, tmp_path, capsys, monkeypatch
    ):
        def no_work(**kwargs):
            raise AssertionError("the harness ran before --out was checked")

        monkeypatch.setattr(cli_module, "run_harness", no_work)
        if existing:  # --out names a directory, not a file in one
            (tmp_path / "missing").mkdir()
        if out_dir is not None:
            monkeypatch.setenv("QCCHECK_OUT_DIR", out_dir.format(tmp=tmp_path))
        argv = ["verify-props", "--instances", "100", "--seed", "1729", "--grid", "20",
                "--out", out.format(tmp=tmp_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qccheck: input error: cannot write ")
        assert str(tmp_path / "missing") in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["check-qcc", "analyze"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_report_value_past_the_digit_limit_is_input_error(
        self, command, to_file, tmp_path, capsys
    ):
        # 3,001-digit payoffs parse and write back, but the report's beliefs
        # and expected payoffs have more digits than str() writes
        scale = 10**3000 + 1
        payoff = [
            [str(int(v) * scale + 7 * i * i + 3 * s) for s, v in enumerate(row)]
            for i, row in enumerate(random_problem(9008, 5, 3, 1000).payoff)
        ]
        doc = {"states": ["a", "b", "c"], "actions": list(range(5)), "payoff": payoff}
        path = write_json(tmp_path / "huge.json", doc)
        out = tmp_path / "report.json"
        assert main([command, path, *(["--out", str(out)] if to_file else [])]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("qccheck: input error: a report value cannot be written")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("exponent",["1e999999999", "1E-999999999", "7.5e+1_000_000"])
    def test_huge_exponent_is_refused_before_parsing(self, exponent, tmp_path, capsys, monkeypatch):
        # Fraction would build 10**exponent, which does not finish
        def no_parse(value):
            raise AssertionError(f"the exponent of {value!r} reached Fraction")

        monkeypatch.setattr(cli_module, "as_fraction", no_parse)
        path = write_json(tmp_path / "p.json", {"states": ["a"], "actions": [exponent],
                                                 "payoff": [[0]]})
        assert main(["check-qcc", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qccheck: input error: actions[0]: ")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "command", ["analyze", "check-qcc", "check-convexity", "eliminate", "verify-props"]
    )
    def test_action_count_over_the_budget_is_refused(self, command, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the work began before the action count was checked")

        monkeypatch.setattr(cli_module, "iterated_elimination", no_work)
        monkeypatch.setattr(cli_module, "check_qcc", no_work)
        actions = 3
        while math.comb(actions, 3) <= cli_module._MAX_TRIPLES:
            actions += 1
        if command == "verify-props":
            argv = [command, "--instances", "10", "--max-actions", str(actions)]
        else:
            doc = {"states": ["a"], "actions": list(range(actions)),
                   "payoff": [[v] for v in range(actions)]}
            argv = [command, write_json(tmp_path / "p.json", doc)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qccheck: input error: ")
        assert f" {actions} actions is " in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_oversized_discretize_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(self, grid_points):
            raise AssertionError("discretized before --grid-points was checked")

        monkeypatch.setattr(PolynomialProblem, "discretize", no_work)
        path = write_json(tmp_path / "poly.json", POLY_DOC)
        out = tmp_path / "grid.json"
        argv = ["discretize", path, "--grid-points", "1000000000", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("qccheck: input error: --grid-points")
        assert len(captured.err.strip().splitlines()) == 1
        # the limit counts payoff cells: 500,001 points over 2 states is over it
        assert main(["discretize", path, "--grid-points", "500001"]) == 1
        # 10,000 coefficients at 300 points pass the step limit, but each
        # step adds an action's bits to the exact value: about 2 minutes
        path = write_json(tmp_path / "long.json", {
            "interval": ["0", "3/2"], "states": ["s"], "coefficients": [["1"] * 10000]})
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["discretize", path, "--grid-points", "300", "--out", str(out)]) == 1
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            "qccheck: input error: --grid-points 300 over 1 states is "
            f"{300 * 10000**2 * 20**2} units of Horner work; the limit is 400000000000\n")

    def test_long_polynomials_are_refused_by_their_horner_steps(self, tmp_path, capsys,
                                                                 monkeypatch):
        # 200 coefficients over 12 states: 1,250 points are 3,000,000 steps,
        # and the work check passes them; 80,000 points pass the cell limit
        reached = []
        monkeypatch.setattr(PolynomialProblem, "discretize",
                            lambda self, grid_points: reached.append(grid_points) or
                            DecisionProblem.from_matrix([[0]]))
        doc = {**POLY_DOC, "states": [f"s{n}" for n in range(12)],
               "coefficients": [["1"] * 200] * 12}
        path = write_json(tmp_path / "poly.json", doc)
        for points in ("80000", "1251"):
            assert main(["discretize", path, "--grid-points", points]) == 1
            assert capsys.readouterr().err == (
                f"qccheck: input error: --grid-points {points} over 12 states is "
                f"{int(points) * 2400} Horner steps; the limit is 3000000\n")
        assert reached == []
        assert main(["discretize", path, "--grid-points", "1250"]) == 0
        # the largest quadratic output, 3 states at 333,333 points, passes
        path = write_json(tmp_path / "quadratics.json", {
            "interval": ["0", "3/2"], "states": ["a", "b", "c"],
            "coefficients": [["0", "1", "-1"]] * 3})
        assert main(["discretize", path, "--grid-points", "333333"]) == 0
        assert reached == [1250, 333333]

    def test_internal_error_emits_diagnostic_and_exit_two(self, tmp_path, capsys, monkeypatch):
        # force an oracle/solver contradiction by monkeypatching the grid dip
        # finder to hallucinate a witness
        import qccheck.cli as cli_module

        def fake_dip(problem, spec):
            return Belief.uniform(problem.num_states), (0, 1, 2)

        monkeypatch.setattr(cli_module, "find_grid_dip", fake_dip)
        path = write_json(tmp_path / "p1.json", P1_DOC)
        assert main(["analyze", str(path), "--grid", "5"]) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["error"] == "internal-invariant-violation"
        assert diagnostic["invariant"] == "oracle-lp-consistency"

    def test_harness_diagnostic_names_the_instance(self, capsys, monkeypatch):
        # one action and one instance: qcc holds vacuously, so a hallucinated
        # grid dip contradicts it
        def fake_dip(problem, spec):
            return Belief.uniform(problem.num_states), (0, 1, 2)

        monkeypatch.setattr(cli_module, "find_grid_dip", fake_dip)
        argv = ["verify-props", "--instances", "1", "--max-actions", "1", "--grid", "2"]
        assert main(argv) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["invariant"] == "oracle-lp-consistency"
        [(index, seed, problem)] = harness_instances(0, 1, 1, 4, 10)
        details = diagnostic["details"]
        assert f"instance {index} " in details
        assert f"seed {seed}" in details
        assert problem_digest(problem) in details
        assert "grid dip" in details

    @pytest.mark.parametrize("command", ["analyze", "verify-props"])
    def test_diagnostic_names_the_stage(self, command, tmp_path, capsys, monkeypatch):
        def broken_nesting(problem):
            raise InternalInvariantError("nesting-chain", "forced")

        monkeypatch.setattr(cli_module, "check_nesting", broken_nesting)
        if command == "analyze":
            argv = ["analyze", str(write_json(tmp_path / "p1.json", P1_DOC)), "--grid", "5"]
        else:
            argv = ["verify-props", "--instances", "3", "--grid", "2"]
        assert main(argv) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["invariant"] == "nesting-chain"
        assert diagnostic["stage"] == "nesting"
        assert diagnostic["details"].endswith("forced")

    def test_console_script_entry_point(self, tmp_path):
        path = write_json(tmp_path / "p1.json", P1_DOC)
        proc = subprocess.run(
            [sys.executable, "-m", "qccheck.cli", "check-qcc", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["qcc"]["holds"] is True

    def test_package_runs_as_a_module(self, tmp_path):
        path = write_json(tmp_path / "p1.json", P1_DOC)
        proc = subprocess.run(
            [sys.executable, "-m", "qccheck", "check-qcc", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["qcc"]["holds"] is True


class TestImportCost:
    def test_cli_import_leaves_hashlib_unloaded(self):
        # hashlib loads OpenSSL; only problem_digest needs it
        code = (
            "import sys, qccheck.cli; "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            check=True,
        )
        assert proc.stdout.strip() == "[]"


class TestHarnessStability:
    def test_verify_props_is_byte_stable(self, capsys):
        argv = ["verify-props", "--instances", "8", "--seed", "31", "--grid", "6"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["summary"]["prop1_disagreements"] == 0
        assert len(doc["instances"]) == 8

    def test_single_instance_deterministic(self):
        a = run_harness(instances=1, max_actions=4, max_states=3, magnitude=9,
                        seed=7, grid=0)
        b = run_harness(instances=1, max_actions=4, max_states=3, magnitude=9,
                        seed=7, grid=0)
        assert a == b

    def test_relabels_again_only_a_moved_order(self, monkeypatch):
        # the idempotence check re-sorts the relabeled survivors only when
        # the first relabel moved a state: an identity relabel returns the
        # survivors themselves, and sorting them again repeats it
        identities = []

        def recorded(problem):
            relabeling, relabeled = relabel_for_lsc(problem)
            identities.append(relabeling.permutation == tuple(range(problem.num_states)))
            return relabeling, relabeled

        monkeypatch.setattr(cli_module, "relabel_for_lsc", recorded)
        doc = run_harness(instances=40, max_actions=5, max_states=4, magnitude=8,
                          seed=1729, grid=0)
        assert all(r["relabel_idempotent"] for r in doc["instances"])
        moved = identities.count(False)
        assert 0 < moved < 40
        assert len(identities) == 40 + moved

    def test_harness_counts_are_coherent(self):
        doc = run_harness(instances=25, max_actions=5, max_states=3, magnitude=8,
                          seed=99, grid=8)
        summary = doc["summary"]
        assert summary["prop1_agreements"] + summary["prop1_disagreements"] == 25
        assert summary["qcc_holding"] == (
            summary["prop3_relaxed_successes"] + summary["prop3_relaxed_failures"]
        )
        qcc_records = [r for r in doc["instances"] if r["qcc_holds"]]
        assert len(qcc_records) == summary["qcc_holding"]
        assert all(r["prop1_agreement"] for r in doc["instances"])


def _wide_oracle_sections():
    return [
        analyze_problem(random_problem(9100 + index, actions, states, 1000), 12)["oracle"]
        for index, (states, actions) in enumerate((s, a) for s in (6, 7, 8) for a in (4, 5, 6))
    ]


def _ladder_problems(seed=1):
    """The benchmark's `ladder` inputs for a seed: `discretize` output at
    m = 8, 8, 8, 10, 10, 10, 10, 10, 12, 12 of three downward parabolas on
    [0, 1] with peaks 0, 1/2 and 1, so every check holds."""
    rng = SplitMix64(seed)
    problems = []
    for m in (8, 8, 8, 10, 10, 10, 10, 10, 12, 12):
        coefficients = []
        for peak in (F(0), F(1, 2), F(1)):
            curvature, offset = rng.next_int(1, 4), rng.next_int(-3, 3)
            coefficients.append((offset - curvature * peak * peak, 2 * curvature * peak,
                                 F(-curvature)))
        poly = PolynomialProblem((F(0), F(1)), ("low", "mid", "high"), tuple(coefficients))
        problems.append(poly.discretize(m))
    return problems


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _rational_problems():
    """Seeded problems with rational payoffs whose reports carry segment-point
    beliefs: four `qcc` witnesses and 57 nesting failures lie on a segment
    between two point masses."""
    raw = [random_problem(9000 + s, 4 + s % 3, 3 + s % 6, 1000) for s in range(30)]
    raw += [random_problem(9000 + s, 5, 3, 1000) for s in range(30)]
    return [
        DecisionProblem.from_matrix(
            [[v / 7 + F(j, 3) for j, v in enumerate(row)] for row in problem.payoff]
        )
        for problem in raw
    ]


class TestPinnedOutput:
    """Output digests pinned across commits: a change that keeps every
    verdict and witness keeps these bytes."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--instances", "150", "--seed", "5", "--max-actions", "7"],
             "aa7d1fe06e065875f22a7644a2eb02406a9a3e370c957c5c8a156efe779c9073"),
            (["--instances", "100", "--seed", "11", "--magnitude", "2", "--max-states", "3",
              "--grid", "8"],
             "d8eb165a0c97e335c41082992a1f9f676d66fe0d005f12bafe429667e3c60346"),
        ],
        ids=["seed-5", "seed-11-grid-8"],
    )
    def test_verify_props_digest(self, argv, digest, capsys):
        assert main(["verify-props", *argv]) == 0
        assert _sha256(capsys.readouterr().out) == digest

    def test_analyze_reports_digest(self):
        reports = []
        for problem in _rational_problems():
            report = analyze_problem(problem, 4)
            del report["timing"]
            reports.append(report)
        assert _sha256(json.dumps(reports, sort_keys=True)) == (
            "500742cee8b282608e5f34c7067548dc8b527410af6d8f750876a6dc2c6aeb78"
        )

    def test_analyze_reports_digest_without_witnesses(self):
        # everything but the survivors' witnesses and the convexity
        # counterexample, which a change of route to the same verdict may move
        reports = []
        for problem in _rational_problems():
            report = analyze_problem(problem, 4)
            del report["timing"], report["elimination"]["condition_38_witnesses"]
            del report["convexity"]["counterexample"]
            reports.append(report)
        assert _sha256(json.dumps(reports, sort_keys=True)) == (
            "70a107c484dfab99340be4d4181cb6dc08eb460282f2d9119a8b1be8c674e3d2"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["analyze", "--grid", "4"],
             "a6cfb886f12fbefa7e8d62a823d3b13c3f5de20056e41872752448739a812c93"),
            (["check-qcc"],
             "5d195addee22628c918e713f13ff1c0e62b20b2679263c4332cb5f14365c694d"),
            (["check-convexity"],
             "913d4b9d69181243fbafec4d6c716c79decf6fea978d46ae29eb5277269b37ca"),
            (["eliminate"],
             "e70f83893996aa23360af64ce53a2cd68698deac10b0b4f37fc7f61de8604604"),
            (["relabel"],
             "8b76d235727c5d7738dd60c25ccfc7a4980f8c530e0c66f08d38c26244f036d2"),
        ],
        ids=["analyze", "check-qcc", "check-convexity", "eliminate", "relabel"],
    )
    def test_report_key_order_digest(self, argv, digest, tmp_path, capsys):
        # the reports as written, keys in their own order: json.loads keeps
        # it, and no sort_keys hides a reordered field
        command, *options = argv
        reports = []
        for index, problem in enumerate(_rational_problems()):
            path = write_json(tmp_path / f"p{index}.json", problem_to_json(problem))
            assert main([command, path, *options]) == 0
            report = json.loads(capsys.readouterr().out)
            del report["timing"]
            reports.append(report)
        assert _sha256(json.dumps(reports)) == digest

    def test_ladder_reports_digest(self, tmp_path, capsys):
        # every check holds on these inputs, so the reports carry every
        # survivor's condition-38 witness and the holding LSC blocks
        reports = []
        for index, problem in enumerate(_ladder_problems()):
            path = write_json(tmp_path / f"ladder{index}.json", problem_to_json(problem))
            for argv in (["analyze", path, "--grid", "20"], ["eliminate", path],
                         ["relabel", path]):
                assert main(argv) == 0
                report = json.loads(capsys.readouterr().out)
                del report["timing"]
                reports.append(report)
        assert all(r["qcc"]["holds"] and r["lsc"]["before"]["relaxed"]["holds"]
                   for r in reports[::3])
        assert _sha256(json.dumps(reports)) == (
            "a9b62bbc732bb4f314ea34a47b7b148af8fdb00e174c40c831d3d4b3c7dbf1c6"
        )

    def test_wide_oracle_sections_digest(self):
        # one problem per benchmark `wide` shape: 6-8 states by 4-6 actions,
        # payoffs up to 1000, grid 12; nine grid dips, six of them with a gap
        sections = _wide_oracle_sections()
        assert _sha256(json.dumps(sections, sort_keys=True)) == (
            "fde92bad2bf75c6c0f47e1a59029b7716659fba3f282555641e6b647e7997b48"
        )

    def test_wide_gap_searches_list_few_leaf_ties(self, monkeypatch):
        # a work guard on the same nine problems: the residue and range
        # tests leave 116 leaf lines to list, where listing every leaf that
        # the real-range filter keeps takes 6,030
        calls, block_ties = [], oracle_module._block_ties
        monkeypatch.setattr(oracle_module, "_block_ties",
                            lambda *args: calls.append(args) or block_ties(*args))
        _wide_oracle_sections()
        assert 0 < len(calls) <= 125


class TestLadderWork:
    """A work guard on the benchmark's seed-1 `ladder` inputs, where every
    check holds: payoffs are scaled once per problem, Fractions are built
    only for what the report prints, and the nesting chain answers every
    region question."""

    def test_payoffs_scaled_once_per_problem(self, monkeypatch):
        scaled = DecisionProblem.__dict__["scaled_payoff"]
        scale, problems = scaled.func, []

        def counted(problem):
            problems.append(problem)
            return scale(problem)

        monkeypatch.setattr(scaled, "func", counted)
        for problem in _ladder_problems():
            problems.clear()
            analyze_problem(problem, 20)
            # every action survives and the relabeling is the identity, so
            # the survivors and the relabeled survivors are the input itself
            assert problems == [problem]

    def test_fractions_only_for_the_report(self, monkeypatch):
        built = {"Belief": 0, "from_numerators": 0, "DifferenceVector": 0}

        def counted(cls):
            post_init = cls.__post_init__

            def wrapped(self):
                built[cls.__name__] += 1
                post_init(self)
            return wrapped

        for cls in (Belief, DifferenceVector):
            monkeypatch.setattr(cls, "__post_init__", counted(cls))
        from_numerators = Belief.from_numerators.__func__

        def counted_numerators(cls, numerators, denominator):
            built["from_numerators"] += 1
            return from_numerators(cls, numerators, denominator)

        monkeypatch.setattr(Belief, "from_numerators", classmethod(counted_numerators))
        for problem in _ladder_problems():
            built.update(Belief=0, from_numerators=0, DifferenceVector=0)
            report = iterated_elimination(problem)
            assert report.removed == ()
            # one Belief per survivor, built from its integer numerators
            assert built == {"Belief": 0, "from_numerators": problem.num_actions,
                             "DifferenceVector": 0}
            _, relabeled = relabel_for_lsc(report.surviving)
            for mode in ("relaxed", "literal"):
                for checked in (report.surviving, relabeled):
                    assert check_lsc(checked, mode).holds
            assert built["DifferenceVector"] == 0

    def test_nesting_asks_only_the_chain(self, monkeypatch):
        # every link holds, so the m - 2 chain questions settle all the
        # region questions: 78 planar questions a round, where asking every
        # question took 431
        calls, beats_without = [], geometry_module._beats_without
        monkeypatch.setattr(geometry_module, "_beats_without",
                            lambda *args: calls.append(args) or beats_without(*args))
        total = 0
        for problem in _ladder_problems():
            calls.clear()
            report = check_nesting(problem)
            assert report.chain_holds and report.region_identification_holds
            assert len(calls) == problem.num_actions - 2
            total += len(calls)
        assert total == 78


def _bench_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class TestTracedBenchmarkSites:
    def test_every_traced_cli_name_exists(self):
        # bench/run.py --trace 1 wraps these names in qccheck.cli by attribute
        tracing = _bench_tracing()
        missing = [
            name for name in {**tracing.CLI_SITES, **tracing.TOP_SITES}
            if not hasattr(cli_module, name)
        ]
        assert missing == []

    def test_traced_lp_names_exist(self):
        # installed() skips a missing name silently, which would zero the
        # benchmark's lp_calls counters; these are the pairs that exist
        tracing = _bench_tracing()
        present = {
            f"{site}.{name}"
            for site in tracing.LP_SITES for name in tracing.LP_FUNCTIONS
            if hasattr(importlib.import_module(f"qccheck.{site}"), name)
        }
        assert present == {"dominance.solve", "dominance.strict_feasible", "geometry.solve"}

    def test_traced_run_gives_every_per_layer_metric(self):
        # `--trace 1` reads LinearSystem.rows, dimension, has_strict_rows and
        # interior_required, LPResult.witness and slack, and
        # QccVerdict.checked_triples from the calls it wraps; dropping one
        # would break the traced benchmark but no name check above
        tracing = _bench_tracing()
        modules = {name: importlib.import_module(f"qccheck.{name}")
                   for name in ("cli", "dominance", "qcc", "geometry")}
        tracer = tracing.Tracer()
        with tracer.installed(modules):
            # action 2 is not screened, so the elimination solves its mixture LP
            cli_module.analyze_problem(DecisionProblem.from_matrix([[4, 0], [0, 4], [2, 2]]), 4)
            cli_module.run_harness(instances=1, max_actions=4, max_states=3, magnitude=10,
                                   seed=1, grid=2)
        metrics = tracing.layer_metrics(tracer.spans, 1)
        benchmark = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
        added_by_run = {"cli.parse_s", "problems.discretize.s", "trace.overhead_pct"}
        assert set(metrics) == {row["name"] for row in benchmark["per_layer"]} - added_by_run
        assert metrics["exactlp.calls"] > 0
        assert [span[0] for span in tracer.spans if span[0].startswith("cli.")] == [
            "cli.analyze_problem", "cli.run_harness"]
