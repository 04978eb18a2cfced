import csv
import dataclasses
import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnsurv import (QuadratureSpec, build_instance, cli, compare_routes, quadrature,
                    reduce_thresholds, survival)
from mnsurv.cli import emit_reports, run
from mnsurv.survival import McResult, RouteReport
from oracles import report_to_dict


def run_to_file(tmp_path, args, name="out.bin"):
    path = tmp_path / name
    code = run(args + ["--out", str(path)])
    return code, path.read_bytes()


class TestEmit:
    def test_json_round_trip_is_bit_exact(self):
        inst = build_instance(10, [0.3, 0.3], [2, 3])
        report = compare_routes(inst, QuadratureSpec(nodes=32), replications=5000, seed=3)
        parsed = json.loads(emit_reports([report], "json", single=True))
        assert parsed["routes"]["exact"] == report.exact
        assert parsed["routes"]["dirichlet"] == report.dirichlet
        assert parsed["routes"]["gaussian"] == report.gaussian
        assert parsed["routes"]["mc"]["estimate"] == report.mc.estimate
        assert parsed["routes"]["mc"]["stderr"] == report.mc.stderr
        assert parsed["diagnostics"]["delta_n"] == report.delta_n
        assert parsed["diagnostics"]["gamma_tilde"] == report.gamma_tilde
        assert parsed["diagnostics"]["max_rel_diff"] == report.max_rel_diff
        assert parsed["instance"] == {"n": 10, "d": 2, "p": [0.3, 0.3], "k": [2, 3]}
        assert parsed["params"] == {"nodes": 32, "tolerance": 1e-8}

    def test_numpy_integer_nodes_serialise(self):
        report = compare_routes(build_instance(10, [0.3], [3]), QuadratureSpec(nodes=np.int64(40)))
        assert json.loads(emit_reports([report], "json", single=True))["params"]["nodes"] == 40

    def test_numpy_integer_mc_params_serialise(self):
        inst = build_instance(10, [0.3], [3])
        plain = emit_reports([compare_routes(inst, replications=2000, seed=1)], "json", single=True)
        for reps, seed in ((np.int64(2000), 1), (2000, np.int64(1))):
            report = compare_routes(inst, replications=reps, seed=seed)
            assert type(report.mc.replications) is int and type(report.mc.seed) is int
            assert emit_reports([report], "json", single=True) == plain

    def test_inapplicable_gaussian_marker(self):
        report = compare_routes(build_instance(10, [0.3, 0.3], [1, 3]))
        parsed = json.loads(emit_reports([report], "json", single=True))
        assert "inapplicable" in parsed["routes"]["gaussian"]

    def test_csv_columns(self):
        report = compare_routes(build_instance(10, [0.3, 0.3], [2, 3]))
        text = emit_reports([report], "csv", single=True).decode()
        header, row = text.strip().splitlines()
        assert header == (
            "n,d,p_1,p_2,k_1,k_2,exact,dirichlet,gaussian,"
            "mc_est,mc_se,delta_n,gamma_tilde,max_rel_diff"
        )
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["n"] == "10" and cells["d"] == "2"
        assert cells["k_1"] == "2" and cells["k_2"] == "3"
        assert cells["mc_est"] == "" and cells["mc_se"] == ""  # no MC requested
        fields = {"p_1": report.p[0], "p_2": report.p[1], "exact": report.exact,
                  "dirichlet": report.dirichlet, "gaussian": report.gaussian,
                  "delta_n": report.delta_n, "gamma_tilde": report.gamma_tilde,
                  "max_rel_diff": report.max_rel_diff}
        for column, value in fields.items():
            assert float(cells[column]).hex() == value.hex(), column

    def test_report_dict_none_routes(self):
        report = compare_routes(build_instance(10, [0.3], [3]), routes=["exact"])
        payload = report_to_dict(report)
        assert payload["routes"]["dirichlet"] is None
        assert payload["routes"]["mc"] is None


class TestExitCodes:
    def test_usage_error_on_unknown_flag(self, capsys):
        assert run(["eval", "--frobnicate"]) == 1

    def test_usage_error_on_missing_inputs(self, capsys):
        assert run(["eval", "--n", "10"]) == 1

    def test_usage_error_on_bad_route(self, capsys):
        for routes in ("magic", ",", " "):
            assert run(["eval", "--n", "4", "--p", "0.5", "--k", "2", "--routes", routes]) == 1
            assert capsys.readouterr().err.startswith("usage error: ")

    def test_usage_error_on_mc_without_seed(self, capsys):
        args = ["eval", "--n", "4", "--p", "0.5", "--k", "2",
                "--routes", "mc", "--mc-reps", "2000"]
        assert run(args) == 1

    def test_usage_error_on_mc_reps_without_mc_route(self, capsys):
        args = ["eval", "--n", "10", "--p", "0.3", "--k", "3",
                "--routes", "exact", "--mc-reps", "1000", "--seed", "1"]
        assert run(args) == 1
        assert capsys.readouterr().err.startswith("usage error: --mc-reps")

    def test_usage_error_on_bad_sweep_range(self, capsys):
        assert run(["sweep", "--n", "10:5:2", "--p", "0.3", "--k", "2"]) == 1

    def test_usage_error_on_nonpositive_tolerance(self, capsys):
        for value in ("0", "nan", "inf"):
            for command in ("eval", "compare", "sweep"):
                args = [command, "--n", "10", "--p", "0.3", "--k", "2", "--tolerance", value]
                assert run(args) == 1
            assert run(["check", "--tol", value]) == 1
            assert run(["check", "--identity-tol", value]) == 1
        assert run(["check", "--tol", "-1"]) == 1

    def test_validation_error_on_bad_weights(self, capsys):
        assert run(["eval", "--n", "10", "--p", "0.7,0.7", "--k", "1,1"]) == 2

    def test_validation_error_on_length_mismatch(self, capsys):
        assert run(["eval", "--n", "10", "--p", "0.3,0.3", "--k", "1"]) == 2

    def test_validation_error_on_non_object_record(self, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text("[5]")
        assert run(["eval", "--input", str(batch)]) == 2
        assert "invalid instance" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        ['{"x": 1}', '{"n": null, "p": [0.3], "k": [1]}', '{"n": 1e999, "p": [0.3], "k": [1]}',
         '{"n": true, "p": [0.3], "k": [1]}'],
    )
    def test_validation_error_on_record_without_valid_n(self, tmp_path, capsys, record):
        batch = tmp_path / "batch.json"
        batch.write_text(f'[{{"n": 5, "p": [0.3], "k": [1]}}, {record}]')
        assert run(["eval", "--input", str(batch)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid instance: --input record 1: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval", "compare", "sweep"])
    @pytest.mark.parametrize("nodes", ["1", "129"])
    def test_usage_error_on_nodes_out_of_range(self, capsys, command, nodes):
        assert run([command, "--n", "4", "--p", "0.5", "--k", "2", "--nodes", nodes]) == 1
        assert capsys.readouterr().err.startswith("usage error: --nodes")

    @pytest.mark.parametrize("command", ["eval", "compare", "sweep"])
    def test_usage_error_on_too_few_mc_reps(self, capsys, command):
        args = [command, "--n", "4", "--p", "0.5", "--k", "2", "--mc-reps", "999", "--seed", "1"]
        assert run(args) == 1
        assert capsys.readouterr().err.startswith("usage error: --mc-reps")

    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "--n", "10", "--p", "0.3", "--k", "2", "--routes", "mc",
             "--mc-reps", "1000", "--seed", "-5"],
            ["compare", "--n", "10", "--p", "0.3", "--k", "2", "--mc-reps", "1000", "--seed", "-1"],
            ["sweep", "--n", "10", "--p", "0.3", "--k", "2", "--mc-reps", "1000", "--seed", "-1"],
            ["compare", "--n", "10", "--p", "0.3", "--k", "2", "--seed", "-1"],
            ["check", "--seed", "-1"],
        ],
    )
    def test_usage_error_on_negative_seed(self, capsys, args):
        assert run(args) == 1
        assert capsys.readouterr().err == "usage error: --seed must be non-negative, got %s\n" % args[-1]

    def test_usage_error_on_unwritable_out(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        assert run(["compare", "--n", "10", "--p", "0.3", "--k", "3", "--out", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot write {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_empty_input_is_a_usage_error(self, tmp_path, monkeypatch, capsys, command, fmt):
        monkeypatch.setattr(cli, "compare_batch", lambda *args, **kwargs: pytest.fail("ran"))
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert run([command, "--input", str(path), "--format", fmt]) == 1
        assert capsys.readouterr().err == f"usage error: {path} holds an empty list\n"

    def test_earliest_failing_row_decides(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(quadrature, "_chain_grid", lambda *args: pytest.fail("built a grid"))
        # rows 1 and 2 are both refused by the exact route's guard
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([{"n": 10, "p": [0.3], "k": [3]},
                                    {"n": 30000, "p": [0.5], "k": [1]},
                                    {"n": 20000, "p": [0.5], "k": [1]}]))
        assert run(["compare", "--input", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("cost guard: ") and "n = 30000," in err
        # row 1 is refused by the chain rule's guard, row 2 by the exact route's
        path.write_text(json.dumps([{"n": 10, "p": [0.3], "k": [3]},
                                    {"n": 100, "p": [0.015] * 60, "k": [1] * 60},
                                    {"n": 30000, "p": [0.5], "k": [1]}]))
        assert run(["compare", "--input", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("cost guard: the chain rule's ") and "(d = 60, G = 64)" in err

    def test_sweep_row_that_cannot_be_built_fails_in_its_turn(self, capsys):
        # row 0 is refused by the exact route before row 1's n is rejected
        top = 2**63 - 1
        args = ["sweep", "--n", f"5000:{top}:{top - 5000}", "--p", "0.5", "--k", "1"]
        assert run(args) == 4
        assert "n = 5000," in capsys.readouterr().err

    def test_cost_guard_exit_code(self, capsys):
        args = ["eval", "--n", "10000", "--p", "0.2,0.3,0.2", "--k", "1800,3000,2000",
                "--routes", "exact"]
        assert run(args) == 4
        err = capsys.readouterr().err
        assert err.startswith("cost guard: ") and err.count("\n") == 1

    def test_cost_guard_on_k_all_grid(self, capsys):
        # C(200, 3) = 1,313,400 rows, refused before any is enumerated
        assert run(["sweep", "--n", "200", "--p", "0.1,0.1,0.1", "--k-all", "--nodes", "2"]) == 4
        err = capsys.readouterr().err
        assert err == "cost guard: --k-all grid of 1313400 rows exceeds the 1000000 row guard\n"

    def test_k_all_grid_is_counted_only_until_the_guard(self, monkeypatch, capsys):
        # summing C(n, 2) over all 2e7 values of n took seconds before the refusal
        calls = []
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda n, k: calls.append(n) or comb(n, k))
        args = ["sweep", "--n", "1:20000000:1", "--p", "0.5,0.3", "--k-all", "--nodes", "2"]
        assert run(args) == 4
        err = capsys.readouterr().err
        assert err == "cost guard: --k-all grid of at least 1004731 rows exceeds the 1000000 row guard\n"
        assert len(calls) == 182  # C(183, 3) > 10^6 >= C(182, 3)

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_cost_guard_on_input_list(self, tmp_path, monkeypatch, capsys, command):
        # an --input list holds every report until it is written, as a sweep does
        built = []
        monkeypatch.setattr(cli, "MAX_BATCH_ROWS", 3)
        monkeypatch.setattr(cli, "build_instance",
                            lambda *args: built.append(args) or build_instance(*args))
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([{"n": 10, "p": [0.3], "k": [3]}] * 4))
        assert run([command, "--input", str(path)]) == 4
        err = capsys.readouterr().err
        assert err == "cost guard: --input list of 4 records exceeds the 3 row guard\n"
        assert built == []
        path.write_text(json.dumps([{"n": 10, "p": [0.3], "k": [3]}] * 3))
        code, payload = run_to_file(tmp_path, [command, "--input", str(path)])
        assert code == 0 and len(json.loads(payload)) == 3 and len(built) == 3

    def test_validation_error_on_n_past_int64(self, capsys):
        args = ["eval", "--n", "100000000000000000000", "--p", "0.5", "--k", "1",
                "--routes", "dirichlet"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid instance: n must be below ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, k, message",
        [
            ("sweep", "99999999999999999999", "the threshold sum must not exceed "),
            ("eval", "99999999999999999999", "the threshold sum must not exceed "),
            ("sweep", "-99999999999999999999", "thresholds must be nonnegative"),
        ],
    )
    def test_validation_error_on_threshold_past_int64(self, capsys, command, k, message):
        assert run([command, "--n", "5", "--p", "0.3", "--k", k]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid instance: " + message) and err.count("\n") == 1

    def test_cost_guard_on_fixed_k_grid(self, capsys):
        # counted from the range, before any row is built
        assert run(["sweep", "--n", "1:2000000:1", "--p", "0.5", "--k", "1", "--nodes", "2"]) == 4
        err = capsys.readouterr().err
        assert err == "cost guard: --n grid of 2000000 rows exceeds the 1000000 row guard\n"

    def test_cost_guard_on_chain_rule(self, monkeypatch, capsys):
        # about 11.5 GB of grid and terms if it ran; refused before anything large
        monkeypatch.setattr(quadrature, "_chain_grid", lambda *args: pytest.fail("built a grid"))
        args = ["compare", "--n", "100", "--p", ",".join(["0.015"] * 60),
                "--k", ",".join(["1"] * 60), "--nodes", "128"]
        tracemalloc.start()
        try:
            assert run(args) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**7
        err = capsys.readouterr().err
        assert err.startswith("cost guard: the chain rule's ") and err.count("\n") == 1

    def test_usage_error_on_deeply_nested_input(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 5000 + "]" * 5000)
        assert run(["compare", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {path} is not valid JSON: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "record, name",
        [('{"n": 10, "p": ["0.3"], "k": [3]}', "p"),
         ('{"n": 10, "p": [0.3], "k": ["3"]}', "thresholds"),
         ('{"n": 10, "p": [0.3], "k": ["abc"]}', "thresholds")],
    )
    def test_validation_error_on_numbers_given_as_strings(self, tmp_path, capsys, record, name):
        path = tmp_path / "batch.json"
        path.write_text(f"[{record}]")
        assert run(["compare", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid instance: --input record 0: {name} must ")
        assert "np." not in err and err.count("\n") == 1

    def test_cost_guard_on_monte_carlo_n(self, capsys):
        args = ["eval", "--n", "3000000", "--p", "0.5", "--k", "1", "--routes", "mc",
                "--mc-reps", "1000", "--seed", "1"]
        assert run(args) == 4
        err = capsys.readouterr().err
        assert err.startswith("cost guard: Monte Carlo ") and err.count("\n") == 1

    @pytest.mark.parametrize("k", ["0", "2000002"])
    def test_monte_carlo_without_a_draw_is_not_guarded(self, tmp_path, k):
        # all thresholds 0 (probability 1) or kappa_d > n (0): no sample is drawn
        code, out = run_to_file(tmp_path, ["eval", "--n", "2000001", "--p", "0.5", "--k", k,
                                           "--mc-reps", "1000", "--seed", "1"])
        assert code == 0
        mc = json.loads(out)["routes"]["mc"]
        assert mc == {"estimate": 1.0 if k == "0" else 0.0, "stderr": 0.0,
                      "replications": 1000, "seed": 1}

    def test_exact_route_at_n_1000_is_in_scope(self, tmp_path):
        code, out = run_to_file(tmp_path, [
            "eval", "--n", "1000", "--p", "0.2,0.3,0.2", "--k", "180,300,200",
            "--routes", "exact", "--format", "json"])
        assert code == 0
        assert 0.0 < json.loads(out)["routes"]["exact"] < 1.0

    def test_success(self, tmp_path):
        code, _ = run_to_file(
            tmp_path, ["eval", "--n", "4", "--p", "0.5", "--k", "2"]
        )
        assert code == 0


class TestSubcommands:
    @pytest.mark.parametrize("k", ["1,1", "2,2"])
    def test_integral_routes_far_from_the_mean_give_valid_json(self, tmp_path, k):
        code, out = run_to_file(tmp_path, ["compare", "--n", "1000", "--p", "0.3,0.3", "--k", k])
        assert code == 0

        def refuse(name):
            raise ValueError(f"{name} is not valid JSON")

        parsed = json.loads(out, parse_constant=refuse)
        for route in ("exact", "dirichlet", "gaussian"):
            value = parsed["routes"][route]
            assert isinstance(value, dict) or 0.0 <= value <= 1.0
        assert 0.0 <= parsed["diagnostics"]["max_rel_diff"] <= 1e-5

    def test_compare_at_d5_gives_a_report(self, tmp_path):
        code, out = run_to_file(tmp_path, ["compare", "--n", "100", "--p",
                                           "0.15,0.15,0.15,0.15,0.15", "--k", "10,10,10,10,10"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["params"]["nodes"] == 64  # the default, echoed
        exact = parsed["routes"]["exact"]
        for route in ("dirichlet", "gaussian"):
            assert abs(parsed["routes"][route] - exact) <= 1e-13 * exact

    def test_sweep_builds_transition_matrices_once(self, tmp_path, monkeypatch):
        builds = []
        original = survival._transition_matrices
        monkeypatch.setattr(survival, "_transition_matrices",
                            lambda n, p_full: builds.append((n, p_full.shape[0])) or original(n, p_full))
        code, out = run_to_file(tmp_path, ["sweep", "--n", "9", "--p", "0.3,0.25", "--k-all",
                                           "--nodes", "8", "--format", "csv"])
        assert code == 0
        rows = out.decode().count("\n") - 1
        assert rows == 36  # C(9, 2)
        assert builds == [(9, 1)]  # one build of one weight vector's matrices

    def test_eval_routes_filter(self, tmp_path):
        code, payload = run_to_file(
            tmp_path,
            ["eval", "--n", "10", "--p", "0.3,0.3", "--k", "2,3",
             "--routes", "exact,dirichlet", "--nodes", "48"],
        )
        assert code == 0
        parsed = json.loads(payload)
        assert parsed["routes"]["gaussian"] is None
        assert parsed["routes"]["exact"] is not None

    def test_compare_includes_everything(self, tmp_path):
        code, payload = run_to_file(
            tmp_path,
            ["compare", "--n", "10", "--p", "0.3,0.3", "--k", "2,3",
             "--mc-reps", "2000", "--seed", "5"],
        )
        assert code == 0
        parsed = json.loads(payload)
        assert parsed["routes"]["mc"]["seed"] == 5
        assert parsed["diagnostics"]["max_rel_diff"] is not None

    def test_byte_identical_reruns(self, tmp_path):
        args = ["compare", "--n", "10", "--p", "0.3,0.3", "--k", "2,3",
                "--mc-reps", "2000", "--seed", "5", "--format", "csv"]
        _, first = run_to_file(tmp_path, args, "a.csv")
        _, second = run_to_file(tmp_path, args, "b.csv")
        assert first == second

    def test_sweep_csv_grid(self, tmp_path):
        code, payload = run_to_file(
            tmp_path,
            ["sweep", "--n", "5:7:1", "--p", "0.3,0.3", "--k-all", "--format", "csv"],
        )
        assert code == 0
        lines = payload.decode().strip().splitlines()
        assert lines[0].startswith("n,d,p_1")
        assert sum(line.startswith("n,") for line in lines) == 1  # header once
        # grid size: all k with k_i >= 1, k_1 + k_2 <= n, for n in 5..7
        expected = sum((n - 1) * n // 2 for n in (5, 6, 7))
        assert len(lines) - 1 == expected

    @pytest.mark.parametrize("p", ["0.2", "0.2,0.3", "0.2,0.3,0.1"])
    def test_sweep_k_all_grid_order(self, tmp_path, p):
        d = p.count(",") + 1
        code, payload = run_to_file(
            tmp_path,
            ["sweep", "--n", "3:7:2", "--p", p, "--k-all", "--format", "csv", "--nodes", "8"],
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(payload.decode())))
        got = [(int(r["n"]),) + tuple(int(r[f"k_{i + 1}"]) for i in range(d)) for r in rows]
        expected = [
            (n,) + k
            for n in (3, 5, 7)
            for k in sorted(itertools.product(range(1, n + 1), repeat=d))
            if sum(k) <= n
        ]
        assert got == expected

    def test_sweep_fixed_k_json(self, tmp_path):
        code, payload = run_to_file(
            tmp_path,
            ["sweep", "--n", "5:20:5", "--p", "0.3,0.3", "--k", "2,2"],
        )
        assert code == 0
        parsed = json.loads(payload)
        assert [rec["instance"]["n"] for rec in parsed] == [5, 10, 15, 20]

    def test_batch_input(self, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"n": 10, "p": [0.3], "k": [3]},
            {"n": 12, "p": [0.25], "k": [4]},
        ]))
        code, payload = run_to_file(tmp_path, ["eval", "--input", str(batch)])
        assert code == 0
        parsed = json.loads(payload)
        assert len(parsed) == 2
        assert parsed[1]["instance"]["n"] == 12
        # a one-record file is still a batch: a list of one report
        batch.write_text(json.dumps([{"n": 10, "p": [0.3], "k": [3]}]))
        code, payload = run_to_file(tmp_path, ["eval", "--input", str(batch)])
        assert code == 0
        parsed = json.loads(payload)
        assert isinstance(parsed, list) and parsed[0]["instance"]["n"] == 10

    def test_check_passes(self, capsys):
        assert run(["check", "--tol", "1e-8", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "route_agreement" in out
        assert "FAIL" not in out

    def test_check_fails_with_impossible_tolerance(self, capsys):
        assert run(["check", "--identity-tol", "1e-30", "--seed", "42"]) == 3
        assert "FAIL" in capsys.readouterr().out


def _mc_target(n, p, k):
    """The instance ``survival_mc`` runs on: the reduced one, if any cell is left."""
    rp, rk = reduce_thresholds(p, k)
    return build_instance(n, rp, rk) if rk.size else build_instance(n, p, k)


class TestMcSeedRule:
    RECORDS = [
        {"n": 10, "p": [0.3, 0.3], "k": [2, 3]},
        {"n": 12, "p": [0.2, 0.25, 0.3], "k": [1, 0, 4]},
        {"n": 8, "p": [0.4], "k": [3]},
    ]

    @staticmethod
    def _assert_mc(record, mc, reps, seed):
        target = _mc_target(record["n"], record["p"], record["k"])
        est, se = survival.survival_mc(target, reps, seed)
        assert mc == {"estimate": est, "stderr": se, "replications": reps, "seed": seed}

    def test_batch_records_take_consecutive_seeds(self, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(self.RECORDS))
        code, payload = run_to_file(tmp_path, ["compare", "--input", str(batch), "--mc-reps",
                                               "2000", "--seed", "5", "--nodes", "8"])
        assert code == 0
        parsed = json.loads(payload)
        assert [rec["routes"]["mc"]["seed"] for rec in parsed] == [5, 6, 7]
        for idx, (record, rec) in enumerate(zip(self.RECORDS, parsed)):
            self._assert_mc(record, rec["routes"]["mc"], 2000, 5 + idx)

    def test_single_instance_keeps_its_seed(self, tmp_path):
        code, payload = run_to_file(tmp_path, ["compare", "--n", "10", "--p", "0.3,0.3", "--k",
                                               "2,3", "--mc-reps", "2000", "--seed", "5"])
        assert code == 0
        self._assert_mc(self.RECORDS[0], json.loads(payload)["routes"]["mc"], 2000, 5)

    def test_sweep_row_i_takes_seed_plus_i(self, tmp_path):
        code, payload = run_to_file(tmp_path, ["sweep", "--n", "6:10:2", "--p", "0.3,0.2", "--k",
                                               "2,1", "--mc-reps", "1000", "--seed", "2",
                                               "--nodes", "8"])
        assert code == 0
        parsed = json.loads(payload)
        assert [rec["routes"]["mc"]["seed"] for rec in parsed] == [2, 3, 4]
        for idx, rec in enumerate(parsed):
            record = {"n": rec["instance"]["n"], "p": [0.3, 0.2], "k": [2, 1]}
            self._assert_mc(record, rec["routes"]["mc"], 1000, 2 + idx)


class TestSweepSharedSample:
    """The rows of one n in a sweep share one Monte Carlo sample."""

    # thresholds that barely move the probability: independent samples per
    # row put 5 estimates above the one of a lower threshold
    ARGS = ["sweep", "--n", "7:9:2", "--p", "0.02,0.5", "--k-all", "--mc-reps", "1000",
            "--seed", "4", "--nodes", "8"]

    def test_one_draw_per_n(self, tmp_path, monkeypatch):
        draws = []
        default_rng = np.random.default_rng

        def counting_rng(seed):
            rng = default_rng(seed)

            class Counted:
                def random(self, size):
                    draws.append(seed)
                    return rng.random(size)

            return Counted()

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        code, payload = run_to_file(tmp_path, self.ARGS)
        assert code == 0
        seeds = [rec["routes"]["mc"]["seed"] for rec in json.loads(payload)]
        # C(7, 2) = 21 rows at n = 7, then 36 at n = 9
        assert seeds == [4] * 21 + [25] * 36
        assert draws == [4, 25]

    def test_raising_a_threshold_never_raises_the_estimate(self, tmp_path):
        code, payload = run_to_file(tmp_path, self.ARGS)
        assert code == 0
        estimate = {(rec["instance"]["n"], tuple(rec["instance"]["k"])): rec["routes"]["mc"]["estimate"]
                    for rec in json.loads(payload)}
        pairs = 0
        for (n, k), est in estimate.items():
            for i in range(len(k)):
                higher = (n, k[:i] + (k[i] + 1,) + k[i + 1:])
                if higher in estimate:
                    assert estimate[higher] <= est
                    pairs += 1
        assert pairs == 2 * 15 + 2 * 28  # every k with sum(k) < n, raised in either cell


class TestFloatFormatting:
    def test_shortest_repr_round_trip(self):
        rng = np.random.default_rng(70)
        base = compare_routes(build_instance(10, [0.3], [3]), routes=["exact"])
        for _ in range(1000):
            x = float(rng.uniform(-1, 1)) * 10.0 ** int(rng.integers(-12, 12))
            report = dataclasses.replace(base, exact=x)
            text = emit_reports([report], "json", single=True).decode()
            assert f'"exact": {x!r},' in text
            assert json.loads(text)["routes"]["exact"].hex() == x.hex()
            _, row = emit_reports([report], "csv", single=True).decode().splitlines()
            cell = row.split(",")[4]
            assert cell == repr(x) and float(cell).hex() == x.hex()


_EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-7, 1.0, math.inf, -math.inf, math.nan]
_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.sampled_from(_EDGE_FLOATS).map(np.float64),
    st.floats(),
    st.floats().map(np.float64),
)
_OPTIONAL = st.none() | _FLOATS
# both reasons compare_batch gives, and one that json must escape
_REASONS = st.none() | st.sampled_from(["N <= 0", "J_i = 0", 'a "quoted" r\u00e9ason'])


@st.composite
def _reports(draw):
    d = draw(st.integers(1, 6))
    mc = draw(st.none() | st.builds(McResult, _FLOATS, _FLOATS,
                                    st.integers(1000, 10**9), st.integers(0, 2**64)))
    return RouteReport(
        n=draw(st.integers(1, 2**62)),
        d=d,
        p=tuple(draw(st.lists(_FLOATS, min_size=d, max_size=d))),
        k=tuple(draw(st.lists(st.integers(0, 2**62), min_size=d, max_size=d))),
        exact=draw(_OPTIONAL),
        dirichlet=draw(_OPTIONAL),
        gaussian=draw(_OPTIONAL),
        gaussian_reason=draw(_REASONS),
        mc=mc,
        delta_n=draw(_OPTIONAL),
        gamma_tilde=draw(_OPTIONAL),
        max_rel_diff=draw(_OPTIONAL),
        nodes=draw(st.integers(2, 128)),
        tolerance=draw(_FLOATS),
    )


class TestJsonWriter:
    """emit_reports writes what json.dumps(..., indent=2) writes of report_to_dict."""

    @given(report=_reports())
    @settings(max_examples=300, deadline=None)
    def test_single_report_matches_json(self, report):
        expected = json.dumps(report_to_dict(report), indent=2) + "\n"
        assert emit_reports([report], "json", single=True) == expected.encode()

    @given(reports=st.lists(_reports(), min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_report_list_matches_json(self, reports):
        expected = json.dumps([report_to_dict(r) for r in reports], indent=2) + "\n"
        assert emit_reports(reports, "json") == expected.encode()

    def test_empty_list_matches_json(self):
        assert emit_reports([], "json") == b"[]\n"

    def test_empty_list_is_a_usage_error_in_csv(self):
        with pytest.raises(cli.UsageError, match="^csv output requires at least one instance$"):
            emit_reports([], "csv")

    @pytest.mark.parametrize("count", [0, 2])
    def test_single_needs_exactly_one_report(self, count):
        report = compare_routes(build_instance(10, [0.3], [3]))
        message = f"^single output requires exactly one report, got {count}$"
        with pytest.raises(cli.UsageError, match=message):
            emit_reports([report] * count, "json", single=True)


class TestDocumentedErrorPaths:
    """Each documented error path exits with its code and one stderr line."""

    ONE = ["--n", "10", "--p", "0.3", "--k", "3"]

    @staticmethod
    def _assert_one_line(capsys, code, message, exact=True):
        err = capsys.readouterr().err
        prefix = {1: "usage error: ", 2: "invalid instance: "}[code]
        assert err.count("\n") == 1 and err.endswith("\n")
        if exact:
            assert err == prefix + message + "\n"
        else:
            assert err.startswith(prefix + message)

    @pytest.mark.parametrize("flag", [["--n", "10"], ["--p", "0.3"], ["--k", "3"]])
    def test_input_with_instance_flags(self, tmp_path, capsys, flag):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([{"n": 10, "p": [0.3], "k": [3]}]))
        assert run(["eval", "--input", str(path)] + flag) == 1
        self._assert_one_line(capsys, 1, "--input replaces --n/--p/--k")

    def test_unreadable_input(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert run(["compare", "--input", str(path)]) == 1
        self._assert_one_line(capsys, 1, f"cannot read {path}: ", exact=False)

    @pytest.mark.parametrize("payload", ['{"n": 10, "p": [0.3], "k": [3]}', "5", "null"])
    def test_input_that_is_not_a_list(self, tmp_path, capsys, payload):
        path = tmp_path / "batch.json"
        path.write_text(payload)
        assert run(["compare", "--input", str(path)]) == 1
        self._assert_one_line(capsys, 1, "--input must contain a JSON list of {n, p, k} objects")

    def test_mc_route_without_mc_reps(self, capsys):
        assert run(["eval"] + self.ONE + ["--routes", "mc", "--seed", "1"]) == 1
        self._assert_one_line(capsys, 1, "route 'mc' requires --mc-reps and --seed")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("n, p", [("--n=-3:0:1", "0.3"), ("--n=1", "0.3,0.3"),
                                      ("--n=0:2:1", "0.2,0.2,0.2")])
    def test_empty_sweep_grid(self, capsys, fmt, n, p):
        assert run(["sweep", n, "--p", p, "--k-all", "--format", fmt]) == 1
        self._assert_one_line(capsys, 1, "sweep grid is empty")

    @pytest.mark.parametrize("command", ["eval", "compare", "sweep"])
    def test_non_numeric_p_token(self, capsys, command):
        assert run([command, "--n", "10", "--p", "0.3,x", "--k", "3,1"]) == 1
        self._assert_one_line(capsys, 1, "expected a comma-separated list of numbers, got '0.3,x'")

    @pytest.mark.parametrize("command", ["eval", "compare", "sweep"])
    def test_non_numeric_k_token(self, capsys, command):
        assert run([command, "--n", "10", "--p", "0.3", "--k", "2.5"]) == 1
        self._assert_one_line(capsys, 1, "expected a comma-separated list of integers, got '2.5'")

    @pytest.mark.parametrize("n", [10**7, 2**63 - 1])
    def test_k_all_sweep_without_weights(self, capsys, n):
        # with no weights a --k-all grid has one row per n; listing it must not copy 1..n
        tracemalloc.start()
        try:
            assert run(["sweep", "--n", str(n), "--p", "", "--k-all"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        message = "p must be a non-empty 1-d vector" if n < 2**63 - 1 else "n must be below "
        self._assert_one_line(capsys, 2, message, exact=False)

    def test_non_numeric_k_token_in_a_sweep_range(self, capsys):
        assert run(["sweep", "--n", "5:15:5", "--p", "0.3", "--k", "x"]) == 1
        self._assert_one_line(capsys, 1, "expected a comma-separated list of integers, got 'x'")

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_csv_over_mixed_dimensions(self, tmp_path, capsys, command):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([{"n": 10, "p": [0.3], "k": [3]},
                                    {"n": 10, "p": [0.3, 0.3], "k": [2, 3]}]))
        assert run([command, "--input", str(path), "--format", "csv", "--nodes", "8"]) == 1
        self._assert_one_line(capsys, 1, "csv output requires a uniform dimension across instances")

    @pytest.mark.parametrize("command", ["eval", "compare", "sweep"])
    @pytest.mark.parametrize(
        "p, k, message",
        [("", "3", "p must be a non-empty 1-d vector of probabilities"),
         (",", "3", "p must be a non-empty 1-d vector of probabilities"),
         ("nan", "3", "p must be finite"),
         ("0.3,inf", "3,1", "p must be finite"),
         ("0.3", "", "k must be a non-empty 1-d vector")],
    )
    def test_empty_or_non_finite_lists(self, capsys, command, p, k, message):
        assert run([command, "--n", "10", "--p", p, "--k", k]) == 2
        self._assert_one_line(capsys, 2, message)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_compare_without_out_writes_to_stdout(self, tmp_path, capsysbinary, fmt):
        args = ["compare", "--n", "10", "--p", "0.3,0.3", "--k", "2,3", "--format", fmt,
                "--mc-reps", "1000", "--seed", "2", "--nodes", "8"]
        code, expected = run_to_file(tmp_path, args)
        assert code == 0
        capsysbinary.readouterr()
        assert run(args) == 0
        captured = capsysbinary.readouterr()
        assert captured.out == expected and captured.err == b""
