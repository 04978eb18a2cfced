import csv
import dataclasses
import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from mnsurv import (QuadratureSpec, build_instance, cli, compare_routes, quadrature,
                    reduce_thresholds, survival)
from mnsurv.cli import emit_report, report_to_dict, run


def run_to_file(tmp_path, args, name="out.bin"):
    path = tmp_path / name
    code = run(args + ["--out", str(path)])
    return code, path.read_bytes()


class TestEmit:
    def test_json_round_trip_is_bit_exact(self):
        inst = build_instance(10, [0.3, 0.3], [2, 3])
        report = compare_routes(inst, QuadratureSpec(nodes=32), replications=5000, seed=3)
        parsed = json.loads(emit_report(report, "json"))
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
        assert json.loads(emit_report(report, "json"))["params"]["nodes"] == 40

    def test_numpy_integer_mc_params_serialise(self):
        inst = build_instance(10, [0.3], [3])
        plain = emit_report(compare_routes(inst, replications=2000, seed=1), "json")
        for reps, seed in ((np.int64(2000), 1), (2000, np.int64(1))):
            report = compare_routes(inst, replications=reps, seed=seed)
            assert type(report.mc.replications) is int and type(report.mc.seed) is int
            assert emit_report(report, "json") == plain

    def test_inapplicable_gaussian_marker(self):
        report = compare_routes(build_instance(10, [0.3, 0.3], [1, 3]))
        parsed = json.loads(emit_report(report, "json"))
        assert "inapplicable" in parsed["routes"]["gaussian"]

    def test_csv_columns(self):
        report = compare_routes(build_instance(10, [0.3, 0.3], [2, 3]))
        text = emit_report(report, "csv").decode()
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

    def test_validation_error_on_n_past_int64(self, capsys):
        args = ["eval", "--n", "100000000000000000000", "--p", "0.5", "--k", "1",
                "--routes", "dirichlet"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid instance: n must be below ") and err.count("\n") == 1

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

    def test_sweep_builds_transition_matrices_once(self, tmp_path):
        survival._transition_matrices.cache_clear()
        code, out = run_to_file(tmp_path, ["sweep", "--n", "9", "--p", "0.3,0.25", "--k-all",
                                           "--nodes", "8", "--format", "csv"])
        assert code == 0
        rows = out.decode().count("\n") - 1
        assert rows == 36  # C(9, 2)
        info = survival._transition_matrices.cache_info()
        assert (info.misses, info.hits) == (1, rows - 1)

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


class TestFloatFormatting:
    def test_shortest_repr_round_trip(self):
        rng = np.random.default_rng(70)
        base = compare_routes(build_instance(10, [0.3], [3]), routes=["exact"])
        for _ in range(1000):
            x = float(rng.uniform(-1, 1)) * 10.0 ** int(rng.integers(-12, 12))
            report = dataclasses.replace(base, exact=x)
            text = emit_report(report, "json").decode()
            assert f'"exact": {x!r},' in text
            assert json.loads(text)["routes"]["exact"].hex() == x.hex()
            _, row = emit_report(report, "csv").decode().splitlines()
            cell = row.split(",")[4]
            assert cell == repr(x) and float(cell).hex() == x.hex()
