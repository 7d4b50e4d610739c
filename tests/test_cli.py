import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from game_strategies import negated_taxes
from tollkit import (BasisFunction, GameInstance, TaxProfile,
                     best_profile_approximation, build_tax_profile, cli,
                     multiplicative_weights_run)
from tollkit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_two_by_two(tmp_path):
    b = BasisFunction.monomial(1)
    inst = GameInstance.build([b], [[1.0], [1.0]], [[[0], [1]], [[0], [1]]])
    path = tmp_path / "instance.json"
    inst.save(path)
    return inst, path


class TestAnalyzeBasis:
    def test_linear_monomial(self, capsys):
        code, out, _ = run_cli(capsys, "analyze-basis", "--monomial", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["rho_report"]["rho"] == pytest.approx(2.0, rel=1e-9)
        assert payload["mu"] == pytest.approx(2.0, rel=1e-6)
        assert payload["bell"] == pytest.approx(2.0, rel=1e-9)

    def test_constant_monomial(self, capsys):
        code, out, _ = run_cli(capsys, "analyze-basis", "--monomial", "0")
        payload = json.loads(out)
        assert code == 0
        assert payload["rho_report"]["rho"] == pytest.approx(1.0, rel=1e-9)

    def test_affine_table_needs_extension_flag_for_mu(self, capsys):
        code, out, _ = run_cli(capsys, "analyze-basis", "--table", "2,3")
        payload = json.loads(out)
        assert code == 0
        assert payload["rho_report"]["rho"] == pytest.approx(1.5, rel=1e-9)
        assert payload["mu"] is None
        assert payload["mu_status"] == "unsupported-basis"

        code, out, _ = run_cli(capsys, "analyze-basis", "--table", "2,3",
                               "--monomial-like")
        payload = json.loads(out)
        assert payload["mu"] == pytest.approx(2.0, rel=1e-6)

    def test_bell_table_csv(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "analyze-basis", "--monomial", "2",
                               "--bell-table", "4", "--out", str(out_dir))
        assert code == 0
        rows = (out_dir / "bell_table.csv").read_text().strip().splitlines()
        assert rows[0] == "degree,rho"
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert values == pytest.approx([1.0, 2.0, 5.0, 15.0, 52.0], rel=1e-6)

    def test_subnormal_table_mu_matches_its_scaled_copy(self, capsys):
        mus = []
        for table in ("1e-320,2e-320", "1,2"):
            code, out, _ = run_cli(capsys, "analyze-basis", "--table", table,
                                   "--monomial-like")
            assert code == 0
            mus.append(json.loads(out)["mu"])
        assert mus[0] == pytest.approx(mus[1], rel=1e-15)

    @pytest.mark.parametrize("basis", [["--monomial", "2.5"], ["--table", "1,2.5,4.5"]])
    def test_memoised_scan_prints_what_a_fresh_scan_prints(self, capsys, tmp_path,
                                                          monkeypatch, basis):
        def files(out_dir):
            return {p.name: p.read_text() for p in out_dir.iterdir()
                    if not p.name.startswith("config-")}

        argv = ["analyze-basis", *basis, "--x-max", "60", "--bell-table", "3"]
        runs = [run_cli(capsys, *argv, "--out", str(tmp_path / str(i)))
                for i in range(2)]
        monkeypatch.setattr(cli, "rho_factor", cli.rho_factor.__wrapped__)
        fresh = run_cli(capsys, *argv, "--out", str(tmp_path / "fresh"))
        assert runs[0] == runs[1] == fresh
        assert files(tmp_path / "0") == files(tmp_path / "1") == files(tmp_path / "fresh")

    def test_missing_basis_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze-basis")
        assert code == 2
        assert "basis" in err

    def test_invalid_table_is_parse_error(self, capsys):
        code, _, _ = run_cli(capsys, "analyze-basis", "--table", "3,1")
        assert code == 2

    def test_falling_subnormal_table_is_parse_error(self, capsys):
        code, out, _ = run_cli(capsys, "analyze-basis", "--table", "1e-320,5e-324")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("degree", ["103", "104", "110", "300"])
    def test_high_degree_never_ends_in_traceback(self, capsys, degree):
        code, out, err = run_cli(capsys, "analyze-basis", "--monomial", degree)
        assert code in (0, 3)
        assert "Traceback" not in err
        if code == 0:
            assert json.loads(out)["mu"] is not None


class TestDesign:
    def test_two_by_two_bundle(self, capsys, tmp_path):
        _, path = write_two_by_two(tmp_path)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "design", str(path), "--out", str(out_dir))
        assert code == 0
        bundle = json.loads((out_dir / "design_bundle.json").read_text())
        stages = bundle["stages"]
        assert stages["relaxation"]["status"] == "ok"
        assert stages["relaxation"]["objective"] == pytest.approx(4.0, rel=1e-6)
        assert stages["taxes"]["status"] == "ok"
        assert stages["audit"]["status"] == "ok" and stages["audit"]["passed"]
        assert stages["poa"]["status"] == "ok"
        assert stages["poa"]["poa"] <= 2.0 + 1e-3
        assert stages["smoothness"]["status"] == "ok"
        assert stages["smoothness"]["passed"]

    def test_single_strategy_instance(self, capsys, tmp_path):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        path = tmp_path / "single.json"
        inst.save(path)
        code, out, _ = run_cli(capsys, "design", str(path))
        bundle = json.loads(out)
        assert code == 0
        assert bundle["stages"]["taxes"]["status"] == "ok"
        assert bundle["stages"]["poa"]["poa"] == 1.0

    def test_nonconvergent_records_infinite_rho(self, capsys, tmp_path,
                                                tiny_term_cap):
        # A steep fractional monomial has its kernel peak far past a tiny
        # term cap, so the scan cannot settle and the stage reports an
        # unbounded factor.
        b = BasisFunction.monomial(40.5)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        path = tmp_path / "steep.json"
        inst.save(path)
        code, out, _ = run_cli(capsys, "design", str(path))
        assert code == 0
        bundle = json.loads(out)
        assert bundle["stages"]["rho"]["status"] == "infinite-rho"
        assert bundle["stages"]["smoothness"]["status"] == "skipped"

    def test_steep_table_designs_despite_tiny_term_cap(self, capsys, tmp_path,
                                                       tiny_term_cap):
        # Table kernels are exact finite sums, so the term cap never binds.
        b = BasisFunction.table([float(3 ** x) for x in range(1, 13)])
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        path = tmp_path / "steep.json"
        inst.save(path)
        code, out, _ = run_cli(capsys, "design", str(path))
        assert code == 0
        stages = json.loads(out)["stages"]
        assert {s["status"] for s in stages.values()} == {"ok"}
        assert stages["audit"]["passed"] and stages["smoothness"]["passed"]

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "design", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize("flag", ["--audit-tol", "--tol-gap"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-7"])
    def test_non_finite_or_negative_tolerance_exits_two(self, capsys, tmp_path,
                                                         flag, value):
        _, path = write_two_by_two(tmp_path)
        code, out, err = run_cli(capsys, "design", str(path), f"{flag}={value}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "must be finite" in err

    def test_bad_audit_tolerance_exits_two_when_no_audit_runs(self, capsys, tmp_path,
                                                              tiny_term_cap):
        # The relaxation stops on its kernel, so no stage reads the
        # tolerance; the flag is still rejected.
        b = BasisFunction.monomial(150)
        inst = GameInstance.build([b], [[1.0], [1.0]], [[[0], [1]]] * 3)
        path = tmp_path / "steep.json"
        inst.save(path)
        code, out, _ = run_cli(capsys, "design", str(path))
        assert code == 0
        assert json.loads(out)["stages"]["audit"]["status"] == "skipped"
        code, out, _ = run_cli(capsys, "design", str(path), "--audit-tol", "nan")
        assert code == 2 and out == ""

    def test_overflowing_tax_tables_end_the_taxes_stage(self, capsys, tmp_path):
        # Resource 1 is unused, and ell_1(1) = 1.7e308 + 7.58e307 overflows.
        monomial = {"kind": "monomial", "degree": 1e-05}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "basis": [monomial, monomial],
            "resources": [{"coeffs": [1e-05, 1.0]}, {"coeffs": [1.7e308, 7.58e307]},
                          {"coeffs": [1.6868e308, 1e300]}],
            "players": [{"strategies": [[0]]}, {"strategies": [[2], [0]]},
                        {"strategies": [[0]]}]}))
        code, out, _ = run_cli(capsys, "design", str(path))
        assert code == 0
        stages = json.loads(out)["stages"]
        assert {name: stage["status"] for name, stage in stages.items()} == {
            "relaxation": "ok", "taxes": "overflow", "rho": "ok",
            "poa": "skipped", "smoothness": "skipped"}
        assert stages["taxes"]["detail"].startswith("resource 1: ")


class TestLearn:
    def test_smoke_single_round(self, capsys, tmp_path):
        inst, path = write_two_by_two(tmp_path)
        taxes = build_tax_profile(inst, [1.0, 1.0])
        taxes_path = tmp_path / "taxes.json"
        taxes.save(taxes_path)
        out_dir = tmp_path / "runs"
        code, out, _ = run_cli(capsys, "learn", str(path), "--taxes",
                               str(taxes_path), "--rounds", "1",
                               "--seeds", "0", "--out", str(out_dir))
        assert code == 0
        trace = (out_dir / "trace-0.jsonl").read_text().strip().splitlines()
        assert len(trace) == 2
        summary = (out_dir / "learn_summary.csv").read_text().splitlines()
        assert summary[0] == "seed,rounds,max_average_regret,best_sc,ratio"
        assert len(summary) == 2

    @pytest.mark.parametrize("flags", [["--seeds=-1"], ["--seed", str(2 ** 128)]],
                             ids=["negative", "past-2**128"])
    def test_seed_outside_the_philox_key_range_exits_two(self, capsys, tmp_path, flags):
        inst, path = write_two_by_two(tmp_path)
        taxes_path = tmp_path / "taxes.json"
        build_tax_profile(inst, [1.0, 1.0]).save(taxes_path)
        code, out, err = run_cli(capsys, "learn", str(path), "--taxes", str(taxes_path),
                                 "--rounds", "1", *flags, "--out", str(tmp_path / "runs"))
        assert (code, out) == (2, "")
        assert err.startswith("error: seed must be in [0, 2**128)")

    # Every offset seed is checked before the first run: a later bad seed
    # must not leave the earlier seeds' trace files behind.
    @pytest.mark.parametrize("flags,message", [
        (["--seeds", "0,0"], "--seeds names seed 0 more than once"),
        (["--seeds", "1,2,1", "--seed", "3"], "--seeds names seed 4 more than once"),
        (["--seeds", "0, 00"], "--seeds names seed 0 more than once"),
        (["--seeds", "1,0", "--seed", "-1"], "seed must be in [0, 2**128), got -1"),
        (["--seeds", f"0,{2 ** 128 - 1}", "--seed", "1"],
         f"seed must be in [0, 2**128), got {2 ** 128}"),
    ], ids=["repeated", "repeated-after-offset", "repeated-spelling",
            "negative-after-offset", "past-2**128-after-offset"])
    def test_bad_later_seed_exits_two_before_any_run(self, capsys, tmp_path,
                                                     flags, message):
        inst, path = write_two_by_two(tmp_path)
        taxes_path = tmp_path / "taxes.json"
        build_tax_profile(inst, [1.0, 1.0]).save(taxes_path)
        out_dir = tmp_path / "runs"
        code, out, err = run_cli(capsys, "learn", str(path), "--taxes", str(taxes_path),
                                 "--rounds", "5", *flags, "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")
        assert not (out_dir / "learn_summary.csv").exists()
        assert not list(out_dir.glob("trace-*.jsonl"))

    def test_cost_totals_past_the_double_range_exit_three(self, capsys, tmp_path):
        """Each round's costs are finite; 50 rounds of them are not."""
        _, path = write_two_by_two(tmp_path)
        taxes_path = tmp_path / "taxes.json"
        TaxProfile(v=(0.0, 0.0), tau=((1e307,) * 3,) * 2, ell_bar=((1e307,) * 3,) * 2,
                   n_cap=2).save(taxes_path)
        code, out, err = run_cli(capsys, "learn", str(path), "--taxes", str(taxes_path),
                                 "--rounds", "50", "--seeds", "0",
                                 "--out", str(tmp_path / "runs"))
        assert (code, out) == (3, "")
        assert err.startswith("numeric error: ")

    def test_three_seeds_meet_factor_bound(self, capsys, tmp_path):
        inst, path = write_two_by_two(tmp_path)
        taxes = build_tax_profile(inst, [1.0, 1.0])
        taxes_path = tmp_path / "taxes.json"
        taxes.save(taxes_path)
        out_dir = tmp_path / "runs"
        code, out, _ = run_cli(capsys, "learn", str(path), "--taxes",
                               str(taxes_path), "--rounds", "5000",
                               "--seeds", "0,1,2", "--out", str(out_dir))
        assert code == 0
        payload = json.loads(out)
        for run in payload["runs"]:
            assert run["ratio"] <= 2.0 + 0.05

    def test_deterministic_rerun_equality(self, capsys, tmp_path):
        inst, path = write_two_by_two(tmp_path)
        taxes = build_tax_profile(inst, [1.0, 1.0])
        taxes_path = tmp_path / "taxes.json"
        taxes.save(taxes_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out_dir in (out_a, out_b):
            code, _, _ = run_cli(capsys, "learn", str(path), "--taxes",
                                 str(taxes_path), "--rounds", "50",
                                 "--seeds", "0,1", "--out", str(out_dir))
            assert code == 0
        for name in ("trace-0.jsonl", "trace-1.jsonl", "learn_summary.csv"):
            assert (out_a / name).read_text() == (out_b / name).read_text()

    @pytest.mark.parametrize("flag,value", [
        ("--eta", "abc"), ("--eta", "nan"), ("--eta", "inf"), ("--eta", "-1"),
        ("--seeds", "a"), ("--seeds", "0,x"), ("--seeds", ","), ("--seeds", ""),
    ])
    def test_malformed_rate_or_seeds_exit_two(self, capsys, tmp_path, flag, value):
        inst, path = write_two_by_two(tmp_path)
        taxes_path = tmp_path / "taxes.json"
        build_tax_profile(inst, [1.0, 1.0]).save(taxes_path)
        out_dir = tmp_path / "runs"
        code, out, err = run_cli(capsys, "learn", str(path), "--taxes",
                                 str(taxes_path), "--rounds", "5", flag, value,
                                 "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error: ") and flag in err
        assert out == ""
        assert not (out_dir / "learn_summary.csv").exists()

    @pytest.mark.parametrize("factor", [1.0, 2.0], ids=["minus-ell", "minus-2ell"])
    def test_taxes_zeroing_or_negating_costs_exit_two(self, capsys, tmp_path, factor):
        inst, path = write_two_by_two(tmp_path)
        taxes_path = tmp_path / "taxes.json"
        negated_taxes(inst, factor).save(taxes_path)
        out_dir = tmp_path / "runs"
        code, out, err = run_cli(capsys, "learn", str(path), "--taxes",
                                 str(taxes_path), "--rounds", "20",
                                 "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""
        assert not (out_dir / "learn_summary.csv").exists()
        assert not list(out_dir.glob("trace-*.jsonl"))

    def test_one_exact_minimum_for_all_seeds(self, capsys, tmp_path, monkeypatch):
        from tollkit import learning
        inst, path = write_two_by_two(tmp_path)
        taxes = build_tax_profile(inst, [1.0, 1.0])
        taxes_path = tmp_path / "taxes.json"
        taxes.save(taxes_path)
        calls = []
        real = learning.brute_force_min_sc

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(learning, "brute_force_min_sc", counting)
        code, out, _ = run_cli(capsys, "learn", str(path), "--taxes",
                               str(taxes_path), "--rounds", "200",
                               "--seeds", "0,1,2", "--seed", "3",
                               "--out", str(tmp_path / "runs"))
        assert code == 0
        assert len(calls) == 1
        runs = json.loads(out)["runs"]
        monkeypatch.undo()
        # Each row is what best_profile_approximation gives for its seed.
        for run, seed in zip(runs, (3, 4, 5)):
            trace = multiplicative_weights_run(inst, taxes, rounds=200, seed=seed)
            best, ratio = best_profile_approximation(inst, taxes, trace)
            assert run["seed"] == seed
            assert run["best_profile"] == list(best.choices)
            assert run["ratio"] == ratio

    def test_ratio_null_when_not_enumerable(self, capsys, tmp_path):
        inst, path = write_two_by_two(tmp_path)
        taxes_path = tmp_path / "taxes.json"
        build_tax_profile(inst, [1.0, 1.0]).save(taxes_path)
        out_dir = tmp_path / "runs"
        code, out, _ = run_cli(capsys, "learn", str(path), "--taxes",
                               str(taxes_path), "--rounds", "20",
                               "--seeds", "0,1", "--enum-cap", "1",
                               "--out", str(out_dir))
        assert code == 0
        assert [run["ratio"] for run in json.loads(out)["runs"]] == [None, None]
        rows = (out_dir / "learn_summary.csv").read_text().splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["", ""]


class TestForge:
    def test_random_instance_valid(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "forge", "random", "--players", "3",
                               "--resources", "3", "--monomial", "1",
                               "--seed", "7", "--out", str(out_dir))
        assert code == 0
        instance = GameInstance.load(out_dir / "instance.json")
        assert instance.num_players == 3

    def test_partition_reference_parameters(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "forge", "partition", "--n", "120",
                               "--beta", "4", "--h", "3", "--k", "2",
                               "--eta", "0.9", "--monomial", "1",
                               "--out", str(out_dir))
        assert code == 0
        payload = json.loads(out)
        assert payload["p1_passed"] is True
        assert payload["p2_margin"] >= 0

    @pytest.mark.parametrize("flag,value", [
        ("--max-coeff", "inf"), ("--max-coeff", "nan"), ("--min-coeff", "nan")])
    def test_random_non_finite_coefficients_exit_two(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "forge", "random", "--players", "2",
                                 "--resources", "2", "--monomial", "1",
                                 flag, value)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_partition_failure_exits_four(self, capsys):
        code, _, err = run_cli(capsys, "forge", "partition", "--n", "6",
                               "--beta", "4", "--h", "3", "--k", "2",
                               "--eta", "0.01", "--monomial", "1")
        assert code == 4
        assert "construction-failed" in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    @pytest.mark.parametrize("shape", [
        ["--beta", "6", "--h", "3", "--k", "2", "--n", "120", "--mode", "sampled"],
        # more than 10**6 transversals, so auto mode samples
        ["--beta", "20", "--h", "5", "--k", "1", "--n", "10"],
    ], ids=["sampled", "auto"])
    def test_partition_without_samples_exits_two(self, capsys, tmp_path,
                                                shape, samples):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "forge", "partition", *shape,
                                 "--eta", "0.9", "--monomial", "1",
                                 "--samples", samples, "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""
        assert not (out_dir / "partitioning_system.json").exists()

    def test_reduce_size_contract(self, capsys, tmp_path):
        from tollkit import LabelCoverInstance
        lc = LabelCoverInstance(num_left=2, num_right=1, edges=((0, 0), (1, 0)),
                                h=2, alpha=1, beta=1,
                                pi={(0, 0): (0,), (1, 0): (0,)})
        lc_path = tmp_path / "lc.json"
        lc.save(lc_path)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "forge", "reduce", "--labelcover",
                               str(lc_path), "--n", "8", "--k", "1",
                               "--eta", "0.5", "--beta", "2",
                               "--monomial", "1", "--out", str(out_dir))
        assert code == 0
        instance = GameInstance.load(out_dir / "instance.json")
        assert instance.num_players == 2
        assert instance.num_resources == 8


class TestExperimentConfig:
    def test_snapshot_written_with_out(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "forge", "random", "--players", "2",
                             "--resources", "2", "--monomial", "1",
                             "--seed", "3", "--out", str(out_dir))
        assert code == 0
        config = json.loads((out_dir / "config-forge-random.json").read_text())
        assert config == {"argv": config["argv"]}
        argv = config["argv"]
        assert "forge" in argv
        assert argv[argv.index("--seed") + 1] == "3"

    def test_config_replay_bit_identical(self, capsys, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        code, _, _ = run_cli(capsys, "forge", "random", "--players", "3",
                             "--resources", "3", "--monomial", "2",
                             "--seed", "11", "--out", str(first))
        assert code == 0
        code, _, _ = run_cli(capsys, "--config",
                             str(first / "config-forge-random.json"),
                             "--out", str(second))
        assert code == 0
        assert ((first / "instance.json").read_text()
                == (second / "instance.json").read_text())

    @pytest.mark.parametrize("command", ["design", "partition"])
    def test_out_file_holds_the_printed_bytes(self, capsys, tmp_path, command):
        # One encoding serves stdout and the file; the file's bytes are
        # what json.dump and a closing newline write.
        out_dir = tmp_path / "out"
        if command == "design":
            _, path = write_two_by_two(tmp_path)
            argv, name = ["design", str(path)], "design_bundle.json"
        else:
            argv = ["forge", "partition", "--n", "12", "--beta", "4",
                    "--h", "3", "--k", "2", "--eta", "0.9", "--monomial", "1",
                    "--seed", "0"]
            name = "partitioning_system.json"
        code, out, _ = run_cli(capsys, *argv, "--out", str(out_dir))
        assert code == 0
        written = (out_dir / name).read_bytes()
        dumped = io.StringIO()
        json.dump(json.loads(written), dumped, indent=2)
        dumped.write("\n")
        assert written == out.encode() == dumped.getvalue().encode()

    def test_round_trip(self):
        from tollkit.cli import ExperimentConfig
        config = ExperimentConfig(argv=("oracle", "x.json", "--seed", "4",
                                        "--out", "runs"))
        assert ExperimentConfig.from_json(config.to_json()) == config
        # Snapshots written before the seed/out fields were dropped replay.
        old = {**config.to_json(), "seed": 4, "out": "runs"}
        assert ExperimentConfig.from_json(old) == config

    @pytest.mark.parametrize("flag", ["--tol-tail", "--i-max"])
    def test_snapshot_with_a_removed_kernel_flag_exits_two(self, capsys, tmp_path,
                                                           flag):
        snapshot = tmp_path / "config-analyze-basis.json"
        snapshot.write_text(json.dumps(
            {"argv": ["analyze-basis", "--monomial", "1", flag, "64"]}))
        code, out, err = run_cli(capsys, "--config", str(snapshot))
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "--config", str(tmp_path / "none.json"))
        assert code == 2

    def test_seed_accepted_everywhere(self, capsys, tmp_path):
        _, path = write_two_by_two(tmp_path)
        assert run_cli(capsys, "analyze-basis", "--monomial", "1",
                       "--seed", "5")[0] == 0
        assert run_cli(capsys, "design", str(path), "--seed", "5")[0] == 0
        assert run_cli(capsys, "oracle", str(path), "--seed", "5")[0] == 0


class TestParserReuse:
    """main builds its parser once per process; every call must still print
    what a run with a freshly built parser prints."""

    def run_both(self, capsys, monkeypatch, *argv):
        kept = run_cli(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            fresh = run_cli(capsys, *argv)
        assert kept == fresh
        return kept

    def test_sequence_matches_fresh_parser(self, capsys, monkeypatch, tmp_path):
        _, path = write_two_by_two(tmp_path)
        code, out, _ = self.run_both(capsys, monkeypatch, "design", str(path),
                                     "--enum-cap", "1")
        assert code == 0
        assert json.loads(out)["stages"]["poa"]["status"] == "too-large"
        code, _, err = self.run_both(capsys, monkeypatch, "design", str(path),
                                     "--no-such-flag")
        assert code == 2 and "unrecognized arguments" in err
        code, _, _ = self.run_both(capsys, monkeypatch, "forge", "random",
                                   "--players", "3", "--resources", "3",
                                   "--monomial", "2", "--seed", "11",
                                   "--out", str(tmp_path / "a"))
        assert code == 0
        code, out, _ = self.run_both(capsys, monkeypatch, "--config",
                                     str(tmp_path / "a" / "config-forge-random.json"),
                                     "--out", str(tmp_path / "b"))
        assert code == 0
        assert out == (tmp_path / "a" / "instance.json").read_text()
        # Nothing from the earlier calls leaks in: --enum-cap is back at its
        # default, so the oracle stages run.
        code, out, _ = self.run_both(capsys, monkeypatch, "design", str(path))
        assert code == 0
        assert json.loads(out)["stages"]["poa"]["status"] == "ok"
        assert cli._parser() is cli._parser()

    def test_import_builds_no_parser(self):
        probe = ("import tollkit.cli as c; "
                 "print(c._parser.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", probe], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.stdout.strip() == "0"


class TestReportRoundTrips:
    def test_smoothness_and_coarse_correlated(self):
        from tollkit import (CoarseCorrelatedReport, SmoothnessResult,
                             check_smoothness, coarse_correlated_check,
                             multiplicative_weights_run, solve_relaxation)
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0], [1.0]], [[[0], [1]], [[0], [1]]])
        prof = solve_relaxation(inst)
        taxes = build_tax_profile(inst, prof.loads)
        smooth = check_smoothness(inst, taxes, prof, 2.0)
        assert SmoothnessResult.from_json(smooth.to_json()) == smooth
        trace = multiplicative_weights_run(inst, taxes, rounds=50, seed=0)
        cce = coarse_correlated_check(inst, taxes, prof, 2.0, trace)
        assert CoarseCorrelatedReport.from_json(cce.to_json()) == cce


class TestOracle:
    def test_poa_report(self, capsys, tmp_path):
        _, path = write_two_by_two(tmp_path)
        code, out, _ = run_cli(capsys, "oracle", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["poa"] == 1.0
        assert payload["num_pure_ne"] == 2

    def test_taxed_oracle(self, capsys, tmp_path):
        inst, path = write_two_by_two(tmp_path)
        taxes = build_tax_profile(inst, [1.0, 1.0])
        taxes_path = tmp_path / "taxes.json"
        taxes.save(taxes_path)
        code, out, _ = run_cli(capsys, "oracle", str(path), "--taxes",
                               str(taxes_path))
        assert code == 0
        assert json.loads(out)["poa"] == 1.0

    def test_enumeration_cap_exits_three(self, capsys, tmp_path):
        _, path = write_two_by_two(tmp_path)
        code, _, err = run_cli(capsys, "oracle", str(path), "--enum-cap", "1")
        assert code == 3

    def test_too_large_reports_every_profile(self, capsys, tmp_path):
        _, path = write_two_by_two(tmp_path)
        code, _, err = run_cli(capsys, "oracle", str(path), "--enum-cap", "1")
        assert code == 3
        assert err == "numeric error: enumeration of 4 profiles exceeds cap 1\n"

    def test_game_too_large_to_print_exits_three(self, capsys, tmp_path):
        """2**15000 profiles: more digits than Python prints an int with."""
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(two_link_game(
            [{"kind": "monomial", "degree": 1}], [[1.0], [1.0]], 15000)))
        code, out, err = run_cli(capsys, "oracle", str(path))
        assert (code, out) == (3, "")
        assert err == ("numeric error: enumeration of 2.82e+4515 profiles "
                       "exceeds cap 10000000\n")


def two_link_game(basis, coefficients, players):
    """Instance JSON: ``players`` players, each choosing resource 0 or 1."""
    return {"basis": basis, "resources": [{"coeffs": c} for c in coefficients],
            "players": [{"strategies": [[0], [1]]}] * players}


def run_quietly(*argv):
    """``main``'s exit code and standard output, without capsys, which a
    hypothesis test cannot take."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


TABLE_1E_300 = {"kind": "table", "values": [1e-300]}
# c(1) = 5e-324 while p(1) is about 1, so rho = p(1)/c(1) overflows.
TABLE_SUBNORMAL_COST = {"kind": "table", "values": [5e-324, 1.0]}

# Coefficients and table values from subnormal to the top of the double range.
doubles = st.one_of(
    st.sampled_from([5e-324, 1e-320, 1e-300, 1.0, 1e300, 1e307, 1.7e308]),
    st.floats(5e-324, 1.7e308))


@st.composite
def boundary_instances(draw):
    """Instance JSON near the ends of the double range; some fail validation."""
    basis = draw(st.lists(st.one_of(
        st.builds(lambda d: {"kind": "monomial", "degree": d},
                  st.one_of(st.integers(0, 700), st.floats(0, 700))),
        st.builds(lambda v: {"kind": "table", "values": sorted(v)},
                  st.lists(doubles, min_size=1, max_size=3))),
        min_size=1, max_size=2))
    resources = draw(st.integers(1, 3))
    strategy = st.lists(st.integers(0, resources - 1), min_size=1, max_size=2,
                        unique=True).map(sorted)
    players = draw(st.lists(st.lists(strategy, min_size=1, max_size=2,
                                     unique_by=tuple), min_size=1, max_size=3))
    coefficients = draw(st.lists(st.lists(doubles, min_size=len(basis),
                                          max_size=len(basis)),
                                 min_size=resources, max_size=resources))
    return {"basis": basis, "resources": [{"coeffs": c} for c in coefficients],
            "players": [{"strategies": s} for s in players]}


PARTITION = ["partition", "--n", "12", "--beta", "2", "--h", "2", "--k", "1"]


basis_flags = st.one_of(
    st.builds(lambda d: ["--monomial", repr(d)],
              st.one_of(st.integers(0, 700), st.floats(0, 700))),
    st.builds(lambda v: ["--table", ",".join(map(repr, sorted(v)))],
              st.lists(doubles, min_size=1, max_size=3)))


@st.composite
def forge_flags(draw):
    """``forge random`` or ``forge partition`` flags with small shapes and
    numbers from the ends of the double range; some fail validation."""
    basis = draw(basis_flags)
    small = st.integers(0, 4)
    if draw(st.booleans()):
        coeff = st.one_of(doubles, st.sampled_from(
            [0.0, -1.0, math.inf, -math.inf, math.nan]))
        flags = ["random", "--players", draw(small), "--resources", draw(small),
                 "--min-strategies", draw(small), "--max-strategies", draw(small),
                 "--min-size", draw(small), "--max-size", draw(small),
                 "--min-coeff", draw(coeff), "--max-coeff", draw(coeff)]
    else:
        eta = st.one_of(st.floats(5e-324, 1.0), st.sampled_from(
            [1e-200, 0.5, 0.9, 0.0, 1.0, math.nan]))
        flags = ["partition", "--n", draw(st.integers(1, 24)),
                 "--beta", draw(small), "--h", draw(small), "--k", draw(small),
                 "--eta", draw(eta)]
    return ["forge", *map(str, flags), *basis, "--seed", str(draw(st.integers(0, 3)))]


def mostly(usual, odd):
    """``usual`` five times in six, else ``odd``: a run that trips on
    every flag at once would only ever test the first check."""
    return st.integers(0, 5).flatmap(lambda i: odd if i == 0 else usual)


# Table entries and flag values of either sign, the non-finite ones included.
signed_doubles = st.one_of(doubles, doubles.map(lambda x: -x), st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf]))
# What a malformed file may hold where a count or a table belongs.
odd_json_values = st.sampled_from(
    [0, -1, 1, 2, 10 ** 30, -10 ** 30, 2 ** 200, 1.5, math.nan, math.inf,
     -math.inf, "3", "x", None, [], {}, True, [[1]]])
# Files that are not the JSON of anything.
garbage_files = st.sampled_from(
    [b"", b"{", b"\xff\xfe", b"null", b"[]", b"NaN", b"1" * 5000,
     b"[" * 100_000 + b"]" * 100_000, b'{"resources": 1e400}'])


def write_json_file(path, data):
    """``data`` as JSON, or as raw bytes when it is ``bytes``."""
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(json.dumps(data))


@st.composite
def learn_taxes_files(draw):
    """Taxes for the two-player, two-resource game of ``write_two_by_two``.
    Most are valid, with every entry scaled by one factor from across the
    double range; the rest have entries of either sign (negative ``tau``,
    NaN), an odd ``n_cap``, resource count or field, or are not JSON."""
    kind = draw(st.sampled_from(["valid"] * 6 + ["signed", "odd", "garbage"]))
    if kind == "garbage":
        return draw(garbage_files)
    n_cap, count = 2, 2
    if kind == "odd":
        n_cap = draw(st.one_of(st.integers(-1, 3), odd_json_values))
        count = draw(st.integers(1, 3))
    length = n_cap + 1 if type(n_cap) is int and 0 <= n_cap <= 3 else 3
    scale = draw(st.sampled_from([1.0, 5e-324, 1e-300, 1e300, 1e306, 3e306, 1e307]))
    entry = signed_doubles if kind == "signed" else st.floats(0, 4).map(lambda x: x * scale)
    table = st.lists(entry, min_size=length, max_size=length)
    resources = [{"v": draw(entry), "tau": draw(table), "ell_bar": draw(table)}
                 for _ in range(count)]
    if kind == "odd" and draw(st.booleans()):
        field = draw(st.sampled_from(["v", "tau", "ell_bar"]))
        resources[0][field] = draw(odd_json_values)
    return {"resources": resources, "n_cap": n_cap}


@st.composite
def learn_flags(draw):
    """``--rounds``, ``--eta``, ``--seeds`` and ``--seed`` at and past their
    limits. Rounds stay at most 64: the run plays every one of them."""
    rounds = draw(mostly(st.integers(1, 64), st.one_of(
        st.integers(-2 ** 63, 0), st.sampled_from(["1e3", "x", str(-2 ** 200)]))))
    eta = draw(mostly(
        st.one_of(st.just("auto"), st.floats(0, 10).map(repr), doubles.map(repr)),
        st.one_of(st.sampled_from(["nan", "inf", "1e400", "x", ""]),
                  signed_doubles.map(repr))))
    seed = mostly(st.integers(0, 2 ** 128 - 1), st.integers(-2 ** 130, 2 ** 130))
    seeds = draw(mostly(
        st.lists(seed, min_size=1, max_size=3).map(lambda s: ",".join(map(str, s))),
        st.sampled_from(["", ",", "1e3", "0x10", " 1 , ,2"])))
    return [f"--rounds={rounds}", f"--eta={eta}", f"--seeds={seeds}",
            f"--seed={draw(mostly(st.integers(0, 3), seed))}"]


@st.composite
def label_cover_files(draw):
    """Small label-cover JSON, some with a field, an edge or a constraint
    map replaced by an odd value, some not JSON at all. The right alphabet
    ``beta`` stays small: the system has one row per label."""
    if draw(st.integers(0, 9)) == 0:
        return draw(garbage_files)
    left, right = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    h, alpha = draw(st.integers(1, left)), draw(st.integers(1, 3))
    beta = draw(st.integers(max(h, alpha), 3))
    edges = [[v, u] for u in range(right)
             for v in draw(st.lists(st.integers(0, left - 1), min_size=h,
                                    max_size=h, unique=True))]
    # Distinct rows per edge keep a left vertex's strategies distinct.
    pi = {f"{v},{u}": draw(st.lists(st.integers(0, beta - 1), min_size=alpha,
                                     max_size=alpha, unique=True)) for v, u in edges}
    data = {"left": left, "right": right, "edges": edges, "h": h,
            "alpha": alpha, "beta": beta, "pi": pi}
    for _ in range(draw(mostly(st.just(0), st.integers(1, 2)))):
        odd = draw(odd_json_values)
        where = draw(st.sampled_from(
            ["left", "right", "h", "alpha", "beta", "edge", "pi key", "pi value"]))
        if where == "beta":
            data["beta"] = draw(st.sampled_from([0, -1, 1.5, math.nan, "x", None]))
        elif where == "edge":
            data["edges"][0][draw(st.integers(0, 1))] = odd
        elif where == "pi key":
            data["pi"][draw(st.sampled_from(["1", "0,0,0", "a,b", "-1,0", "0,5"]))] = [0]
        elif where == "pi value":
            data["pi"][f"{edges[0][0]},{edges[0][1]}"] = odd
        else:
            data[where] = odd
    return data


@st.composite
def reduce_flags(draw):
    """``forge reduce`` flags: ``--n``, ``--k``, ``--beta`` and ``--eta``
    at and past their limits, and a basis from the whole double range."""
    n = draw(mostly(st.sampled_from([6, 12]), st.integers(-2, 24)))
    k = draw(mostly(st.just(1), st.integers(-1, 3)))
    beta = draw(mostly(st.sampled_from([None, 4]), st.integers(-1, 3)))
    eta = draw(mostly(st.floats(0.05, 0.95), st.one_of(
        signed_doubles, st.sampled_from([0.0, 1.0]))))
    basis = draw(mostly(st.just(["--monomial", "1"]), basis_flags))
    return ["--n", str(n), "--k", str(k), f"--eta={eta!r}", *basis,
            *([] if beta is None else ["--beta", str(beta)])]


class TestNumericBoundary:
    """Costs outside the double range exit 3 with one line, never with a
    traceback or a report holding Infinity or NaN."""

    @pytest.mark.parametrize("command,source", [
        ("oracle", two_link_game([{"kind": "monomial", "degree": 1}],
                                 [[1e308], [1e308]], 2)),
        ("oracle", two_link_game([TABLE_1E_300], [[1e-320], [1.0]], 1)),
        ("design", two_link_game([TABLE_1E_300], [[1e-320], [1.0]], 1)),
        ("design", two_link_game([{"kind": "monomial", "degree": 2}],
                                 [[1e307], [1e-320]], 3)),
        ("oracle", two_link_game([TABLE_1E_300, {"kind": "monomial", "degree": 300}],
                                 [[1e-320, 1e307], [3.0, 1.0]], 3)),
        ("design", {"basis": [TABLE_SUBNORMAL_COST],
                    "resources": [{"coeffs": [5e-324]}],
                    "players": [{"strategies": [[0]]}]}),
        ("analyze-basis", ["--table", "5e-324,1.0"]),
        ("forge", PARTITION + ["--eta", "0.9", "--table", "1e308,1.7e308"]),
        ("forge", PARTITION + ["--eta", "0.9", "--table", "1e200"]),
        ("forge", PARTITION + ["--eta", "1e-200", "--monomial", "1"]),
        ("forge", PARTITION + ["--eta", "0.5", "--table", "1e150,8e307"]),
    ], ids=["overflowing-costs", "zero-optimum-oracle", "zero-optimum-design",
            "overflowing-system-table", "infinite-equilibrium-cost",
            "infinite-rho-design", "infinite-rho-analyze-basis",
            "partition-cost-table", "partition-ground-set-cost",
            "partition-ground-set-eta", "partition-threshold"])
    def test_exits_three(self, capsys, tmp_path, command, source):
        """``source`` is the instance JSON, or the command's flags."""
        if command in ("analyze-basis", "forge"):
            argv = [command, *source]
        else:
            path = tmp_path / "instance.json"
            path.write_text(json.dumps(source))
            argv = [command, str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("numeric error: ") and err.count("\n") == 1

    @settings(max_examples=200, deadline=None)
    @given(data=boundary_instances())
    def test_oracle_and_design_stay_in_contract(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "boundary.json"
        path.write_text(json.dumps(data))
        for argv in (["oracle", str(path)],
                     ["design", str(path), "--max-iters", "200"]):
            code, out = run_quietly(*argv)
            assert code in (0, 2, 3)
            if code == 0:
                assert "Infinity" not in out and "NaN" not in out

    @settings(max_examples=100, deadline=None)
    @given(basis=st.one_of(
        st.builds(lambda d: ["--monomial", repr(d)],
                  st.one_of(st.integers(0, 700), st.floats(0, 700))),
        st.builds(lambda v: ["--table", ",".join(map(repr, v))],
                  st.lists(doubles, min_size=1, max_size=3))),
        monomial_like=st.booleans())
    def test_analyze_basis_stays_in_contract(self, basis, monomial_like):
        argv = ["analyze-basis", *basis] + ["--monomial-like"] * monomial_like
        code, out = run_quietly(*argv)
        assert code in (0, 2, 3)
        if code == 0:
            assert "Infinity" not in out and "NaN" not in out

    @settings(max_examples=150, deadline=None)
    @given(argv=forge_flags())
    def test_forge_stays_in_contract(self, argv):
        """A partitioning system may also fail to verify, which exits 4."""
        code, out = run_quietly(*argv)
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert "Infinity" not in out and "NaN" not in out

    @settings(max_examples=150, deadline=None)
    @given(taxes=learn_taxes_files(), flags=learn_flags())
    def test_learn_stays_in_contract(self, tmp_path_factory, taxes, flags):
        base = tmp_path_factory.getbasetemp()
        _, path = write_two_by_two(base)
        write_json_file(base / "taxes.json", taxes)
        code, out = run_quietly("learn", str(path), "--taxes", str(base / "taxes.json"),
                                *flags, "--out", str(base / "runs"))
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert "Infinity" not in out and "NaN" not in out

    @settings(max_examples=150, deadline=None)
    @given(lc=label_cover_files(), flags=reduce_flags())
    def test_forge_reduce_stays_in_contract(self, tmp_path_factory, lc, flags):
        """A partitioning system may also fail to verify, which exits 4."""
        path = tmp_path_factory.getbasetemp() / "labelcover.json"
        write_json_file(path, lc)
        code, out = run_quietly("forge", "reduce", "--labelcover", str(path), *flags)
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert "Infinity" not in out and "NaN" not in out


def _drop_tau(data):
    del data["resources"][0]["tau"]


def _nan_tau(data):
    data["resources"][0]["tau"][1] = "nan"


def _drop_pi(data):
    del data["pi"]


def _fractional_index(data):
    data["players"][0]["strategies"] = [[0.9], [1.2]]


class TestMalformedInputFiles:
    @pytest.mark.parametrize("command,content", [
        ("learn", b"\xff\xfe"), ("learn", b"1" * 5000),
        ("learn", b"[" * 100_000 + b"]" * 100_000),
        ("learn", b'{"resources": [], "n_cap": 1e400}'),
        ("reduce", b'{"left": 1, "right": 1e30, "edges": [], "h": 0, '
                   b'"alpha": 1, "beta": 1, "pi": {}}'),
        ("reduce", b'{"left": 1000000000000000000000000000000, "right": 1, '
                   b'"edges": [[0, 0]], "h": 1, "alpha": 1, "beta": 1, '
                   b'"pi": {"0,0": [0]}}'),
    ], ids=["taxes-not-utf8", "taxes-int-past-4300-digits", "taxes-nested-too-deep",
            "taxes-n-cap-1e400",
            "labelcover-right-1e30", "labelcover-left-1e30"])
    def test_unreadable_files_exit_two(self, capsys, tmp_path, command, content):
        """Files that are not UTF-8 JSON, nest too deep, hold a number past
        the int range, or claim more vertices than their edges reach."""
        _, path = write_two_by_two(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = {
            "learn": ["learn", str(path), "--taxes", str(bad), "--rounds", "1",
                      "--out", str(tmp_path / "runs")],
            "reduce": ["forge", "reduce", "--labelcover", str(bad), "--n", "6",
                       "--k", "1", "--eta", "0.5", "--monomial", "1"],
        }[command]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command,edit", [
        ("oracle", _drop_tau), ("learn", _drop_tau), ("oracle", _nan_tau),
        ("reduce", _drop_pi), ("instance", _fractional_index),
        ("directory", None),
    ], ids=["oracle-taxes-without-tau", "learn-taxes-without-tau",
            "oracle-taxes-nan-tau", "reduce-labelcover-without-pi",
            "oracle-fractional-resource-index", "oracle-directory"])
    def test_exits_two(self, capsys, tmp_path, command, edit):
        from tollkit import LabelCoverInstance
        inst, path = write_two_by_two(tmp_path)
        bad = tmp_path / "bad.json"
        if command == "reduce":
            data = LabelCoverInstance(
                num_left=2, num_right=1, edges=((0, 0), (1, 0)), h=2, alpha=1,
                beta=1, pi={(0, 0): (0,), (1, 0): (0,)}).to_json()
        elif command == "instance":
            data = inst.to_json()
        else:
            data = build_tax_profile(inst, [1.0, 1.0]).to_json()
        if edit is not None:
            edit(data)
        bad.write_text(json.dumps(data))
        argv = {
            "instance": ["oracle", str(bad)],
            "directory": ["oracle", str(tmp_path)],
            "oracle": ["oracle", str(path), "--taxes", str(bad)],
            "learn": ["learn", str(path), "--taxes", str(bad), "--rounds", "1",
                      "--seeds", "0", "--out", str(tmp_path / "runs")],
            "reduce": ["forge", "reduce", "--labelcover", str(bad), "--n", "8",
                       "--k", "1", "--eta", "0.5", "--beta", "2",
                       "--monomial", "1"],
        }[command]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ")
