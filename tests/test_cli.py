import json
import os
import subprocess
import sys

import pytest

from game_strategies import negated_taxes
from tollkit import (BasisFunction, GameInstance, best_profile_approximation,
                     build_tax_profile, cli, multiplicative_weights_run)
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

    def test_missing_basis_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze-basis")
        assert code == 2
        assert "basis" in err

    def test_invalid_table_is_parse_error(self, capsys):
        code, _, _ = run_cli(capsys, "analyze-basis", "--table", "3,1")
        assert code == 2

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

    def test_nonconvergent_records_infinite_rho(self, capsys, tmp_path):
        # A steep fractional monomial has its kernel peak far past a tiny
        # term cap, so the scan cannot settle and the stage reports an
        # unbounded factor.
        b = BasisFunction.monomial(40.5)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        path = tmp_path / "steep.json"
        inst.save(path)
        code, out, _ = run_cli(capsys, "design", str(path), "--i-max", "64")
        assert code == 0
        bundle = json.loads(out)
        assert bundle["stages"]["rho"]["status"] == "infinite-rho"
        assert bundle["stages"]["smoothness"]["status"] == "skipped"

    def test_steep_table_designs_despite_tiny_term_cap(self, capsys, tmp_path):
        # Table kernels are exact finite sums, so the term cap never binds.
        b = BasisFunction.table([float(3 ** x) for x in range(1, 13)])
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        path = tmp_path / "steep.json"
        inst.save(path)
        code, out, _ = run_cli(capsys, "design", str(path), "--i-max", "64")
        assert code == 0
        stages = json.loads(out)["stages"]
        assert {s["status"] for s in stages.values()} == {"ok"}
        assert stages["audit"]["passed"] and stages["smoothness"]["passed"]

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "design", str(tmp_path / "nope.json"))
        assert code == 2


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

    def test_partition_failure_exits_four(self, capsys):
        code, _, err = run_cli(capsys, "forge", "partition", "--n", "6",
                               "--beta", "4", "--h", "3", "--k", "2",
                               "--eta", "0.01", "--monomial", "1")
        assert code == 4
        assert "construction-failed" in err

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

    def test_round_trip(self):
        from tollkit.cli import ExperimentConfig
        config = ExperimentConfig(argv=("oracle", "x.json", "--seed", "4",
                                        "--out", "runs"))
        assert ExperimentConfig.from_json(config.to_json()) == config
        # Snapshots written before the seed/out fields were dropped replay.
        old = {**config.to_json(), "seed": 4, "out": "runs"}
        assert ExperimentConfig.from_json(old) == config

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


def _drop_tau(data):
    del data["resources"][0]["tau"]


def _nan_tau(data):
    data["resources"][0]["tau"][1] = "nan"


def _drop_pi(data):
    del data["pi"]


def _fractional_index(data):
    data["players"][0]["strategies"] = [[0.9], [1.2]]


class TestMalformedInputFiles:
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
