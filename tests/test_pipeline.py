"""``design`` against the public stage functions it runs."""

import inspect
import itertools
import json
import os
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from game_strategies import parallel_links, small_games, table_twin
from tollkit import (BasisFunction, GameInstance, KernelNonConvergent,
                     KernelOverflow, MaxItersExceeded, TooLarge, audit_taxes,
                     build_tax_profile, check_smoothness, cli, design,
                     empirical_poa, oracle, pipeline, random_instance,
                     rho_factor, solve_relaxation)
from test_acceptance import design_family
from tollkit.game import CompiledGame

STAGES = ["relaxation", "taxes", "audit", "rho", "poa", "smoothness"]


def composed(instance, tol_gap=1e-8, max_iters=10_000, audit_tol=1e-7,
             x_max=1000, enum_cap=10_000_000):
    """The stages of a design bundle from the public stage functions, one
    call each, in the order and with the statuses ``tollkit design`` gave
    them before ``design`` existed."""
    stages = {}
    profile = None
    try:
        profile = solve_relaxation(instance, tol_gap=tol_gap,
                                   max_iters=max_iters)
        stages["relaxation"] = {"status": "ok", **profile.to_json()}
    except MaxItersExceeded as exc:
        profile = exc.profile
        stages["relaxation"] = {"status": "max-iters", **profile.to_json()}
    except KernelNonConvergent:
        stages["relaxation"] = {"status": "infinite-rho"}

    taxes = None
    if profile is not None:
        try:
            taxes = build_tax_profile(instance, profile.loads)
            stages["taxes"] = {"status": "ok", **taxes.to_json()}
            audit = audit_taxes(instance, taxes, tol=audit_tol)
            stages["audit"] = {"status": "ok", **audit.to_json()}
        except KernelNonConvergent:
            stages["taxes"] = {"status": "infinite-rho"}
        except KernelOverflow as exc:
            stages["taxes"] = {"status": "overflow", "detail": str(exc)}
    else:
        stages["taxes"] = {"status": "skipped"}
        stages["audit"] = {"status": "skipped"}

    rho = 1.0
    for j, basis in enumerate(instance.basis):
        if rho is not None and any(c[j] > 0 for c in instance.coefficients):
            report = rho_factor(basis, x_max=x_max)
            rho = None if report.infinite else max(rho, report.value)
    stages["rho"] = ({"status": "infinite-rho"} if rho is None
                     else {"status": "ok", "rho": rho})

    if taxes is not None:
        try:
            poa = empirical_poa(instance, taxes, cap=enum_cap)
            stages["poa"] = {"status": "ok", **poa.to_json()}
        except TooLarge as exc:
            stages["poa"] = {"status": "too-large", "detail": str(exc)}
        if rho is not None:
            try:
                smooth = check_smoothness(instance, taxes, profile, rho,
                                          cap=enum_cap)
                stages["smoothness"] = {"status": "ok", **smooth.to_json()}
            except TooLarge as exc:
                stages["smoothness"] = {"status": "too-large", "detail": str(exc)}
        else:
            stages["smoothness"] = {"status": "skipped"}
    else:
        stages["poa"] = {"status": "skipped"}
        stages["smoothness"] = {"status": "skipped"}
    return stages


def same_bundle(instance, **flags):
    """``design`` equals the composition, key order included."""
    got = design(instance, **flags).to_json()
    want = composed(instance, **flags)
    assert json.dumps(got) == json.dumps(want)
    return got


def statuses(stages):
    return [(name, stage["status"]) for name, stage in stages.items()]


def steep(degree, players, links):
    """A fractional or high monomial whose kernel series outgrows a term
    cap of 64 past the Poisson peak at the loads the game reaches."""
    b = BasisFunction.monomial(degree)
    return GameInstance.build([b], [[1.0]] * links,
                              [[[r] for r in range(links)]] * players)


class TestAgainstComposedStages:
    @settings(max_examples=40, deadline=None)
    @given(inst=small_games(), twin=st.booleans())
    def test_hypothesis_games_and_table_twins(self, inst, twin):
        same_bundle(table_twin(inst) if twin else inst)

    def test_every_stage_ok(self):
        stages = same_bundle(parallel_links(3, 2))
        assert statuses(stages) == [(name, "ok") for name in STAGES]

    def test_max_iters_keeps_the_last_iterate(self):
        inst = random_instance(3, 3, [BasisFunction.monomial(2)],
                               strategy_count_range=(2, 3), seed=4)
        stages = same_bundle(inst, tol_gap=1e-16, max_iters=1)
        assert stages["relaxation"]["status"] == "max-iters"
        assert stages["relaxation"]["iters"] == 1
        assert stages["smoothness"]["status"] == "ok"

    def test_infinite_rho_skips_smoothness(self, tiny_term_cap):
        stages = same_bundle(steep(40.5, 2, 1))
        assert statuses(stages) == [
            ("relaxation", "ok"), ("taxes", "ok"), ("audit", "ok"),
            ("rho", "infinite-rho"), ("poa", "ok"), ("smoothness", "skipped")]

    def test_relaxation_without_kernel_skips_the_rest(self, tiny_term_cap):
        stages = same_bundle(steep(150, 3, 2))
        assert statuses(stages) == [
            ("relaxation", "infinite-rho"), ("taxes", "skipped"),
            ("audit", "skipped"), ("rho", "infinite-rho"),
            ("poa", "skipped"), ("smoothness", "skipped")]

    def test_too_large(self, tiny_term_cap):
        stages = same_bundle(parallel_links(3, 2), enum_cap=1)
        assert stages["poa"] == stages["smoothness"] == {
            "status": "too-large",
            "detail": "enumeration of 8 profiles exceeds cap 1"}
        stages = same_bundle(steep(40.5, 2, 2), enum_cap=1)
        assert statuses(stages)[-3:] == [
            ("rho", "infinite-rho"), ("poa", "too-large"), ("smoothness", "skipped")]

    def test_crowd_past_the_old_series_cap(self):
        # 10,001 players load one fractional monomial past v = 9286, where
        # a cap of 10,000 terms from i = 0 stopped the kernel series.
        inst = GameInstance.build([BasisFunction.monomial(0.5)], [[1.0]],
                                  [[[0]]] * 10_001)
        stages = same_bundle(inst)
        assert statuses(stages) == [(name, "ok") for name in STAGES]
        assert stages["audit"]["passed"] and stages["smoothness"]["passed"]

    @pytest.mark.parametrize("error,status", [
        (KernelOverflow("table overflowed"), "overflow"),
        (KernelNonConvergent("series did not settle"), "infinite-rho"),
    ])
    def test_failed_taxes_leave_no_audit(self, error, status):
        with mock.patch.object(pipeline, "build_tax_profile", side_effect=error):
            report = design(parallel_links(3, 2))
        stages = report.to_json()
        assert statuses(stages) == [
            ("relaxation", "ok"), ("taxes", status), ("rho", "ok"),
            ("poa", "skipped"), ("smoothness", "skipped")]
        if status == "overflow":
            assert stages["taxes"]["detail"] == "table overflowed"
        assert report.taxes is None and report.audit is None


class TestOneCompiledGame:
    """A design compiles its game once, prices no chosen profile
    (``CompiledGame.price_many``), and sweeps its profiles once at every
    size: equilibria, ``SC(opt)`` and margins together."""

    @staticmethod
    def counting_prices(calls):
        """A patch of ``CompiledGame.price_many`` that appends the number of
        profiles of each call to ``calls``."""
        price_many = CompiledGame.price_many

        def counting(game, profiles):
            calls.append(profiles.shape[1])
            return price_many(game, profiles)

        return mock.patch.object(CompiledGame, "price_many", counting)

    def count(self, inst, **flags):
        compiled, sweeps, priced = [], [], []
        init, blocks = CompiledGame.__init__, oracle._Blocks.__init__

        def counting_init(game, *args, **kwargs):
            compiled.append(args)
            init(game, *args, **kwargs)

        def counting_blocks(sweep, game, *args):
            sweeps.append(args)
            blocks(sweep, game, *args)

        with mock.patch.object(CompiledGame, "__init__", counting_init), \
                mock.patch.object(oracle._Blocks, "__init__", counting_blocks), \
                self.counting_prices(priced):
            report = design(inst, **flags)
        assert priced == []
        return report, len(compiled), len(sweeps)

    # 3^6 = 729 profiles in one block, or in 27 blocks of 27.
    @pytest.mark.parametrize("block", [oracle.BLOCK_PROFILES, 27])
    def test_one_sweep_with_smoothness(self, block):
        with mock.patch.object(oracle, "BLOCK_PROFILES", block):
            report, compiled, sweeps = self.count(parallel_links(6, 3))
        assert report.smoothness.passed
        assert (compiled, sweeps) == (1, 1)

    def test_one_sweep_without_rho(self, tiny_term_cap):
        report, compiled, sweeps = self.count(steep(40.5, 2, 2))
        assert report.rho is None and report.poa is not None
        assert (compiled, sweeps) == (1, 1)

    @pytest.mark.parametrize("inst", [
        design_family(0)[0],
        design_family(7)[0],
        # 3^8 = 6561 profiles.
        random_instance(8, 6, [BasisFunction.monomial(1)],
                        strategy_count_range=(3, 3),
                        strategy_size_range=(1, 3), seed=0),
    ])
    def test_chosen_profiles_are_priced_in_one_call(self, inst):
        # design prices no chosen profile; a trace that visits every
        # profile once is priced in one call.
        report = self.count(inst)[0]
        profiles = list(itertools.product(*map(range, map(len, inst.strategies))))
        trace = SimpleNamespace(
            rounds=len(profiles), distinct_profiles=tuple(profiles),
            index=tuple(range(len(profiles))),
            average_regrets=[0.0] * inst.num_players)
        priced = []
        with self.counting_prices(priced):
            oracle.coarse_correlated_check(inst, report.taxes, report.relaxation,
                                           report.rho, trace)
        assert priced == [len(profiles)]


class TestCommandLine:
    def test_flag_defaults_are_the_library_defaults(self):
        args = cli.build_parser().parse_args(["design", "game.json"])
        for name, param in inspect.signature(design).parameters.items():
            if param.default is not inspect.Parameter.empty:
                assert getattr(args, name) == param.default

    def test_prints_the_report(self, capsys, tmp_path):
        inst = parallel_links(3, 2)
        path = tmp_path / "game.json"
        inst.save(path)
        out = tmp_path / "out"
        assert cli.main(["design", str(path), "--enum-cap", "5", "--out", str(out)]) == 0
        bundle = {"instance": str(path),
                  "stages": design(inst, enum_cap=5).to_json()}
        assert capsys.readouterr().out == json.dumps(bundle, indent=2) + "\n"
        assert json.loads((out / "design_bundle.json").read_text()) == bundle
        assert sorted(os.listdir(out)) == [
            "config-design.json", "design_bundle.json", "relaxation.json",
            "taxes.json"]
