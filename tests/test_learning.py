import math
import statistics
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_learning as reference
import reference_oracle as scalar
from game_strategies import (fractional_profiles, negated_taxes, parallel_links,
                             small_games)

from tollkit import (Allocation, BasisFunction, GameInstance, InvalidParams,
                     NotConverged, TaxProfile, bell_fractional,
                     best_profile_approximation, best_response_dynamics,
                     brute_force_min_sc, build_tax_profile,
                     coarse_correlated_check, enumerate_pure_nash,
                     multiplicative_weights_run, random_instance,
                     solve_relaxation)
from tollkit import learning
from tollkit.game import CompiledGame


def two_by_two_symmetric():
    b = BasisFunction.monomial(1)
    return GameInstance.build([b], [[1.0], [1.0]], [[[0], [1]], [[0], [1]]])


def taxed_two_by_two():
    inst = two_by_two_symmetric()
    return inst, build_tax_profile(inst, [1.0, 1.0])


def seeded_instances(count):
    out = []
    for seed in range(count):
        d = seed % 3
        basis = [BasisFunction.monomial(d)]
        inst = random_instance(2 + seed % 3, 2 + (seed // 3) % 3, basis,
                               strategy_count_range=(2, 3),
                               strategy_size_range=(1, 2), seed=seed)
        out.append((inst, d))
    return out


class TestBestResponseDynamics:
    def test_start_at_equilibrium_returns_immediately(self):
        inst = two_by_two_symmetric()
        final, steps = best_response_dynamics(inst, start=Allocation.of([0, 1]))
        assert steps == 0
        assert final.choices == (0, 1)

    def test_stacked_start_moves_once(self):
        inst = two_by_two_symmetric()
        final, steps = best_response_dynamics(inst, start=Allocation.of([0, 0]))
        assert steps == 1
        assert sorted(final.choices) == [0, 1]

    @pytest.mark.parametrize("seed", range(20))
    def test_lands_on_enumerated_equilibrium(self, seed):
        inst, _ = seeded_instances(seed + 1)[-1]
        taxes = build_tax_profile(inst, [0.6] * inst.num_resources)
        nes = {ne.choices for ne in enumerate_pure_nash(inst, taxes)}
        final, _ = best_response_dynamics(inst, taxes, seed=seed)
        assert final.choices in nes

    @pytest.mark.parametrize("seed", range(10))
    def test_potential_strictly_decreases_along_moves(self, seed):
        # Independent replay on the scalar reference pricing: better-response
        # moves in round-robin order must each strictly lower the potential
        # and land where the implementation lands.
        inst, _ = seeded_instances(seed + 1)[-1]
        import numpy as np
        rng = np.random.Generator(np.random.Philox(key=seed))
        choices = [int(rng.integers(inst.num_strategies(i)))
                   for i in range(inst.num_players)]
        start = Allocation.of(choices)
        player, quiet, moves = 0, 0, 0
        while quiet < inst.num_players:
            a = Allocation.of(choices)
            cur = scalar.player_cost(inst, None, a, player)
            best_alt, best_cost = None, cur - 1e-12 * max(1.0, abs(cur))
            for alt in range(inst.num_strategies(player)):
                if alt == choices[player]:
                    continue
                moved = list(choices)
                moved[player] = alt
                cost = scalar.player_cost(inst, None, Allocation.of(moved), player)
                if cost < best_cost:
                    best_alt, best_cost = alt, cost
            if best_alt is None:
                quiet += 1
            else:
                phi_before = scalar.rosenthal_potential(inst, None, a)
                choices[player] = best_alt
                phi_after = scalar.rosenthal_potential(inst, None,
                                                       Allocation.of(choices))
                assert phi_after < phi_before - 1e-12
                quiet = 0
                moves += 1
            player = (player + 1) % inst.num_players
        final, steps = best_response_dynamics(inst, start=start)
        assert final.choices == tuple(choices)
        assert steps == moves

    def test_not_converged_carries_trace(self):
        # An instance whose dynamics need more than one move: two players
        # stacked on a resource they both want to leave.
        b = BasisFunction.monomial(1)
        inst = GameInstance.build(
            [b], [[4.0], [1.0], [1.0]], [[[0], [1]], [[0], [2]]])
        with pytest.raises(NotConverged) as excinfo:
            best_response_dynamics(inst, start=Allocation.of([0, 0]), max_steps=1)
        assert excinfo.value.trace
        with pytest.raises(NotConverged) as want:
            reference.best_response_dynamics(inst, start=Allocation.of([0, 0]),
                                             max_steps=1)
        assert excinfo.value.trace == want.value.trace

    def test_deterministic_in_seed(self):
        inst, _ = seeded_instances(5)[-1]
        assert (best_response_dynamics(inst, seed=11)
                == best_response_dynamics(inst, seed=11))

    def test_prices_once_per_accepted_move(self, monkeypatch):
        calls = count_prices(monkeypatch)
        for seed in range(10):
            inst, _ = seeded_instances(seed + 1)[-1]
            taxes = build_tax_profile(inst, [0.6] * inst.num_resources)
            del calls[:]
            _, steps = best_response_dynamics(inst, taxes, seed=seed)
            assert len(calls) == steps + 1


def count_prices(monkeypatch) -> list:
    """Record every ``CompiledGame.price`` call from now on."""
    calls = []
    real = CompiledGame.price

    def counting(game, choices):
        calls.append(tuple(choices))
        return real(game, choices)

    monkeypatch.setattr(CompiledGame, "price", counting)
    return calls


def descent_or_trace(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except NotConverged as exc:
        return f"NotConverged: {exc}", exc.trace


class TestBestResponseAgainstReference:
    """The compiled descent equals the scalar one that keeps loads by hand
    and prices every deviation with ``move_cost``: the same equilibrium and
    step count, or the same ``NotConverged`` message and move trace."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_games(self, data):
        inst = data.draw(small_games())
        taxes = (build_tax_profile(inst, data.draw(fractional_profiles(inst)).loads)
                 if data.draw(st.booleans()) else None)
        start = None
        if data.draw(st.booleans()):
            start = Allocation.of(
                data.draw(st.integers(0, inst.num_strategies(i) - 1))
                for i in range(inst.num_players))
        kwargs = dict(seed=data.draw(st.integers(0, 2 ** 32)),
                      max_steps=data.draw(st.sampled_from([1, 2, 3, 100_000])),
                      start=start)
        want = descent_or_trace(reference.best_response_dynamics, inst, taxes,
                                **kwargs)
        assert descent_or_trace(best_response_dynamics, inst, taxes,
                                **kwargs) == want


class TestMultiplicativeWeights:
    def test_single_round_best_profile_is_the_sample(self):
        inst, taxes = taxed_two_by_two()
        trace = multiplicative_weights_run(inst, taxes, rounds=1, seed=4)
        assert trace.rounds == 1
        assert trace.best_profile.choices == trace.profiles[0]
        assert trace.best_sc == trace.social_costs[0]

    def test_single_strategy_players_zero_regret(self):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        taxes = build_tax_profile(inst, [2.0])
        trace = multiplicative_weights_run(inst, taxes, rounds=50, seed=0)
        assert trace.regrets == (0.0, 0.0)
        assert set(trace.profiles) == {(0, 0)}

    def test_bit_identical_reruns(self):
        inst, taxes = taxed_two_by_two()
        a = multiplicative_weights_run(inst, taxes, rounds=300, seed=7)
        b = multiplicative_weights_run(inst, taxes, rounds=300, seed=7)
        assert a == b

    def test_seed_changes_trace(self):
        inst, taxes = taxed_two_by_two()
        a = multiplicative_weights_run(inst, taxes, rounds=300, seed=0)
        b = multiplicative_weights_run(inst, taxes, rounds=300, seed=1)
        assert a.profiles != b.profiles

    def test_symmetric_taxed_instance_reaches_optimum(self):
        inst, taxes = taxed_two_by_two()
        trace = multiplicative_weights_run(inst, taxes, rounds=5000, seed=0)
        assert trace.best_sc == 2.0
        bound = math.sqrt(8.0 * math.log(2) / 5000)
        for i, avg in enumerate(trace.average_regrets):
            scale = max(sum(taxes.ell_bar[r][inst.num_players] for r in strat)
                        for strat in inst.strategies[i])
            assert avg <= 3.0 * bound * scale

    def test_regret_definition_from_trace(self):
        inst, taxes = taxed_two_by_two()
        trace = multiplicative_weights_run(inst, taxes, rounds=100, seed=3)
        for i in range(inst.num_players):
            alternatives = trace.strategy_costs_total[i]
            expected = trace.incurred_total[i] - min(alternatives)
            assert trace.regrets[i] == pytest.approx(expected)
            # Recompute the alternative totals from the stored profiles.
            recomputed = [0.0] * inst.num_strategies(i)
            for choices in trace.profiles:
                loads = [0] * inst.num_resources
                for j, k in enumerate(choices):
                    for r in inst.strategies[j][k]:
                        loads[r] += 1
                members = set(inst.strategies[i][choices[i]])
                for k, strat in enumerate(inst.strategies[i]):
                    recomputed[k] += sum(
                        taxes.ell_bar[r][loads[r] + (0 if r in members else 1)]
                        for r in strat)
            for k in range(inst.num_strategies(i)):
                assert alternatives[k] == pytest.approx(recomputed[k], rel=1e-9)

    def test_best_sc_is_minimum_of_visited(self):
        inst, taxes = taxed_two_by_two()
        trace = multiplicative_weights_run(inst, taxes, rounds=200, seed=9)
        assert trace.best_sc == min(trace.social_costs)

    def test_regret_decays_with_horizon(self):
        inst, taxes = taxed_two_by_two()
        medians = []
        for rounds in (1000, 10_000, 100_000):
            regrets = []
            for seed in range(3):
                trace = multiplicative_weights_run(inst, taxes, rounds=rounds,
                                                   seed=seed)
                regrets.append(max(trace.average_regrets))
            medians.append(statistics.median(regrets))
        assert medians[1] <= medians[0] * 1.05
        assert medians[2] <= medians[1] * 1.05

    def test_rejects_bad_rounds(self):
        inst, taxes = taxed_two_by_two()
        with pytest.raises(InvalidParams):
            multiplicative_weights_run(inst, taxes, rounds=0)

    # tau = -ell makes every perceived cost, so every cost bound, 0;
    # tau = -2 ell makes them negative, which would push factors above 1.
    @pytest.mark.parametrize("factor,message", [
        (1.0, "player 0: every strategy costs 0"),
        (2.0, "perceived costs at loads 1..2 must be >= 0, got -2.0"),
    ])
    @pytest.mark.parametrize("eta", ["auto", 0.0])
    def test_rejects_zero_or_negative_costs(self, factor, message, eta):
        inst = two_by_two_symmetric()
        with pytest.raises(InvalidParams, match=message):
            multiplicative_weights_run(inst, negated_taxes(inst, factor),
                                       rounds=10, eta=eta)

    def test_accepts_a_zero_cost_strategy_under_a_positive_bound(self):
        inst = two_by_two_symmetric()
        # Resource 0 costs nothing; resource 1 keeps each player's bound at 2.
        taxes = TaxProfile(v=(0.0, 0.0), tau=((0.0, -1.0, -2.0), (0.0,) * 3),
                           ell_bar=((0.0,) * 3, (0.0, 1.0, 2.0)), n_cap=2)
        trace = multiplicative_weights_run(inst, taxes, rounds=50, seed=1)
        assert trace == reference.multiplicative_weights_run(inst, taxes, 50,
                                                             seed=1)

    def test_trace_jsonl_round_trippable(self, tmp_path):
        import json
        inst, taxes = taxed_two_by_two()
        trace = multiplicative_weights_run(inst, taxes, rounds=20, seed=2)
        path = tmp_path / "trace.jsonl"
        trace.save_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 21
        first = json.loads(lines[0])
        assert first["t"] == 0
        assert tuple(first["profile"]) == trace.profiles[0]
        footer = json.loads(lines[-1])
        assert footer["best_sc"] == trace.best_sc
        assert footer["regrets"] == list(trace.regrets)


def run_or_error(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except InvalidParams as exc:
        return f"InvalidParams: {exc}"


class TestAgainstRoundByRoundReference:
    """The memoised run equals the loop that prices every round, field by
    field and in the bytes of its trace file, or both raise the same
    error."""

    @staticmethod
    def assert_matches(inst, taxes, rounds, eta, seed, block, out_dir):
        want = run_or_error(reference.multiplicative_weights_run, inst, taxes,
                            rounds, eta=eta, seed=seed)
        with mock.patch.object(learning, "ROUND_BLOCK", block):
            got = run_or_error(multiplicative_weights_run, inst, taxes,
                               rounds, eta=eta, seed=seed)
        assert got == want
        if not isinstance(want, str):
            reference.save_jsonl(want, out_dir / "want.jsonl")
            got.save_jsonl(out_dir / "got.jsonl")
            assert ((out_dir / "got.jsonl").read_bytes()
                    == (out_dir / "want.jsonl").read_bytes())
        return want

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_games(self, data, tmp_path_factory):
        inst = data.draw(small_games())
        taxes = (build_tax_profile(inst, data.draw(fractional_profiles(inst)).loads)
                 if data.draw(st.booleans()) else None)
        self.assert_matches(
            inst, taxes, rounds=data.draw(st.integers(1, 120)),
            eta=data.draw(st.sampled_from(["auto", 0.0, 0.3, 700.0, 1e4])),
            seed=data.draw(st.integers(0, 2 ** 32)),
            block=data.draw(st.sampled_from([learning.ROUND_BLOCK, 1, 7])),
            out_dir=tmp_path_factory.mktemp("trace"))

    # Two players on two identical untaxed links: every perceived cost is 1
    # or 2 and the cost bound is 2, so the update factors are
    # exp(-eta / 2) and exp(-eta).
    @pytest.mark.parametrize("eta", ["auto", 0.0, 700.0, 1e4],
                             ids=["auto", "zero", "renormalising", "underflowing"])
    def test_rate_regimes(self, eta, tmp_path):
        inst = parallel_links(2, 2)
        result = self.assert_matches(inst, None, 3000, eta, seed=4,
                                     block=learning.ROUND_BLOCK, out_dir=tmp_path)
        if eta == 700.0:
            # Every factor is positive and below 1e-150: every round
            # renormalises every player.
            assert 0.0 < math.exp(-eta) < math.exp(-eta / 2) < 1e-150
        if eta == 1e4:
            assert math.exp(-eta / 2) == 0.0
            assert result == ("InvalidParams: weights underflowed to zero; "
                              "eta too aggressive")
        else:
            assert len(result.profiles) == 3000

    def test_each_distinct_profile_priced_once(self, monkeypatch):
        inst, _ = seeded_instances(8)[-1]
        taxes = build_tax_profile(inst, [0.6] * inst.num_resources)
        calls = count_prices(monkeypatch)
        trace = multiplicative_weights_run(inst, taxes, rounds=2000, seed=5)
        distinct = set(trace.profiles)
        assert 1 < len(distinct) < 100
        assert len(calls) == len(distinct)
        assert set(calls) == distinct


class TestBestProfileApproximation:
    def test_single_profile_trace(self):
        inst, taxes = taxed_two_by_two()
        trace = multiplicative_weights_run(inst, taxes, rounds=1, seed=0)
        best, ratio = best_profile_approximation(inst, taxes, trace)
        assert best.choices == trace.profiles[0]
        assert ratio >= 1.0

    def test_ratio_against_brute_force(self):
        inst, taxes = taxed_two_by_two()
        trace = multiplicative_weights_run(inst, taxes, rounds=5000, seed=1)
        best, ratio = best_profile_approximation(inst, taxes, trace)
        _, min_cost = brute_force_min_sc(inst)
        assert ratio == pytest.approx(scalar.social_cost(inst, best) / min_cost)
        assert ratio <= 2.0 + 0.05

    def test_ratio_none_when_not_enumerable(self):
        inst, taxes = taxed_two_by_two()
        trace = multiplicative_weights_run(inst, taxes, rounds=5, seed=0)
        best, ratio = best_profile_approximation(inst, taxes, trace, cap=1)
        assert ratio is None
        assert best.choices in set(trace.profiles)


class TestCoarseCorrelatedCheck:
    @pytest.mark.parametrize("seed", range(12))
    def test_passes_on_designed_instances(self, seed):
        inst, d = seeded_instances(seed + 1)[-1]
        rho = bell_fractional(d)
        prof = solve_relaxation(inst, tol_gap=1e-8, max_iters=20000)
        taxes = build_tax_profile(inst, prof.loads)
        trace = multiplicative_weights_run(inst, taxes, rounds=2000, seed=seed)
        report = coarse_correlated_check(inst, taxes, prof, rho, trace)
        assert report.passed
        assert report.slack >= -0.05 * report.min_sc
        assert report.expected_sc <= report.rho_bound + report.eps_regret + 1e-6

    def test_expected_cost_bounded_by_factor_plus_regret(self):
        inst, taxes = taxed_two_by_two()
        prof = solve_relaxation(inst, tol_gap=1e-10)
        trace = multiplicative_weights_run(inst, taxes, rounds=5000, seed=0)
        report = coarse_correlated_check(inst, taxes, prof, 2.0, trace)
        assert report.passed
        assert report.expected_sc <= 2.0 * report.min_sc + report.eps_regret + 1e-9
