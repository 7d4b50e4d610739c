import dataclasses
import math
import statistics
import sys
import threading
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_learning as reference
import reference_oracle as scalar
from game_strategies import (fractional_profiles, negated_taxes, parallel_links,
                             small_games)

from tollkit import (Allocation, BasisFunction, GameInstance, InvalidParams,
                     KernelOverflow, NotConverged, TaxProfile, bell_fractional,
                     best_profile_approximation, best_response_dynamics,
                     brute_force_min_sc, build_tax_profile,
                     coarse_correlated_check, design, enumerate_pure_nash,
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


def learn_family(seed):
    """A game of the ``learn`` benchmark workload and acceptance batch, with
    its designed taxes."""
    d = seed % 3
    basis = [BasisFunction.monomial(d)]
    if seed % 5 == 0 and d > 0:
        basis.append(BasisFunction.monomial(0))
    inst = random_instance(2 + seed % 3, 2 + (seed // 3) % 3, basis,
                           strategy_count_range=(2, 3), strategy_size_range=(1, 2),
                           coeff_range=(0.5, 2.0), seed=seed)
    return inst, design(inst).taxes


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

    # Each raised ValueError or TypeError, not InvalidParams.
    @pytest.mark.parametrize("kwargs,message", [
        ({"eta": "fast"}, "eta must be 'auto' or a number, got 'fast'"),
        ({"eta": None}, "eta must be 'auto' or a number, got None"),
        ({"rounds": 2.5}, "rounds must be an integer, got 2.5"),
        ({"rounds": "10"}, "rounds must be an integer, got '10'"),
    ], ids=["eta-word", "eta-none", "rounds-float", "rounds-text"])
    def test_rejects_arguments_of_the_wrong_type(self, kwargs, message):
        inst, taxes = taxed_two_by_two()
        with pytest.raises(InvalidParams, match=message):
            multiplicative_weights_run(inst, taxes, **{"rounds": 10, **kwargs})

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


def count_windows(monkeypatch) -> list:
    """Record the rounds every window spans from now on."""
    spans = []
    real = learning._Windows.play

    def counting(windows, weights, draws, ahead):
        spans.append(draws.shape[1])
        return real(windows, weights, draws, ahead)

    monkeypatch.setattr(learning._Windows, "play", counting)
    return spans


class TestAgainstRoundByRoundReference:
    """The run, with its memo and its speculative windows of rounds, equals
    the loop that prices every round one round at a time, field by field
    and in the bytes of its trace file, or both raise the same error."""

    @staticmethod
    def assert_matches(inst, taxes, rounds, eta, seed, block, out_dir,
                       entries=learning.WINDOW_ENTRIES):
        want = run_or_error(reference.multiplicative_weights_run, inst, taxes,
                            rounds, eta=eta, seed=seed)
        with mock.patch.object(learning, "ROUND_BLOCK", block), \
                mock.patch.object(learning, "WINDOW_ENTRIES", entries):
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
        # Rates from none to one that renormalises every round or
        # underflows; blocks, and so windows, from 1 round to 1024; and
        # windows capped by their memory bound down to 2 rounds.
        self.assert_matches(
            inst, taxes, rounds=data.draw(st.integers(1, 600)),
            eta=data.draw(st.sampled_from(["auto", 0.0, 0.3, 2.0, 20.0, 700.0, 1e4])),
            seed=data.draw(st.integers(0, 2 ** 32)),
            block=data.draw(st.sampled_from([learning.ROUND_BLOCK, 1, 7, 64])),
            out_dir=tmp_path_factory.mktemp("trace"),
            entries=data.draw(st.sampled_from([learning.WINDOW_ENTRIES, 64])))

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

    def test_designed_taxes_at_a_renormalising_rate(self, tmp_path):
        # Designed taxes at a rate that renormalises the weights every
        # round, where windows cannot pay and the run steps its rounds.
        inst, taxes = learn_family(4)
        self.assert_matches(inst, taxes, 2000, 700.0, seed=1,
                            block=learning.ROUND_BLOCK, out_dir=tmp_path)

    def test_each_distinct_profile_priced_once(self, monkeypatch):
        inst, _ = seeded_instances(12)[-1]
        taxes = build_tax_profile(inst, [0.6] * inst.num_resources)
        priced = []
        real = learning._PricedProfiles._add

        def recording(memo, profile, social, costs):
            priced.append(profile)
            real(memo, profile, social, costs)

        monkeypatch.setattr(learning._PricedProfiles, "_add", recording)
        trace = multiplicative_weights_run(inst, taxes, rounds=2000, seed=0)
        played = set(trace.profiles)
        assert 1 < len(played) < 100
        # No profile is priced twice, and every played one is priced.
        assert len(priced) == len(set(priced))
        assert played <= set(priced)
        # Windows priced guesses that were never played; none of them
        # reaches the trace.
        assert set(priced) - played
        assert trace.best_profile.choices in played
        assert trace.best_sc == min(trace.social_costs)
        assert trace.profiles.index(trace.best_profile.choices) == \
            trace.social_costs.index(trace.best_sc)

    def test_learn_game_plays_in_few_windows(self, monkeypatch):
        # A fall back to short windows would still equal the reference;
        # this counts them. About 25 windows play the 5000 rounds.
        inst, taxes = learn_family(4)
        spans = count_windows(monkeypatch)
        trace = multiplicative_weights_run(inst, taxes, rounds=5000, seed=0)
        assert len(trace.profiles) == 5000
        assert 0 < len(spans) <= 40


class TestTraceEdgeCases:
    """Traces at the edges of the distinct-profile index equal the
    reference's, field by field and in the bytes of their files."""

    # "t" gains a digit from round 10, 100 and 1000 on.
    @pytest.mark.parametrize("rounds", [1, 9, 10, 99, 100, 999, 1000])
    def test_round_counts_around_a_wider_t(self, rounds, tmp_path):
        inst, taxes = taxed_two_by_two()
        trace = TestAgainstRoundByRoundReference.assert_matches(
            inst, taxes, rounds, "auto", seed=5, block=learning.ROUND_BLOCK,
            out_dir=tmp_path)
        assert len(trace.index) == rounds

    def test_one_profile_in_every_round(self, tmp_path):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        trace = TestAgainstRoundByRoundReference.assert_matches(
            inst, None, 300, "auto", seed=0, block=learning.ROUND_BLOCK,
            out_dir=tmp_path)
        assert trace.distinct_profiles == ((0, 0),)
        assert trace.index == (0,) * 300

    def test_tied_costs_keep_the_first_rounds_profile(self, tmp_path):
        # Uniform play on two untaxed links: (1, 0) in round 0 and (0, 1)
        # later both cost 2, the least.
        trace = TestAgainstRoundByRoundReference.assert_matches(
            parallel_links(2, 2), None, 50, 0.0, seed=3,
            block=learning.ROUND_BLOCK, out_dir=tmp_path)
        assert trace.profiles[0] == (1, 0)
        assert (0, 1) in trace.distinct_profiles
        assert trace.best_profile.choices == (1, 0) and trace.best_sc == 2.0

    # On seeds 4 and 8 a window prices a profile before one played earlier,
    # so the memo's numbering differs from first-visit order.
    @pytest.mark.parametrize("seed", [0, 1, 4, 8])
    def test_distribution_in_first_visit_order(self, seed):
        inst, taxes = learn_family(seed)
        got = multiplicative_weights_run(inst, taxes, rounds=400, seed=seed)
        want = reference.multiplicative_weights_run(inst, taxes, 400, seed=seed)
        counts = Counter(want.profiles)
        assert list(got.empirical_distribution.items()) == \
            [(profile, c / 400) for profile, c in counts.items()]


def assert_run_matches(inst, taxes, rounds, eta, seed, out_dir):
    """The run equals the reference, field by field and in the bytes of
    its trace file, or both raise the same ``InvalidParams``."""
    return TestAgainstRoundByRoundReference.assert_matches(
        inst, taxes, rounds, eta, seed, block=learning.ROUND_BLOCK, out_dir=out_dir)


def last_entry():
    return getattr(learning._last_run, "entry", None)


def equal_copy(obj):
    """An object equal to ``obj`` but not ``obj`` itself."""
    return None if obj is None else dataclasses.replace(obj)


class TestRunsShareTheLastEntry:
    """A run reuses the compiled game and memo of its thread's last run on
    the same instance and taxes objects at the same rates. Whatever ran
    before it on its thread, a trace equals the reference's."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_sequence_equals_the_reference(self, data, tmp_path_factory):
        games = []
        for _ in range(2):
            inst = data.draw(small_games())
            taxes = (build_tax_profile(inst, data.draw(fractional_profiles(inst)).loads)
                     if data.draw(st.booleans()) else None)
            games.append((inst, taxes))
        (a, a_taxes), (b, b_taxes) = games
        rounds = data.draw(st.integers(1, 300))
        other_rounds = data.draw(st.integers(1, 300).filter(lambda r: r != rounds))
        eta = data.draw(st.sampled_from(["auto", 0.0, 0.3, 2.0, 700.0]))
        out_dir = tmp_path_factory.mktemp("trace")
        a_copy, a_taxes_copy = equal_copy(a), equal_copy(a_taxes)
        for inst, taxes, run_rounds, seed in [
                (a, a_taxes, rounds, 0), (a, a_taxes, rounds, 1), (b, b_taxes, rounds, 0),
                (a, a_taxes, rounds, 2), (a_copy, a_taxes_copy, rounds, 3),
                (a_copy, a_taxes_copy, other_rounds, 0)]:
            assert_run_matches(inst, taxes, run_rounds, eta, seed, out_dir)

    def test_later_seeds_reuse_what_earlier_seeds_built(self, monkeypatch):
        inst, taxes = learn_family(4)
        priced = []
        real = learning._PricedProfiles._add

        def recording(memo, profile, social, costs):
            priced.append(profile)
            real(memo, profile, social, costs)

        monkeypatch.setattr(learning._PricedProfiles, "_add", recording)
        multiplicative_weights_run(inst, taxes, rounds=2000, seed=0)
        first = last_entry()
        assert first.instance is inst and first.taxes is taxes
        cold = len(priced)
        multiplicative_weights_run(inst, taxes, rounds=2000, seed=1)
        assert last_entry().memo is first.memo
        # Seed 1 prices only the profiles seed 0 never priced.
        assert len(priced) == len(set(priced)) and len(priced) - cold < cold
        # Equal but other objects compile their own game.
        multiplicative_weights_run(equal_copy(inst), equal_copy(taxes), rounds=2000)
        assert last_entry().game is not first.game
        # Another round count sets other rates: same game, new memo.
        multiplicative_weights_run(inst, taxes, rounds=2000)
        again = last_entry()
        multiplicative_weights_run(inst, taxes, rounds=100)
        assert last_entry().game is again.game
        assert last_entry().memo is not again.memo

    # Two untaxed links: the cost bound is 2, and eta = 1e4 underflows every
    # weight in the first round, after the run has built its memo.
    def test_underflow_drops_the_entry(self, tmp_path):
        inst = parallel_links(2, 2)
        assert_run_matches(inst, None, 200, "auto", 0, tmp_path)
        for _ in range(2):
            assert assert_run_matches(inst, None, 200, 1e4, 1, tmp_path) == \
                f"InvalidParams: {learning.UNDERFLOW}"
            assert last_entry() is None
        assert_run_matches(inst, None, 200, "auto", 2, tmp_path)
        assert last_entry().instance is inst

    # A negative perceived cost is rejected while the game is checked,
    # before any memo exists; a rejected game is never kept.
    def test_negative_costs_rejected_on_every_call(self, tmp_path):
        inst, taxes = taxed_two_by_two()
        negated = negated_taxes(inst, 2.0)
        assert_run_matches(inst, taxes, 50, "auto", 0, tmp_path)
        for _ in range(2):
            with pytest.raises(InvalidParams, match="must be >= 0"):
                multiplicative_weights_run(inst, negated, rounds=50, seed=0)
            assert last_entry() is None
        assert_run_matches(inst, taxes, 50, "auto", 1, tmp_path)

    # Each round's costs are finite; 50 rounds of them are not. The run
    # raises after its rounds, as it sums them.
    def test_overflowing_totals_drop_the_entry(self, tmp_path):
        inst = two_by_two_symmetric()
        huge = TaxProfile(v=(0.0, 0.0), tau=((1e307,) * 3,) * 2,
                          ell_bar=((1e307,) * 3,) * 2, n_cap=2)
        for seed in range(2):
            with pytest.raises(KernelOverflow):
                multiplicative_weights_run(inst, huge, rounds=50, seed=seed)
            assert last_entry() is None
        assert_run_matches(inst, huge, 1, "auto", 0, tmp_path)
        assert last_entry().taxes is huge

    def test_threads_running_two_games_at_once(self):
        """Four threads, two per game, switching every 10 µs. Each thread's
        later seeds reuse what its first seed built, and every trace equals
        the reference."""
        games = [learn_family(4), learn_family(8)]
        want = {(g, seed): reference.multiplicative_weights_run(*games[g], 400, seed=seed)
                for g in range(2) for seed in range(3)}
        got, built = {}, {}
        turns = threading.Barrier(4)

        def play(k):
            inst, taxes = games[k % 2]
            for seed in range(3):
                turns.wait(timeout=60)  # every thread starts each seed together
                got[k, seed] = multiplicative_weights_run(inst, taxes, rounds=400, seed=seed)
                entry = last_entry()
                built[k, seed] = entry.instance is inst, entry.memo

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=play, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {(k, seed): want[k % 2, seed] for k in range(4) for seed in range(3)}
        for k in range(4):
            firsts = [built[k, seed] for seed in range(3)]
            assert firsts == [(True, firsts[0][1])] * 3


def record_lookups(monkeypatch) -> dict:
    """Record, from now on, how many of the profiles windows look up were
    priced before, and every profile handed to ``_PricedProfiles.ids`` that
    was."""
    seen = {"known": 0, "repriced": []}
    real_numbers = learning._PricedProfiles.numbers
    real_ids = learning._PricedProfiles.ids

    def numbers(memo, profiles):
        seen["known"] += sum(p in memo.index for p in map(tuple, profiles.T.tolist()))
        return real_numbers(memo, profiles)

    def ids(memo, profiles):
        seen["repriced"] += [p for p in profiles if p in memo.index]
        return real_ids(memo, profiles)

    monkeypatch.setattr(learning._PricedProfiles, "numbers", numbers)
    monkeypatch.setattr(learning._PricedProfiles, "ids", ids)
    return seen


def wide_game():
    """A ``forge random`` game of 70 players with 2-3 strategies each: about
    2^91 profiles, so profile codes wrap modulo 2^64."""
    return random_instance(70, 4, [BasisFunction.monomial(1)],
                           strategy_count_range=(2, 3), seed=0)


class TestProfileCodes:
    """Windows find the profiles they guess by code. Codes are numbers in
    product order modulo 2^64, so past 2^64 profiles two can share one;
    a guess is checked against the choices stored at the number found.
    Traces equal the reference's, field by field and in their files."""

    def test_codes_wrap_past_two_to_the_64(self, monkeypatch, tmp_path):
        inst = wide_game()
        assert math.prod(map(len, inst.strategies)) > 2 ** 64
        seen = record_lookups(monkeypatch)
        assert_run_matches(inst, None, 600, "auto", 0, tmp_path)
        # Retries guess profiles that earlier windows priced: their wrapped
        # codes find them, and no priced profile is priced again.
        assert seen["known"] > 0
        assert seen["repriced"] == []

    def test_profiles_sharing_one_code(self, monkeypatch, tmp_path):
        real = learning._PricedProfiles.__init__

        def one_code(memo, game, rates):
            real(memo, game, rates)
            memo._multipliers[:] = 0

        monkeypatch.setattr(learning._PricedProfiles, "__init__", one_code)
        seen = record_lookups(monkeypatch)
        inst, taxes = learn_family(4)
        for seed in range(3):
            assert_run_matches(inst, taxes, 2000, "auto", seed, tmp_path)
        # Every profile but one fails the check at the number its code
        # finds, so priced profiles take the tuple path.
        assert seen["repriced"]

    def test_seeds_sharing_one_memo(self, tmp_path):
        inst = wide_game()
        memos = []
        for seed in range(3):
            assert_run_matches(inst, None, 600, "auto", seed, tmp_path)
            memos.append(last_entry().memo)
        assert memos == [memos[0]] * 3

    def test_windows_look_up_priced_profiles_in_numpy(self, monkeypatch):
        # A fall back to a tuple per round would still equal the reference;
        # this checks that windows hand the tuple path only new profiles.
        inst, taxes = learn_family(4)
        seen = record_lookups(monkeypatch)
        spans = count_windows(monkeypatch)
        multiplicative_weights_run(inst, taxes, rounds=5000, seed=0)
        assert spans and seen["known"] > 4000
        assert seen["repriced"] == []


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

    # On this game player 0 has one strategy: a choice of -1 read the
    # previous player's cost column and passed, and 9 raised IndexError.
    @pytest.mark.parametrize("fields", [
        {"distinct_profiles": ((-1, 0, 0),), "index": (0,) * 20},
        {"distinct_profiles": ((9, 0, 0),), "index": (0,) * 20},
        {"distinct_profiles": ((0, 0.5, 0),), "index": (0,) * 20},
        {"distinct_profiles": ((0, 0, 0), (0, 0)), "index": (0, 1) * 10},
        {"distinct_profiles": ((0, 0, 0),), "index": (0,) * 19 + (1,)},
        {"distinct_profiles": ((0, 0, 0),), "index": (-1,) * 20},
        {"distinct_profiles": ((0, 0, 0),), "index": (0.5,) * 20},
        {"distinct_profiles": ((0, 0, 0),), "index": (0,) * 19},
        {"distinct_profiles": ((0, 0, 0),), "index": (0,) * 21},
    ], ids=["negative-choice", "choice-past-strategies", "fractional-choice",
            "short-profile", "index-past-profiles", "negative-index",
            "fractional-index", "short-index", "long-index"])
    def test_rejects_malformed_traces(self, fields):
        inst = random_instance(3, 3, [BasisFunction.monomial(1)], seed=0)
        assert inst.num_strategies(0) == 1
        report = design(inst)
        args = (inst, report.taxes, report.relaxation, report.rho)
        trace = multiplicative_weights_run(inst, report.taxes, rounds=20, seed=0)
        assert coarse_correlated_check(*args, trace).passed
        with pytest.raises(InvalidParams):
            coarse_correlated_check(*args, dataclasses.replace(trace, **fields))

    @pytest.mark.parametrize("rho,slack_factor", [
        (math.inf, 0.05), (math.nan, 0.05), (-1.0, 0.05),
        (1.5, math.nan), (1.5, -1.0),
    ])
    def test_rejects_non_finite_or_negative_rho_and_slack(self, rho, slack_factor):
        # An infinite rho passed with an infinite slack; NaN gave NaN reports.
        inst = random_instance(3, 3, [BasisFunction.monomial(1)], seed=0)
        prof = solve_relaxation(inst)
        taxes = build_tax_profile(inst, prof.loads)
        trace = multiplicative_weights_run(inst, taxes, rounds=20, seed=0)
        with pytest.raises(InvalidParams):
            coarse_correlated_check(inst, taxes, prof, rho, trace,
                                    slack_factor=slack_factor)
