import gc
import itertools
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_oracle as reference
from game_strategies import fractional_profiles, small_games
from reference_kernel import b_real
from tollkit import (Allocation, BasisFunction, GameInstance,
                     GameValidationError, build_tax_profile, player_cost,
                     rosenthal_potential, social_cost)
from tollkit import game as game_module
from tollkit import oracle
from tollkit.forge import random_instance
from tollkit.game import PRICE_WIDTH, CompiledGame, loads_of


def two_by_two_symmetric():
    b = BasisFunction.monomial(1)
    return GameInstance.build([b], [[1.0], [1.0]], [[[0], [1]], [[0], [1]]])


class TestBasisValidation:
    def test_monomial_rejects_negative_degree(self):
        with pytest.raises(GameValidationError):
            BasisFunction.monomial(-0.5)

    def test_table_rejects_nonpositive_values(self):
        with pytest.raises(GameValidationError):
            BasisFunction.table([1.0, 0.0])

    def test_table_rejects_decreasing(self):
        with pytest.raises(GameValidationError):
            BasisFunction.table([2.0, 1.0])

    def test_table_rejects_semi_convexity_violation(self):
        # c = (1, 20, 21): first differences 1, 19, 1 stop increasing.
        with pytest.raises(GameValidationError):
            BasisFunction.table([1.0, 10.0, 7.0])

    @pytest.mark.parametrize("values", [[1e-13, 1e-15], [1e-20, 1e-19, 1e-19]],
                             ids=["falling", "semi-concave"])
    def test_table_slack_scales_with_tiny_values(self, values):
        with pytest.raises(GameValidationError):
            BasisFunction.table(values)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_table_admits_drops_of_rounding_size(self, scale):
        BasisFunction.table([scale, scale * (1.0 - 1e-14)])

    def test_affine_table_extends_exactly(self):
        b = BasisFunction.table([2.0, 3.0])
        assert [b.b(x) for x in range(8)] == [0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]

    def test_single_entry_table_extends_flat(self):
        b = BasisFunction.table([3.0])
        assert b.b(1) == 3.0 and b.b(7) == 3.0

    def test_table_extension_keeps_cost_convex(self):
        b = BasisFunction.table([1.0, 1.5, 2.5])
        c = [b.c(x) for x in range(12)]
        diffs = [c[x + 1] - c[x] for x in range(11)]
        assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(diffs, diffs[1:]))

    def test_real_evaluation_matches_integers(self):
        for b in (BasisFunction.monomial(1.7), BasisFunction.table([1.0, 2.0, 2.5])):
            for x in range(1, 9):
                assert b_real(b, float(x)) == pytest.approx(b.b(x), rel=1e-12)


class TestInstanceValidation:
    def test_bad_strategy_index_reports_position(self):
        with pytest.raises(GameValidationError, match="player 1 strategy 0"):
            GameInstance.build([BasisFunction.monomial(1)], [[1.0]],
                               [[[0]], [[3]]])

    @pytest.mark.parametrize("index", [0.9, 1.0, "1"])
    def test_non_integer_resource_index_rejected(self, index):
        with pytest.raises(GameValidationError, match="integer"):
            GameInstance.build([BasisFunction.monomial(1)], [[1.0], [1.0]],
                               [[[0], [index]]])

    def test_numpy_resource_index_accepted(self):
        import numpy as np
        inst = GameInstance.build([BasisFunction.monomial(1)], [[1.0], [1.0]],
                                  [[[np.int64(1)], [np.int32(0)]]])
        assert inst.strategies == (((1,), (0,)),)

    def test_zero_coefficients_rejected(self):
        with pytest.raises(GameValidationError, match="resource 0"):
            GameInstance.build([BasisFunction.monomial(1)], [[0.0]], [[[0]]])

    def test_duplicate_strategies_rejected(self):
        with pytest.raises(GameValidationError):
            GameInstance.build([BasisFunction.monomial(1)], [[1.0], [1.0]],
                               [[[0, 1], [1, 0]]])

    def test_allocation_index_out_of_range(self):
        inst = two_by_two_symmetric()
        with pytest.raises(GameValidationError, match="player 0"):
            social_cost(inst, Allocation.of([2, 0]))


class TestSocialCost:
    def test_two_players_shared_linear_resource(self):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        assert social_cost(inst, Allocation.of([0, 0])) == 4.0

    def test_two_players_apart(self):
        inst = two_by_two_symmetric()
        assert social_cost(inst, Allocation.of([0, 1])) == 2.0

    def test_three_players_stacked_quadratic(self):
        b = BasisFunction.monomial(2)
        inst = GameInstance.build([b], [[1.0]], [[[0]]] * 3)
        # Oracle: direct evaluation, load 3 on one resource with cost x^2.
        assert social_cost(inst, Allocation.of([0, 0, 0])) == pytest.approx(27.0)

    def test_taxes_never_enter_social_cost(self):
        inst = two_by_two_symmetric()
        taxes = build_tax_profile(inst, [1.0, 1.0])
        a = Allocation.of([0, 0])
        assert social_cost(inst, a) == 4.0
        assert sum(taxes.tau[0]) > 0


class TestPlayerCost:
    def test_untaxed_shared_resource(self):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        a = Allocation.of([0, 0])
        assert player_cost(inst, None, a, 0) == 2.0
        assert player_cost(inst, None, a, 1) == 2.0

    def test_zero_tax_profile_matches_untaxed_exactly(self):
        inst = two_by_two_symmetric()
        taxes = build_tax_profile(inst, [0.0, 0.0])
        for choices in itertools.product(range(2), repeat=2):
            a = Allocation.of(choices)
            for i in range(2):
                assert player_cost(inst, taxes, a, i) == player_cost(inst, None, a, i)

    def test_designed_tax_on_shared_resource(self):
        # f(2, 1) = 3 for the linear generator, so the taxed shared cost is 3.
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        taxes = build_tax_profile(inst, [1.0])
        a = Allocation.of([0, 0])
        assert player_cost(inst, taxes, a, 0) == pytest.approx(3.0, rel=1e-12)

    def test_player_index_out_of_range(self):
        inst = two_by_two_symmetric()
        with pytest.raises(GameValidationError):
            player_cost(inst, None, Allocation.of([0, 1]), 5)

    def test_untaxed_costs_sum_to_social_cost(self):
        inst = random_small_instances(12)
        for instance in inst:
            for choices in itertools.product(
                    *(range(instance.num_strategies(i))
                      for i in range(instance.num_players))):
                a = Allocation.of(choices)
                total = sum(player_cost(instance, None, a, i)
                            for i in range(instance.num_players))
                sc = social_cost(instance, a)
                assert total == pytest.approx(sc, rel=1e-12)


def random_small_instances(count):
    from tollkit import random_instance
    out = []
    for seed in range(count):
        basis = [BasisFunction.monomial(seed % 3)]
        out.append(random_instance(2 + seed % 3, 2 + seed % 2, basis,
                                   strategy_count_range=(1, 3),
                                   strategy_size_range=(1, 2), seed=seed))
    return out


class TestRosenthalPotential:
    def test_unused_resources_contribute_nothing(self):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0], [5.0]], [[[0], [1]]])
        assert rosenthal_potential(inst, None, Allocation.of([0])) == 1.0

    def test_split_profile(self):
        inst = two_by_two_symmetric()
        assert rosenthal_potential(inst, None, Allocation.of([0, 1])) == 2.0

    def test_shared_linear_resource(self):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        assert rosenthal_potential(inst, None, Allocation.of([0, 0])) == 3.0

    @pytest.mark.parametrize("taxed", [False, True])
    def test_unilateral_deviation_matches_cost_change(self, taxed):
        for instance in random_small_instances(10):
            taxes = (build_tax_profile(instance, [0.7] * instance.num_resources)
                     if taxed else None)
            profiles = list(itertools.product(
                *(range(instance.num_strategies(i))
                  for i in range(instance.num_players))))
            for choices in profiles:
                a = Allocation.of(choices)
                phi_a = rosenthal_potential(instance, taxes, a)
                for i in range(instance.num_players):
                    for alt in range(instance.num_strategies(i)):
                        if alt == choices[i]:
                            continue
                        moved = list(choices)
                        moved[i] = alt
                        a2 = Allocation.of(moved)
                        lhs = rosenthal_potential(instance, taxes, a2) - phi_a
                        rhs = (player_cost(instance, taxes, a2, i)
                               - player_cost(instance, taxes, a, i))
                        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestAgainstScalarReference:
    """``CompiledGame.price``, ``price_many`` on lists of profiles that fill
    its chunks partly, exactly or past one, and the public cost helpers
    built on them equal the scalar reference pricing exactly."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_profile(self, data):
        inst = data.draw(small_games())
        taxes = (build_tax_profile(inst, data.draw(fractional_profiles(inst)).loads)
                 if data.draw(st.booleans()) else None)
        choices = tuple(data.draw(st.integers(0, inst.num_strategies(i) - 1))
                        for i in range(inst.num_players))
        a = Allocation(choices)
        loads = loads_of(inst, choices)
        tables = reference.perceived_tables(inst, taxes)
        moves = reference.deviation_moves(inst)

        sc, costs = CompiledGame(inst, taxes).price(choices)
        assert sc == reference.system_cost(reference.system_cost_tables(inst), loads)
        assert costs == [[reference.move_cost(tables, loads, move)
                          for move in moves[i][k]]
                         for i, k in enumerate(choices)]
        assert social_cost(inst, a) == reference.social_cost(inst, a)
        assert (rosenthal_potential(inst, taxes, a)
                == reference.rosenthal_potential(inst, taxes, a))
        for i in range(inst.num_players):
            assert (player_cost(inst, taxes, a, i)
                    == reference.player_cost(inst, taxes, a, i))

        count = data.draw(st.sampled_from(
            [1, PRICE_WIDTH - 1, PRICE_WIDTH, PRICE_WIDTH + 1, 2 * PRICE_WIDTH + 3]))
        profile = st.tuples(*(st.integers(0, s - 1) for s in map(len, inst.strategies)))
        profiles = data.draw(st.lists(profile, min_size=count, max_size=count))
        social, costs = CompiledGame(inst, taxes).price_many(np.array(profiles).T)
        sc_tables = reference.system_cost_tables(inst)
        want_social, want_costs = [], []
        for choices in profiles:
            loads = loads_of(inst, choices)
            want_social.append(reference.system_cost(sc_tables, loads))
            want_costs.append([reference.move_cost(tables, loads, move)
                               for i, k in enumerate(choices) for move in moves[i][k]])
        assert (social.tolist(), costs.tolist()) == (want_social, want_costs)


class TestCompileOnce:
    def test_the_batch_layout_comes_with_the_first_batch(self):
        # Exhaustive sweeps read the cost tables alone, so a game that is
        # only swept never builds the strategy-cost layout of price_many.
        inst = GameInstance.build([BasisFunction.monomial(2)], [[1.0], [0.5]],
                                  [[[0], [1]], [[0, 1], [1]], [[0]]])
        game = CompiledGame(inst)
        poa = oracle._sweep(game, 4)[0]
        assert game._entries is None
        assert game.price(poa.min_witness.choices)[0] == poa.min_cost
        assert game._entries is not None

    def test_helpers_compile_each_game_once(self):
        inst = GameInstance.build([BasisFunction.monomial(2)], [[1.0], [0.5]],
                                  [[[0], [1]], [[0, 1], [1]], [[0]]])
        taxes = build_tax_profile(inst, [1.5, 1.5])
        compiled = []
        init = CompiledGame.__init__

        def counting(game, *args):
            compiled.append(args)
            init(game, *args)

        game_module._compiled.cache_clear()
        with mock.patch.object(CompiledGame, "__init__", counting):
            for choices in itertools.product(range(2), range(2), range(1)):
                a = Allocation(choices)
                assert social_cost(inst, a) == reference.social_cost(inst, a)
                for t in (None, taxes):
                    assert (rosenthal_potential(inst, t, a)
                            == reference.rosenthal_potential(inst, t, a))
                    assert (player_cost(inst, t, a, 1)
                            == reference.player_cost(inst, t, a, 1))
        assert compiled == [(inst, None), (inst, taxes)]

    @pytest.mark.parametrize("count", [1, PRICE_WIDTH, PRICE_WIDTH + 1])
    def test_game_that_priced_a_profile_dies_without_the_collector(self, count):
        # Pricing keeps nothing that points back at the game, so a game
        # nobody holds is freed at once, not by the cyclic collector.
        game = CompiledGame(two_by_two_symmetric())
        game.price([0, 1])
        game.price_many(np.zeros((2, count), dtype=np.intp))
        dead = weakref.ref(game)
        gc.disable()
        try:
            del game
            assert dead() is None
        finally:
            gc.enable()

    def test_threads_sharing_an_unpriced_game_price_alike(self):
        # The first calls on a shared game build its strategy-cost layout
        # concurrently; every thread still gets the single-thread prices.
        inst = random_instance(8, 6, [BasisFunction.monomial(1)],
                               strategy_count_range=(3, 3),
                               strategy_size_range=(1, 3), seed=0)
        profiles = np.array(list(itertools.product(range(3), repeat=8))).T
        want = [prices.tolist() for prices in CompiledGame(inst).price_many(profiles)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                game = CompiledGame(inst)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    calls = [pool.submit(game.price_many, profiles) for _ in range(4)]
                    got = [[prices.tolist() for prices in call.result(timeout=60)]
                           for call in calls]
                assert got == [want] * 4
        finally:
            sys.setswitchinterval(interval)


class TestJson:
    def test_instance_round_trip(self):
        inst = two_by_two_symmetric()
        assert GameInstance.from_json(inst.to_json()) == inst

    def test_table_basis_round_trip(self):
        b = BasisFunction.table([2.0, 3.0])
        assert BasisFunction.from_json(b.to_json()) == b

    def test_tax_profile_round_trip(self):
        inst = two_by_two_symmetric()
        taxes = build_tax_profile(inst, [1.0, 0.5])
        from tollkit import TaxProfile
        assert TaxProfile.from_json(taxes.to_json()) == taxes

    def test_instance_file_round_trip(self, tmp_path):
        inst = two_by_two_symmetric()
        path = tmp_path / "instance.json"
        inst.save(path)
        assert GameInstance.load(path) == inst
