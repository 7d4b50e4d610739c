import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_oracle as reference
from game_strategies import fractional_profiles, parallel_links, small_games
from tollkit import (Allocation, BasisFunction, FractionalProfile,
                     GameInstance, InvalidParams, PoaReport, TooLarge, bell_fractional,
                     brute_force_min_sc, build_tax_profile, check_smoothness,
                     coarse_correlated_check, empirical_poa,
                     enumerate_pure_nash, learning, multiplicative_weights_run,
                     oracle, random_instance, solve_relaxation)
from tollkit import game as game_module
from tollkit.game import CompiledGame


def two_by_two_symmetric():
    b = BasisFunction.monomial(1)
    return GameInstance.build([b], [[1.0], [1.0]], [[[0], [1]], [[0], [1]]])


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


class TestBruteForceMinSc:
    def test_symmetric_split(self):
        inst = two_by_two_symmetric()
        witness, cost = brute_force_min_sc(inst)
        assert cost == 2.0
        assert sorted(witness.choices) == [0, 1]

    def test_single_strategy_players(self):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        witness, cost = brute_force_min_sc(inst)
        assert witness.choices == (0, 0)
        assert cost == 4.0

    def test_witness_cost_matches_social_cost(self):
        for inst, _ in seeded_instances(20):
            witness, cost = brute_force_min_sc(inst)
            assert cost == reference.social_cost(inst, witness)

    def test_exhaustive_oracle_agreement(self):
        for inst, _ in seeded_instances(10):
            _, cost = brute_force_min_sc(inst)
            best = min(
                reference.social_cost(inst, Allocation.of(choices))
                for choices in itertools.product(
                    *(range(inst.num_strategies(i))
                      for i in range(inst.num_players))))
            assert cost == best

    def test_ties_break_lexicographically(self):
        inst = two_by_two_symmetric()
        witness, _ = brute_force_min_sc(inst)
        assert witness.choices == (0, 1)

    def test_too_large_raises(self):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0], [1.0]],
                                  [[[0], [1]]] * 10)
        with pytest.raises(TooLarge):
            brute_force_min_sc(inst, cap=100)


class TestEnumeratePureNash:
    def test_single_strategy_profile_is_ne(self):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        nes = enumerate_pure_nash(inst)
        assert [ne.choices for ne in nes] == [(0, 0)]

    def test_symmetric_untaxed_equilibria_are_splits(self):
        inst = two_by_two_symmetric()
        nes = enumerate_pure_nash(inst)
        assert sorted(ne.choices for ne in nes) == [(0, 1), (1, 0)]

    def test_nonempty_on_random_instances(self):
        for inst, _ in seeded_instances(25):
            assert enumerate_pure_nash(inst)

    def test_taxed_equilibria_under_designed_taxes(self):
        inst = two_by_two_symmetric()
        taxes = build_tax_profile(inst, [1.0, 1.0])
        nes = enumerate_pure_nash(inst, taxes)
        assert sorted(ne.choices for ne in nes) == [(0, 1), (1, 0)]

    def test_definition_against_player_cost(self):
        for inst, _ in seeded_instances(8):
            taxes = build_tax_profile(inst, [0.5] * inst.num_resources)
            nes = {ne.choices for ne in enumerate_pure_nash(inst, taxes)}
            for choices in itertools.product(
                    *(range(inst.num_strategies(i))
                      for i in range(inst.num_players))):
                a = Allocation.of(choices)
                is_ne = True
                for i in range(inst.num_players):
                    cur = reference.player_cost(inst, taxes, a, i)
                    for alt in range(inst.num_strategies(i)):
                        if alt == choices[i]:
                            continue
                        moved = list(choices)
                        moved[i] = alt
                        dev = reference.player_cost(inst, taxes,
                                                    Allocation.of(moved), i)
                        if dev < cur - 1e-12 * max(1.0, abs(cur)):
                            is_ne = False
                assert (choices in nes) == is_ne

    def test_invariant_under_uniform_scaling(self):
        for inst, _ in seeded_instances(10):
            scaled = GameInstance.build(
                list(inst.basis),
                [[3.7 * a for a in coeffs] for coeffs in inst.coefficients],
                [[list(s) for s in player] for player in inst.strategies])
            original = [ne.choices for ne in enumerate_pure_nash(inst)]
            assert original == [ne.choices for ne in enumerate_pure_nash(scaled)]


class TestEmpiricalPoa:
    def test_symmetric_instance_poa_one(self):
        report = empirical_poa(two_by_two_symmetric())
        assert report.poa == 1.0
        assert report.num_pure_ne == 2
        assert report.enumerated_profiles == 4

    def test_all_ne_optimal_gives_one(self):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        assert empirical_poa(inst).poa == 1.0

    def test_untaxed_poa_can_exceed_one(self):
        # Two players, cheap shared resource versus private ones priced just
        # above the shared congested cost: stacking is an equilibrium
        # (deviating costs 2.1 > 2) but the optimum mixes shared and private.
        b = BasisFunction.monomial(1)
        inst = GameInstance.build(
            [b], [[1.0], [2.1], [2.1]], [[[0], [1]], [[0], [2]]])
        report = empirical_poa(inst)
        assert report.min_cost == pytest.approx(3.1)
        assert report.poa == pytest.approx(4.0 / 3.1)
        assert report.worst_ne_cost == reference.social_cost(
            inst, report.worst_ne_witness)

    @pytest.mark.parametrize("seed", range(20))
    def test_designed_taxes_meet_factor_bound(self, seed):
        inst, d = seeded_instances(seed + 1)[-1]
        rho = bell_fractional(d)
        prof = solve_relaxation(inst, tol_gap=1e-8, max_iters=20000)
        taxes = build_tax_profile(inst, prof.loads)
        report = empirical_poa(inst, taxes)
        assert report.poa <= rho + 1e-3

    def test_report_round_trip(self):
        report = empirical_poa(two_by_two_symmetric())
        assert PoaReport.from_json(report.to_json()) == report


class TestCheckSmoothness:
    def test_degenerate_single_resource(self):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]]])
        prof = solve_relaxation(inst)
        taxes = build_tax_profile(inst, prof.loads)
        result = check_smoothness(inst, taxes, prof, rho=1.0)
        assert result.passed
        assert result.worst_margin >= -1e-9

    def test_symmetric_instance_all_profiles(self):
        inst = two_by_two_symmetric()
        prof = solve_relaxation(inst, tol_gap=1e-10)
        taxes = build_tax_profile(inst, prof.loads)
        result = check_smoothness(inst, taxes, prof, rho=2.0)
        assert result.passed

    @pytest.mark.parametrize("seed", range(40))
    def test_holds_on_random_instances(self, seed):
        inst, d = seeded_instances(seed + 1)[-1]
        rho = bell_fractional(d)
        prof = solve_relaxation(inst, tol_gap=1e-8, max_iters=20000)
        taxes = build_tax_profile(inst, prof.loads)
        result = check_smoothness(inst, taxes, prof, rho)
        assert result.passed

    @pytest.mark.parametrize("seed", range(12))
    def test_certificate_bounds_every_equilibrium(self, seed):
        inst, d = seeded_instances(seed + 1)[-1]
        rho = bell_fractional(d)
        prof = solve_relaxation(inst, tol_gap=1e-8, max_iters=20000)
        taxes = build_tax_profile(inst, prof.loads)
        result = check_smoothness(inst, taxes, prof, rho)
        assert result.passed
        _, min_cost = brute_force_min_sc(inst)
        for ne in enumerate_pure_nash(inst, taxes):
            assert reference.social_cost(inst, ne) <= rho * min_cost + 1e-6

    def test_fails_with_rho_below_one_on_congested_instance(self):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        prof = solve_relaxation(inst)
        taxes = build_tax_profile(inst, prof.loads)
        result = check_smoothness(inst, taxes, prof, rho=0.1)
        assert not result.passed

    @pytest.mark.parametrize("rho,tol", [
        (math.nan, 1e-7), (math.inf, 1e-7), (-1.0, 1e-7),
        (0.1, math.nan), (0.1, math.inf), (0.1, -1e-7),
    ])
    def test_rejects_non_finite_or_negative_rho_and_tol(self, rho, tol):
        # The certificate fails at rho = 0.1; a NaN rho or tol passed it.
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        prof = solve_relaxation(inst)
        taxes = build_tax_profile(inst, prof.loads)
        with pytest.raises(InvalidParams):
            check_smoothness(inst, taxes, prof, rho, tol=tol)


class TestAgainstScalarReference:
    """The sweeps equal the profile-by-profile loops exactly, at the
    production chunk size and at chunk sizes that split small games."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_oracle_output_matches(self, data):
        inst = data.draw(small_games())
        profile = data.draw(fractional_profiles(inst))
        taxes = (build_tax_profile(inst, profile.loads)
                 if data.draw(st.booleans()) else None)
        rho = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 5.0]))
        chunk = data.draw(st.sampled_from([oracle.CHUNK_PROFILES, 1, 3, 7]))
        trace = multiplicative_weights_run(inst, taxes, rounds=40,
                                           seed=data.draw(st.integers(0, 9)))

        want = (reference.brute_force_min_sc(inst),
                reference.enumerate_pure_nash(inst, taxes),
                reference.empirical_poa(inst, taxes).to_json(),
                reference.check_smoothness(inst, taxes, profile, rho).to_json(),
                reference.coarse_correlated_check(inst, taxes, profile, rho,
                                                  trace).to_json())
        with mock.patch.object(oracle, "CHUNK_PROFILES", chunk):
            got = (brute_force_min_sc(inst),
                   enumerate_pure_nash(inst, taxes),
                   empirical_poa(inst, taxes).to_json(),
                   check_smoothness(inst, taxes, profile, rho).to_json(),
                   coarse_correlated_check(inst, taxes, profile, rho,
                                           trace).to_json())
        assert got == want


class TestChunkBoundaries:
    """9 players on 3 identical links: 19,683 profiles over many chunks, with
    every optimum, every equilibrium and every worst margin tied with
    profiles in later chunks."""

    @pytest.fixture(autouse=True)
    def narrow_chunks(self):
        # 256 profiles a chunk, so the first balanced profile (index 377)
        # lies past the first chunk, which a chunk of 1024 would hold.
        with mock.patch.object(oracle, "CHUNK_PROFILES", 256):
            yield

    def setup_method(self):
        self.inst = parallel_links(9, 3)
        self.size = 3 ** 9
        assert self.size > 4 * oracle.CHUNK_PROFILES

    def test_min_and_worst_equilibrium_are_first_in_order(self):
        report = empirical_poa(self.inst)
        balanced = (0, 0, 0, 1, 1, 1, 2, 2, 2)
        assert report.min_witness.choices == balanced
        assert report.worst_ne_witness.choices == balanced
        # The first balanced profile sits past the first chunk.
        assert int("".join(map(str, balanced)), 3) >= oracle.CHUNK_PROFILES
        assert report.to_json() == reference.empirical_poa(self.inst).to_json()
        assert report.num_pure_ne == math.factorial(9) // math.factorial(3) ** 3
        assert brute_force_min_sc(self.inst) == reference.brute_force_min_sc(self.inst)

    def test_worst_margin_is_first_in_order(self):
        profile = FractionalProfile(weights=((1 / 3,) * 3,) * 9, loads=(3.0,) * 3,
                                    objective=0.0, gap=0.0, iters=0)
        taxes = build_tax_profile(self.inst, profile.loads)
        result = check_smoothness(self.inst, taxes, profile, rho=1.0)
        want = reference.check_smoothness(self.inst, taxes, profile, rho=1.0)
        assert result.to_json() == want.to_json()
        # Relabelling the links gives the same margin to a profile in a
        # later chunk; the first one must win.
        lhs = reference.smoothness_lhs(self.inst, taxes, profile)
        _, min_cost = brute_force_min_sc(self.inst)

        def margin_and_chunk(choices):
            loads = [choices.count(r) for r in range(3)]
            sc = float(sum(x * x for x in loads))
            index = int("".join(map(str, choices)), 3)
            return lhs(choices, loads) - (sc - min_cost), index // oracle.CHUNK_PROFILES

        first = result.witness.choices
        later = tuple((k + 1) % 3 for k in first)
        assert later > first
        (m_first, c_first), (m_later, c_later) = map(margin_and_chunk, (first, later))
        assert m_first == m_later == result.worst_margin
        assert c_later > c_first

    def test_equilibria_span_chunks_in_order(self):
        got = [ne.choices for ne in enumerate_pure_nash(self.inst)]
        assert got == [ne.choices for ne in reference.enumerate_pure_nash(self.inst)]
        assert got == sorted(got)
        assert got[-1] == (2, 2, 2, 1, 1, 1, 0, 0, 0)


def oracle_outputs(inst):
    """Every exhaustive oracle output of ``inst`` under its designed taxes."""
    prof = solve_relaxation(inst, tol_gap=1e-8, max_iters=20000)
    taxes = build_tax_profile(inst, prof.loads)
    return (brute_force_min_sc(inst),
            enumerate_pure_nash(inst, taxes),
            empirical_poa(inst, taxes).to_json(),
            check_smoothness(inst, taxes, prof, rho=1.5).to_json())


class TestReusedBuffers:
    """Sweeps price their chunks in per-thread buffers that outlive them:
    the memory is reused, and no sweep reads what an earlier one left."""

    def test_batches_and_sweeps_share_memory(self):
        def addresses(batch):
            return [a.__array_interface__["data"][0]
                    for a in (batch.rows, batch.loads, batch.social)]

        width = oracle.CHUNK_PROFILES
        wide = addresses(CompiledGame(parallel_links(8, 3)).batch(width))
        # Another layout, and a batch after whole sweeps of other games.
        narrow = parallel_links(7, 2)
        assert addresses(CompiledGame(narrow).batch(width)) == wide
        empirical_poa(narrow)
        empirical_poa(parallel_links(6, 3))
        assert addresses(CompiledGame(narrow).batch(width)) == wide

    def test_outputs_do_not_depend_on_earlier_sweeps(self):
        small = [inst for inst, _ in seeded_instances(6)]
        before = [oracle_outputs(inst) for inst in small]
        # A larger game grows every buffer; the small games then run in
        # memory that held its chunks.
        empirical_poa(parallel_links(9, 3))
        assert [oracle_outputs(inst) for inst in reversed(small)] == before[::-1]

    def test_threads_sweep_independently(self):
        games = [parallel_links(8, 3)] + [inst for inst, _ in seeded_instances(5)]
        want = [oracle_outputs(inst) for inst in games]
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(oracle_outputs, games + games))
        assert got == want + want

    def test_threads_sharing_a_compiled_game_get_their_own_batches(self):
        game = CompiledGame(parallel_links(8, 3))
        width = oracle.CHUNK_PROFILES
        with ThreadPoolExecutor(max_workers=1) as pool:
            other = pool.submit(game.batch, width).result()
        assert game.batch(width) is game.batch(width)
        assert not np.shares_memory(game.batch(width).rows, other.rows)


def strategy_counts(radices):
    """One player per entry of ``radices``, choosing one of that many
    identical links."""
    b = BasisFunction.monomial(1)
    return GameInstance.build([b], [[1.0]] * max(radices),
                              [[[r] for r in range(k)] for k in radices])


class TestEnumerate:
    """``ProfileBatch.enumerate`` slices and fills the rows that dividing
    each profile index gives, at every chunk start, with its table and
    without it."""

    @pytest.mark.parametrize("table_limit", [1 << 16, -1])
    @settings(max_examples=60, deadline=None)
    @given(radices=st.lists(st.integers(1, 5), min_size=1, max_size=6),
           width=st.sampled_from([1, 2, 3, 7, 64, 256]))
    def test_rows_follow_product_order(self, table_limit, radices, width):
        with mock.patch.object(game_module, "_ENUMERATION_TABLE_LIMIT", table_limit):
            game = CompiledGame(strategy_counts(radices))
            batch = game.batch(width)
        profiles = list(itertools.product(*map(range, radices)))
        for start in range(0, len(profiles) - width + 1, max(1, width // 2)):
            batch.enumerate(start)
            rows = (batch.rows - game.offsets[:, None]).T.tolist()
            assert rows == [list(p) for p in profiles[start:start + width]]

    def test_many_strategies_past_the_chunk(self):
        radices = [2, 300, 3]
        game = CompiledGame(strategy_counts(radices))
        batch = game.batch(oracle.CHUNK_PROFILES)
        profiles = list(itertools.product(*map(range, radices)))
        for start in range(0, len(profiles) - batch.width + 1, 97):
            batch.enumerate(start)
            assert ((batch.rows - game.offsets[:, None]).T.tolist()
                    == [list(p) for p in profiles[start:start + batch.width]])

    def test_oracle_outputs_without_a_table(self):
        inst = parallel_links(6, 3)
        with mock.patch.object(game_module, "_ENUMERATION_TABLE_LIMIT", -1):
            got = (brute_force_min_sc(inst), empirical_poa(inst).to_json(),
                   enumerate_pure_nash(inst))
        assert got == (reference.brute_force_min_sc(inst),
                       reference.empirical_poa(inst).to_json(),
                       reference.enumerate_pure_nash(inst))
