import itertools
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
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
from tollkit.game import CompiledGame, loads_of
from tollkit.relaxation import fractional_loads


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
    """The sweeps and the coarse correlated check equal the
    profile-by-profile loops exactly, at the production block size and at
    sizes that split small games."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_oracle_output_matches(self, data):
        inst = data.draw(small_games())
        profile = data.draw(fractional_profiles(inst))
        taxes = (build_tax_profile(inst, profile.loads)
                 if data.draw(st.booleans()) else None)
        rho = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 5.0]))
        # A limit of 1 leaves only the last player trailing.
        block = data.draw(st.sampled_from([oracle.BLOCK_PROFILES, 1, 3, 7]))
        trace = multiplicative_weights_run(inst, taxes, rounds=40,
                                           seed=data.draw(st.integers(0, 9)))

        want = (reference.brute_force_min_sc(inst),
                reference.enumerate_pure_nash(inst, taxes),
                reference.empirical_poa(inst, taxes).to_json(),
                reference.check_smoothness(inst, taxes, profile, rho).to_json(),
                reference.coarse_correlated_check(inst, taxes, profile, rho,
                                                  trace).to_json())
        with mock.patch.object(oracle, "BLOCK_PROFILES", block):
            got = (brute_force_min_sc(inst),
                   enumerate_pure_nash(inst, taxes),
                   empirical_poa(inst, taxes).to_json(),
                   check_smoothness(inst, taxes, profile, rho).to_json(),
                   coarse_correlated_check(inst, taxes, profile, rho,
                                           trace).to_json())
        assert got == want


def exact_margins(inst, taxes, profile, rho, tol):
    """Per profile, in product order, from the float tables, weights,
    ``rho`` and ``tol`` read as exact rationals: the margin ``(lhs(a) -
    SC(a)) + rho * SC(a_opt)``, the floor term ``tol * max(1, SC(a))``,
    and the magnitude of every term the float margin and floor sum."""
    tables = [[Fraction(c) for c in row]
              for row in reference.perceived_tables(inst, taxes)]
    sc_tables = [[Fraction(c) for c in row]
                 for row in reference.system_cost_tables(inst)]
    supports = [[(k, Fraction(w)) for k, w in enumerate(row) if w]
                for row in profile.weights]
    profiles = [(choices, loads_of(inst, choices))
                for choices in reference.iter_profiles(inst)]
    costs = [sum(sc_tables[r][x] for r, x in enumerate(loads))
             for _, loads in profiles]
    bound = Fraction(rho) * min(costs)
    out = []
    for (choices, loads), sc in zip(profiles, costs):
        lhs = size = 0
        for i, k in enumerate(choices):
            strategies = inst.strategies[i]
            own = set(strategies[k])

            def cost(alt):
                terms = [tables[r][loads[r] + (r not in own)] for r in strategies[alt]]
                return sum(terms), sum(map(abs, terms))

            played, played_size = cost(k)
            lhs += played
            size += played_size
            for alt, w in supports[i]:
                alt_cost, alt_size = cost(alt)
                lhs -= w * alt_cost
                size += w * alt_size
        floor = Fraction(tol) * max(1, sc)
        out.append((lhs - sc + bound, floor, size + sc + bound + floor))
    return out


class TestExactMargins:
    """``check_smoothness`` against the certificate in exact arithmetic.

    A margin sums 2n + 1 costs, n players' played costs, their n mixed
    costs ``sum_k y_ik * Cbar_i(k, a_-i)`` and ``SC(a)``, and the bound
    ``rho * SC(a_opt)``; the floor adds ``tol * max(1, SC(a))``. Each term
    of those sums, a table entry, a weight times a table entry, or ``rho``
    or ``tol`` times a social cost, passes through at most D = n + 10
    roundings: 3 in a strategy's sum of at most 4 entries, 1 weighting it,
    3 in a mixed cost of at most 4 strategies, 1 in the player's net cost,
    n - 1 in the sum over players, 1 for the excess ``lhs - SC``, 1 for the
    floor and 1 for the bound. ``SC(a)`` sums at most 6 entries, and both
    ``SC(a_opt)`` and ``max(1, SC(a))`` are within a relative 5 roundings
    of their exact values, so their terms take fewer. Every float margin
    or floor then lies within ``gamma_D * A(a)`` of the exact one, where
    ``gamma_D = D * u / (1 - D * u)``, ``u = 2^-53`` and ``A(a)`` sums the
    magnitudes of its terms (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.1). With ``E = gamma_D * max_a A(a)``:
    ``worst_margin`` is the least float margin, so it lies within ``E`` of
    the exact least margin; its witness's exact margin lies within ``2E``
    of it; and ``passed`` is the exact decision wherever the exact worst
    slack, margin plus floor term, lies farther than ``E`` from 0."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_margins_are_within_rounding_of_exact(self, data):
        inst = data.draw(small_games())
        profile = data.draw(fractional_profiles(inst))
        taxes = (build_tax_profile(inst, profile.loads)
                 if data.draw(st.booleans()) else None)
        rho = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 5.0]))
        tol = data.draw(st.sampled_from([0.0, 1e-7, 0.1, 1.0]))
        result = check_smoothness(inst, taxes, profile, rho, tol=tol)

        exact = exact_margins(inst, taxes, profile, rho, tol)
        depth = inst.num_players + 10
        error = Fraction(depth, 2 ** 53 - depth) * max(size for *_, size in exact)
        least = min(margin for margin, *_ in exact)
        assert abs(Fraction(result.worst_margin) - least) <= error
        index = int(np.ravel_multi_index(result.witness.choices,
                                         tuple(map(len, inst.strategies))))
        assert exact[index][0] - least <= 2 * error
        slack = min(margin + floor for margin, floor, _ in exact)
        if abs(slack) > error:
            assert result.passed == (slack >= 0)


class TestChunkBoundaries:
    """9 players on 3 identical links: 19,683 profiles over many blocks,
    with every optimum, every equilibrium and every worst margin tied with
    profiles in later blocks."""

    @pytest.fixture(autouse=True)
    def narrow_blocks(self):
        # Blocks of 3^5 = 243 profiles, the last five players trailing, so
        # the first balanced profile (index 377) lies past the first block,
        # which a block of all 19,683 would hold.
        with mock.patch.object(oracle, "BLOCK_PROFILES", 256):
            assert oracle._Blocks(CompiledGame(self.inst)).width == self.width
            yield

    def setup_method(self):
        self.inst = parallel_links(9, 3)
        self.width = 3 ** 5

    def test_min_and_worst_equilibrium_are_first_in_order(self):
        report = empirical_poa(self.inst)
        balanced = (0, 0, 0, 1, 1, 1, 2, 2, 2)
        assert report.min_witness.choices == balanced
        assert report.worst_ne_witness.choices == balanced
        # The first balanced profile sits past the first block.
        assert int("".join(map(str, balanced)), 3) >= self.width
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
        # later block; the first one must win.
        lhs = reference.smoothness_lhs(self.inst, taxes, profile)
        _, min_cost = brute_force_min_sc(self.inst)

        def margin_and_block(choices):
            loads = [choices.count(r) for r in range(3)]
            sc = float(sum(x * x for x in loads))
            index = int("".join(map(str, choices)), 3)
            return (lhs(choices, loads) - sc) + min_cost, index // self.width

        first = result.witness.choices
        later = tuple((k + 1) % 3 for k in first)
        assert later > first
        (m_first, b_first), (m_later, b_later) = map(margin_and_block, (first, later))
        assert m_first == m_later == result.worst_margin
        assert b_later > b_first

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
    """Sweeps price their blocks in per-thread buffers that outlive them:
    the memory is reused, and no sweep reads what an earlier one left."""

    def test_sweeps_share_memory(self):
        def blocks(inst):
            blocks = oracle._Blocks(CompiledGame(inst))
            return [a.__array_interface__["data"][0]
                    for a in (blocks.table, blocks._system, blocks._social)]

        wide = blocks(parallel_links(8, 3))
        # Another layout, and a block after whole sweeps of other games.
        narrow = parallel_links(7, 2)
        assert blocks(narrow) == wide
        empirical_poa(narrow)
        empirical_poa(parallel_links(6, 3))
        assert blocks(narrow) == wide

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


class TestSweepMemory:
    """``poa_and_smoothness`` sweeps in block memory at every size: its
    peak does not grow with the number of profiles. Both games have 10
    players on 12 links and, at a block limit of 3^6, blocks of 3^6
    profiles with leading players of at most 3 strategies, so their block
    arrays have the same shapes."""

    many = [3] * 10                          # 59,049 profiles, 81 blocks
    few = [3, 1, 1, 1] + [3] * 6             # 2,187 profiles, 3 blocks
    block = 3 ** 6

    @classmethod
    def peak(cls, radices):
        """Peak traced bytes of one call, in a thread with no buffers yet."""
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]] * 12,
                                  [[[r] for r in range(k)] for k in radices])
        weights = tuple((1 / k,) * k for k in radices)
        prof = FractionalProfile(weights=weights,
                                 loads=tuple(fractional_loads(inst, weights)),
                                 objective=0.0, gap=0.0, iters=0)
        taxes = build_tax_profile(inst, prof.loads)

        def call():
            tracemalloc.start()
            try:
                with mock.patch.object(oracle, "BLOCK_PROFILES", cls.block):
                    oracle.poa_and_smoothness(inst, taxes, prof, rho=1.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(call).result()

    def test_memory_does_not_grow_with_the_profiles(self):
        many, few = self.peak(self.many), self.peak(self.few)
        assert abs(many - few) < 16 * 1024
        # The block bound of the module docstring, 12 resources and R = 3,
        # with 256 KiB for the compiled game, the tax tables and numpy's
        # iteration buffers.
        bound = self.block * (32 * 12 + 16 * 3 + 60) + 256 * 1024
        assert many <= bound and few <= bound


def games_of(radices, resources):
    """Games with the given strategy counts: each strategy a distinct
    nonempty subset of ``resources`` resources."""
    subsets = st.frozensets(st.integers(0, resources - 1), min_size=1)
    players = [st.lists(subsets, min_size=k, max_size=k, unique=True)
               for k in radices]
    b = BasisFunction.monomial(1)
    return st.tuples(*players).map(lambda strategies: GameInstance.build(
        [b], [[1.0]] * resources, strategies))


def strategy_counts(radices):
    """One player per entry of ``radices``, choosing one of that many
    identical links."""
    b = BasisFunction.monomial(1)
    return GameInstance.build([b], [[1.0]] * max(radices),
                              [[[r] for r in range(k)] for k in radices])


def assert_blocks_follow_product_order(inst):
    """The trailing players' load table and every block's loads, read as
    ``r * (n + 1) + load_r``, are ``loads_of`` of the profiles they stand
    for, in ``itertools.product`` order."""
    game = CompiledGame(inst)
    base = np.arange(inst.num_resources)[:, None] * (inst.num_players + 1)
    profiles = list(itertools.product(*map(range, game.radices)))
    blocks = oracle._Blocks(game)
    starts = []
    for start in blocks:
        starts.append(start)
        got = (blocks.at - base).T.tolist()
        assert got == [loads_of(inst, p) for p in profiles[start:start + blocks.width]]
    assert starts == list(range(0, len(profiles), blocks.width))
    table = (oracle._load_table(game, 0) - base).T.tolist()
    assert table == [loads_of(inst, p) for p in profiles]


class TestEnumerate:
    """Sweeps visit the profile tensor in ``itertools.product`` order,
    block by block, with every player leading but the last or with every
    player trailing."""

    @pytest.mark.parametrize("block_limit", [1 << 16, -1])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(),
           radices=st.lists(st.integers(1, 4), min_size=1, max_size=5))
    def test_rows_follow_product_order(self, block_limit, data, radices):
        inst = data.draw(games_of(radices, data.draw(st.integers(4, 6))))
        with mock.patch.object(oracle, "BLOCK_PROFILES", block_limit):
            assert_blocks_follow_product_order(inst)

    def test_many_strategies_past_the_chunk(self):
        # A player with more strategies than a block holds profiles leads,
        # or, last, makes a block of its own.
        for radices, width in (([2, 40, 3], 3), ([2, 3, 40], 40)):
            inst = strategy_counts(radices)
            with mock.patch.object(oracle, "BLOCK_PROFILES", 16):
                assert oracle._Blocks(CompiledGame(inst)).width == width
                assert_blocks_follow_product_order(inst)
                got = (brute_force_min_sc(inst), empirical_poa(inst).to_json(),
                       enumerate_pure_nash(inst))
            assert got == (reference.brute_force_min_sc(inst),
                           reference.empirical_poa(inst).to_json(),
                           reference.enumerate_pure_nash(inst))
