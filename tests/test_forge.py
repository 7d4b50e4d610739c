import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_forge as reference
from game_strategies import basis_functions
from tollkit import (Allocation, BasisFunction, ConstructionFailed,
                     InfeasibleParams, InvalidParams,
                     LabelCoverInstance, PartitioningSystem,
                     binomial_expectation, build_partitioning_system,
                     random_instance, reduce_label_cover, social_cost,
                     transversal_cost)
from tollkit import forge
from tollkit.game import seeded_rng

LINEAR = BasisFunction.monomial(1)  # cost c(x) = x^2


@st.composite
def shapes(draw):
    """``(n, beta, h, k)`` with ``beta >= h >= k >= 1`` and ``k*n/h``
    integral."""
    h = draw(st.integers(1, 4))
    k = draw(st.integers(1, h))
    beta = draw(st.integers(h, h + 2))
    n = h // math.gcd(k, h) * draw(st.integers(1, 12))
    return n, beta, h, k


def draw_blocks(n, beta, h, k, seed):
    """``beta`` rows drawn as ``build_partitioning_system`` draws them."""
    rng = seeded_rng(seed)
    return tuple(tuple(tuple(sorted(b)) for b in forge._balanced_row(n, h, k, rng))
                 for _ in range(beta))


class CountedDraws:
    """A seeded generator for the row repair and the transversal draws that
    counts its blocks of uniforms and the uniforms in them, and returns
    ``top`` for every uniform when it is given."""

    def __init__(self, seed, top=None):
        self.rng, self.top, self.blocks, self.uniforms = seeded_rng(seed), top, 0, 0

    def shuffle(self, slots):
        self.rng.shuffle(slots)

    def random(self, shape):
        self.blocks += 1
        self.uniforms += math.prod(shape)
        return self.rng.random(shape) if self.top is None else np.full(shape, self.top)


def yes_label_cover():
    """Two left vertices, one right vertex of degree 2, single labels."""
    return LabelCoverInstance(
        num_left=2, num_right=1, edges=((0, 0), (1, 0)), h=2,
        alpha=1, beta=1, pi={(0, 0): (0,), (1, 0): (0,)})


class TestBalancedConstruction:
    @pytest.mark.parametrize("seed", range(5))
    def test_block_sizes_and_coverage_exact(self, seed):
        ps = build_partitioning_system(n=30, beta=4, h=3, k=2, eta=0.9,
                                       basis=LINEAR, seed=seed)
        per_block = 2 * 30 // 3
        for row in ps.blocks:
            assert len(row) == 3
            counts = [0] * 30
            for block in row:
                assert len(block) == per_block
                assert len(set(block)) == per_block
                for e in block:
                    counts[e] += 1
            assert all(c == 2 for c in counts)

    def test_row_cost_is_exact(self):
        ps = build_partitioning_system(n=30, beta=4, h=3, k=2, eta=0.9,
                                       basis=LINEAR, seed=1)
        c = LINEAR.cost_table(3)
        for row in ps.blocks:
            counts = [0] * ps.n
            for block in row:
                for e in block:
                    counts[e] += 1
            assert sum(c[cnt] for cnt in counts) == c[2] * ps.n

    def test_degenerate_full_cover(self):
        ps = build_partitioning_system(n=6, beta=3, h=2, k=2, eta=0.5,
                                       basis=LINEAR, seed=0)
        for row in ps.blocks:
            for block in row:
                assert block == tuple(range(6))

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParams):
            build_partitioning_system(n=10, beta=2, h=3, k=2, eta=0.5,
                                      basis=LINEAR)
        with pytest.raises(InvalidParams):
            build_partitioning_system(n=10, beta=4, h=3, k=2, eta=0.5,
                                      basis=LINEAR)
        with pytest.raises(InvalidParams):
            build_partitioning_system(n=30, beta=4, h=3, k=2, eta=1.5,
                                      basis=LINEAR)


class TestTransversalProperty:
    def test_reference_parameters_verify(self):
        ps = build_partitioning_system(n=120, beta=4, h=3, k=2, eta=0.9,
                                       basis=LINEAR, seed=0)
        assert ps.p1_passed
        assert ps.p2_mode == "exhaustive"
        assert ps.p2_choices_checked == math.comb(4, 3) * 3 ** 3
        assert ps.p2_margin >= 0.0

    def test_margin_matches_explicit_recheck(self):
        ps = build_partitioning_system(n=120, beta=4, h=3, k=2, eta=0.9,
                                       basis=LINEAR, seed=0)
        c = LINEAR.cost_table(3)
        threshold = (binomial_expectation(c, 3, 2) - 0.9) * ps.n
        worst = min(
            transversal_cost(ps, rows, picks, c) - threshold
            for rows in itertools.combinations(range(4), 3)
            for picks in itertools.product(range(3), repeat=3))
        assert ps.p2_margin == pytest.approx(worst)

    def test_transversal_rejects_malformed_selections(self):
        ps = build_partitioning_system(n=30, beta=4, h=3, k=2, eta=0.9,
                                       basis=LINEAR, seed=0)
        c = LINEAR.cost_table(3)
        with pytest.raises(InvalidParams):
            transversal_cost(ps, [0, 0, 1], [0, 1, 2], c)  # repeated row
        with pytest.raises(InvalidParams):
            transversal_cost(ps, [0, 1], [0, 1], c)  # too few rows
        with pytest.raises(InvalidParams):
            transversal_cost(ps, [0, 1, 2], [0, 1, 3], c)  # bad block index

    def test_sampled_mode_flags_itself(self):
        ps = build_partitioning_system(n=30, beta=4, h=3, k=2, eta=0.9,
                                       basis=LINEAR, seed=3, mode="sampled",
                                       samples=500)
        assert ps.p2_mode == "sampled"
        assert ps.p2_choices_checked == 500

    def test_construction_failure_reports_margin(self):
        # Tiny ground set with a tight eta cannot verify.
        with pytest.raises(ConstructionFailed) as excinfo:
            build_partitioning_system(n=6, beta=4, h=3, k=2, eta=0.01,
                                      basis=LINEAR, seed=0)
        assert excinfo.value.worst_margin is not None
        assert excinfo.value.attempts == 100

    def test_round_trip(self):
        ps = build_partitioning_system(n=30, beta=4, h=3, k=2, eta=0.9,
                                       basis=LINEAR, seed=0)
        assert PartitioningSystem.from_json(ps.to_json()) == ps

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sampled_mode_rejects_empty_samples(self, samples):
        with pytest.raises(InvalidParams, match="at least one sample"):
            build_partitioning_system(n=30, beta=4, h=3, k=2, eta=0.9,
                                      basis=LINEAR, mode="sampled",
                                      samples=samples)
        # auto mode samples once there are more than 10**6 transversals.
        with pytest.raises(InvalidParams, match="at least one sample"):
            build_partitioning_system(n=10, beta=20, h=5, k=1, eta=0.5,
                                      basis=LINEAR, samples=samples)
        with pytest.raises(InvalidParams, match="at least one sample"):
            reduce_label_cover(yes_label_cover(),
                               {"n": 8, "k": 1, "eta": 0.5, "beta": 2,
                                "mode": "sampled", "samples": samples},
                               LINEAR, seed=0)
        ps = build_partitioning_system(n=30, beta=4, h=3, k=2, eta=0.9,
                                       basis=LINEAR, mode="exhaustive",
                                       samples=samples)
        assert ps.p2_choices_checked == 108

    def test_rejects_unknown_mode(self):
        with pytest.raises(InvalidParams, match="unknown verification mode"):
            build_partitioning_system(n=30, beta=4, h=3, k=2, eta=0.9,
                                      basis=LINEAR, mode="partial")


class TestSweepAgainstReference:
    """The batched P2 sweep and the incremental row repair against the
    one-at-a-time loops in ``reference_forge``."""

    @pytest.mark.parametrize("n", [7, 120, 129, 1000, 5000])
    def test_row_sums_add_like_one_dimensional_sums(self, n):
        # The sweep's margins equal the reference's only if summing each row
        # of a C-contiguous (m, n) array adds in the order a 1-D sum does.
        rng = np.random.default_rng(n)
        values = rng.random((40, n)) * 10.0 ** rng.integers(-3, 4, size=(40, 1))
        sums = values.sum(axis=1)
        assert all(sums[t] == values[t].sum() for t in range(40))

    @pytest.mark.parametrize("beta,h", [(1, 1), (4, 2), (5, 3), (6, 3),
                                        (4, 4), (5, 5)])
    def test_all_transversals_in_reference_order(self, beta, h):
        rows, picks = (np.concatenate(parts) for parts in
                       zip(*forge._all_transversals(beta, h)))
        expected = list(itertools.product(itertools.combinations(range(beta), h),
                                          itertools.product(range(h), repeat=h)))
        assert len(rows) == len(expected) == math.comb(beta, h) * h ** h
        assert [(tuple(r), tuple(p)) for r, p in zip(rows.tolist(),
                                                     picks.tolist())] == expected

    def test_drawn_transversals_are_valid(self):
        batches = list(forge._drawn_transversals(6, 3, 600, seeded_rng(0)))
        assert [len(rows) for rows, _ in batches] == [256, 256, 88]
        for rows, picks in batches:
            assert all(len(set(r)) == 3 for r in rows.tolist())
            assert rows.min() >= 0 and rows.max() < 6
            assert picks.min() >= 0 and picks.max() < 3

    @pytest.mark.parametrize("beta", [6, 100, 4000])
    def test_draws_do_not_grow_with_the_row_count(self, beta):
        draws = CountedDraws(0)
        batches = list(forge._drawn_transversals(beta, 3, 600, draws))
        # One block of 2h uniforms per transversal, per batch.
        assert (draws.blocks, draws.uniforms) == (len(batches), 600 * 2 * 3)
        for rows, picks in batches:
            assert all(len(set(r)) == 3 for r in rows.tolist())
            assert rows.min() >= 0 and rows.max() < beta

    @pytest.mark.parametrize("top", [0.0, 1.0 - 2.0 ** -53])
    def test_extreme_uniforms_draw_distinct_rows_in_range(self, top):
        # At u = 0 every row after the first collides with row 0 and takes
        # the top of its range; at the largest u below 1 none collides.
        beta, h = 7, 4
        rows, picks = next(forge._drawn_transversals(beta, h, 5, CountedDraws(0, top)))
        want = [0, 4, 5, 6] if top == 0.0 else [3, 4, 5, 6]
        assert rows.tolist() == [want] * 5
        assert picks.tolist() == [[0 if top == 0.0 else h - 1] * h] * 5

    def test_unordered_transversals_are_uniform(self):
        # beta = 5, h = 3: 10 row sets times 27 picks, 270 unordered
        # transversals, 100 expected draws each. The stream is seeded, so
        # the statistic is fixed; 0.1% of uniform draws exceed 349.
        beta, h, samples = 5, 3, 27_000
        counts = Counter()
        for rows, picks in forge._drawn_transversals(beta, h, samples,
                                                     seeded_rng(0)):
            counts.update(frozenset(zip(r, p)) for r, p in
                          zip(rows.tolist(), picks.tolist()))
        assert len(counts) == math.comb(beta, h) * h ** h
        expected = samples / len(counts)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 349

    @settings(max_examples=60, deadline=None)
    @given(shape=shapes(), basis=basis_functions(), seed=st.integers(0, 10**6),
           eta=st.floats(0.01, 0.99))
    def test_exhaustive_margin_equals_reference(self, shape, basis, seed, eta):
        n, beta, h, k = shape
        blocks = draw_blocks(n, beta, h, k, seed)
        c = basis.cost_table(h)
        worst, checked = forge._verify_p2(blocks, n, beta, h, k, eta, c,
                                          "exhaustive", 0, seed)
        assert (worst, "exhaustive", checked) == reference.verify_p2(
            blocks, n, beta, h, k, eta, c, "exhaustive", 0, seed)
        sampled, drawn = forge._verify_p2(blocks, n, beta, h, k, eta, c,
                                          "sampled", 300, seed)
        assert drawn == 300
        assert sampled >= worst

    @settings(max_examples=60, deadline=None)
    @given(shape=shapes(), basis=basis_functions(), data=st.data())
    def test_batch_costs_equal_reference(self, shape, basis, data):
        n, beta, h, k = shape
        blocks = draw_blocks(n, beta, h, k, data.draw(st.integers(0, 10**6)))
        membership = reference.membership_of(blocks, n, beta, h)
        c_arr = np.asarray(basis.cost_table(h)[:h + 1], dtype=float)
        transversal = st.tuples(st.permutations(range(beta)),
                                st.lists(st.integers(0, h - 1), min_size=h,
                                         max_size=h))
        batch = data.draw(st.lists(transversal, min_size=1, max_size=40))
        rows = np.array([r[:h] for r, _ in batch])
        picks = np.array([p for _, p in batch])
        costs = forge._transversal_costs(membership, c_arr, rows, picks)
        assert costs.tolist() == reference.transversal_costs(
            membership, c_arr, zip(rows, picks))

    def test_batches_reuse_their_buffers(self):
        # A fresh gather, count and term array per batch made whether a
        # check paid page faults depend on the heap's history.
        n, beta, h = 120, 6, 3
        membership = reference.membership_of(draw_blocks(n, beta, h, 2, 0),
                                             n, beta, h)
        c_arr = np.asarray(BasisFunction.monomial(1).cost_table(h), dtype=float)
        rng = seeded_rng(0)
        rows = np.argsort(rng.random((forge.P2_BATCH, beta)), axis=1)[:, :h]
        picks = rng.integers(h, size=(forge.P2_BATCH, h))
        want = forge._transversal_costs(membership, c_arr, rows, picks)
        tracemalloc.start()
        try:
            costs = forge._transversal_costs(membership, c_arr, rows, picks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert costs.tolist() == want.tolist()
        # One (P2_BATCH, n) array of counts would take 8 * P2_BATCH * n bytes.
        assert peak < forge.P2_BATCH * n

    def test_counts_past_int8_then_small_again(self):
        # Every picked block holds element 0, so its count is h: past 127 an
        # int8 count would wrap. Then h = 3 runs in the same buffers.
        rng = seeded_rng(0)
        for beta, h, n in ((131, 130, 5), (128, 128, 3), (6, 3, 120)):
            membership = (rng.random((beta, h, n)) < 0.5).astype(np.int8)
            membership[:, :, 0] = 1
            c_arr = np.asarray(BasisFunction.monomial(1).cost_table(h),
                               dtype=float)
            rows = np.argsort(rng.random((40, beta)), axis=1)[:, :h]
            picks = rng.integers(h, size=(40, h))
            costs = forge._transversal_costs(membership, c_arr, rows, picks)
            assert costs.tolist() == reference.transversal_costs(
                membership, c_arr, zip(rows, picks))
            assert min(costs) >= c_arr[h]

    def test_swap_index_stays_below_its_bound(self):
        # An attempt maps a uniform u < 1 to int(u * bound); the largest
        # double below 1 must still land below every bound a row can have.
        top = 1.0 - 2.0 ** -53
        bounds = list(range(1, 1 << 16)) + [2 ** 52 + 1, 2 ** 53 - 1, 2 ** 53]
        assert all(int(top * bound) == bound - 1 for bound in bounds)
        for seed in range(20):
            outcomes = []
            for row in (forge._balanced_row, reference.balanced_row):
                try:
                    outcomes.append(row(6, 3, 2, CountedDraws(seed, top)))
                except ConstructionFailed as failed:
                    outcomes.append(failed.attempts)
            assert outcomes[0] == outcomes[1]

    def test_repair_draws_cross_blocks_like_the_reference(self):
        ours, theirs = CountedDraws(0), CountedDraws(0)
        for _ in range(4):
            assert (forge._balanced_row(120, 3, 2, ours)
                    == reference.balanced_row(120, 3, 2, theirs))
        # More attempts than one block holds, in some row.
        assert ours.blocks == theirs.blocks > 4

    @settings(max_examples=150, deadline=None)
    @given(h=st.integers(1, 6), data=st.data())
    def test_balanced_rows_equal_reference(self, h, data):
        k = data.draw(st.sampled_from(sorted({1, h, data.draw(st.integers(1, h))})))
        n = h // math.gcd(k, h) * data.draw(st.integers(1, 20))
        seed = data.draw(st.integers(0, 10**6))
        ours, theirs = seeded_rng(seed), seeded_rng(seed)
        # Three rows from one stream: the draws after a row match as well.
        for _ in range(3):
            assert (forge._balanced_row(n, h, k, ours)
                    == reference.balanced_row(n, h, k, theirs))


class TestLabelCover:
    def test_validates_right_degree(self):
        with pytest.raises(InvalidParams):
            LabelCoverInstance(num_left=2, num_right=1, edges=((0, 0),), h=2,
                               alpha=1, beta=1, pi={(0, 0): (0,)})

    def test_validates_constraint_tables(self):
        with pytest.raises(InvalidParams):
            LabelCoverInstance(num_left=2, num_right=1,
                               edges=((0, 0), (1, 0)), h=2, alpha=2, beta=1,
                               pi={(0, 0): (0,), (1, 0): (0, 0)})

    def test_round_trip(self, tmp_path):
        lc = yes_label_cover()
        path = tmp_path / "lc.json"
        lc.save(path)
        assert LabelCoverInstance.load(path) == lc


class TestReduction:
    def test_single_edge_shape(self):
        lc = LabelCoverInstance(num_left=1, num_right=1, edges=((0, 0),), h=1,
                                alpha=1, beta=1, pi={(0, 0): (0,)})
        inst, system = reduce_label_cover(lc, {"n": 6, "k": 1, "eta": 0.5,
                                               "beta": 1}, LINEAR, seed=0)
        assert inst.num_players == 1
        assert inst.num_strategies(0) == 1
        assert inst.num_resources == 6
        assert inst.strategies[0][0] == system.blocks[0][0]

    def test_size_contract(self):
        # Two right vertices of degree 2, left alphabet of size 2.
        lc = LabelCoverInstance(
            num_left=2, num_right=2,
            edges=((0, 0), (1, 0), (0, 1), (1, 1)), h=2, alpha=2, beta=2,
            pi={(0, 0): (0, 1), (1, 0): (1, 0), (0, 1): (1, 0), (1, 1): (0, 1)})
        inst, system = reduce_label_cover(lc, {"n": 8, "k": 1, "eta": 0.9},
                                          LINEAR, seed=0)
        assert inst.num_players == lc.num_left
        assert inst.num_resources == lc.num_right * system.n
        assert all(inst.num_strategies(i) == lc.alpha
                   for i in range(inst.num_players))

    def test_strategies_union_blocks_per_neighbour(self):
        lc = LabelCoverInstance(
            num_left=2, num_right=2,
            edges=((0, 0), (1, 0), (0, 1), (1, 1)), h=2, alpha=2, beta=2,
            pi={(0, 0): (0, 1), (1, 0): (1, 0), (0, 1): (1, 0), (1, 1): (0, 1)})
        inst, system = reduce_label_cover(lc, {"n": 8, "k": 1, "eta": 0.9},
                                          LINEAR, seed=0)
        n = system.n
        # Player 0, label 0: row 0 slot 0 on vertex 0, row 1 slot 0 on vertex 1.
        expected = sorted([e for e in system.blocks[0][0]]
                          + [n + e for e in system.blocks[1][0]])
        assert list(inst.strategies[0][0]) == expected

    def test_yes_instance_cost_witness(self):
        lc = yes_label_cover()
        inst, system = reduce_label_cover(lc, {"n": 8, "k": 1, "eta": 0.5,
                                               "beta": 2}, LINEAR, seed=0)
        sc = social_cost(inst, Allocation.of([0, 0]))
        assert sc == system.n * lc.num_right * LINEAR.c(system.k)

    def test_yes_instance_minimum_bounded_by_row_cost(self):
        # With a strongly satisfying labeling available, the exact minimum
        # can only be at or below the whole-row cost.
        from tollkit import brute_force_min_sc
        lc = LabelCoverInstance(
            num_left=2, num_right=2,
            edges=((0, 0), (1, 0), (0, 1), (1, 1)), h=2, alpha=2, beta=2,
            pi={(0, 0): (0, 1), (1, 0): (0, 1), (0, 1): (1, 0), (1, 1): (1, 0)})
        inst, system = reduce_label_cover(lc, {"n": 8, "k": 1, "eta": 0.9},
                                          LINEAR, seed=0)
        _, min_cost = brute_force_min_sc(inst)
        bound = system.n * lc.num_right * LINEAR.c(system.k)
        assert min_cost <= bound
        # Label profile (0, 0) strongly satisfies both right vertices.
        assert social_cost(inst, Allocation.of([0, 0])) == bound

    def test_rejects_colliding_labels(self):
        lc = LabelCoverInstance(num_left=1, num_right=1, edges=((0, 0),), h=1,
                                alpha=2, beta=1, pi={(0, 0): (0, 0)})
        with pytest.raises(InvalidParams, match="identical strategies"):
            reduce_label_cover(lc, {"n": 6, "k": 1, "eta": 0.5}, LINEAR, seed=0)

    def test_rejects_too_small_row_count(self):
        lc = yes_label_cover()
        with pytest.raises(InvalidParams):
            reduce_label_cover(lc, {"n": 8, "k": 1, "eta": 0.5, "beta": 0},
                               LINEAR, seed=0)


class TestRandomInstance:
    def test_seed_reproducibility(self):
        a = random_instance(3, 3, [LINEAR], seed=7)
        b = random_instance(3, 3, [LINEAR], seed=7)
        assert a.to_json() == b.to_json()

    def test_singleton_family(self):
        inst = random_instance(2, 2, [LINEAR], strategy_count_range=(2, 2),
                               strategy_size_range=(1, 1), seed=0)
        assert inst.num_players == 2
        assert all(len(s) == 1 for player in inst.strategies for s in player)

    @pytest.mark.parametrize("seed", range(50))
    def test_generated_instances_validate(self, seed):
        basis = [BasisFunction.monomial(seed % 4)]
        inst = random_instance(2 + seed % 3, 2 + seed % 3, basis,
                               strategy_count_range=(1, 3),
                               strategy_size_range=(1, 2), seed=seed)
        # Construction re-validates; also check full resource coverage.
        referenced = {r for player in inst.strategies
                      for strat in player for r in strat}
        assert referenced == set(range(inst.num_resources))

    @pytest.mark.parametrize("coeff_range", [
        (0.5, math.inf), (math.inf, math.inf), (math.nan, 2.0), (0.5, math.nan)])
    def test_rejects_non_finite_coefficient_range(self, coeff_range):
        with pytest.raises(InvalidParams, match="finite"):
            random_instance(2, 2, [LINEAR], coeff_range=coeff_range, seed=0)

    def test_infeasible_strategy_demand(self):
        with pytest.raises(InfeasibleParams):
            random_instance(2, 2, [LINEAR], strategy_count_range=(4, 4),
                            strategy_size_range=(1, 1), seed=0)
