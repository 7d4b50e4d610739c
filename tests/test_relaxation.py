import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from game_strategies import basis_functions
from reference_relaxation import (bisection_step, early_exit,
                                  segment_slope, segment_value)
from tollkit import (BasisFunction, FractionalProfile, GameInstance,
                     GameValidationError, InvalidParams, MaxItersExceeded,
                     duality_gap, fractional_loads, gradient, poisson_kernel,
                     random_instance, relaxation_objective, solve_relaxation)
from tollkit.relaxation import _Objective


def two_by_two_symmetric():
    b = BasisFunction.monomial(1)
    return GameInstance.build([b], [[1.0], [1.0]], [[[0], [1]], [[0], [1]]])


def profile_from(instance, weights):
    loads = fractional_loads(instance, weights)
    return FractionalProfile(
        weights=tuple(tuple(w) for w in weights), loads=tuple(loads),
        objective=0.0, gap=0.0, iters=0)


def seeded_instances(count, max_count=3):
    out = []
    for seed in range(count):
        basis = [BasisFunction.monomial(seed % 3)]
        out.append(random_instance(2 + seed % 3, 2 + (seed // 2) % 3, basis,
                                   strategy_count_range=(2, max_count),
                                   strategy_size_range=(1, 2), seed=seed))
    return out


class TestObjective:
    def test_forced_shared_resource(self):
        # Two single-strategy players on one linear resource: v = 2, p(2) = 6.
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        prof = profile_from(inst, [[1.0], [1.0]])
        assert relaxation_objective(inst, prof) == pytest.approx(6.0, rel=1e-12)

    def test_balanced_split(self):
        inst = two_by_two_symmetric()
        prof = profile_from(inst, [[0.5, 0.5], [0.5, 0.5]])
        assert relaxation_objective(inst, prof) == pytest.approx(4.0, rel=1e-12)

    def test_zero_load_resource_contributes_nothing(self):
        b = BasisFunction.monomial(2)
        inst = GameInstance.build([b], [[1.0], [1.0]], [[[0], [1]]])
        prof = profile_from(inst, [[1.0, 0.0]])
        assert relaxation_objective(inst, prof) == pytest.approx(
            poisson_kernel(b, 1.0), rel=1e-12)

    def test_infeasible_profile_rejected(self):
        inst = two_by_two_symmetric()
        bad = FractionalProfile(weights=((0.7, 0.7), (1.0, 0.0)),
                                loads=(1.7, 0.7), objective=0.0, gap=0.0, iters=0)
        with pytest.raises(GameValidationError):
            relaxation_objective(inst, bad)


class TestGradient:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_central_differences(self, seed):
        import numpy as np
        rng = np.random.Generator(np.random.Philox(key=seed))
        inst = seeded_instances(seed + 1)[-1]
        weights = []
        for i in range(inst.num_players):
            raw = rng.random(inst.num_strategies(i)) + 0.05
            weights.append(list(raw / raw.sum()))
        grad = gradient(inst, weights)
        h = 1e-6

        def objective(w):
            return relaxation_objective(inst, profile_from(inst, w))

        for i in range(inst.num_players):
            for k in range(inst.num_strategies(i)):
                up = [list(w) for w in weights]
                down = [list(w) for w in weights]
                up[i][k] += h
                down[i][k] -= h
                # Off-simplex probe: loads are linear in the weight, so the
                # directional derivative still matches the partial.
                up_loads = fractional_loads(inst, up)
                down_loads = fractional_loads(inst, down)
                from tollkit.relaxation import _Objective
                obj = _Objective(inst)
                fd = (obj.value(up_loads) - obj.value(down_loads)) / (2 * h)
                assert grad[i][k] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestSolveRelaxation:
    def test_single_strategy_players_converge_immediately(self):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        prof = solve_relaxation(inst)
        assert prof.iters == 0
        assert prof.gap == 0.0
        assert prof.objective == pytest.approx(6.0, rel=1e-12)

    def test_symmetric_split_is_optimal(self):
        inst = two_by_two_symmetric()
        prof = solve_relaxation(inst, tol_gap=1e-10)
        assert prof.loads[0] == pytest.approx(1.0, abs=1e-6)
        assert prof.loads[1] == pytest.approx(1.0, abs=1e-6)
        assert prof.objective == pytest.approx(4.0, rel=1e-6)

    def test_matches_one_dimensional_grid_oracle(self):
        # Two players, two linear resources, both free to mix: the load on
        # resource 0 is w1 + w2; by symmetry and convexity minimise
        # p(v) + p(2 - v) over a grid instead.
        inst = two_by_two_symmetric()
        b = inst.basis[0]
        grid = [i / 2000 * 2 for i in range(2001)]
        best = min(poisson_kernel(b, v) + poisson_kernel(b, 2 - v) for v in grid)
        prof = solve_relaxation(inst, tol_gap=1e-10)
        assert prof.objective == pytest.approx(best, rel=1e-6)

    @pytest.mark.parametrize("seed", range(25))
    def test_objective_dominated_by_pure_profiles(self, seed):
        import itertools
        inst = seeded_instances(seed + 1)[-1]
        prof = solve_relaxation(inst, tol_gap=1e-8, max_iters=20000)
        evaluator = lambda loads: sum(
            alpha * poisson_kernel(inst.basis[j], float(loads[r]))
            for r, coeffs in enumerate(inst.coefficients)
            for j, alpha in enumerate(coeffs) if alpha)
        for choices in itertools.product(
                *(range(inst.num_strategies(i)) for i in range(inst.num_players))):
            loads = [0] * inst.num_resources
            for i, k in enumerate(choices):
                for r in inst.strategies[i][k]:
                    loads[r] += 1
            assert prof.objective <= evaluator(loads) + 1e-6

    @pytest.mark.parametrize("seed", range(15))
    def test_gap_reaches_tolerance_on_random_instances(self, seed):
        inst = seeded_instances(seed + 1)[-1]
        prof = solve_relaxation(inst, tol_gap=1e-6, max_iters=10_000)
        assert prof.gap <= 1e-6 * max(1.0, abs(prof.objective))
        assert prof.iters <= 10_000

    @pytest.mark.parametrize("seed", range(5))
    def test_five_player_instances_within_budget(self, seed):
        inst = random_instance(5, 4, [BasisFunction.monomial(2)],
                               strategy_count_range=(2, 3),
                               strategy_size_range=(1, 2), seed=seed)
        prof = solve_relaxation(inst, tol_gap=1e-6, max_iters=10_000)
        assert prof.gap <= 1e-6 * max(1.0, abs(prof.objective))

    def test_max_iters_carries_best_iterate(self):
        inst = seeded_instances(9)[-1]
        with pytest.raises(MaxItersExceeded) as excinfo:
            solve_relaxation(inst, tol_gap=1e-16, max_iters=3)
        profile = excinfo.value.profile
        assert isinstance(profile, FractionalProfile)
        assert abs(sum(profile.weights[0]) - 1.0) < 1e-9

    def test_rejects_bad_parameters(self):
        inst = two_by_two_symmetric()
        with pytest.raises(InvalidParams):
            solve_relaxation(inst, tol_gap=0.0)
        with pytest.raises(InvalidParams):
            solve_relaxation(inst, max_iters=0)

    @pytest.mark.parametrize("tol_gap", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_gap_tolerance(self, tol_gap):
        with pytest.raises(InvalidParams):
            solve_relaxation(two_by_two_symmetric(), tol_gap=tol_gap)


class TestInvariants:
    def test_objective_monotone_with_linesearch(self):
        # Track the objective through a manual replay of the solver loop by
        # re-solving with increasing iteration caps.
        inst = seeded_instances(7)[-1]
        values = []
        for cap in range(1, 40):
            try:
                prof = solve_relaxation(inst, tol_gap=1e-14, max_iters=cap)
                values.append(prof.objective)
                break
            except MaxItersExceeded as exc:
                values.append(exc.profile.objective)
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_feasibility_preserved(self, seed):
        inst = seeded_instances(seed + 1)[-1]
        prof = solve_relaxation(inst, tol_gap=1e-8, max_iters=20000)
        for i, w in enumerate(prof.weights):
            assert abs(sum(w) - 1.0) <= 1e-12
            assert all(x >= 0.0 for x in w)
        recomputed = fractional_loads(inst, prof.weights)
        for a, b in zip(recomputed, prof.loads):
            assert a == pytest.approx(b, abs=1e-12)


class TestDualityGap:
    def test_zero_at_forced_vertex(self):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0]], [[[0]], [[0]]])
        prof = profile_from(inst, [[1.0], [1.0]])
        assert duality_gap(inst, prof) == 0.0

    def test_bounds_suboptimality_on_grid_instance(self):
        inst = two_by_two_symmetric()
        solved = solve_relaxation(inst, tol_gap=1e-10)
        for w0 in (0.1, 0.3, 0.7):
            prof = profile_from(inst, [[w0, 1 - w0], [0.5, 0.5]])
            gap = duality_gap(inst, prof)
            suboptimality = relaxation_objective(inst, prof) - solved.objective
            assert gap >= suboptimality - 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_drops_below_threshold_within_budget(self, seed):
        inst = seeded_instances(seed + 1)[-1]
        prof = solve_relaxation(inst, tol_gap=1e-6, max_iters=10_000)
        assert duality_gap(inst, prof) <= 1e-6 * max(1.0, abs(prof.objective)) + 1e-12

    def test_profile_round_trip(self):
        inst = two_by_two_symmetric()
        prof = solve_relaxation(inst)
        assert FractionalProfile.from_json(prof.to_json()) == prof


@st.composite
def segments(draw):
    """Loads, a direction and its step bound on 2-6 resources priced by
    monomials of degree 0-3 and convex tables. The direction moves some
    loads up and some down, as the solver's do. Each load covers what the
    direction takes from it up to the bound, exactly so where its drawn
    base is 0, as at a pairwise step's cap. Unless ``uphill`` is drawn,
    the direction is turned downhill at 0, so most draws run past the
    search's early exits."""
    basis = draw(st.lists(basis_functions(), min_size=1, max_size=2))
    n = draw(st.integers(2, 6))
    coefficients = [draw(st.lists(st.floats(0.1, 3.0), min_size=len(basis),
                                  max_size=len(basis)))
                    for _ in range(n)]
    # One player whose strategies are the single resources only carries
    # the basis and coefficients; the segment itself is drawn below.
    instance = GameInstance.build(basis, coefficients, [[[r] for r in range(n)]])
    base = draw(st.lists(st.floats(0.0, 6.0), min_size=n, max_size=n))
    delta = draw(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])
                          | st.floats(-2.0, 2.0), min_size=n, max_size=n)
                 .filter(lambda d: min(d) < 0.0 < max(d)))
    hi = draw(st.floats(0.0, 10.0))

    def covered(delta):
        return [v + max(0.0, -d) * hi for v, d in zip(base, delta)]

    loads = covered(delta)
    uphill = draw(st.booleans())
    if not uphill and segment_slope(instance, loads, delta, 0.0) > 0.0:
        delta = [-d for d in delta]
        loads = covered(delta)
    return instance, loads, delta, hi


class TestLineSearch:
    """``exact_step`` against the bisection it replaced. Near the root the
    slope is rounding noise, so the two steps can differ by far more than
    an ulp of the step; the gate is the exact segment objective instead."""

    @settings(max_examples=400, deadline=None)
    @given(segment=segments())
    def test_objective_no_worse_than_bisection(self, segment):
        instance, loads, delta, hi = segment
        step = _Objective(instance).exact_step(loads, delta, hi)
        reference = bisection_step(instance, loads, delta, hi)
        assert 0.0 <= step <= hi
        exit_step = early_exit(instance, loads, delta, hi)
        if exit_step is not None:
            assert step == reference == exit_step
            return
        phi = segment_value(instance, loads, delta, step)
        phi_ref = segment_value(instance, loads, delta, reference)
        assert phi <= phi_ref + 4 * math.ulp(max(1.0, abs(float(phi_ref))))
