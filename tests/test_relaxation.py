import math
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_relaxation as reference
from game_strategies import basis_functions, small_games, table_twin
from reference_relaxation import (bisection_step, early_exit, exact_kernel,
                                  exact_kernel_derivative, segment_slope,
                                  segment_value)
from test_acceptance import design_family
from tollkit import (BasisFunction, FractionalProfile, GameInstance,
                     GameValidationError, InvalidParams, KernelOverflow,
                     MaxItersExceeded, duality_gap, fractional_loads, gradient,
                     poisson_kernel, random_instance, relaxation_objective,
                     solve_relaxation)
from tollkit.kernel import monomial_coefficients
from tollkit.relaxation import _Objective


def polynomial(instance):
    """Whether every basis is an integer monomial with coefficient tuples.
    Where every coefficient is non-zero, as in the games drawn here, this
    holds exactly when every resource is polynomial, and fails exactly
    when none is."""
    return all(monomial_coefficients(b) is not None for b in instance.basis)


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
def segments(draw, bases=basis_functions(), uphill=st.booleans()):
    """Loads, a direction and its step bound on 2-6 resources priced by
    1-2 of ``bases``: by default monomials of degree 0-3 and convex
    tables. The direction moves some loads up and some down, as the
    solver's do. Each load covers what the direction takes from it up to
    the bound, exactly so where its drawn base is 0, as at a pairwise
    step's cap. Unless ``uphill`` draws True, the direction is turned
    downhill at 0, so most draws run past the search's early exits."""
    basis = draw(st.lists(bases, min_size=1, max_size=2))
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
    if not draw(uphill) and segment_slope(instance, loads, delta, 0.0) > 0.0:
        delta = [-d for d in delta]
        loads = covered(delta)
    return instance, loads, delta, hi


def step_no_worse_than_bisection(segment):
    """``exact_step`` lies in ``[0, hi]``, and its exact segment objective
    is no worse than at the bisection step, beyond 4 ulp. Without
    polynomial resources it runs the slope the bisection runs, so where
    the bisection exits early it must return the same step."""
    instance, loads, delta, hi = segment
    step = _Objective(instance).exact_step(loads, delta, hi)
    reference = bisection_step(instance, loads, delta, hi)
    assert 0.0 <= step <= hi
    exit_step = early_exit(instance, loads, delta, hi)
    if exit_step is not None and not polynomial(instance):
        assert step == reference == exit_step
        return
    phi = segment_value(instance, loads, delta, step)
    phi_ref = segment_value(instance, loads, delta, reference)
    assert phi <= phi_ref + 4 * math.ulp(max(1.0, abs(float(phi_ref))))


class TestLineSearch:
    """``exact_step`` against the bisection it replaced. Near the root the
    slope is rounding noise, so the two steps can differ by far more than
    an ulp of the step; the gate is the exact segment objective instead.
    Polynomial segments sum their slope in another order than the
    bisection does, so their early exits take the same gate."""

    @settings(max_examples=400, deadline=None)
    @given(segment=segments())
    def test_objective_no_worse_than_bisection(self, segment):
        step_no_worse_than_bisection(segment)

    @settings(max_examples=100, deadline=None)
    @given(segment=segments(
        st.integers(0, 5).map(BasisFunction.monomial) | basis_functions(),
        uphill=st.just(False)))
    def test_closed_form_and_higher_degrees(self, segment):
        # Monomials of degree 0-2 alone take the closed form; degrees 3-5
        # run the Illinois search on polynomial margins, tables on
        # evaluator terms. Every direction is downhill at 0, so most draws
        # that do not end at ``hi`` search for a root.
        step_no_worse_than_bisection(segment)

    @pytest.mark.parametrize("degrees,coefficients,loads,delta,hi", [
        # s(g) = -104 + 48g + 9g^2: at hi = 2 its linear part is still
        # negative, so only the whole quadratic rules out the step to hi.
        ((2, 0), [[1.0, 1.0], [0.5, 1.0]], [5.0, 0.0], [-1.0, 2.0], 2.0),
        # A linear slope: s2 = 0.
        ((1,), [[1.0], [2.0], [0.5]], [3.0, 0.5, 1.0], [-1.0, 1.0, 1.0], 3.0),
        # s2 < 0.
        ((2,), [[2.0], [0.5]], [4.0, 1.0], [-2.0, 1.0], 2.0),
        # Merged margins of degrees 2 and 1.
        ((2, 1), [[2.0, 1.0], [0.5, 3.0], [1.0, 0.25]], [4.0, 1.0, 2.5],
         [-1.0, 1.0, -1.0], 2.5),
    ])
    def test_closed_form_is_the_root_of_the_slope(self, degrees, coefficients,
                                                  loads, delta, hi):
        basis = [BasisFunction.monomial(d) for d in degrees]
        instance = GameInstance.build(basis, coefficients,
                                      [[[r] for r in range(len(coefficients))]])
        step = _Objective(instance).exact_step(loads, delta, hi)
        with mp.workdps(40):
            def slope(gamma):
                return sum(mp.mpf(d) * sum(
                    mp.mpf(a) * exact_kernel_derivative(b, mp.mpf(v) + gamma * d)
                    for a, b in zip(row, basis))
                    for d, v, row in zip(delta, loads, coefficients))

            root = mp.findroot(slope, (mp.mpf(0), mp.mpf(hi)), solver="anderson")
        assert 0.0 < root < hi
        assert abs(step - root) <= 1e-15 * root

    def test_closed_form_covers_the_workload_games(self):
        calls = []
        illinois = _Objective._illinois_step

        def counting(objective, *args):
            calls.append(args)
            return illinois(objective, *args)

        with mock.patch.object(_Objective, "_illinois_step", counting):
            iters = sum(solve_relaxation(verify_game(seed)).iters
                        for seed in range(24))
            iters += sum(solve_relaxation(design_family(seed)[0]).iters
                         for seed in range(180))
        assert iters > 1000 and calls == []


class TestPolynomialResources:
    """A resource whose bases are all integer monomials is priced by one
    merged value and one merged margin polynomial: each within a few ulp
    of the exact ``sum_j alpha_j p_j`` and ``sum_j alpha_j p_j'``."""

    RATES = ([0.0, 1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 55.5, 100.0,
              333.3, 999.9, 1e3] + [10.0 ** (e / 4) for e in range(-12, 13)])

    @pytest.mark.parametrize("degrees", [
        (0,), (1,), (2,), (3,), (4,), (5,),
        (1, 0), (2, 0), (3, 0), (4, 0), (5, 0),
        (0, 5), (1, 3), (2, 5), (3, 4, 1), (5, 0, 2),
    ])
    def test_merged_tuples_match_mpmath(self, degrees):
        import numpy as np
        rng = np.random.Generator(np.random.Philox(key=sum(degrees) + len(degrees)))
        basis = [BasisFunction.monomial(d) for d in degrees]
        rows = [[float(a) for a in rng.uniform(0.1, 3.0, len(basis))]
                for _ in range(4)] + [[1.0] * len(basis), [0.5, 2.0, 1.5][:len(basis)]]
        instance = GameInstance.build(basis, rows, [[[r] for r in range(len(rows))]])
        objective = _Objective(instance)
        for v in self.RATES:
            margins = objective.margins([v] * len(rows))
            for r, row in enumerate(rows):
                loads = [0.0] * len(rows)
                loads[r] = v
                with mp.workdps(40):
                    x = mp.mpf(v)
                    value = sum(mp.mpf(a) * exact_kernel(b, x) for a, b in zip(row, basis))
                    margin = sum(mp.mpf(a) * exact_kernel_derivative(b, x)
                                 for a, b in zip(row, basis))
                for got, want in ((objective.value(loads), value),
                                  (margins[r], margin)):
                    assert abs(got - want) <= 8 * math.ulp(float(want)), (v, row)


def solved(solve, instance, **kwargs):
    """What ``solve`` ends in: the profile, or the error type with its
    message and the profile it carries."""
    try:
        return solve(instance, **kwargs)
    except (MaxItersExceeded, KernelOverflow) as exc:
        return type(exc), str(exc), getattr(exc, "profile", None)


def verify_game(seed):
    """The game of ``forge random`` that the ``verify`` benchmark designs:
    8 players with 3 strategies of 1-3 of 6 resources, monomial degree 1
    or 2."""
    return random_instance(8, 6, [BasisFunction.monomial(1 + seed % 2)],
                           strategy_count_range=(3, 3),
                           strategy_size_range=(1, 3), seed=seed)


@st.composite
def fractional_degree_games(draw):
    """``small_games`` with some bases swapped for non-integer monomials,
    whose kernels run the truncated series."""
    inst = draw(small_games())
    basis = tuple(BasisFunction.monomial(draw(st.sampled_from([0.5, 1.5, 2.25])))
                  if draw(st.booleans()) else b for b in inst.basis)
    return GameInstance(basis=basis, coefficients=inst.coefficients,
                        strategies=inst.strategies)


def close_to_reference(got, want, tol_gap=1e-8, within_gaps=False):
    """``got`` ends as ``want`` does (a profile, or the same error type),
    its objective or that of the profile its error carries is within
    1e-12 relative of the reference's, and a profile's gap is within
    tolerance. ``within_gaps`` also admits objectives that differ by no
    more than the larger of the two duality gaps, which bound how far
    each lies above the optimum."""
    if isinstance(want, FractionalProfile):
        assert isinstance(got, FractionalProfile), got
        assert got.gap <= tol_gap * max(1.0, abs(got.objective))
        got_profile, want_profile = got, want
    else:
        assert isinstance(got, tuple) and got[0] is want[0], got
        got_profile, want_profile = got[2], want[2]
    if want_profile is not None:
        allowance = 1e-12 * abs(want_profile.objective)
        if within_gaps:
            allowance = max(allowance, got_profile.gap, want_profile.gap)
        assert abs(got_profile.objective - want_profile.objective) <= allowance


class TestAgainstReference:
    """Without polynomial resources the solver runs the float operations
    of the loop it replaced (``reference_relaxation.solve_relaxation``) in
    the same order, so every output equals it exactly: weights, loads,
    objective, gap, iterations, and the profile an error carries. On
    integer-monomial games it merges each resource's bases into one
    polynomial and steps in closed form, so outputs move in the last bits:
    there it must end as the reference ends, with the objective within
    1e-12 relative (or, at the small games' loose tolerances, within the
    duality gaps) and the gap within tolerance."""

    def test_acceptance_family_and_table_twins(self):
        for seed in range(180):
            inst, _ = design_family(seed)
            twin = table_twin(inst)
            assert (solved(solve_relaxation, twin)
                    == solved(reference.solve_relaxation, twin)), seed
            close_to_reference(solved(solve_relaxation, inst),
                               solved(reference.solve_relaxation, inst))

    def test_verify_games(self):
        for seed in range(24):
            game = verify_game(seed)
            close_to_reference(solved(solve_relaxation, game),
                               solved(reference.solve_relaxation, game))

    @settings(max_examples=80, deadline=None)
    @given(inst=fractional_degree_games(),
           tol_gap=st.sampled_from([1e-6, 1e-8, 1e-12]))
    def test_small_games(self, inst, tol_gap):
        got = solved(solve_relaxation, inst, tol_gap=tol_gap, max_iters=2000)
        want = solved(reference.solve_relaxation, inst, tol_gap=tol_gap,
                      max_iters=2000)
        if polynomial(inst):
            # At loose tolerances both stop early, each within its gap of
            # the optimum, on iterates that need not agree to 1e-12.
            close_to_reference(got, want, tol_gap, within_gaps=True)
        else:
            assert got == want

    @pytest.mark.parametrize("max_iters", [1, 2, 5, 12])
    def test_iterate_at_the_iteration_cap(self, max_iters):
        capped = 0
        for seed in range(24):
            game = verify_game(seed)
            got = solved(solve_relaxation, game, tol_gap=1e-14,
                         max_iters=max_iters)
            close_to_reference(got, solved(reference.solve_relaxation, game,
                                           tol_gap=1e-14, max_iters=max_iters),
                               tol_gap=1e-14)
            capped += isinstance(got, tuple) and got[0] is MaxItersExceeded
        # A few games reach a zero gap at a vertex within the cap.
        assert capped >= 19

    def test_kernel_overflow(self):
        # p(2) = 6 on each link, times 1e308, leaves the double range.
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1e308], [1e308]],
                                  [[[0], [1]], [[0], [1]], [[0], [1]]])
        got = solved(solve_relaxation, inst)
        assert got[0] is KernelOverflow
        assert got == solved(reference.solve_relaxation, inst)
