import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel
from reference_kernel import c_real
from tollkit import (BasisFunction, InvalidParams, KernelNonConvergent,
                     KernelOverflow, RhoReport, UnsupportedBasis,
                     bell_fractional, binomial_expectation, mu_factor,
                     poisson_kernel, poisson_kernel_derivative, rho_factor)
from tollkit.kernel import (_log_cost_ratios, _poisson_series,
                            kernel_evaluators)

mp.mp.dps = 40


def kernel_oracle(basis, v, terms=400):
    """Independent high-precision truncated series for the load kernel."""
    total = mp.mpf(0)
    for i in range(1, terms):
        total += mp.mpf(basis.c(i)) * mp.mpf(v) ** i / mp.factorial(i)
    return float(total * mp.e ** (-mp.mpf(v)))


def peak_kernel_oracle(basis, v):
    """``p(v)`` and ``p'(v)`` summed over ``v ± 12 sqrt(v)`` only. By the
    Chernoff bounds on Poisson tails, ``P(X <= v - t) <= exp(-t^2 / 2v)``
    and ``P(X >= v + t) <= exp(-t^2 / (2 (v + t/3)))``, the window leaves
    out at most ``2 exp(-72 / (1 + 4 / sqrt(v)))`` of the mass: 1.4e-30 at
    ``v = 12,000``, less above. The costs grow polynomially, by a factor
    ``(1 + 12 / sqrt(v))^3.5 <= 1.44`` across the upper cut at the degrees
    tested, so the terms left out are below 1e-29 of ``p`` and ``p'`` for
    ``v >= 12,000`` (against a window of ``v ± 40 sqrt(v)`` at 50 digits
    they are 3e-32 there)."""
    v = mp.mpf(v)
    lo, hi = int(v - 12 * mp.sqrt(v)), int(v + 12 * mp.sqrt(v))
    c = [mp.mpf(i) * mp.mpf(i) ** basis.degree for i in range(lo, hi + 1)]
    p = dp = mp.mpf(0)
    w = mp.exp(lo * mp.log(v) - v - mp.loggamma(lo + 1))
    for i in range(lo, hi):
        p += w * c[i - lo]
        dp += w * (c[i - lo + 1] - c[i - lo])
        w = w * v / (i + 1)
    return float(p), float(dp)


def bell_triangle(n):
    """Bell numbers B(0..n) via the Bell triangle recurrence."""
    rows = [[1]]
    for _ in range(n):
        prev = rows[-1]
        row = [prev[-1]]
        for x in prev:
            row.append(row[-1] + x)
        rows.append(row)
    return [r[0] for r in rows]


def valid_tables():
    """Random admissible tables: ``c(x) = x * b(x)`` built from a positive
    first difference and non-negative increments, so ``c`` is convex and
    ``b = c(x)/x`` non-decreasing."""
    def build(first, increments):
        diffs, c = [first], [0.0, first]
        for g in increments:
            diffs.append(diffs[-1] + g)
            c.append(c[-1] + diffs[-1])
        return [c[x] / x for x in range(1, len(c))]

    return st.builds(build, st.floats(0.5, 5.0),
                     st.lists(st.floats(0.0, 3.0), max_size=11))


class TestPoissonKernel:
    def test_linear_generator_unit_rate(self):
        # Second Poisson moment at rate 1.
        b = BasisFunction.monomial(1)
        assert poisson_kernel(b, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_zero_rate_is_zero(self):
        for b in (BasisFunction.monomial(2), BasisFunction.table([1.0, 4.0])):
            assert poisson_kernel(b, 0.0) == 0.0

    def test_linear_generator_rate_two(self):
        b = BasisFunction.monomial(1)
        assert poisson_kernel(b, 2.0) == pytest.approx(6.0, rel=1e-12)

    @pytest.mark.parametrize("degree", [0, 0.5, 1, 2, 3.25])
    @pytest.mark.parametrize("v", [0.1, 1.0, 3.7, 20.0])
    def test_matches_high_precision_oracle(self, degree, v):
        b = BasisFunction.monomial(degree)
        assert poisson_kernel(b, v) == pytest.approx(kernel_oracle(b, v), rel=1e-12)

    def test_table_basis_matches_oracle(self):
        b = BasisFunction.table([1.0, 1.5, 2.5])
        for v in (0.3, 2.0, 9.0):
            assert poisson_kernel(b, v) == pytest.approx(kernel_oracle(b, v), rel=1e-12)

    def test_large_rate_survives_rescaling(self):
        b = BasisFunction.monomial(1)
        # p(v) = v + v^2 exactly for the linear generator.
        assert poisson_kernel(b, 900.0) == pytest.approx(900.0 + 900.0 ** 2, rel=1e-10)

    def test_nonconvergent_when_cap_too_small(self, tiny_term_cap):
        # The terms still weigh 1e-8 of the sum 64 terms past the Poisson
        # peak at i = v = 100. A fractional degree keeps the series evaluator.
        b = BasisFunction.monomial(3.5)
        with pytest.raises(KernelNonConvergent):
            poisson_kernel(b, 100.0)

    @pytest.mark.parametrize("degree", [0.5, 2.5])
    def test_high_rate_matches_oracle(self, degree):
        # The series starts at the Poisson peak, past 10,000 terms from i = 0.
        # The tails are cut by a bound on what they leave out, so the error
        # does not grow with the rate.
        b = BasisFunction.monomial(degree)
        for v in (12_000.0, 1e5, 3e5, 1e6):
            want_p, want_dp = peak_kernel_oracle(b, v)
            assert poisson_kernel(b, v) == pytest.approx(want_p, rel=1e-13)
            assert poisson_kernel_derivative(b, v) == pytest.approx(want_dp, rel=1e-13)

    def test_high_rate_cost_grows_with_sqrt_rate(self):
        # About 7 standard deviations of Poi(v) on either side of the peak.
        calls = []

        def coef(i):
            calls.append(i)
            return BasisFunction.monomial(0.5).c(i)

        _poisson_series(coef, 1e6)
        assert len(calls) <= 50_000

    def test_rejects_negative_rate(self):
        with pytest.raises(InvalidParams):
            poisson_kernel(BasisFunction.monomial(1), -1.0)

    @pytest.mark.parametrize("degree", [1, 1.5])
    @pytest.mark.parametrize("v", [-1.0, math.inf, math.nan])
    def test_rejects_bad_rate_on_both_evaluators(self, degree, v):
        # Both evaluators: the moment polynomial and the series.
        b = BasisFunction.monomial(degree)
        with pytest.raises(InvalidParams):
            poisson_kernel(b, v)
        with pytest.raises(InvalidParams):
            poisson_kernel_derivative(b, v)

    def test_polynomial_overflow_raises(self):
        b = BasisFunction.monomial(120)
        with pytest.raises(KernelOverflow):
            poisson_kernel(b, 1e3)
        with pytest.raises(KernelOverflow):
            poisson_kernel_derivative(b, 1e3)


class TestKernelDerivative:
    def test_linear_generator(self):
        # p(v) = v + v^2, so p'(1) = 3.
        b = BasisFunction.monomial(1)
        assert poisson_kernel_derivative(b, 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_constant_generator(self):
        b = BasisFunction.monomial(0)
        for v in (0.0, 0.5, 2.0, 11.0):
            assert poisson_kernel_derivative(b, v) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("degree", [0.5, 1, 2, 3])
    def test_matches_central_differences(self, degree):
        b = BasisFunction.monomial(degree)
        h = 1e-6
        for v in (0.3, 1.0, 4.0):
            fd = (poisson_kernel(b, v + h) - poisson_kernel(b, v - h)) / (2 * h)
            assert poisson_kernel_derivative(b, v) == pytest.approx(fd, rel=1e-5)

    def test_derivative_nondecreasing_quadratic(self):
        # Convexity of the kernel: its derivative grows along a grid.
        b = BasisFunction.monomial(2)
        grid = [0.1 * i for i in range(1, 101)]
        values = [poisson_kernel_derivative(b, v) for v in grid]
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(values, values[1:]))

    def test_monomial_horner_loops_equal_the_index_loops(self):
        # Bit for bit, through overflow to inf at the top degrees and rates.
        points = ([0.0, 0.5, 1.0, 2.0, 3.7, 8.0, 120.5, 999.999]
                  + [10.0 ** (e / 4) for e in range(-40, 25)])
        for degree in range(121):
            got = kernel_evaluators(BasisFunction.monomial(degree))
            want = reference_kernel.monomial_evaluators(degree)
            for f, g in zip(got, want):
                assert [f(v).hex() for v in points] == [g(v).hex() for v in points]

    def test_kernel_second_differences_nonnegative(self):
        for basis in (BasisFunction.monomial(1.5), BasisFunction.table([1.0, 3.0, 6.0])):
            grid = [0.2 * i for i in range(1, 60)]
            p = [poisson_kernel(basis, v) for v in grid]
            for i in range(1, len(p) - 1):
                assert p[i + 1] - 2 * p[i] + p[i - 1] >= -1e-9


class TestRhoFactor:
    def test_linear_generator(self):
        report = rho_factor(BasisFunction.monomial(1))
        assert report.value == pytest.approx(2.0, rel=1e-9)
        assert report.argmax == 1
        assert not report.infinite

    def test_constant_generator(self):
        report = rho_factor(BasisFunction.monomial(0))
        assert report.value == pytest.approx(1.0, rel=1e-12)

    def test_affine_table(self):
        report = rho_factor(BasisFunction.table([2.0, 3.0]))
        assert report.value == pytest.approx(1.5, rel=1e-9)
        assert report.argmax == 1

    @pytest.mark.parametrize("degree", [0.5, 1, 2, 3, 4])
    def test_monomial_argmax_at_one(self, degree):
        assert rho_factor(BasisFunction.monomial(degree)).argmax == 1

    def test_reported_value_is_max_of_samples(self):
        report = rho_factor(BasisFunction.monomial(2))
        assert report.value == max(report.samples)

    def test_samples_at_least_one(self):
        report = rho_factor(BasisFunction.table([1.0, 2.0, 4.0]))
        assert all(s >= 1.0 - 1e-9 for s in report.samples)

    def test_infinite_flag_on_nonconvergence(self, tiny_term_cap):
        report = rho_factor(BasisFunction.monomial(40.5))
        assert report.infinite and math.isinf(report.value)

    def test_report_round_trip(self, tiny_term_cap):
        for report in (rho_factor(BasisFunction.monomial(1)),
                       rho_factor(BasisFunction.monomial(40.5))):
            assert RhoReport.from_json(report.to_json()) == report

    def test_integer_monomial_ignores_series_cap(self, tiny_term_cap):
        # The moment polynomial has no term cap: rho(x^40) is B(41) exactly.
        report = rho_factor(BasisFunction.monomial(40))
        assert not report.infinite
        assert report.value == float(mp.bell(41))

    def test_ratio_past_the_double_range_raises(self):
        # p(1) is about 1 while c(1) = 5e-324.
        with pytest.raises(KernelOverflow):
            rho_factor(BasisFunction.table([5e-324, 1.0]))

    @pytest.mark.parametrize("degree", range(5))
    def test_integer_monomials_give_exact_bell(self, degree):
        report = rho_factor(BasisFunction.monomial(degree))
        assert report.value == bell_triangle(degree + 1)[degree + 1]
        assert report.argmax == 1


class TestBellFractional:
    def test_first_values(self):
        assert bell_fractional(1) == pytest.approx(2.0, rel=1e-9)
        assert bell_fractional(2) == pytest.approx(5.0, rel=1e-9)

    def test_constant_generator(self):
        assert bell_fractional(0) == pytest.approx(1.0, rel=1e-12)

    def test_matches_bell_triangle(self):
        bells = bell_triangle(8)
        for d in range(8):
            assert bell_fractional(d) == pytest.approx(bells[d + 1], rel=1e-9)

    def test_monotone_in_degree(self):
        values = [bell_fractional(d / 4) for d in range(17)]
        assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))


class TestMuFactor:
    def test_linear_generator_equals_rho(self):
        assert mu_factor(BasisFunction.monomial(1)) == pytest.approx(2.0, rel=1e-9)

    def test_constant_generator(self):
        assert mu_factor(BasisFunction.monomial(0)) == pytest.approx(1.0, rel=1e-9)

    def test_affine_table_with_real_extension(self):
        mu = mu_factor(BasisFunction.table([2.0, 3.0]), monomial_like=True)
        assert mu == pytest.approx(2.0, rel=1e-6)

    def test_plain_table_rejected(self):
        with pytest.raises(UnsupportedBasis):
            mu_factor(BasisFunction.table([2.0, 3.0]))

    @pytest.mark.parametrize("degree", [0, 0.5, 1, 2, 3])
    def test_dominates_rho(self, degree):
        basis = BasisFunction.monomial(degree)
        assert (mu_factor(basis)
                >= rho_factor(basis).value - 1e-9)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_monomials_equal_bell(self, degree):
        assert mu_factor(BasisFunction.monomial(degree)) == pytest.approx(
            bell_fractional(degree), rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-320, 5e-324, 1e-300, 3.0, 1e300])
    @pytest.mark.parametrize("values", [[1.0, 2.0], [1.0, 2.0, 3.0], [2.0, 3.0, 5.0]])
    def test_scale_invariant(self, values, scale):
        """``mu`` is a ratio of costs, so scaling the table changes nothing,
        down to subnormal entries (``5e-324 * 3`` is exactly ``1.5e-323``)."""
        want = mu_factor(BasisFunction.table(values), monomial_like=True)
        mu = mu_factor(BasisFunction.table([v * scale for v in values]),
                       monomial_like=True)
        assert mu == pytest.approx(want, rel=1e-15)

    def test_span_past_the_double_range_is_infinite(self):
        basis = BasisFunction.table([5e-324, 1.0])
        assert mu_factor(basis, monomial_like=True) == math.inf

    @settings(max_examples=200, deadline=None)
    @given(values=valid_tables(), x=st.floats(1e-3, 1e3))
    def test_log_cost_ratios_match_pointwise_interpolation(self, values, x):
        basis = BasisFunction.table(values)
        want = [math.log(c_real(basis, x * i) / c_real(basis, x))
                for i in range(1, 171)]
        assert list(_log_cost_ratios(basis, x)) == pytest.approx(
            want, rel=1e-12, abs=1e-12)


class TestBinomialExpectation:
    def test_point_mass_at_h(self):
        c = [x ** 3 for x in range(4)]
        assert binomial_expectation(c, 3, 3) == 27.0

    def test_identity_recovers_mean(self):
        c = list(range(11))
        assert binomial_expectation(c, 10, 4) == pytest.approx(4.0, rel=1e-12)

    def test_square_cost(self):
        # Var + mean^2 = 10 * 0.2 * 0.8 + 4 = 5.6
        c = [x * x for x in range(11)]
        assert binomial_expectation(c, 10, 2) == pytest.approx(5.6, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParams):
            binomial_expectation([0, 1], 1, 2)
        with pytest.raises(InvalidParams):
            binomial_expectation([0], 1, 1)

    def test_large_h_stays_finite(self):
        c = [x * x * x for x in range(2001)]
        value = binomial_expectation(c, 2000, 2)
        assert value == pytest.approx(poisson_kernel(BasisFunction.monomial(2), 2.0),
                                      rel=1e-2)

    def test_convergence_to_poisson_kernel(self):
        # Quadratic generator, rate 2: the binomial expectation of x^3
        # approaches the kernel from below as h grows.
        basis = BasisFunction.monomial(2)
        p = poisson_kernel(basis, 2.0)
        gaps = []
        for h in (10, 100, 1000):
            c = basis.cost_table(h)
            gaps.append(abs(binomial_expectation(c, h, 2) - p))
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] < 0.05

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("h,k", [(5, 2), (12, 3), (40, 4), (100, 2)])
    def test_convex_ordering_never_exceeds_kernel(self, degree, h, k):
        basis = BasisFunction.monomial(degree)
        c = basis.cost_table(h)
        assert (binomial_expectation(c, h, k)
                <= poisson_kernel(basis, float(k)) + 1e-9)


class TestKernelEvaluators:
    @pytest.mark.parametrize("degree", [0, 1, 2, 5])
    def test_polynomial_fast_path_matches_series(self, degree):
        basis = BasisFunction.monomial(degree)
        p, dp = kernel_evaluators(basis)

        def delta_c(i):
            return basis.c(i + 1) - basis.c(i)

        for v in (0.0, 0.3, 1.0, 2.5, 7.0):
            assert p(v) == pytest.approx(kernel_oracle(basis, v), rel=1e-12, abs=1e-12)
            assert p(v) == pytest.approx(_poisson_series(basis.c, v),
                                         rel=1e-12, abs=1e-12)
            assert dp(v) == pytest.approx(_poisson_series(delta_c, v),
                                          rel=1e-12, abs=1e-12)

    def test_fractional_degree_uses_series(self):
        basis = BasisFunction.monomial(1.5)
        p, _ = kernel_evaluators(basis)
        assert p(2.0) == poisson_kernel(basis, 2.0)


def table_kernel_oracle(basis, v):
    """``p(v)`` and ``p'(v)`` as an explicit finite Poisson sum at 60 digits.

    About ``3v + 200`` terms, far past the Poisson mass at every ``v`` used
    here; each term is exact in ``mpmath``, so no tail estimate is needed.
    """
    with mp.workdps(60):
        v = mp.mpf(v)
        c = [mp.mpf(x) * mp.mpf(basis.b(x))
             for x in range(int(3 * v) + 202)]
        p = dp = mp.mpf(0)
        w = mp.exp(-v)
        for x in range(len(c) - 1):
            p += c[x] * w
            dp += (c[x + 1] - c[x]) * w
            w = w * v / (x + 1)
        return p, dp


ORACLE_TABLES = {
    "const": [2.0],
    "linear": [1.0, 2.0, 3.0],
    "convex": [1.0, 1.5, 2.5],
    "square-L4": [float(x * x) for x in range(1, 5)],
    "quartic-L30": [float(x ** 4) for x in range(1, 31)],
    "steep-L12": [float(3 ** x) for x in range(1, 13)],
    # Long enough that exp(-v) underflows below L.
    "long-L1000": [x ** 1.5 for x in range(1, 1001)],
}


def oracle_rates(length):
    return [0.0, 1e-9, 1e-6, 0.01, 0.3, length - 0.01, float(length),
            2.0 * length, 200.0, 700.0]


class TestTableKernel:
    @pytest.mark.parametrize("name", sorted(ORACLE_TABLES))
    def test_matches_finite_sum_oracle(self, name):
        basis = BasisFunction.table(ORACLE_TABLES[name])
        p, dp = kernel_evaluators(basis)
        for v in oracle_rates(len(basis.values)):
            want_p, want_dp = table_kernel_oracle(basis, v)
            assert abs(p(v) - want_p) <= 1e-13 * abs(want_p), (name, v)
            assert abs(dp(v) - want_dp) <= 1e-13 * abs(want_dp), (name, v)

    @settings(max_examples=150, deadline=None)
    @given(values=valid_tables(), v=st.floats(0.0, 60.0))
    def test_matches_series(self, values, v):
        basis = BasisFunction.table(values)
        p, dp = kernel_evaluators(basis)

        def delta_c(i):
            return basis.c(i + 1) - basis.c(i)

        assert p(v) == pytest.approx(_poisson_series(basis.c, v), rel=1e-12, abs=0)
        assert dp(v) == pytest.approx(_poisson_series(delta_c, v), rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", sorted(ORACLE_TABLES))
    def test_ignores_series_term_cap(self, name, tiny_term_cap):
        basis = BasisFunction.table(ORACLE_TABLES[name])
        p, dp = kernel_evaluators(basis)
        for v in oracle_rates(len(basis.values)) + [1e4]:
            assert math.isfinite(poisson_kernel(basis, v))
            assert math.isfinite(p(v)) and math.isfinite(dp(v))
        report = rho_factor(basis)
        assert not report.infinite

    def test_directly_built_table_is_cacheable(self):
        basis = BasisFunction(kind="table", values=[1.0, 2.0])
        assert kernel_evaluators(basis)[0](1.0) == poisson_kernel(
            BasisFunction.table([1.0, 2.0]), 1.0)

    @pytest.mark.parametrize("values", [[1e308], [1e308, 1e308], [1.0, 1e308]])
    def test_overflowing_table_raises_kernel_overflow(self, values):
        # c(x) = x * b(x) leaves the double range just past the table.
        with pytest.raises(KernelOverflow):
            poisson_kernel(BasisFunction.table(values), 1.0)
