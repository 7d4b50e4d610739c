import math

import mpmath as mp
import pytest

from tollkit import (BasisFunction, GameInstance, InvalidParams, TaxAudit,
                     audit_taxes, build_tax_profile, modified_cost,
                     modified_cost_table, poisson_kernel)

# The factorial-sum oracle cancels ~(x log10 v^-1 + log10 x!) digits at small
# v; 80 digits keeps ~40 significant ones on the whole grid.
mp.mp.dps = 80

GRID_DEGREES = (0, 0.5, 1, 2, 3)
GRID_V = (0.1, 0.5, 1.0, 2.0, 5.0)
GRID_X = 20


def modified_cost_direct(basis, x, v, p):
    """Literal factorial-sum form of ``f(x, v)``.

    Only meaningful where the sum is well conditioned (roughly ``v`` not far
    below ``x``); an independent cross-check of the recursion.
    """
    if x == 0:
        return 0.0
    acc = 0.0
    coef = 1.0 / v  # (x-1)! / (i! * v^(x-i)) at i = x-1
    for i in range(x - 1, -1, -1):
        acc += (p - basis.c(i)) * coef
        coef *= i / v
    return acc


def oracle_table(basis, v, x_cap, terms=400):
    """High-precision factorial-sum evaluation, independent of the package."""
    p = mp.mpf(0)
    for i in range(1, terms):
        p += mp.mpf(basis.c(i)) * mp.mpf(v) ** i / mp.factorial(i)
    p *= mp.e ** (-mp.mpf(v))
    out = [mp.mpf(0)]
    for x in range(1, x_cap + 1):
        s = mp.mpf(0)
        for i in range(x):
            s += (p - mp.mpf(basis.c(i))) * mp.mpf(v) ** i / mp.factorial(i)
        out.append(mp.factorial(x - 1) / mp.mpf(v) ** x * s)
    return [float(f) for f in out]


class TestModifiedCost:
    def test_boundary_zero_load(self):
        for v in (0.0, 0.5, 3.0):
            assert modified_cost(BasisFunction.monomial(2), 0, v) == 0.0

    def test_boundary_zero_parameter(self):
        assert modified_cost(BasisFunction.monomial(2), 3, 0.0) == 9.0

    def test_tiny_parameter_uses_limit(self):
        assert modified_cost(BasisFunction.monomial(2), 3, 1e-12) == 9.0

    def test_first_load_is_kernel_over_parameter(self):
        for basis in (BasisFunction.monomial(1), BasisFunction.table([1.0, 3.0])):
            for v in (0.2, 1.0, 4.0):
                expected = poisson_kernel(basis, v) / v
                assert modified_cost(basis, 1, v) == pytest.approx(expected, rel=1e-12)

    def test_hand_value_linear_generator(self):
        # p(1) = 2, f(2, 1) = 1! * [(2 - 0)/0! + (2 - 1)/1!] = 3.
        assert modified_cost(BasisFunction.monomial(1), 2, 1.0) == pytest.approx(3.0)

    def test_linear_generator_closed_form(self):
        # The recursion forces f(x, v) = x + v for b(x) = x.
        b = BasisFunction.monomial(1)
        for v in (0.1, 0.9, 2.0, 7.5):
            table = modified_cost_table(b, v, 30)
            for x in range(1, 31):
                assert table[x] == pytest.approx(x + v, rel=1e-12)

    @pytest.mark.parametrize("degree", GRID_DEGREES)
    @pytest.mark.parametrize("v", GRID_V)
    def test_matches_high_precision_oracle(self, degree, v):
        basis = BasisFunction.monomial(degree)
        expected = oracle_table(basis, v, GRID_X)
        got = modified_cost_table(basis, v, GRID_X)
        for x in range(GRID_X + 1):
            assert got[x] == pytest.approx(expected[x], rel=1e-9, abs=1e-9)

    def test_table_basis_matches_oracle(self):
        basis = BasisFunction.table([1.0, 2.5, 4.5])
        for v in (0.3, 1.7):
            expected = oracle_table(basis, v, 12)
            got = modified_cost_table(basis, v, 12)
            for x in range(13):
                assert got[x] == pytest.approx(expected[x], rel=1e-9)

    def test_direct_sum_agrees_where_conditioned(self):
        # The factorial sum is reliable while v is not far below x.
        for degree in (1, 2, 3):
            basis = BasisFunction.monomial(degree)
            for v in (1.0, 2.0, 5.0):
                p = poisson_kernel(basis, v)
                table = modified_cost_table(basis, v, 10)
                for x in range(1, 11):
                    direct = modified_cost_direct(basis, x, v, p)
                    assert table[x] == pytest.approx(direct, rel=1e-7)

    def test_rejects_negative_load(self):
        with pytest.raises(InvalidParams):
            modified_cost(BasisFunction.monomial(1), -1, 1.0)


class TestPropertyGrid:
    """Recursion, monotonicity, and dominance on the full verification grid."""

    @pytest.mark.parametrize("degree", GRID_DEGREES)
    @pytest.mark.parametrize("v", GRID_V)
    def test_recursion_residual(self, degree, v):
        basis = BasisFunction.monomial(degree)
        p = poisson_kernel(basis, v)
        f = modified_cost_table(basis, v, GRID_X + 1)
        for x in range(GRID_X + 1):
            residual = x * basis.b(x) - x * f[x] + v * f[x + 1] - p
            assert abs(residual) <= 1e-8 * max(1.0, p)

    @pytest.mark.parametrize("degree", GRID_DEGREES)
    @pytest.mark.parametrize("v", GRID_V)
    def test_monotone_in_load(self, degree, v):
        f = modified_cost_table(BasisFunction.monomial(degree), v, GRID_X + 1)
        for x in range(GRID_X + 1):
            assert f[x + 1] >= f[x] - 1e-9

    @pytest.mark.parametrize("degree", GRID_DEGREES)
    @pytest.mark.parametrize("v", GRID_V)
    def test_dominates_generator(self, degree, v):
        basis = BasisFunction.monomial(degree)
        f = modified_cost_table(basis, v, GRID_X)
        for x in range(GRID_X + 1):
            assert f[x] >= basis.b(x) - 1e-9

    def test_zero_load_recursion_row(self):
        # At x = 0 the recursion collapses to v * f(1, v) = p(v).
        basis = BasisFunction.monomial(2)
        for v in (0.4, 1.0, 3.0):
            f1 = modified_cost(basis, 1, v)
            assert v * f1 == pytest.approx(poisson_kernel(basis, v), rel=1e-12)


def shared_resource_instance(basis, players=2, alpha=1.0):
    return GameInstance.build([basis], [[alpha]], [[[0]]] * players)


class TestBuildTaxProfile:
    def test_zero_parameters_give_zero_taxes(self):
        inst = shared_resource_instance(BasisFunction.monomial(1))
        taxes = build_tax_profile(inst, [0.0])
        assert all(t == 0.0 for t in taxes.tau[0])
        for x in range(taxes.n_cap + 1):
            assert taxes.ell_bar[0][x] == inst.ell(0, x)

    def test_linear_generator_unit_parameter(self):
        inst = shared_resource_instance(BasisFunction.monomial(1))
        taxes = build_tax_profile(inst, [1.0])
        assert taxes.tau[0][0] == 0.0
        assert taxes.tau[0][1] == pytest.approx(1.0, rel=1e-12)
        assert taxes.tau[0][2] == pytest.approx(1.0, rel=1e-12)

    def test_quadratic_generator_weighted(self):
        # tau(1) = 2 * (p(1) - 1) with p(1) = 5 for the quadratic generator.
        inst = shared_resource_instance(BasisFunction.monomial(2), alpha=2.0)
        taxes = build_tax_profile(inst, [1.0])
        assert taxes.tau[0][1] == pytest.approx(8.0, rel=1e-12)

    def test_deterministic_tables(self):
        inst = shared_resource_instance(BasisFunction.monomial(2), players=3)
        a = build_tax_profile(inst, [1.3])
        b = build_tax_profile(inst, [1.3])
        assert a == b

    def test_wrong_parameter_count(self):
        inst = shared_resource_instance(BasisFunction.monomial(1))
        with pytest.raises(InvalidParams):
            build_tax_profile(inst, [1.0, 2.0])

    def test_mixed_bases_combine_linearly(self):
        b0 = BasisFunction.monomial(0)
        b1 = BasisFunction.monomial(1)
        inst = GameInstance.build([b0, b1], [[2.0, 3.0]], [[[0]], [[0]]])
        taxes = build_tax_profile(inst, [1.0])
        # Constant generator contributes no tax; linear contributes 3 * 1.
        assert taxes.tau[0][1] == pytest.approx(3.0, rel=1e-12)
        assert taxes.ell_bar[0][2] == pytest.approx(
            inst.ell(0, 2) + taxes.tau[0][2], rel=1e-12)


class TestAuditTaxes:
    def test_designed_taxes_pass(self):
        inst = GameInstance.build(
            [BasisFunction.monomial(2)], [[1.0], [2.0]],
            [[[0], [1]], [[0, 1], [1]], [[0]]])
        taxes = build_tax_profile(inst, [0.8, 1.7])
        audit = audit_taxes(inst, taxes)
        assert audit.passed
        assert all(a.max_residual <= audit.tol for a in audit.resources)
        assert all(a.min_tax >= -audit.tol for a in audit.resources)

    def test_zero_parameter_profile_passes_exactly(self):
        inst = shared_resource_instance(BasisFunction.monomial(3), players=3)
        audit = audit_taxes(inst, build_tax_profile(inst, [0.0]))
        assert audit.passed
        assert audit.resources[0].max_residual == 0.0
        assert audit.resources[0].min_tax == 0.0

    def test_tampered_taxes_fail(self):
        from tollkit import TaxProfile
        inst = shared_resource_instance(BasisFunction.monomial(1))
        taxes = build_tax_profile(inst, [1.0])
        broken = TaxProfile(
            v=taxes.v,
            tau=((0.0, -0.5, taxes.tau[0][2]),),
            ell_bar=taxes.ell_bar,
            n_cap=taxes.n_cap)
        audit = audit_taxes(inst, broken)
        assert not audit.passed
        assert audit.resources[0].min_tax == pytest.approx(-0.5)

    @staticmethod
    def designed(basis):
        from tollkit import solve_relaxation
        inst = GameInstance.build(
            [basis], [[1.0], [2.0]], [[[0], [1]], [[0, 1], [1]], [[0]]])
        return inst, build_tax_profile(inst, solve_relaxation(inst).loads)

    @pytest.mark.parametrize("bump_tau,bump_ell_bar", [
        (5.0, 0.0), (0.0, 5.0), (5.0, 5.0),
    ], ids=["tau", "ell_bar", "both-split-kept"])
    def test_tampered_stored_tables_fail(self, bump_tau, bump_ell_bar):
        # Each edit leaves v and every tax non-negative, so only a check of
        # the stored tables themselves can catch it.
        from tollkit import TaxProfile
        inst, taxes = self.designed(BasisFunction.monomial(2))
        assert audit_taxes(inst, taxes).passed

        def bumped(rows, delta):
            first = list(rows[0])
            first[1] += delta
            return (tuple(first),) + rows[1:]

        broken = TaxProfile(v=taxes.v, tau=bumped(taxes.tau, bump_tau),
                            ell_bar=bumped(taxes.ell_bar, bump_ell_bar),
                            n_cap=taxes.n_cap)
        audit = audit_taxes(inst, broken)
        assert not audit.passed
        assert audit.resources[0].min_tax >= 0.0
        if bump_tau == bump_ell_bar:
            assert audit.resources[0].max_split_error <= audit.tol
            assert audit.resources[0].max_residual > audit.tol
        else:
            assert audit.resources[0].max_split_error > audit.tol

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-7])
    def test_rejects_non_finite_or_negative_tolerance(self, tol):
        # At such a tolerance a table with tau + 5 would pass the audit.
        from tollkit import TaxProfile
        inst, taxes = self.designed(BasisFunction.monomial(2))
        first = list(taxes.tau[0])
        first[1] += 5.0
        broken = TaxProfile(v=taxes.v, tau=(tuple(first),) + taxes.tau[1:],
                            ell_bar=taxes.ell_bar, n_cap=taxes.n_cap)
        assert not audit_taxes(inst, broken).passed
        with pytest.raises(InvalidParams):
            audit_taxes(inst, broken, tol=tol)

    def test_designed_table_basis_passes(self):
        inst, taxes = self.designed(BasisFunction.table([1.0, 1.5, 2.5]))
        audit = audit_taxes(inst, taxes)
        assert audit.passed
        assert all(a.max_split_error <= audit.tol for a in audit.resources)

    def test_audit_round_trip(self):
        inst = shared_resource_instance(BasisFunction.monomial(2))
        audit = audit_taxes(inst, build_tax_profile(inst, [1.0]))
        assert TaxAudit.from_json(audit.to_json()) == audit


class TestProfileTables:
    @pytest.mark.parametrize("seed", range(12))
    def test_taxes_nonnegative_and_perceived_cost_monotone(self, seed):
        from tollkit import random_instance
        basis = [BasisFunction.monomial(seed % 4)]
        inst = random_instance(2 + seed % 3, 2 + seed % 2, basis,
                               strategy_count_range=(1, 3),
                               strategy_size_range=(1, 2), seed=seed)
        taxes = build_tax_profile(inst, [0.3 + 0.4 * r
                                         for r in range(inst.num_resources)])
        for r in range(inst.num_resources):
            assert taxes.tau[r][0] == 0.0
            assert all(t >= -1e-9 for t in taxes.tau[r])
            row = taxes.ell_bar[r]
            assert all(b >= a - 1e-9 for a, b in zip(row, row[1:]))
