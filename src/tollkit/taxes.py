"""Parameterised congestion taxes built from the Poisson load kernel.

For a generator ``b`` and parameter ``v >= 0`` the modified cost generator
``f(x, v)`` is, for integer ``x >= 1`` and ``v > 0``,

    f(x, v) = ((x-1)! / v^x) * sum_{i=0}^{x-1} (p(v) - i*b(i)) * v^i / i!

with boundaries ``f(0, v) = 0`` and ``f(x, 0) = b(x)``, where ``p`` is the
load kernel of ``b``. The family satisfies, for every ``x >= 0``,

    x*b(x) - x*f(x, v) + v*f(x+1, v) = p(v)

which pins the whole table once ``f(1, v) = p(v)/v`` is known, and also
implies ``f`` non-decreasing in ``x`` and ``f(x, v) >= b(x)``, i.e.
non-negative taxes ``tau(x) = f(x, v) - b(x)``.

The explicit factorial sum is ill-conditioned whenever ``v^x / (x-1)!`` is
small: the summands then cancel to a result many orders below their own
magnitude. Evaluation therefore runs on the recursion instead, forwards
(stable while ``x <= v``) and backwards from a far seed (stable while
``x > v``, each step contracting errors by ``v/x``); see
``modified_cost_table``. The test suite keeps the factorial sum as a
cross-check for well-conditioned arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InvalidParams, KernelOverflow, require_finite_nonnegative
from .game import BasisFunction, GameInstance, TaxProfile, check_tax_cover
from .kernel import poisson_kernel

# Below this parameter the tables collapse to the v -> 0 limit f(x, 0) = b(x),
# avoiding the v^x denominators.
V_FLOOR = 1e-8


def modified_cost_table(basis: BasisFunction, v: float, x_cap: int) -> list[float]:
    """``[f(0, v), ..., f(x_cap, v)]`` for one generator.

    Forward recursion ``f(x+1) = (p - x*b(x) + x*f(x)) / v`` seeds from
    ``f(1) = p/v`` and is used while ``x <= v`` (it adds only non-negative
    terms and contracts rounding by ``x/v``). Loads beyond that come from
    the backward form ``f(x) = b(x) + (v*f(x+1) - p) / x`` started at a seed
    ``f(X0) ~ b(X0)`` far enough above ``x_cap`` that the per-step error
    factor ``v/x < 1`` has wiped the seed out.
    """
    if x_cap < 0:
        raise InvalidParams(f"x_cap must be >= 0, got {x_cap}")
    if not math.isfinite(v) or v < 0:
        raise InvalidParams(f"tax parameter must be finite and >= 0, got {v}")
    if v < V_FLOOR:
        return [basis.b(x) if x else 0.0 for x in range(x_cap + 1)]

    p = poisson_kernel(basis, v)
    f = [0.0] * (x_cap + 1)
    x_forward = min(x_cap, max(1, int(math.floor(v))))
    if x_cap >= 1:
        f[1] = p / v
        for x in range(1, x_forward):
            f[x + 1] = (p - x * basis.b(x) + x * f[x]) / v

    if x_cap > x_forward:
        margin = 40 + math.ceil(9.0 * math.sqrt(max(v, 1.0)))
        x0 = x_cap + margin
        g = basis.b(x0)
        for x in range(x0 - 1, x_forward, -1):
            g = basis.b(x) + (v * g - p) / x
            if x <= x_cap:
                f[x] = g

    for x, value in enumerate(f):
        if not math.isfinite(value):
            raise KernelOverflow(f"modified cost overflowed at x={x}, v={v}")
    return f


def modified_cost(basis: BasisFunction, x: int, v: float) -> float:
    """Single value ``f(x, v)``."""
    if x < 0:
        raise InvalidParams(f"load must be >= 0, got {x}")
    return modified_cost_table(basis, v, x)[x]


def build_tax_profile(instance: GameInstance, v) -> TaxProfile:
    """Tax tables ``tau_r(x) = sum_j alpha_j^r * (f_j(x, v_r) - b_j(x))``.

    Tables cover loads ``0..N`` for ``N`` players; behaviour beyond ``N`` is
    never exercised by a valid profile. Deterministic: identical inputs give
    bit-identical tables. A table entry past the double range raises
    ``KernelOverflow`` naming its resource.
    """
    v = [float(x) for x in v]
    if len(v) != instance.num_resources:
        raise InvalidParams(
            f"expected {instance.num_resources} tax parameters, got {len(v)}")
    n = instance.num_players
    f_cache: dict[tuple[int, float], list[float]] = {}
    tau_rows = []
    ell_bar_rows = []
    for r, coeffs in enumerate(instance.coefficients):
        tau = [0.0] * (n + 1)
        ell_bar = [0.0] * (n + 1)
        for j, alpha in enumerate(coeffs):
            if alpha == 0.0:
                continue
            key = (j, v[r])
            if key not in f_cache:
                try:
                    f_cache[key] = modified_cost_table(instance.basis[j], v[r], n)
                except KernelOverflow as exc:
                    raise KernelOverflow(f"resource {r}: {exc}") from exc
            f_table = f_cache[key]
            b = instance.basis[j]
            for x in range(n + 1):
                tau[x] += alpha * (f_table[x] - b.b(x))
                ell_bar[x] += alpha * f_table[x]
        if not all(map(math.isfinite, tau + ell_bar)):
            raise KernelOverflow(f"resource {r}: tax tables leave the double range")
        tau_rows.append(tuple(tau))
        ell_bar_rows.append(tuple(ell_bar))
    return TaxProfile(v=tuple(v), tau=tuple(tau_rows),
                      ell_bar=tuple(ell_bar_rows), n_cap=n)


@dataclass(frozen=True)
class ResourceAudit:
    resource: int
    max_residual: float
    min_monotonicity_gap: float
    min_tax: float
    max_split_error: float


@dataclass(frozen=True)
class TaxAudit:
    """Per-resource check of the stored tables the efficiency bound needs.

    The recursion is linear in the bases, so the combined table satisfies
    ``x*ell(x) - x*ell_bar(x) + v*ell_bar(x+1) = P(v)`` with
    ``P = sum_j alpha_j * p_j``. ``max_residual`` is its worst defect over
    ``x = 0..N-1``, scaled by ``max(1, P(v))``; ``min_monotonicity_gap``
    the smallest ``ell_bar(x+1) - ell_bar(x)``; ``min_tax`` the smallest
    ``tau`` entry; ``max_split_error`` the worst
    ``|ell_bar(x) - ell(x) - tau(x)| / max(1, |ell_bar(x)|)``. ``passed``
    holds iff the residual and split error stay within ``tol`` and the two
    minima above ``-tol``.
    """

    resources: tuple[ResourceAudit, ...]
    passed: bool
    tol: float

    def to_json(self) -> dict:
        return {**vars(self), "resources": [dict(vars(a)) for a in self.resources]}

    @classmethod
    def from_json(cls, data: dict) -> "TaxAudit":
        # An audit's ``resource`` index, then floats.
        return cls(
            resources=tuple(
                ResourceAudit(int(a["resource"]),
                              *(float(a[f.name]) for f in fields(ResourceAudit)[1:]))
                for a in data["resources"]),
            passed=bool(data["passed"]),
            tol=float(data["tol"]),
        )


def audit_taxes(instance: GameInstance, taxes: TaxProfile, tol: float = 1e-7) -> TaxAudit:
    """Check the stored ``ell_bar`` and ``tau`` tables: recursion,
    monotonicity, tax sign, and ``ell_bar == ell + tau``.

    Only the kernel values ``P(v_r)`` are computed; the tables are read as
    handed in. Failures are reported in the audit record, never raised.
    """
    require_finite_nonnegative("audit tol", tol)
    check_tax_cover(instance, taxes)
    n = taxes.n_cap
    ell_tables = instance.ell_tables(n)
    audits = []
    passed = True
    for r, coeffs in enumerate(instance.coefficients):
        v = taxes.v[r]
        ell, ell_bar, tau = ell_tables[r], taxes.ell_bar[r], taxes.tau[r]
        p_r = 0.0
        if v >= V_FLOOR:
            for j, alpha in enumerate(coeffs):
                if alpha:
                    p_r += alpha * poisson_kernel(instance.basis[j], v)
        scale = max(1.0, p_r)
        max_residual = max(
            abs(x * ell[x] - x * ell_bar[x] + v * ell_bar[x + 1] - p_r) / scale
            for x in range(n))
        min_gap = min(ell_bar[x + 1] - ell_bar[x] for x in range(n))
        min_tax = min(tau)
        max_split = max(abs(eb - e - t) / max(1.0, abs(eb))
                        for e, eb, t in zip(ell, ell_bar, tau))
        audits.append(ResourceAudit(resource=r, max_residual=max_residual,
                                    min_monotonicity_gap=min_gap, min_tax=min_tax,
                                    max_split_error=max_split))
        if (max_residual > tol or max_split > tol or min_gap < -tol
                or min_tax < -tol):
            passed = False
    return TaxAudit(resources=tuple(audits), passed=passed, tol=tol)
