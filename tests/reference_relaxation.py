"""Bisection reference for the Frank-Wolfe line search.

``bisection_step`` is the 64-step bisection of the directional derivative
that ``_Objective.exact_step`` ran before it became Illinois regula falsi.
Its slope is priced here from ``kernel_evaluators`` and the instance's
coefficients, adding the same terms in the same order as the solver, so
the early exits of the two searches must agree exactly.

``segment_value`` is the segment objective in 40-digit arithmetic from
closed forms of the kernel, so comparing it at two steps measures the
steps, not the rounding of the double-precision kernels, which near the
minimum is as large as the objective's own change.
"""

from __future__ import annotations

from typing import Optional

import mpmath as mp

from tollkit import BasisFunction, GameInstance
from tollkit.kernel import kernel_evaluators


def segment_slope(instance: GameInstance, loads, delta, gamma: float) -> float:
    """Directional derivative of the objective along ``delta`` at ``gamma``."""
    dp = [kernel_evaluators(b)[1] for b in instance.basis]
    total = 0.0
    for r, d in enumerate(delta):
        if d:
            v = loads[r] + gamma * d
            m = 0.0
            for j, alpha in enumerate(instance.coefficients[r]):
                if alpha:
                    m += alpha * dp[j](v)
            total += d * m
    return total


def _stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def exact_kernel(basis: BasisFunction, v):
    """``p(v) = E[c(P)]``, ``P ~ Poi(v)``, for an integer-degree monomial or
    a table, at the working precision. A monomial's is the Touchard
    polynomial ``sum_i S(d+1, i) v^i``. Past a table's last entry ``L``,
    ``c(x) = s*x^2 + (b_L - s*L)*x`` with the table's tail slope ``s``,
    whose expectation is ``s*(v + v^2) + (b_L - s*L)*v``; the entries below
    ``L`` correct it term by term."""
    if basis.kind == "monomial":
        n = int(basis.degree) + 1
        return sum(_stirling2(n, i) * v ** i for i in range(1, n + 1))
    b = [mp.mpf(x) for x in basis.values]
    L, s = len(b), mp.mpf(basis.tail_slope)
    e1 = b[-1] - s * L
    total = s * (v + v * v) + e1 * v
    for x in range(1, L):
        total += (x * b[x - 1] - (s * x + e1) * x) * mp.exp(-v) * v ** x / mp.factorial(x)
    return total


def segment_value(instance: GameInstance, loads, delta, gamma: float):
    """Objective of the resources ``delta`` moves, at step ``gamma``, as a
    40-digit ``mpf``."""
    with mp.workdps(40):
        total = mp.mpf(0)
        for r, d in enumerate(delta):
            if d:
                v = mp.mpf(loads[r]) + mp.mpf(gamma) * mp.mpf(d)
                for j, alpha in enumerate(instance.coefficients[r]):
                    if alpha:
                        total += mp.mpf(alpha) * exact_kernel(instance.basis[j], v)
        return +total


def early_exit(instance: GameInstance, loads, delta,
               hi: float) -> Optional[float]:
    """The step the line search returns without searching, or None."""
    if hi <= 0.0:
        return 0.0
    if segment_slope(instance, loads, delta, 0.0) >= 0.0:
        return 0.0
    if segment_slope(instance, loads, delta, hi) <= 0.0:
        return hi
    return None


def bisection_step(instance: GameInstance, loads, delta, hi: float) -> float:
    """Minimiser of the segment objective on ``[0, hi]``: 64 bisections of
    the slope's sign change after the early exits."""
    step = early_exit(instance, loads, delta, hi)
    if step is not None:
        return step
    lo, up = 0.0, hi
    for _ in range(64):
        mid = 0.5 * (lo + up)
        if segment_slope(instance, loads, delta, mid) < 0.0:
            lo = mid
        else:
            up = mid
    return 0.5 * (lo + up)
