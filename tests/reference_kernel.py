"""Scalar references for the kernel module.

``kernel._log_cost_ratios`` interpolates tables in numpy; ``b_real`` and
``c_real`` are the pointwise evaluation it is checked against.
``monomial_evaluators`` are the integer-monomial Horner loops the solver
priced its objective with before they ran over coefficient tuples; the
library's loops must equal them bit for bit.
"""

import math

from tollkit import kernel
from tollkit.kernel import _stirling_row


def b_real(basis, t):
    """``b`` at a real argument: monomials extend naturally; tables are
    interpolated linearly through ``(0, 0)`` and the integer knots, then
    continue with the tail slope, held flat when the last step is down
    (validation admits such a step as rounding slack)."""
    if t <= 0.0:
        return 0.0
    if basis.kind == "monomial":
        return t ** basis.degree
    vals = basis.values
    if t <= 1.0:
        return t * vals[0]
    if t >= len(vals):
        return vals[-1] + (t - len(vals)) * max(basis.tail_slope, 0.0)
    lo = int(math.floor(t))
    frac = t - lo
    return vals[lo - 1] + frac * (vals[lo] - vals[lo - 1])


def c_real(basis, t):
    """Total cost ``t * b(t)`` at a real load."""
    return t * b_real(basis, t)


def monomial_evaluators(degree: int):
    """The ``(p, p')`` Horner pair of the integer monomial ``x**degree`` as
    ``kernel.kernel_evaluators`` built it before its loops ran over
    coefficient tuples: every evaluation walks ``i = n..1`` by index and
    forms ``i * S(n, i)`` again."""
    n = degree + 1
    coeffs = _stirling_row(n)

    def p(v: float) -> float:
        acc = 0.0
        for i in range(n, 0, -1):
            acc = acc * v + coeffs[i]
        return acc * v

    def dp(v: float) -> float:
        acc = 0.0
        for i in range(n, 0, -1):
            acc = acc * v + i * coeffs[i]
        return acc

    return p, dp


def kernel_evaluators(basis):
    """``monomial_evaluators`` for the integer monomials up to degree 120
    that have a closed form, and the library's pair for every other basis,
    whose evaluation is unchanged."""
    if (basis.kind == "monomial" and float(basis.degree).is_integer()
            and basis.degree <= 120):
        return monomial_evaluators(int(basis.degree))
    return kernel.kernel_evaluators(basis)
