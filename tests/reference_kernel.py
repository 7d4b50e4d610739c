"""Scalar reference for the real-argument cost ratios behind ``mu_factor``.

``kernel._log_cost_ratios`` interpolates tables in numpy; this is the
pointwise evaluation it is checked against.
"""

import math


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
