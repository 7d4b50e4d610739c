"""Poisson load kernels and efficiency factors for cost generators.

The central quantity is the load kernel

    p(v) = E_{P ~ Poi(v)}[P * b(P)] = exp(-v) * sum_{i>=0} i*b(i) * v^i / i!

of a generator ``b``. Its ratio against the deterministic cost ``x * b(x)``
over integer ``x`` gives the efficiency factor ``rho_b``; the analogous
ratio with a scaled unit-rate Poisson over real ``x`` gives the rounding
factor ``mu_b >= rho_b``. For the monomial ``b(x) = x**d`` the factor equals
the fractional Bell number ``exp(-1) * sum_i i**(d+1) / i!``.

Integer-degree monomials (degree up to 120) and table bases have exact
kernels; only non-integer degrees and higher integer degrees run the
truncated series, cut by ``SERIES_TOL`` and ``SERIES_TERMS`` (see
``kernel_evaluators``). The series and a table's head sum walk the Poisson
weights out from one start (``_poisson_start``): ``x = 0`` up to rate
``_EXP_SAFE``, the Poisson mode above it. Every weight stays a normalised
probability, so nothing is rescaled, and above ``_EXP_SAFE`` the series
costs ``O(sqrt(v))`` terms.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParams, KernelNonConvergent, KernelOverflow, UnsupportedBasis
from .game import BasisFunction

SERIES_TOL = 1e-14  # relative size at which the series' decreasing tail is cut
SERIES_TERMS = 10_000  # terms the series may run past the Poisson peak i ~ v
RHO_STALL = 50  # loads in a row without a new maximum that end rho_factor's scan
MU_GRID = (1e-3, 1e3, 2048)  # mu_factor's first log-spaced grid: low, high, points


@functools.cache
def _stirling_row(n: int) -> tuple[float, ...]:
    """Stirling partition numbers ``S(n, 0..n)``."""
    row = [1.0]
    for m in range(1, n + 1):
        new = [0.0] * (m + 1)
        for k in range(1, m + 1):
            new[k] = k * (row[k] if k < m else 0.0) + row[k - 1]
        row = new
    return tuple(row)


# Below this rate exp(-v) is a normal double, so Poisson weights can be
# walked up from x = 0; above it the walk starts from a log-space anchor.
_EXP_SAFE = 700.0
# A table tail is cut once the geometric bound on what is left drops below
# this share of its first term.
_TAIL_EPS = 1e-17


def _poisson_weight(m: int, v: float) -> float:
    """``Poi(m; v)`` for ``v > _EXP_SAFE`` and ``m >= 1``.

    Uses ``log Poi(m; v) = -m*(d - log1p(d)) - log(2*pi*m)/2 - e(m)`` with
    ``d = (v - m)/m`` and the Stirling remainder ``e(m)``, whose parts stay
    small, instead of ``m*log(v) - v - lgamma(m + 1)``, whose parts run to
    thousands and would cost ~1e-13 of relative accuracy. The three-term
    series for ``e(m)`` is inexact only for small ``m``, where the weight
    is below ``exp(-500)`` at such rates and counts for nothing.
    """
    d = (v - m) / m
    stirling = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * m * m)) / (m * m)) / m
    return math.exp(-m * (d - math.log1p(d)) - stirling) / math.sqrt(2.0 * math.pi * m)


def _poisson_start(v: float, top: float = math.inf) -> tuple[int, float]:
    """Index ``m`` and weight ``Poi(m; v)`` at which a walk over Poisson
    weights starts: ``x = 0`` with ``exp(-v)`` up to ``_EXP_SAFE``, above
    it the mode ``int(v)`` (or ``top`` if lower) with a log-space weight.
    Weights walked to from there never overflow; those lost to underflow
    are below any term that counts.
    """
    if v <= _EXP_SAFE:
        return 0, math.exp(-v)
    m = min(int(v), top)
    return m, _poisson_weight(m, v)


def _poisson_series(coef: Callable[[int], float], v: float) -> float:
    """``sum_{i>=0} coef(i) * Poi(i; v)`` for non-negative, non-decreasing
    ``coef``.

    The walk starts at ``_poisson_start`` and first runs up. Once the
    Poisson peak (``i ~ v``) is past and the terms are decreasing, each
    term bounds what is left by the geometric series of its ratio ``r`` to
    the previous one, ``term * r / (1 - r)``, and the walk stops when that
    falls to ``SERIES_TOL`` of the sum, or when the weights underflow to 0.
    The term cap counts from that peak, ``ceil(v) + SERIES_TERMS``, because
    no series can stop before it; reaching the cap raises
    ``KernelNonConvergent``. Below the start a step down from ``i``
    multiplies the weight by ``i / v`` and ``coef`` does not grow, so the
    walk down stops once ``term * r / (1 - r)`` with ``r = i / v`` falls to
    the same share. The cost grows with ``sqrt(v)`` above ``_EXP_SAFE``,
    where the walk starts at the peak.
    """
    if v < 0 or not math.isfinite(v):
        raise InvalidParams(f"kernel parameter must be finite and >= 0, got {v}")
    start, anchor = _poisson_start(v)
    cap = math.ceil(v) + SERIES_TERMS
    total = 0.0
    w, prev = anchor, math.inf
    for i in range(start, cap + 1):
        term = coef(i) * w
        if not math.isfinite(term):
            raise KernelOverflow(f"kernel term overflowed at i={i}, v={v}")
        total += term
        # term * r / (1 - r) with r = term / prev, formed so that it cannot
        # overflow where the sum does not.
        if i > v and (w == 0.0 or term < prev and
                      term * (term / (prev - term)) <= SERIES_TOL * total):
            break
        prev = term
        w *= v / (i + 1)
    else:
        raise KernelNonConvergent(f"series did not settle within {cap} terms at v={v}")
    w = anchor
    for i in range(start - 1, -1, -1):
        w *= (i + 1) / v
        term = coef(i) * w
        total += term
        # term * r / (1 - r) with r = i / v.
        if term * (i / (v - i)) <= SERIES_TOL * total:
            break
    return total


def _head_sum(coef: tuple[float, ...], v: float) -> tuple[float, float]:
    """``sum_{x<n} coef[x] * Poi(x; v)`` and ``Poi(n; v)``, ``n = len(coef)``.

    The walk starts at ``_poisson_start`` capped at ``n`` and runs down,
    then up to ``n``.
    """
    n = len(coef)
    m, w = _poisson_start(v, n)
    total = 0.0
    if m:  # table kernels run this per evaluation: no empty walk down
        anchor = w
        for x in range(m - 1, -1, -1):
            w *= (x + 1) / v
            total += coef[x] * w
        w = anchor
    for x in range(m, n):
        total += coef[x] * w
        w *= v / (x + 1)
    return total, w


def _table_evaluator(head: tuple[float, ...], e2: float, e1: float,
                     e0: float) -> Callable[[float], float]:
    """Exact ``E_{P~Poi(v)}[g(P)]`` for ``g(x) = head[x]`` below
    ``L = len(head)`` and ``g(x) = q(x) = (e2*u + e1)*u + e0`` with
    ``u = x - L`` from ``L`` on.

    The ``e`` coefficients are non-negative, so ``q`` is evaluated without
    cancellation. Below ``L`` the head and the tail are summed directly:
    every term is non-negative, so nothing cancels at small ``v``. The tail
    is ``Poi(L; v) * sum_u b_u * (v/L)^u`` with
    ``b_u = q(L+u) * L^u * L!/(L+u)!``, run by Horner's rule over
    coefficients fixed here. Its terms only shrink as ``v`` falls below
    ``L``, so the cut that leaves a remainder under ``_TAIL_EPS * q(L)`` at
    ``v = L`` holds for every ``v < L``. From ``L`` on the closed form
    ``E[q(P)] = e2*(v + (v-L)^2) + e1*(v-L) + e0`` takes over, plus the
    finite head correction ``sum_{x<L} (head[x] - q(x)) * Poi(x; v)``.
    """
    L = len(head)
    # b_u = q(L+u) * prod_{j<=u} L/(L+j) is the tail term at v = L; its
    # ratio falls once it is below 1, which bounds the remainder
    # geometrically.
    coeffs = [e0]
    weight = 1.0
    u = 0
    while True:
        u += 1
        weight *= L / (L + u)
        term = ((e2 * u + e1) * u + e0) * weight
        if not math.isfinite(term):
            raise KernelOverflow(f"table kernel tail overflowed at x={L + u}")
        prev = coeffs[-1]
        coeffs.append(term)
        if term < prev:
            r = term / prev
            if term * r <= _TAIL_EPS * (1.0 - r) * e0:
                break
    tail = tuple(reversed(coeffs))
    correction = tuple(g - (e2 * (x - L) + e1) * (x - L) - e0
                       for x, g in enumerate(head))
    if not all(map(math.isfinite, correction)):
        raise KernelOverflow("table kernel head correction overflowed")

    def evaluate(v: float) -> float:
        if v >= L:
            d = v - L
            return (e2 * (v + d * d) + e1 * d + e0
                    + _head_sum(correction, v)[0])
        total, w = _head_sum(head, v)
        y = v / L
        acc = 0.0
        for coeff in tail:
            acc = acc * y + coeff
        return total + w * acc

    return evaluate


@functools.lru_cache(maxsize=256)
def kernel_evaluators(basis: BasisFunction):
    """The ``(p, p')`` evaluator pair for one basis.

    This is the one place that decides how the kernel is evaluated.
    Integer-degree monomials admit the closed moment polynomial
    ``E_{Poi(v)}[P^(d+1)] = sum_i S(d+1, i) v^i`` with Stirling partition
    coefficients, exact up to rounding, run by Horner's rule over tuples of
    the coefficients of ``p`` and ``p'`` formed once per basis. A table
    basis with ``L`` entries is affine past ``L``, so ``c(x) = x * b(x)``
    is a quadratic there and both kernels are exact finite sums
    (``_table_evaluator``). Everything else runs the truncated series
    (``_poisson_series``). The pair does not validate ``v``, so inner
    solver loops pay neither checks nor dispatch per evaluation;
    ``poisson_kernel`` and its derivative are the checked entry points.
    Pairs are cached per basis, so a ``rho_factor`` scan builds a table's
    coefficients once.
    """
    if (basis.kind == "monomial" and float(basis.degree).is_integer()
            and basis.degree <= 120):
        n = int(basis.degree) + 1
        row = _stirling_row(n)
        # Horner coefficients from the top down: S(n, i) for p / v and
        # i * S(n, i) for p', for i = n..1.
        coeffs = row[n:0:-1]
        slopes = tuple(i * row[i] for i in range(n, 0, -1))

        def p(v: float) -> float:
            acc = 0.0
            for c in coeffs:
                acc = acc * v + c
            return acc * v

        def dp(v: float) -> float:
            acc = 0.0
            for c in slopes:
                acc = acc * v + c
            return acc

        return p, dp

    c = basis.c

    def delta_c(i: int) -> float:
        return c(i + 1) - c(i)

    if basis.kind == "table":
        # With u = x - L >= 0 past the last entry b_L and tail slope s,
        # c(x) = (L + u) * (b_L + s*u) and c(x+1) - c(x) = b_L + s*(L+1+2u).
        L = len(basis.values)
        b_last = basis.values[-1]
        s = basis.tail_slope
        return (_table_evaluator(tuple(c(x) for x in range(L)),
                                 s, b_last + s * L, L * b_last),
                _table_evaluator(tuple(delta_c(x) for x in range(L)),
                                 0.0, 2.0 * s, b_last + s * (L + 1)))

    # The forward differences of the convex ``c(x) = x * b(x)`` are
    # non-negative and non-decreasing, so p' truncates by the same rule.
    return (lambda v: _poisson_series(c, v),
            lambda v: _poisson_series(delta_c, v))


def _checked(evaluate: Callable[[float], float], v: float) -> float:
    if v < 0 or not math.isfinite(v):
        raise InvalidParams(f"kernel parameter must be finite and >= 0, got {v}")
    value = evaluate(v)
    if not math.isfinite(value):
        raise KernelOverflow(f"kernel overflowed at v={v}")
    return value


def poisson_kernel(basis: BasisFunction, v: float) -> float:
    """Load kernel ``p(v) = E_{P ~ Poi(v)}[P * b(P)]``; ``p(0) = 0``."""
    return _checked(kernel_evaluators(basis)[0], v)


def poisson_kernel_derivative(basis: BasisFunction, v: float) -> float:
    """Derivative ``p'(v) = exp(-v) * sum_i (v^i / i!) * (c(i+1) - c(i))``.

    Convexity of ``p`` follows from the forward differences of ``c``
    increasing.
    """
    return _checked(kernel_evaluators(basis)[1], v)


@dataclass(frozen=True)
class RhoReport:
    """Result of the efficiency-factor scan.

    ``value`` is the largest sampled ratio ``p(x) / (x * b(x))`` (``inf``
    when the kernel diverged), ``argmax`` the integer load attaining it,
    ``x_max`` the requested scan bound, and ``samples`` the per-``x`` ratios
    actually evaluated, starting at ``x = 1``.
    """

    value: float
    argmax: Optional[int]
    x_max: int
    samples: tuple[float, ...]
    infinite: bool

    def to_json(self) -> dict:
        return {
            "rho": None if self.infinite else self.value,
            "argmax": self.argmax,
            "x_max": self.x_max,
            "samples": list(self.samples),
            "infinite": self.infinite,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RhoReport":
        infinite = bool(data["infinite"])
        return cls(
            value=math.inf if infinite else float(data["rho"]),
            argmax=None if data["argmax"] is None else int(data["argmax"]),
            x_max=int(data["x_max"]),
            samples=tuple(float(s) for s in data["samples"]),
            infinite=infinite,
        )


def rho_factor(basis: BasisFunction, x_max: int = 1000) -> RhoReport:
    """Scan ``sup_x p(x) / (x * b(x))`` over integer loads ``1..x_max``.

    The scan stops early once ``RHO_STALL`` consecutive loads fail to improve
    the maximum; for semi-convex generators the ratio stabilises, so the
    finite scan is a faithful stand-in for the supremum at desk scale. A
    non-convergent kernel at any load is reported as an infinite factor,
    not raised; a ratio past the double range raises ``KernelOverflow``.
    """
    if x_max < 1:
        raise InvalidParams(f"x_max must be >= 1, got {x_max}")
    samples: list[float] = []
    best = -math.inf
    argmax: Optional[int] = None
    since_best = 0
    infinite = False
    for x in range(1, x_max + 1):
        try:
            p = poisson_kernel(basis, float(x))
        except KernelNonConvergent:
            infinite = True
            break
        ratio = p / basis.c(x)
        if not math.isfinite(ratio):
            raise KernelOverflow(f"p(x)/c(x) at x={x} leaves the double range")
        samples.append(ratio)
        if ratio > best:
            best = ratio
            argmax = x
            since_best = 0
        else:
            since_best += 1
            if since_best >= RHO_STALL:
                break
    return RhoReport(value=math.inf if infinite else best,
                     argmax=None if infinite else argmax, x_max=x_max,
                     samples=tuple(samples), infinite=infinite)


def bell_fractional(degree: float) -> float:
    """Fractional Bell number ``exp(-1) * sum_{i>=0} i**(degree+1) / i!``.

    Equals the ``(degree+1)``'st Bell number for integer degrees and the
    efficiency factor of the monomial generator ``b(x) = x**degree``: it is
    the load kernel of that monomial at ``v = 1``.
    """
    if not math.isfinite(degree) or degree < 0:
        raise InvalidParams(f"degree must be a finite real >= 0, got {degree}")
    return poisson_kernel(BasisFunction.monomial(degree), 1.0)


# Unit-rate Poisson log-weights -1 - log(i!) for i = 1..170; 1/i! underflows
# past i ~ 170, far below any tail that could matter at double precision.
_POI1_COUNTS = np.arange(1, 171, dtype=float)
_POI1_LOG_COUNTS = np.log(_POI1_COUNTS)
_POI1_LOG_WEIGHTS = -1.0 - np.cumsum(_POI1_LOG_COUNTS)
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def _log_cost_ratios(basis: BasisFunction, x: float) -> np.ndarray:
    """``log(c(x*i) / c(x))`` for ``i = 1..170``, with ``c(t) = t * b(t)``.

    Only differences of logs are formed, so nothing overflows or underflows
    however high a monomial degree or however large ``x`` is. A table is
    divided by its first entry before it is interpolated, which leaves the
    ratios as they are and keeps subnormal tables at full precision; past
    its last entry ``log b`` is taken with the slope factored out. A last
    step down, which validation lets through as rounding slack, continues
    flat, so ``b`` stays positive.
    """
    if basis.kind == "monomial":
        return (basis.degree + 1.0) * _POI1_LOG_COUNTS
    first = basis.values[0]
    vals = np.asarray(basis.values) / first
    last, length = vals[-1], len(vals)
    t = x * _POI1_COUNTS
    tail = t > length
    log_b = np.log(np.interp(t, np.arange(length + 1.0),
                             np.concatenate(([0.0], vals))))
    slope = max(basis.tail_slope, 0.0) / first
    if slope > 0.0 and np.any(tail):
        log_b[tail] = math.log(slope) + np.log(last / slope + (t[tail] - length))
    return _POI1_LOG_COUNTS + (log_b - log_b[0])


def mu_factor(basis: BasisFunction, monomial_like: bool = False) -> float:
    """Rounding factor ``mu = sup_{x>0} E_{P~Poi(1)}[(xP) b(xP)] / (x b(x))``.

    Needs ``b`` at non-integer arguments, so plain table bases are rejected;
    pass ``monomial_like=True`` to evaluate a table through its piecewise
    linear real extension. The supremum is located on a log-spaced grid and
    refined by golden section; when it sits on the upper grid edge the grid
    is extended (the supremum of ratios like ``(2x+1)/(x+1)`` is only
    approached as ``x`` grows), capped at ``x = 1e15``.
    """
    if basis.kind == "table" and not monomial_like:
        raise UnsupportedBasis(
            "mu requires real-argument evaluation; pass monomial_like=True "
            "to use the table's piecewise linear extension")
    if basis.kind == "table" and not math.isfinite(max(basis.values) / basis.values[0]):
        # The cost ratios are formed from the table over its first entry,
        # and this table spans more than the double range.
        return math.inf

    def ratio(x: float) -> float:
        # sum_i Poi(i; 1) * c(x*i) / c(x), summed in log space.
        terms = _POI1_LOG_WEIGHTS + _log_cost_ratios(basis, x)
        top = float(np.max(terms))
        log_ratio = top + math.log(float(np.sum(np.exp(terms - top))))
        return math.exp(log_ratio) if log_ratio < _LOG_DOUBLE_MAX else math.inf

    low, high, grid_points = MU_GRID
    best_x, best = None, -math.inf
    while True:
        grid = np.geomspace(low, high, grid_points)
        values = [ratio(float(x)) for x in grid]
        idx = int(np.argmax(values))
        if values[idx] > best:
            best, best_x = values[idx], float(grid[idx])
        at_top = idx == len(grid) - 1
        if at_top and high < 1e15:
            low, high = high, min(high * 1e3, 1e15)
            grid_points = 256
            continue
        if at_top:
            return best
        lo = float(grid[max(idx - 1, 0)])
        hi = float(grid[min(idx + 1, len(grid) - 1)])
        break

    # Golden-section refinement on log x.
    a, b = math.log(lo), math.log(hi)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = ratio(math.exp(c)), ratio(math.exp(d))
    for _ in range(80):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = ratio(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = ratio(math.exp(d))
    return max(best, fc, fd)


def binomial_expectation(c_values, h: int, k: int) -> float:
    """Exact finite sum ``E_{X ~ Bin(h, k/h)}[c(X)]`` over a cost table.

    ``c_values`` must cover ``0..h``. The degenerate ``h == k`` case is the
    point mass at ``h``. Falls back to log-space terms when the binomial
    coefficients leave the double range.
    """
    if not (isinstance(h, int) and isinstance(k, int)):
        raise InvalidParams("h and k must be integers")
    if not h >= k >= 1:
        raise InvalidParams(f"need h >= k >= 1, got h={h}, k={k}")
    if len(c_values) < h + 1:
        raise InvalidParams(f"cost table must cover 0..{h}")
    if h == k:
        return float(c_values[h])
    p = k / h
    q = 1.0 - p
    try:
        return sum(float(math.comb(h, x)) * p ** x * q ** (h - x) * float(c_values[x])
                   for x in range(h + 1))
    except OverflowError:
        log_p, log_q = math.log(p), math.log(q)
        total = 0.0
        for x in range(h + 1):
            log_w = (math.lgamma(h + 1) - math.lgamma(x + 1) - math.lgamma(h - x + 1)
                     + x * log_p + (h - x) * log_q)
            total += math.exp(log_w) * float(c_values[x])
        return total
