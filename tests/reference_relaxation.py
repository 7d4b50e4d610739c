"""References for the Frank-Wolfe solver.

``solve_relaxation`` is the solver loop as it ran before its iterations were
made leaner, together with the ``_Objective``, ``_strategy_scores`` and
``_oracle_and_gap`` it called, kept as they were: per-player oracles and
gaps through ``min`` with a ``key``, the away strategy from a support list,
a Python call per margin term, and the integer-monomial kernels of
``reference_kernel.kernel_evaluators``. The library's solver runs the same
float operations in the same order, so the tests require equal profiles.

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

import math
from typing import Optional

import mpmath as mp

import reference_kernel
from tollkit import (BasisFunction, FractionalProfile, GameInstance,
                     InvalidParams, KernelOverflow, MaxItersExceeded)
from tollkit.game import loads_of
from tollkit.kernel import kernel_evaluators
from tollkit.relaxation import fractional_loads


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


class _Objective:
    """Objective, per-resource margins, and segment line search."""

    def __init__(self, instance: GameInstance):
        evaluators = [reference_kernel.kernel_evaluators(b)
                      for b in instance.basis]
        # Per resource, the ``(alpha_j, p_j)`` and ``(alpha_j, p_j')`` pairs
        # with ``alpha_j != 0`` in ``j`` order: the only terms a value or a
        # margin adds.
        self.p_terms, self.dp_terms = (
            [tuple((alpha, evaluators[j][k]) for j, alpha in enumerate(coeffs)
                   if alpha)
             for coeffs in instance.coefficients]
            for k in (0, 1))

    def value(self, loads) -> float:
        total = 0.0
        for terms, v in zip(self.p_terms, loads):
            for alpha, p in terms:
                total += alpha * p(v)
        return total

    @staticmethod
    def _margin(terms, v: float) -> float:
        """One resource's marginal cost ``sum_j alpha_j * p_j'(v)``."""
        m = 0.0
        for alpha, dp in terms:
            m += alpha * dp(v)
        return m

    def margins(self, loads) -> list[float]:
        return [self._margin(terms, v) for terms, v in zip(self.dp_terms, loads)]

    def exact_step(self, loads, delta, hi: float) -> float:
        """Minimiser of the convex segment objective on ``[0, hi]``.

        Works on the directional derivative, which is monotone along the
        segment; value-based searches bottom out once improvements drop
        below the float resolution of the objective. The segment keeps only
        the resources that ``delta`` moves, each with its load and margin
        terms, so a slope evaluation touches nothing else.

        The root of the slope is located by Illinois regula falsi on the
        bracket ``[0, hi]``: the false-position point of the bracket, with
        the value kept at one end halved whenever that end survives two
        updates in a row. A bisection step replaces it whenever it is not
        strictly inside the bracket or the bracket has not halved over the
        last two updates. The search stops at a slope of exactly 0, or when
        the bracket's midpoint no longer lies strictly inside it, and
        returns that point.
        """
        segment = [(d, loads[r], self.dp_terms[r])
                   for r, d in enumerate(delta) if d]
        margin = self._margin

        def slope(gamma: float) -> float:
            total = 0.0
            for d, v, terms in segment:
                total += d * margin(terms, v + gamma * d)
            return total

        if hi <= 0.0:
            return 0.0
        f_lo = slope(0.0)
        if f_lo >= 0.0:
            return 0.0
        f_up = slope(hi)
        if f_up <= 0.0:
            return hi
        lo, up = 0.0, hi
        kept = 0                      # -1: lo survived the last update, 1: up
        width_1 = width_2 = math.inf  # bracket widths one and two updates back
        while True:
            mid = 0.5 * (lo + up)
            if not lo < mid < up:
                return mid
            width = up - lo
            x = lo + width * (f_lo / (f_lo - f_up))
            if not lo < x < up or width > 0.5 * width_2:
                x = mid
            width_2, width_1 = width_1, width
            f = slope(x)
            if f == 0.0:
                return x
            if f < 0.0:
                lo, f_lo = x, f
                if kept == 1:
                    f_up *= 0.5
                kept = 1
            else:
                up, f_up = x, f
                if kept == -1:
                    f_lo *= 0.5
                kept = -1


def _strategy_scores(instance: GameInstance, margins) -> list[list[float]]:
    """Per-strategy sums of resource margins: the gradient in the weights."""
    return [[sum(margins[r] for r in strat) for strat in player]
            for player in instance.strategies]


def _oracle_and_gap(weights, grad) -> tuple[list[int], float]:
    """Per-player linear minimiser (ties to the lowest index) and FW gap."""
    vertex = []
    gap = 0.0
    for scores, row in zip(grad, weights):
        best_k = min(range(len(scores)), key=lambda k: (scores[k], k))
        vertex.append(best_k)
        gap += sum(w * s for w, s in zip(row, scores)) - scores[best_k]
    return vertex, gap


def solve_relaxation(instance: GameInstance, tol_gap: float = 1e-8,
                     max_iters: int = 10_000) -> FractionalProfile:
    """Frank-Wolfe on the load relaxation, from the uniform profile.

    Stops once the duality gap falls below ``tol_gap * max(1, |objective|)``
    and otherwise raises ``MaxItersExceeded`` carrying the last iterate
    (still feasible and usable; the recorded gap quantifies its
    suboptimality).

    Steps are exact line searches (``_Objective.exact_step``: Illinois
    regula falsi on the directional derivative, safeguarded by bisection),
    preferring the pairwise direction that shifts mass from each player's
    worst supported strategy onto the oracle one and falling back to the
    classic step towards the oracle vertex.
    Pairwise steps empty supported coordinates in finitely many drops,
    removing the zigzag that keeps plain Frank-Wolfe at an O(1/t) gap on
    face-constrained optima.
    """
    if not (math.isfinite(tol_gap) and tol_gap > 0):
        raise InvalidParams(f"tol_gap must be finite and > 0, got {tol_gap}")
    if max_iters < 1:
        raise InvalidParams(f"max_iters must be >= 1, got {max_iters}")

    objective_fn = _Objective(instance)
    strategies = instance.strategies
    weights = [[1.0 / instance.num_strategies(i)] * instance.num_strategies(i)
               for i in range(instance.num_players)]
    loads = fractional_loads(instance, weights)
    objective = objective_fn.value(loads)

    def snapshot(gap: float, iters: int) -> FractionalProfile:
        return FractionalProfile(
            weights=tuple(tuple(w) for w in weights), loads=tuple(loads),
            objective=objective, gap=gap, iters=iters)

    for t in range(max_iters + 1):
        grad = _strategy_scores(instance, objective_fn.margins(loads))
        vertex, gap = _oracle_and_gap(weights, grad)
        if not (math.isfinite(objective) and math.isfinite(gap)):
            raise KernelOverflow(f"objective {objective} or gap {gap} is not finite")
        if gap <= tol_gap * max(1.0, abs(objective)):
            return snapshot(gap, t)
        if t == max_iters:
            raise MaxItersExceeded(
                f"duality gap {gap:g} above tolerance after {max_iters} iterations",
                profile=snapshot(gap, t))

        moved = False
        away = []
        cap = math.inf
        delta_pw = [0.0] * instance.num_resources
        for i, scores in enumerate(grad):
            support = [k for k, w in enumerate(weights[i]) if w > 0.0]
            worst = max(support, key=lambda k: (scores[k], -k))
            if worst == vertex[i] or scores[worst] <= scores[vertex[i]]:
                continue
            away.append((i, worst))
            cap = min(cap, weights[i][worst])
            for r in strategies[i][vertex[i]]:
                delta_pw[r] += 1.0
            for r in strategies[i][worst]:
                delta_pw[r] -= 1.0
        if away:
            gamma = objective_fn.exact_step(loads, delta_pw, cap)
            if gamma > 0.0:
                for i, worst in away:
                    weights[i][vertex[i]] += gamma
                    weights[i][worst] = max(0.0, weights[i][worst] - gamma)
                moved = True
        if not moved:
            vertex_loads = loads_of(instance, vertex)
            delta_fw = [sv - v for sv, v in zip(vertex_loads, loads)]
            gamma = objective_fn.exact_step(loads, delta_fw, 1.0)
            if gamma > 0.0:
                for i, k in enumerate(vertex):
                    row = weights[i]
                    for kk in range(len(row)):
                        row[kk] *= 1.0 - gamma
                    row[k] += gamma
                moved = True
        if not moved:
            # No representable progress in either direction: the gap has
            # hit its float floor above the requested tolerance.
            raise MaxItersExceeded(
                f"no representable step improves the gap {gap:g}",
                profile=snapshot(gap, t))
        loads = fractional_loads(instance, weights)
        objective = objective_fn.value(loads)
