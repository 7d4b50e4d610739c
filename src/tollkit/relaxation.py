"""Convex load relaxation over the product of per-player simplices.

Each player spreads one unit of mass over their strategies; the fractional
load of a resource is the total mass of strategies containing it, and the
objective replaces each resource's integral cost with its Poisson load
kernel:

    minimise  sum_r sum_j alpha_j^r * p_j(v_r)
    subject to v_r = sum_{i,k: r in a_{i,k}} y_{i,k},  y_i in simplex(s_i).

The kernels are convex, loads are linear in the weights, and the feasible
set is a product of simplices whose linear minimisation oracle is an exact
per-player argmin, so Frank-Wolfe applies directly and its duality gap
``<grad, y - s>`` certifies the distance to optimality.

The kernel of an integer monomial of degree ``d <= 120`` is a polynomial
(``kernel.monomial_coefficients``), so a resource whose bases are all such
monomials costs ``sum_j alpha_j p_j``, one polynomial, and its margin one
polynomial of the largest degree ``D``. Along a step's segment the slope
of the objective is then a polynomial in the step of degree ``D``, and for
``D <= 2`` its root has a closed form. Tables, the truncated series and
higher degrees search the root of the slope by Illinois regula falsi.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import (GameValidationError, InvalidParams, KernelOverflow,
                     MaxItersExceeded)
from .game import GameInstance, load_json, loads_of, save_json
from .kernel import kernel_evaluators, monomial_coefficients, poisson_kernel

_FEASIBILITY_TOL = 1e-12


@dataclass(frozen=True)
class FractionalProfile:
    """Per-player simplex weights with derived fractional loads."""

    weights: tuple[tuple[float, ...], ...]
    loads: tuple[float, ...]
    objective: float
    gap: float
    iters: int

    def to_json(self) -> dict:
        return {
            "y": [list(w) for w in self.weights],
            "v": list(self.loads),
            "objective": self.objective,
            "gap": self.gap,
            "iters": self.iters,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FractionalProfile":
        return cls(
            weights=tuple(tuple(float(x) for x in w) for w in data["y"]),
            loads=tuple(float(x) for x in data["v"]),
            objective=float(data["objective"]),
            gap=float(data["gap"]),
            iters=int(data["iters"]),
        )

    def save(self, path) -> None:
        save_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "FractionalProfile":
        return load_json(cls, path)


def fractional_loads(instance: GameInstance, weights) -> list[float]:
    """Resource loads induced by per-player strategy weights."""
    loads = [0.0] * instance.num_resources
    for i, player_weights in enumerate(weights):
        for k, w in enumerate(player_weights):
            if w:
                for r in instance.strategies[i][k]:
                    loads[r] += w
    return loads


def check_feasible(instance: GameInstance, profile: FractionalProfile) -> None:
    """Raise unless weights are simplex points and loads match them."""
    if len(profile.weights) != instance.num_players:
        raise GameValidationError("profile does not match the player count")
    for i, w in enumerate(profile.weights):
        if len(w) != instance.num_strategies(i):
            raise GameValidationError(f"player {i}: wrong number of weights")
        if any(x < -_FEASIBILITY_TOL for x in w):
            raise GameValidationError(f"player {i}: negative weight")
        if abs(sum(w) - 1.0) > _FEASIBILITY_TOL:
            raise GameValidationError(f"player {i}: weights sum to {sum(w)}")
    recomputed = fractional_loads(instance, profile.weights)
    for r, (a, b) in enumerate(zip(recomputed, profile.loads)):
        if abs(a - b) > _FEASIBILITY_TOL * max(1.0, abs(a)):
            raise GameValidationError(
                f"resource {r}: stored load {b} != recomputed {a}")


def _merged(terms) -> list[float]:
    """``sum_j alpha_j * c_j`` over ``(alpha_j, c_j)`` pairs of ascending
    coefficient tuples, added in ``j`` order."""
    out = []
    for alpha, coeffs in terms:
        out += [0.0] * (len(coeffs) - len(out))
        for i, c in enumerate(coeffs):
            out[i] += alpha * c
    return out


class _Objective:
    """Objective, per-resource margins, and segment line search.

    A resource is polynomial when every basis with ``alpha_j != 0`` on it
    is an integer monomial of degree <= 120 (``monomial_coefficients``).
    Its value ``sum_j alpha_j p_j`` and margin ``sum_j alpha_j p_j'`` are
    then one merged coefficient tuple each, run by one Horner loop, and
    its evaluator terms are empty. Every other resource keeps its
    ``(alpha_j, p_j)`` and ``(alpha_j, p_j')`` evaluator terms in ``j``
    order, and empty coefficient tuples.
    """

    def __init__(self, instance: GameInstance):
        evaluators = [kernel_evaluators(b) for b in instance.basis]
        polynomials = [monomial_coefficients(b) for b in instance.basis]
        # Per resource: Horner tuples (highest power first) of the value
        # and the margin, the evaluator terms, and the margin's ascending
        # coefficients padded to three when it has degree <= 2, else None.
        self.p_coeffs, self.dp_coeffs, self.p_terms, self.dp_terms = [], [], [], []
        self.quadratics = []
        for coeffs in instance.coefficients:
            used = [(alpha, j) for j, alpha in enumerate(coeffs) if alpha]
            if all(polynomials[j] for _, j in used):
                p = _merged([(alpha, polynomials[j][0]) for alpha, j in used])
                dp = _merged([(alpha, polynomials[j][1]) for alpha, j in used])
                p_terms = dp_terms = ()
                quadratic = (*dp, 0.0, 0.0)[:3] if len(dp) <= 3 else None
            else:
                p = dp = []
                p_terms = tuple((alpha, evaluators[j][0]) for alpha, j in used)
                dp_terms = tuple((alpha, evaluators[j][1]) for alpha, j in used)
                quadratic = None
            self.p_coeffs.append(tuple(reversed(p)))
            self.dp_coeffs.append(tuple(reversed(dp)))
            self.p_terms.append(p_terms)
            self.dp_terms.append(dp_terms)
            self.quadratics.append(quadratic)

    def value(self, loads) -> float:
        total = 0.0
        for coeffs, terms, v in zip(self.p_coeffs, self.p_terms, loads):
            acc = 0.0
            for c in coeffs:
                acc = acc * v + c
            total += acc
            for alpha, p in terms:
                total += alpha * p(v)
        return total

    def margins(self, loads) -> list[float]:
        """Each resource's marginal cost ``sum_j alpha_j * p_j'(v)``."""
        out = []
        for coeffs, terms, v in zip(self.dp_coeffs, self.dp_terms, loads):
            m = 0.0
            for c in coeffs:
                m = m * v + c
            for alpha, dp in terms:
                m += alpha * dp(v)
            out.append(m)
        return out

    def exact_step(self, loads, delta, hi: float) -> float:
        """Minimiser of the convex segment objective on ``[0, hi]``.

        Works on the directional derivative, the slope
        ``s(gamma) = sum_r delta_r * m_r(v_r + gamma * delta_r)``, which is
        monotone along the segment; value-based searches bottom out once
        improvements drop below the float resolution of the objective.

        When every resource ``delta`` moves is polynomial with a margin of
        degree <= 2, the slope is the polynomial ``s0 + s1*gamma +
        s2*gamma^2``, formed by one Taylor shift of each moved margin to
        its load. Its coefficients decide both early exits (``s0 >= 0``
        gives 0, ``s(hi) <= 0`` gives ``hi``), and otherwise the step is
        its root: ``-s0/s1`` when ``s2 = 0`` (as whenever every moved
        margin has degree <= 1), else the stable quadratic root
        ``2(-s0) / (s1 + sqrt(max(0, s1^2 - 4*s2*s0)))``, clamped to
        ``hi``. A denominator that is not positive and finite, or a root
        that is not finite, falls back to ``_illinois_step``, the search
        that every other segment runs (tables, the truncated series,
        margins of degree > 2).
        """
        if hi <= 0.0:
            return 0.0
        s0 = s1 = s2 = 0.0
        for d, v, quadratic in zip(delta, loads, self.quadratics):
            if d:
                if quadratic is None:
                    return self._illinois_step(loads, delta, hi)
                c0, c1, c2 = quadratic
                # m(v + t) = m(v) + m'(v) * t + c2 * t^2, with t = gamma * d.
                dd = d * d
                s0 += d * ((c2 * v + c1) * v + c0)
                s1 += dd * (2.0 * c2 * v + c1)
                s2 += dd * d * c2
        if s0 >= 0.0:
            return 0.0
        if s0 + hi * (s1 + hi * s2) <= 0.0:
            return hi
        if s2:
            den = s1 + math.sqrt(max(0.0, s1 * s1 - 4.0 * s2 * s0))
            num = -2.0 * s0
        else:
            den, num = s1, -s0
        if 0.0 < den < math.inf:
            root = num / den
            if root < math.inf:
                return min(root, hi)  # num > 0 and den > 0: root >= 0
        return self._illinois_step(loads, delta, hi)

    def _illinois_step(self, loads, delta, hi: float) -> float:
        """``exact_step`` by a bracket search on the slope.

        The segment keeps only the resources that ``delta`` moves, each
        with its load, margin tuple and margin terms, so a slope
        evaluation touches nothing else, and prices each margin as
        ``margins`` does without calling it.

        The root of the slope is located by Illinois regula falsi on the
        bracket ``[0, hi]``: the false-position point of the bracket, with
        the value kept at one end halved whenever that end survives two
        updates in a row. A bisection step replaces it whenever it is not
        strictly inside the bracket or the bracket has not halved over the
        last two updates. The search stops at a slope of exactly 0, or when
        the bracket's midpoint no longer lies strictly inside it, and
        returns that point.
        """
        segment = [(d, loads[r], self.dp_coeffs[r], self.dp_terms[r])
                   for r, d in enumerate(delta) if d]

        def slope(gamma: float) -> float:
            total = 0.0
            for d, v, coeffs, terms in segment:
                # margins at v + gamma * d, inline: a call per resource
                # would cost as much as the sum it makes.
                x = v + gamma * d
                m = 0.0
                for c in coeffs:
                    m = m * x + c
                for alpha, dp in terms:
                    m += alpha * dp(x)
                total += d * m
            return total

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


def relaxation_objective(instance: GameInstance, profile: FractionalProfile) -> float:
    """Objective value ``sum_r sum_j alpha_j^r p_j(v_r)`` at a feasible
    profile, via ``poisson_kernel``."""
    check_feasible(instance, profile)
    total = 0.0
    for r, coeffs in enumerate(instance.coefficients):
        for j, alpha in enumerate(coeffs):
            if alpha:
                total += alpha * poisson_kernel(instance.basis[j], profile.loads[r])
    return total


def _strategy_scores(instance: GameInstance, margins) -> list[list[float]]:
    """Per-strategy sums of resource margins: the gradient in the weights."""
    margin = margins.__getitem__
    return [[sum(map(margin, strat)) for strat in player]
            for player in instance.strategies]


def gradient(instance: GameInstance, weights) -> list[list[float]]:
    """Partial derivatives of the objective in every strategy weight."""
    objective = _Objective(instance)
    return _strategy_scores(
        instance, objective.margins(fractional_loads(instance, weights)))


def _oracle_and_gap(weights, grad) -> tuple[list[int], float]:
    """Per-player linear minimiser (ties to the lowest index) and FW gap."""
    vertex = []
    gap = 0.0
    for scores, row in zip(grad, weights):
        best = min(scores)
        vertex.append(scores.index(best))
        gap += sum(map(operator.mul, row, scores)) - best
    return vertex, gap


def duality_gap(instance: GameInstance, profile: FractionalProfile) -> float:
    """Frank-Wolfe gap ``<grad, y - s>``; zero iff first-order optimal."""
    check_feasible(instance, profile)
    grad = gradient(instance, profile.weights)
    _, gap = _oracle_and_gap(profile.weights, grad)
    return gap


def solve_relaxation(instance: GameInstance, tol_gap: float = 1e-8,
                     max_iters: int = 10_000) -> FractionalProfile:
    """Frank-Wolfe on the load relaxation, from the uniform profile.

    Stops once the duality gap falls below ``tol_gap * max(1, |objective|)``
    and otherwise raises ``MaxItersExceeded`` carrying the last iterate
    (still feasible and usable; the recorded gap quantifies its
    suboptimality).

    Steps are exact line searches (``_Objective.exact_step``: the root of
    the directional derivative in closed form where every moved resource
    has a polynomial margin of degree <= 2, else Illinois regula falsi
    safeguarded by bisection), preferring the pairwise direction that
    shifts mass from each player's worst supported strategy onto the
    oracle one and falling back to the classic step towards the oracle
    vertex.
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
        for i, (scores, row, best) in enumerate(zip(grad, weights, vertex)):
            # The worst supported strategy (highest score, ties to the
            # lowest index) if it scores above the oracle's; else the
            # oracle's own, and this player makes no pairwise move.
            worst, top = best, scores[best]
            for k, w in enumerate(row):
                if w > 0.0 and scores[k] > top:
                    worst, top = k, scores[k]
            if worst == best:
                continue
            away.append((i, worst))
            cap = min(cap, row[worst])
            for r in strategies[i][best]:
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
