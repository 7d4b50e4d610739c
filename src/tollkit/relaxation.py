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
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import (GameValidationError, InvalidParams, KernelOverflow,
                     MaxItersExceeded)
from .game import GameInstance, load_json, loads_of, save_json
from .kernel import kernel_evaluators, poisson_kernel

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


class _Objective:
    """Objective, per-resource margins, and segment line search."""

    def __init__(self, instance: GameInstance):
        evaluators = [kernel_evaluators(b) for b in instance.basis]
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
        terms, so a slope evaluation touches nothing else, and adds each
        resource's margin terms in ``_margin``'s order without calling it.

        The root of the slope is located by Illinois regula falsi on the
        bracket ``[0, hi]``: the false-position point of the bracket, with
        the value kept at one end halved whenever that end survives two
        updates in a row. A bisection step replaces it whenever it is not
        strictly inside the bracket or the bracket has not halved over the
        last two updates. The search stops at a slope of exactly 0, or when
        the bracket's midpoint no longer lies strictly inside it, and
        returns that point.
        """
        if hi <= 0.0:
            return 0.0
        segment = [(d, loads[r], self.dp_terms[r])
                   for r, d in enumerate(delta) if d]

        def slope(gamma: float) -> float:
            total = 0.0
            for d, v, terms in segment:
                # _margin at v + gamma * d, inline: a call per resource
                # would cost as much as the sum it makes.
                x = v + gamma * d
                m = 0.0
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
