"""Atomic congestion games with congestion-dependent taxes.

Players pick subsets of resources. Each resource charges every one of its
users a cost that depends only on how many players selected it; per-resource
costs are non-negative combinations of shared generator functions ("bases"),
each positive, non-decreasing, and semi-convex (``x * b(x)`` convex on the
integers). Taxes are per-resource surcharges ``tau_r(x)`` that enter the
players' perceived costs but never the system cost.

All types are immutable after construction and all operations are pure, so
they can be evaluated from concurrent workers without coordination.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import threading
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import GameValidationError, InvalidParams, KernelOverflow, TollkitError

# Slack for float tables in monotonicity / convexity validation.
_VALIDATION_SLACK = 1e-12

def _as_float_tuple(values: Iterable[float]) -> tuple[float, ...]:
    return tuple(float(x) for x in values)


def _as_index(value) -> int:
    """A resource index: Python and numpy integers pass, nothing is rounded."""
    try:
        return operator.index(value)
    except TypeError:
        raise GameValidationError(
            f"resource index must be an integer, got {value!r}") from None


def seeded_rng(seed: int) -> Generator:
    """The package's random stream: numpy's counter-based Philox keyed by
    ``seed``, so seeded outputs are bit-identical within one build."""
    if not 0 <= seed < 2 ** 128:
        raise InvalidParams(f"seed must be in [0, 2**128), got {seed}")
    return Generator(Philox(key=seed))


def save_json(path, payload) -> None:
    save_json_text(path, json.dumps(payload, indent=2))


def save_json_text(path, text: str) -> None:
    """Write a JSON document encoded by ``json.dumps(..., indent=2)`` and a
    closing newline, in one write."""
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_json(cls, path):
    """``cls.from_json`` of the JSON document at ``path``.

    A file that is not a JSON document, or a document that lacks a field
    or holds one of the wrong type or value, raises ``GameValidationError``
    instead of the raw ``ValueError`` (bad JSON or UTF-8, an int of more
    than 4300 digits), ``RecursionError`` (arrays nested too deep),
    ``KeyError``, ``TypeError`` or ``OverflowError`` (``int`` of a JSON
    ``1e400``) that parsing or ``from_json`` hits.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        return cls.from_json(data)
    except TollkitError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError,
            AttributeError) as exc:
        raise GameValidationError(
            f"malformed {cls.__name__} JSON in {path}: {exc!r}") from exc


@dataclass(frozen=True)
class BasisFunction:
    """One admissible resource-cost generator ``b``, with ``b(0) = 0``.

    kind ``"monomial"``: ``b(x) = x ** degree`` for ``x >= 1``, any real
    degree ``>= 0``.

    kind ``"table"``: ``b(x) = values[x - 1]`` for ``1 <= x <= len(values)``.
    Beyond the table, ``b`` continues linearly with its last first
    difference (constant for a single-entry table). The linear continuation
    keeps ``b`` non-decreasing and ``x * b(x)`` convex, and reproduces
    affine generators exactly, e.g. ``values=[2, 3]`` is ``b(x) = x + 1``
    on all integers.
    """

    kind: str
    degree: float = 0.0
    values: tuple[float, ...] = ()

    @classmethod
    def monomial(cls, degree: float) -> "BasisFunction":
        return cls(kind="monomial", degree=float(degree))

    @classmethod
    def table(cls, values: Iterable[float]) -> "BasisFunction":
        return cls(kind="table", values=_as_float_tuple(values))

    def __post_init__(self):
        if self.kind == "monomial":
            if not math.isfinite(self.degree) or self.degree < 0:
                raise GameValidationError(
                    f"monomial degree must be a finite real >= 0, got {self.degree}")
        elif self.kind == "table":
            # A tuple keeps the basis hashable, which the kernel cache needs.
            object.__setattr__(self, "values", _as_float_tuple(self.values))
            vals = self.values
            if not vals:
                raise GameValidationError("table basis needs at least one value")
            for i, v in enumerate(vals):
                if not math.isfinite(v) or v <= 0:
                    raise GameValidationError(
                        f"table value at x={i + 1} must be finite and > 0, got {v}")
            for i in range(len(vals) - 1):
                if vals[i + 1] < vals[i] * (1.0 - _VALIDATION_SLACK):
                    raise GameValidationError(
                        f"table must be non-decreasing; violated between x={i + 1} and x={i + 2}")
            # Semi-convexity: c(x) = x * b(x) must have non-decreasing first
            # differences, with c(0) = 0 anchoring the first one.
            c = [0.0] + [(i + 1) * v for i, v in enumerate(vals)]
            for x in range(1, len(c) - 1):
                lo = c[x] - c[x - 1]
                hi = c[x + 1] - c[x]
                if hi < lo - _VALIDATION_SLACK * c[x]:
                    raise GameValidationError(
                        f"table violates semi-convexity of x*b(x) at x={x}")
        else:
            raise GameValidationError(f"unknown basis kind {self.kind!r}")

    @property
    def tail_slope(self) -> float:
        """A table's last first difference, with which ``b`` continues past
        it (0 for a single entry)."""
        vals = self.values
        if len(vals) >= 2:
            return vals[-1] - vals[-2]
        return 0.0

    def b(self, x: int) -> float:
        """Generator value at an integer load, with ``b(0) = 0``."""
        if x <= 0:
            return 0.0
        if self.kind == "monomial":
            t = float(x)
            try:
                return t ** self.degree
            except OverflowError:
                raise KernelOverflow(
                    f"b({t}) = {t}**{self.degree} leaves the double range") from None
        vals = self.values
        if x <= len(vals):
            return vals[x - 1]
        return vals[-1] + (x - len(vals)) * self.tail_slope

    def c(self, x: int) -> float:
        """Per-resource total cost ``x * b(x)`` produced by ``x`` users."""
        if x <= 0:
            return 0.0
        return x * self.b(x)

    def cost_table(self, n: int) -> list[float]:
        """``[c(0), c(1), ..., c(n)]``."""
        return [self.c(x) for x in range(n + 1)]

    def to_json(self) -> dict:
        if self.kind == "monomial":
            return {"kind": "monomial", "degree": self.degree}
        return {"kind": "table", "values": list(self.values)}

    @classmethod
    def from_json(cls, data: dict) -> "BasisFunction":
        kind = data.get("kind")
        if kind == "monomial":
            return cls.monomial(data["degree"])
        if kind == "table":
            return cls.table(data["values"])
        raise GameValidationError(f"unknown basis kind {kind!r}")


@dataclass(frozen=True)
class GameInstance:
    """A congestion game: bases, per-resource coefficients, strategy sets.

    ``coefficients[r][j]`` weights basis ``j`` on resource ``r``; the cost of
    resource ``r`` under load ``x`` is ``sum_j coefficients[r][j] * b_j(x)``.
    ``strategies[i]`` lists player ``i``'s pure strategies, each a sorted
    tuple of distinct 0-based resource indices.
    """

    basis: tuple[BasisFunction, ...]
    coefficients: tuple[tuple[float, ...], ...]
    strategies: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if not self.basis:
            raise GameValidationError("at least one basis function required")
        if not self.coefficients:
            raise GameValidationError("at least one resource required")
        if not self.strategies:
            raise GameValidationError("at least one player required")
        m = len(self.basis)
        for r, coeffs in enumerate(self.coefficients):
            if len(coeffs) != m:
                raise GameValidationError(
                    f"resource {r}: expected {m} coefficients, got {len(coeffs)}")
            if any(not math.isfinite(a) or a < 0 for a in coeffs):
                raise GameValidationError(
                    f"resource {r}: coefficients must be finite and >= 0")
            if not any(a > 0 for a in coeffs):
                raise GameValidationError(
                    f"resource {r}: coefficients must not all be zero")
        num_r = len(self.coefficients)
        for i, strats in enumerate(self.strategies):
            if not strats:
                raise GameValidationError(f"player {i}: empty strategy set")
            seen = set()
            for k, strat in enumerate(strats):
                if not strat:
                    raise GameValidationError(
                        f"player {i} strategy {k}: strategies must be nonempty")
                if any(r < 0 or r >= num_r for r in strat):
                    raise GameValidationError(
                        f"player {i} strategy {k}: resource index out of range [0, {num_r})")
                if len(set(strat)) != len(strat) or tuple(strat) != tuple(sorted(strat)):
                    raise GameValidationError(
                        f"player {i} strategy {k}: must be sorted and duplicate-free")
                if strat in seen:
                    raise GameValidationError(
                        f"player {i} strategy {k}: duplicate strategy")
                seen.add(strat)

    @classmethod
    def build(cls, basis: Sequence[BasisFunction],
              coefficients: Sequence[Sequence[float]],
              strategies: Sequence[Sequence[Iterable[int]]]) -> "GameInstance":
        """Normalising constructor: sorts strategies and coerces to tuples."""
        return cls(
            basis=tuple(basis),
            coefficients=tuple(_as_float_tuple(c) for c in coefficients),
            strategies=tuple(
                tuple(tuple(sorted(_as_index(r) for r in strat)) for strat in player)
                for player in strategies),
        )

    @property
    def num_players(self) -> int:
        return len(self.strategies)

    @property
    def num_resources(self) -> int:
        return len(self.coefficients)

    @property
    def num_basis(self) -> int:
        return len(self.basis)

    def num_strategies(self, player: int) -> int:
        return len(self.strategies[player])

    def ell(self, resource: int, x: int) -> float:
        """Untaxed cost of ``resource`` under integer load ``x``."""
        coeffs = self.coefficients[resource]
        return sum(a * b.b(x) for a, b in zip(coeffs, self.basis) if a)

    def ell_tables(self, n: int) -> list[list[float]]:
        """Per-resource cost tables for loads ``0..n``."""
        b_tables = [[b.b(x) for x in range(n + 1)] for b in self.basis]
        out = []
        for coeffs in self.coefficients:
            out.append([sum(a * bt[x] for a, bt in zip(coeffs, b_tables) if a)
                        for x in range(n + 1)])
        return out

    def validate_allocation(self, allocation: "Allocation") -> None:
        if len(allocation.choices) != self.num_players:
            raise GameValidationError(
                f"allocation has {len(allocation.choices)} choices for "
                f"{self.num_players} players")
        for i, k in enumerate(allocation.choices):
            if k < 0 or k >= self.num_strategies(i):
                raise GameValidationError(
                    f"player {i}: strategy index {k} out of range "
                    f"[0, {self.num_strategies(i)})")

    def loads(self, allocation: "Allocation") -> list[int]:
        """Number of users per resource under ``allocation``."""
        self.validate_allocation(allocation)
        return loads_of(self, allocation.choices)

    def to_json(self) -> dict:
        return {
            "basis": [b.to_json() for b in self.basis],
            "resources": [{"coeffs": list(c)} for c in self.coefficients],
            "players": [{"strategies": [list(s) for s in strats]}
                        for strats in self.strategies],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GameInstance":
        try:
            basis = [BasisFunction.from_json(b) for b in data["basis"]]
            coefficients = [r["coeffs"] for r in data["resources"]]
            strategies = [p["strategies"] for p in data["players"]]
        except (KeyError, TypeError) as exc:
            raise GameValidationError(f"malformed instance JSON: {exc}") from exc
        return cls.build(basis, coefficients, strategies)

    def save(self, path) -> None:
        save_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "GameInstance":
        return load_json(cls, path)


@dataclass(frozen=True)
class Allocation:
    """A pure strategy profile: one strategy index per player."""

    choices: tuple[int, ...]

    @classmethod
    def of(cls, choices: Iterable[int]) -> "Allocation":
        return cls(tuple(int(k) for k in choices))


@dataclass(frozen=True)
class TaxProfile:
    """Per-resource congestion-dependent taxes on loads ``0..n_cap``.

    ``tau[r][x]`` is the surcharge on resource ``r`` at load ``x`` and
    ``ell_bar[r][x]`` the modified (perceived) cost; ``v[r]`` is the design
    parameter the tables were generated from. Taxes are non-negative and
    modified costs non-decreasing up to float rounding; ``audit_taxes``
    checks both with explicit tolerances. Every entry must be finite.
    """

    v: tuple[float, ...]
    tau: tuple[tuple[float, ...], ...]
    ell_bar: tuple[tuple[float, ...], ...]
    n_cap: int

    def __post_init__(self):
        if not (len(self.v) == len(self.tau) == len(self.ell_bar)):
            raise GameValidationError("tax profile field lengths disagree")
        for r, (t, e) in enumerate(zip(self.tau, self.ell_bar)):
            if len(t) != self.n_cap + 1 or len(e) != self.n_cap + 1:
                raise GameValidationError(
                    f"resource {r}: tax tables must cover loads 0..{self.n_cap}")
            if not all(math.isfinite(x) for x in (self.v[r], *t, *e)):
                raise GameValidationError(
                    f"resource {r}: v, tau and ell_bar entries must be finite")

    @property
    def num_resources(self) -> int:
        return len(self.v)

    def to_json(self) -> dict:
        return {
            "resources": [
                {"v": v, "tau": list(t), "ell_bar": list(e)}
                for v, t, e in zip(self.v, self.tau, self.ell_bar)
            ],
            "n_cap": self.n_cap,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TaxProfile":
        res = data["resources"]
        return cls(
            v=tuple(float(r["v"]) for r in res),
            tau=tuple(_as_float_tuple(r["tau"]) for r in res),
            ell_bar=tuple(_as_float_tuple(r["ell_bar"]) for r in res),
            n_cap=int(data["n_cap"]),
        )

    def save(self, path) -> None:
        save_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "TaxProfile":
        return load_json(cls, path)


def check_tax_cover(instance: GameInstance, taxes: TaxProfile) -> None:
    """Raise unless ``taxes`` has one table per resource of ``instance``
    covering every load ``0..N`` that ``N`` players can produce."""
    if taxes.num_resources != instance.num_resources:
        raise GameValidationError(
            f"tax profile covers {taxes.num_resources} resources, "
            f"instance has {instance.num_resources}")
    if taxes.n_cap < instance.num_players:
        raise GameValidationError(
            f"tax tables cover loads up to {taxes.n_cap}, "
            f"need {instance.num_players}")


def loads_of(instance: GameInstance, choices: Sequence[int]) -> list[int]:
    """Users per resource when player ``i`` plays strategy ``choices[i]``;
    the indices are not validated."""
    loads = [0] * instance.num_resources
    for i, k in enumerate(choices):
        for r in instance.strategies[i][k]:
            loads[r] += 1
    return loads


# Per-thread buffers behind every oracle block and every forge P2 batch, by
# role. They only grow, so a sweep, and every later sweep on the thread,
# prices its blocks in memory it has already touched. Fresh arrays per block
# made the allocator trim and re-grow its heap, and whether a run paid
# hundreds of page faults per call then depended on the heap's history (the
# checkout path alone moved it).
_scratch = threading.local()


def scratch_array(role: str, shape: tuple, dtype) -> np.ndarray:
    """A C-contiguous ``shape`` view of this thread's buffer for ``role``;
    a role always has the same dtype."""
    size = math.prod(shape)
    buffers = _scratch.__dict__
    buffer = buffers.get(role)
    if buffer is None or buffer.size < size:
        buffer = buffers[role] = np.empty(max(size, 1), dtype)
    return buffer[:size].reshape(shape)


def ordered_sums(rows: Sequence[Sequence]) -> tuple[list[int], list[list]]:
    """How to sum nonempty ragged ``rows`` position by position: the rows
    longest first (a stable sort), so those with a p-th entry are a prefix,
    and per position those entries in that order. Row ``j``'s sum is then
    at ``np.argsort(order)[j]``."""
    order = sorted(range(len(rows)), key=lambda j: -len(rows[j]))
    return order, [[rows[j][p] for j in order if len(rows[j]) > p]
                   for p in range(len(rows[order[0]]))]


# Chosen profiles priced together by CompiledGame.price_many, at most: a
# call over more prices them in chunks of this many, so its arrays stay a
# chunk times a size of the game (the largest, the incidence gather, is
# resources x players x 64 intp).
PRICE_WIDTH = 64


class CompiledGame:
    """A game's cost tables and strategy sets as numpy arrays, for pricing
    many pure profiles at once.

    Every pure profile the library prices goes through here. The oracle's
    exhaustive sweeps read the tables (``perceived``, the system costs and
    ``incidence``) block by block over the profile tensor
    (``tollkit.oracle``). Chosen profiles, those of the learning dynamics,
    of ``oracle.coarse_correlated_check`` and of the public cost helpers,
    go through ``price_many``, and ``price`` prices one of them.

    Strategies are numbered in one sequence: player ``i``'s strategy ``k``
    is row ``offsets[i] + k``. ``price_many`` prices ``PRICE_WIDTH``
    profiles at a time in fresh arrays, so its memory, past the costs it
    returns, is that width times a size of the game. The strategy-cost
    layout it reads is built with its first call, so a game that is only
    swept never builds it; nothing else about the game changes after
    construction.

    Every sum adds its terms one at a time, resources in index order for
    the social cost and in strategy order for a strategy's cost, as the
    profile-by-profile reference in ``tests/reference_oracle.py`` does, so
    each value is bit-identical to the scalar one; numpy's reductions over
    a short axis add pairwise and would move the last bits.
    """

    def __init__(self, instance: GameInstance,
                 taxes: Optional[TaxProfile] = None):
        n = instance.num_players
        num_r = instance.num_resources
        ell = np.array(instance.ell_tables(n), dtype=float)
        perceived = ell
        with np.errstate(over="ignore"):  # raised below as KernelOverflow
            if taxes is not None:
                check_tax_cover(instance, taxes)
                perceived = ell + np.array([t[:n + 1] for t in taxes.tau], dtype=float)
            system = np.arange(n + 1) * ell
            # A social or strategy cost sums at most num_r table entries, and
            # a certificate margin 2n + 1 such costs.
            reach = (2 * n + 1) * num_r * np.maximum(np.abs(perceived), system).max()
        if not reach < math.inf:
            raise KernelOverflow("the costs of this game can sum past the double range")
        # Exactly, a positive load costs more than 0: a 0 there underflowed,
        # and only such a 0 can make a profile, or the optimum, cost 0.
        if not system[:, 1:].min() > 0:
            raise KernelOverflow("a cost of this game underflows to 0")
        # perceived[r][x] = ell_r(x) + tau_r(x) for loads 0..n. Both tables
        # are also read flat, at r * (n + 1) + x.
        self.perceived = perceived
        self.strategies = instance.strategies
        self._system = system.ravel()
        self._system_at = np.arange(num_r)[:, None] * (n + 1)

        self.radices = tuple(map(len, instance.strategies))
        bounds = list(accumulate(self.radices, initial=0))
        self.offsets = np.array(bounds[:-1])
        self._spans = list(zip(bounds, bounds[1:]))
        self._offset_col = self.offsets[:, None]
        # incidence[r, offsets[i] + k] = 1 where player i's strategy k uses r.
        flat = [strat for strats in instance.strategies for strat in strats]
        incidence = np.zeros(num_r * len(flat), dtype=np.intp)
        incidence[[r * len(flat) + j for j, strat in enumerate(flat) for r in strat]] = 1
        self.incidence = incidence.reshape(num_r, len(flat))
        self._entries = None

    def _lay_out(self) -> None:
        """The strategy-cost layout that ``price_many`` reads."""
        n = len(self.radices)
        flat = [strat for strats in self.strategies for strat in strats]
        owner = [i for i, strats in enumerate(self.strategies) for _ in strats]
        # A mover pays perceived[r][others + 1], others being the load
        # without them: 0..n-1.
        self._deviation = self.perceived[:, 1:].ravel()
        self._deviation_at = np.arange(len(self.perceived))[:, None] * n
        # Strategy costs are summed position by position (ordered_sums).
        # Each entry names the (resource, player) row, resource * n + player,
        # of the others' loads that price_many builds.
        order, positions = ordered_sums(flat)
        starts = list(accumulate(map(len, positions), initial=0))
        self._blocks = list(zip(starts[1:], map(len, positions[1:])))
        self._unsort = None if order == sorted(order) else np.argsort(order)
        # Set last: it marks the layout built.
        self._entries = np.array([r * n + owner[j] for resources in positions
                                  for r, j in zip(resources, order)])

    def price_many(self, profiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The untaxed social cost and the strategy costs of each column of
        a ``(num_players, m)`` array of strategy indices, as new arrays of
        shape ``(m,)`` and ``(m, num_strategies)``. A profile's strategy
        costs are one row: entry ``offsets[i] + a`` is the perceived cost
        player ``i`` pays on moving to ``a`` against the others' play, their
        current cost when ``a`` is the strategy they play. The indices are
        not validated."""
        if self._entries is None:
            self._lay_out()
        num_s = self.incidence.shape[1]
        size = profiles.shape[1]
        social, costs = np.empty(size), np.empty((size, num_s))
        for start in range(0, size, PRICE_WIDTH):
            chunk = slice(start, start + PRICE_WIDTH)
            rows = profiles[:, chunk] + self._offset_col
            # own[r, i, j] = 1 where profile j's player i uses resource r;
            # loads are integer counts, so the order of their sum does not
            # matter.
            own = self.incidence.take(rows, axis=1, mode="clip")
            loads = own.sum(axis=1)
            # sum_r load_r * ell_r(load_r), resources in index order; an
            # unused resource adds an exact zero.
            terms = self._system.take(loads + self._system_at, mode="clip")
            total = social[chunk]
            np.copyto(total, terms[0])
            for term in terms[1:]:
                total += term
            # Row r * n + i: resource r's load without player i.
            others = np.subtract((loads + self._deviation_at)[:, None], own, out=own)
            picked = others.reshape(-1, rows.shape[1]).take(self._entries, axis=0,
                                                            mode="clip")
            terms = self._deviation.take(picked, mode="clip")
            sums = terms[:num_s]
            for at, count in self._blocks:
                sums[:count] += terms[at:at + count]
            if self._unsort is not None:
                sums = sums.take(self._unsort, axis=0, mode="clip")
            costs[chunk] = sums.T
        return social, costs

    def price(self, choices: Sequence[int]) -> tuple[float, list[list[float]]]:
        """One profile's ``price_many``, its strategy costs split by player:
        ``costs[i][a]`` is what player ``i`` pays on moving to ``a``, their
        current cost when ``a == choices[i]``. The indices are not
        validated."""
        social, costs = self.price_many(np.reshape(choices, (-1, 1)))
        flat = costs[0].tolist()
        return social.item(), [flat[start:stop] for start, stop in self._spans]

    def choices(self, k: int) -> tuple[int, ...]:
        """The strategy indices of profile ``k`` in ``itertools.product``
        order."""
        choices = []
        for radix in reversed(self.radices):
            k, choice = divmod(k, radix)
            choices.append(choice)
        return tuple(reversed(choices))


@functools.lru_cache(maxsize=16)
def _compiled(instance: GameInstance, taxes: Optional[TaxProfile]) -> CompiledGame:
    """The cost helpers' compiled games, kept for the games they priced
    last: a caller pricing many profiles of one game compiles it once."""
    return CompiledGame(instance, taxes)


def social_cost(instance: GameInstance, allocation: Allocation) -> float:
    """System cost ``sum_r load_r * ell_r(load_r)``.

    Taxes never enter this value: they reshape incentives, not the cost the
    system actually pays.
    """
    instance.validate_allocation(allocation)
    return _compiled(instance, None).price(allocation.choices)[0]


def player_cost(instance: GameInstance, taxes: Optional[TaxProfile],
                allocation: Allocation, player: int) -> float:
    """Perceived cost of ``player``: selected resources' cost plus tax."""
    if player < 0 or player >= instance.num_players:
        raise GameValidationError(f"player index {player} out of range")
    game = _compiled(instance, taxes)
    instance.validate_allocation(allocation)
    _, costs = game.price(allocation.choices)
    return costs[player][allocation.choices[player]]


def rosenthal_potential(instance: GameInstance, taxes: Optional[TaxProfile],
                        allocation: Allocation) -> float:
    """Potential ``sum_r sum_{u=1}^{load_r} ell_bar_r(u)``.

    Any unilateral deviation changes this by exactly the deviator's
    perceived-cost change, which is what makes best-response dynamics
    terminate.
    """
    tables = _compiled(instance, taxes).perceived.tolist()
    total = 0.0
    for r, x in enumerate(instance.loads(allocation)):
        for u in range(1, x + 1):
            total += tables[r][u]
    return total
