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
import weakref
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


# Per-thread buffers behind every ProfileBatch, by role. They only grow, so
# a sweep, and every later sweep on the thread, prices its chunks in memory
# it has already touched. Fresh arrays per chunk made the allocator trim and
# re-grow its heap, and whether a run paid hundreds of page faults per call
# then depended on the heap's history (the checkout path alone moved it).
_scratch = threading.local()

# Largest table, in entries, that ProfileBatch.enumerate slices its rows
# from; a batch whose table would be larger divides instead.
_ENUMERATION_TABLE_LIMIT = 1 << 16


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


class CompiledGame:
    """A game's cost tables and strategy sets as numpy arrays, for pricing
    batches of pure profiles at once.

    Strategies are numbered in one sequence: player ``i``'s strategy ``k``
    is row ``offsets[i] + k``. A batch of ``B`` profiles is a
    ``(num_players, B)`` array of such rows, one column per profile, priced
    by a ``ProfileBatch`` (``batch``). Memory is ``B`` times a size of the
    game.

    ``price`` prices one profile the same way. Every pure profile the
    library prices goes through here: the oracle's sweeps, the learning
    dynamics and the public cost helpers.

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
        # perceived[r][x] = ell_r(x) + tau_r(x) for loads 0..n.
        self.perceived = perceived
        resource = np.arange(num_r)[:, None]
        self._system = system.ravel()
        self._system_at = resource * (n + 1)
        # A mover pays perceived[r][others + 1], others being the load
        # without them: 0..n-1.
        self._deviation = perceived[:, 1:].ravel()
        self._deviation_at = resource * n

        self.radices = tuple(map(len, instance.strategies))
        flat = [strat for strats in instance.strategies for strat in strats]
        owner = [i for i, strats in enumerate(instance.strategies) for _ in strats]
        self.owners = np.array(owner)
        bounds = list(accumulate(self.radices, initial=0))
        self.offsets = np.array(bounds[:-1])
        self._spans = list(zip(bounds, bounds[1:]))
        # Profile k of itertools.product order chooses (k // stride_i) % radix_i.
        strides = accumulate(reversed(self.radices[1:]), operator.mul, initial=1)
        self._strides = np.array(list(strides)[::-1])[:, None]
        self._radix_col = np.array(self.radices)[:, None]
        self._offset_col = self.offsets[:, None]
        members_t = np.zeros(num_r * len(flat), dtype=np.intp)
        members_t[[r * len(flat) + j for j, strat in enumerate(flat) for r in strat]] = 1
        self._members_t = members_t.reshape(num_r, len(flat))

        # Strategy costs are summed position by position (ordered_sums).
        # Each entry names the (resource, player) row, resource * n + player,
        # of the others' loads that ProfileBatch.price_strategies builds.
        order, positions = ordered_sums(flat)
        starts = list(accumulate(map(len, positions), initial=0))
        self._entries = np.array([r * n + owner[j] for resources in positions
                                  for r, j in zip(resources, order)])
        self._blocks = list(zip(starts[1:], map(len, positions[1:])))
        self._unsort = None if order == sorted(order) else np.argsort(order)
        self._batches = {}

    def price(self, choices: Sequence[int]) -> tuple[float, list[list[float]]]:
        """One profile's untaxed social cost and, per player, the perceived
        cost of each own strategy against the others' play (the profile's
        column of ``ProfileBatch.price_strategies``), as plain floats:
        ``costs[i][a]`` is what player ``i`` pays on moving to ``a``, their
        current cost when ``a == choices[i]``. The indices are not
        validated. It fills this thread's batch buffers, so call it between
        sweeps, not inside one."""
        batch = self.batch(1)
        batch.choose(np.reshape(choices, (-1, 1)))
        batch.price_loads()
        social = float(batch.price_social()[0])
        flat = batch.price_strategies()[:, 0].tolist()
        return social, [flat[start:stop] for start, stop in self._spans]

    def batch(self, width: int) -> "ProfileBatch":
        """Arrays for pricing ``width`` profiles at a time; built once per
        width and thread, so further sweeps of this game skip building its
        views, and threads sharing the game never share a batch. The game
        keeps its batches and a batch holds the game weakly, so a game
        nobody else holds is freed at once, not by the cyclic collector."""
        key = (width, threading.get_ident())
        batch = self._batches.get(key)
        if batch is None:
            batch = self._batches[key] = ProfileBatch(self, width)
        return batch


class ProfileBatch:
    """``width`` profiles of one compiled game and their prices.

    Fill ``rows`` with ``enumerate`` or ``choose``, then call
    ``price_loads`` before ``price_social`` and ``price_strategies``, and
    that before ``price_played``. Every array here, results included, is a
    view of a per-thread buffer that the next chunk overwrites and that all
    batches on the thread share: use one batch at a time and copy what must
    outlive a chunk. Pricing a chunk allocates no array that grows with
    ``width``. ``game`` is a weak proxy of the compiled game: use a batch
    while its game is held.
    """

    def __init__(self, game: CompiledGame, width: int):
        n = len(game.radices)
        num_r, num_s = game._members_t.shape
        self.game = weakref.proxy(game)
        self.width = width
        self._views = {}
        self.columns = scratch_array("columns", (width,), np.intp)
        self.columns[:] = range(width)
        self._index = scratch_array("index", (width,), np.intp)
        self.rows = scratch_array("rows", (n, width), np.intp)
        # Profile k chooses (k // stride_i) % radix_i. The first players,
        # whose stride is at least the width, change choice at most once in
        # a chunk. The others together repeat every ``period`` profiles, so
        # their rows for any chunk are a slice of one table of rows.
        strides = game._strides[:, 0].tolist()
        slow = sum(stride >= width for stride in strides)
        period = strides[slow - 1] if slow else math.prod(game.radices)
        self._table = None
        if (n - slow) * (period + width) <= _ENUMERATION_TABLE_LIMIT:
            index = np.arange(period + width - 1)
            self._table = (index // game._strides[slow:] % game._radix_col[slow:]
                           + game._offset_col[slow:])
            self._period = period
            self._slow = list(zip(strides, game.radices, game.offsets.tolist()))[:slow]
        # The incidence gather of the rows; price_strategies turns it into
        # the others' loads in place.
        self._own = scratch_array("own", (num_r, n, width), np.intp)
        self._others = self._own.reshape(num_r * n, width)
        self.loads = scratch_array("loads", (num_r, width), np.intp)
        self._at = scratch_array("at", (num_r, width), np.intp)
        self._system = scratch_array("system", (num_r, width), float)
        self._system_terms = list(self._system)
        self.social = scratch_array("social", (width,), float)
        self._picked = scratch_array("picked", (len(game._entries), width), np.intp)
        terms = scratch_array("terms", (len(game._entries), width), float)
        self._terms = terms
        self._costs = terms[:num_s]
        self._blocks = [(self._costs[:count], terms[start:start + count])
                        for start, count in game._blocks]
        self.costs = self._costs
        if game._unsort is not None:
            self.costs = scratch_array("costs", (num_s, width), float)
        self._played_at = scratch_array("played.at", (n, width), np.intp)
        self.played = scratch_array("played", (n, width), float)

    def scratch(self, role: str, rows: int, dtype=float) -> np.ndarray:
        """A ``(rows, width)`` array for a caller's temporaries under
        ``role``, the same one on every call with this batch."""
        view = self._views.get(role)
        if view is None:
            view = self._views[role] = scratch_array(role, (rows, self.width), dtype)
        return view

    def enumerate(self, start: int) -> None:
        """Rows of profiles ``start .. start + width - 1`` in
        ``itertools.product`` order."""
        if self._table is None:
            game = self.game
            np.add(self.columns, start, out=self._index)
            np.floor_divide(self._index, game._strides, out=self.rows)
            np.remainder(self.rows, game._radix_col, out=self.rows)
            self.rows += game._offset_col
            return
        shift = start % self._period
        np.copyto(self.rows[len(self._slow):],
                  self._table[:, shift:shift + self.width])
        for row, (stride, radix, offset) in zip(self.rows, self._slow):
            choice = start // stride % radix
            row.fill(offset + choice)
            change = stride - start % stride
            if change < self.width:
                row[change:] = offset + (choice + 1) % radix

    def choose(self, choices: np.ndarray) -> None:
        """Rows of a ``(num_players, width)`` array of strategy indices."""
        np.add(choices, self.game._offset_col, out=self.rows)

    def price_loads(self) -> np.ndarray:
        """``(num_resources, width)`` users per resource (integer counts,
        so the order of this sum does not matter)."""
        self.game._members_t.take(self.rows, axis=1, out=self._own, mode="clip")
        return self._own.sum(axis=1, out=self.loads)

    def price_social(self) -> np.ndarray:
        """``(width,)`` untaxed system cost ``sum_r load_r * ell_r(load_r)``,
        summed over resources in index order. An unused resource adds an
        exact zero."""
        game = self.game
        np.add(self.loads, game._system_at, out=self._at)
        game._system.take(self._at, out=self._system, mode="clip")
        total = self.social
        np.copyto(total, self._system_terms[0])
        for term in self._system_terms[1:]:
            total += term
        return total

    def price_strategies(self) -> np.ndarray:
        """``(strategies, width)`` perceived cost of every strategy to its
        player against the others' play: row ``offsets[i] + a`` is what
        player ``i`` pays on moving to ``a`` (its current cost when ``a`` is
        the strategy it plays), summed in strategy order. Call once per
        ``price_loads``."""
        game = self.game
        np.add(self.loads, game._deviation_at, out=self._at)
        np.subtract(self._at[:, None, :], self._own, out=self._own)
        self._others.take(game._entries, axis=0, out=self._picked, mode="clip")
        game._deviation.take(self._picked, out=self._terms, mode="clip")
        for costs, terms in self._blocks:
            costs += terms
        if game._unsort is None:
            return self.costs
        return self._costs.take(game._unsort, axis=0, out=self.costs, mode="clip")

    def price_played(self) -> np.ndarray:
        """``(num_players, width)`` perceived cost of the strategy each
        player plays: its row of ``price_strategies``, which comes first."""
        np.multiply(self.rows, self.width, out=self._played_at)
        self._played_at += self.columns
        return self.costs.take(self._played_at, out=self.played, mode="clip")


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
