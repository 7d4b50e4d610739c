"""Instance generators: random games, partitioning systems, and the
label-cover reduction.

A partitioning system over a ground set of ``n`` elements consists of
``beta`` collections ("rows") of ``h`` blocks each, every block holding
exactly ``k*n/h`` elements and every element lying in exactly ``k`` blocks
of each row. Selecting a whole row therefore costs exactly ``c(k) * n``
under any cost ``c`` with ``c(0) = 0`` (property P1), while a transversal
that picks one block from each of ``h`` distinct rows should cost at least
``(E_{Bin(h, k/h)}[c] - eta) * n`` (property P2). Systems are built by
balanced random assignment and re-drawn until P2 verifies. P2 is checked
``P2_BATCH`` transversals at a time on the blocks packed as bitsets of
64-element words: per word, one gather of the picked blocks, a bit-sliced
count of how many picked blocks hold each element, and popcounts of the
``count == x`` masks, which give ``N_x``, the number of elements counted
``x`` times. A transversal costs ``sum_x c(x) * N_x``, added in increasing
``x``, which is exact whenever every ``c(x)`` is an integer and ``n *
c(h) < 2**53``.

The reduction turns a bi-regular label-cover instance into a congestion
game: one player per left vertex, a fresh copy of one partitioning system
per right vertex, and one strategy per left label that collects, for every
neighbouring right vertex, the block indexed by the constraint image of the
label (row) and the player's position in that vertex's neighbour list
(column). A labeling that strongly satisfies every right vertex selects
whole rows everywhere and realises the system cost ``n * |R| * c(k)``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.random import Generator

from .errors import (ConstructionFailed, InfeasibleParams, InvalidParams,
                     KernelOverflow)
from .game import (BasisFunction, GameInstance, load_json, save_json,
                   scratch_array, seeded_rng)
from .kernel import binomial_expectation

P2_EXHAUSTIVE_LIMIT = 1_000_000
P2_DEFAULT_SAMPLES = 100_000
P2_BATCH = 4096   # transversals priced per sweep, a multiple of _DRAW_BLOCK
_DRAW_BLOCK = 256  # transversals per block of the sampled stream's uniforms
SWAP_BLOCK = 64
_CONSTRUCTION_RETRIES = 100


@dataclass(frozen=True)
class PartitioningSystem:
    """A verified partitioning system plus its verification report.

    ``blocks[j][i]`` is the ``i``-th block of row ``j`` as a sorted tuple of
    0-based elements. ``p2_margin`` is the worst observed slack of P2 (cost
    minus threshold); in ``"sampled"`` mode it is a bound over the sampled
    transversals only, never a claim about all of them.
    """

    n: int
    beta: int
    h: int
    k: int
    eta: float
    blocks: tuple[tuple[tuple[int, ...], ...], ...]
    p1_passed: bool
    p2_margin: float
    p2_mode: str
    p2_choices_checked: int
    n_required: float

    def to_json(self) -> dict:
        return {
            "n": self.n, "beta": self.beta, "h": self.h, "k": self.k,
            "eta": self.eta,
            "blocks": [[list(b) for b in row] for row in self.blocks],
            "p1_passed": self.p1_passed,
            "p2_margin": self.p2_margin,
            "p2_mode": self.p2_mode,
            "p2_choices_checked": self.p2_choices_checked,
            "n_required": self.n_required,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PartitioningSystem":
        return cls(
            n=int(data["n"]), beta=int(data["beta"]), h=int(data["h"]),
            k=int(data["k"]), eta=float(data["eta"]),
            blocks=tuple(tuple(tuple(int(e) for e in b) for b in row)
                         for row in data["blocks"]),
            p1_passed=bool(data["p1_passed"]),
            p2_margin=float(data["p2_margin"]),
            p2_mode=str(data["p2_mode"]),
            p2_choices_checked=int(data["p2_choices_checked"]),
            n_required=float(data["n_required"]),
        )

    def save(self, path) -> None:
        save_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "PartitioningSystem":
        return load_json(cls, path)


def _swap_draws(rng: Generator) -> Iterator[list[float]]:
    """The row repair's uniforms, four per attempt (``e``, ``e2``, ``j1``,
    ``j2``), drawn ``SWAP_BLOCK`` attempts at a time. Nothing is drawn
    before the first attempt asks; a row's unused draws stay drawn."""
    while True:
        yield from rng.random((SWAP_BLOCK, 4)).tolist()


def _balanced_row(n: int, h: int, k: int, rng: Generator) -> list[list[int]]:
    """``h`` blocks of ``k*n/h`` elements, each element in exactly ``k``.

    Samples a random balanced assignment: shuffle ``k*n/h`` copies of each
    block id, chunk them ``k`` per element, then repair duplicate blocks
    within a chunk by conflict-reducing swaps (swaps preserve the exact
    block counts). A swap changes only its two chunks, so an attempt counts
    only their conflicts after the swap, once each, against the counts
    kept per chunk. ``bad`` keeps its order, which the draws index into,
    and ``in_bad`` answers membership beside it.
    An attempt maps its four ``_swap_draws`` uniforms ``u`` to indices
    ``int(u * bound)``, which is below ``bound`` for every double ``u < 1``
    and ``bound <= 2**53``, so the draws cost one numpy call per
    ``SWAP_BLOCK`` attempts, not four calls per attempt.
    """
    if k == h:
        return [list(range(n)) for _ in range(h)]
    per_block = k * n // h
    slots = np.repeat(np.arange(h), per_block)
    rng.shuffle(slots)
    chunks = slots.reshape(n, k).tolist()

    conflicts = [k - len(set(chunk)) for chunk in chunks]
    bad = [e for e in range(n) if conflicts[e]]
    in_bad = set(bad)
    attempts = 0
    limit = 50 * n * k + 1000
    draws = _swap_draws(rng)
    while bad:
        attempts += 1
        if attempts > limit:
            raise ConstructionFailed(
                "balanced assignment repair did not settle", attempts=attempts)
        u, u2, u3, u4 = next(draws)
        e = bad[int(u * len(bad))]
        e2 = int(u2 * n)
        if e2 == e:
            continue
        j1 = int(u3 * k)
        j2 = int(u4 * k)
        a, b = chunks[e], chunks[e2]
        a[j1], b[j2] = b[j2], a[j1]
        after_a, after_b = k - len(set(a)), k - len(set(b))
        if after_a + after_b > conflicts[e] + conflicts[e2]:
            a[j1], b[j2] = b[j2], a[j1]
            continue
        conflicts[e], conflicts[e2] = after_a, after_b
        if not after_a:
            bad.remove(e)
            in_bad.remove(e)
        if after_b:
            if e2 not in in_bad:
                bad.append(e2)
                in_bad.add(e2)
        elif e2 in in_bad:
            bad.remove(e2)
            in_bad.remove(e2)

    blocks: list[list[int]] = [[] for _ in range(h)]
    for e in range(n):
        for block in chunks[e]:
            blocks[block].append(e)
    return blocks


def transversal_cost(system: PartitioningSystem, rows, picks,
                     c_table) -> float:
    """Cost of the transversal picking ``picks[j]`` from each row in ``rows``.

    ``rows`` must name ``h`` distinct rows and ``picks`` one block index per
    row; anything else (e.g. a whole row, or repeated rows) is not a valid
    transversal and is rejected. The cost is ``sum_x c_table[x] * N_x``,
    ``N_x`` the number of elements in exactly ``x`` of the picked blocks,
    added from ``0.0`` in increasing ``x``. ``build_partitioning_system``
    prices transversals the same way without the ``x = 0`` term, which
    adds ``0.0`` when ``c_table[0] = 0``, so its ``p2_margin`` is
    reproduced exactly.
    """
    rows = list(rows)
    picks = list(picks)
    if len(rows) != system.h or len(set(rows)) != system.h:
        raise InvalidParams(
            f"a transversal picks from exactly {system.h} distinct rows")
    if len(picks) != system.h:
        raise InvalidParams("one block index per selected row required")
    if any(j < 0 or j >= system.beta for j in rows):
        raise InvalidParams("row index out of range")
    if any(i < 0 or i >= system.h for i in picks):
        raise InvalidParams("block index out of range")
    counts = [0] * system.n
    for j, i in zip(rows, picks):
        for e in system.blocks[j][i]:
            counts[e] += 1
    histogram = Counter(counts)
    total = 0.0
    for x in range(system.h + 1):
        total += c_table[x] * histogram[x]
    return total


def _all_transversals(beta: int, h: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every transversal as ``(rows, picks)`` batches of ``P2_BATCH`` rows,
    in the order of ``combinations(range(beta), h)`` (outer) times
    ``product(range(h), repeat=h)`` (inner).

    Transversal ``t`` takes row combination ``t // h**h`` and the picks
    written by ``t % h**h`` in base ``h``, last pick fastest. Combinations
    are drawn from ``itertools`` as the batches reach them, so memory is a
    batch, never the number of transversals.
    """
    per_rows = h ** h
    total = math.comb(beta, h) * per_rows
    combos = itertools.combinations(range(beta), h)
    held: list[tuple[int, ...]] = []   # combinations first, first + 1, ...
    first = 0
    for start in range(0, total, P2_BATCH):
        t = np.arange(start, min(start + P2_BATCH, total))
        q = t // per_rows
        lo, hi = int(q[0]), int(q[-1])
        del held[:lo - first]
        first = lo
        held.extend(itertools.islice(combos, hi + 1 - first - len(held)))
        rows = np.array(held)[q - first]
        code = t % per_rows
        picks = np.empty((len(t), h), dtype=np.intp)
        for j in range(h - 1, -1, -1):
            picks[:, j] = code % h
            code //= h
        yield rows, picks


def _drawn_transversals(beta: int, h: int, samples: int, rng: Generator
                        ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``samples`` uniform transversals as batches of ``P2_BATCH`` rows.

    Transversal ``t`` reads column ``t % _DRAW_BLOCK`` of uniform block
    ``t // _DRAW_BLOCK``, a ``(2h, _DRAW_BLOCK)`` draw; the last block is
    ``(2h, rest)`` when ``samples`` is not a multiple. A batch draws its
    full blocks in one ``(blocks, 2h, _DRAW_BLOCK)`` call, which returns
    the same doubles in the same order as one call per block, so the
    transversals do not depend on ``P2_BATCH``, and the draw costs ``O(h)``
    numpy calls per batch whatever ``beta`` is. A transversal's rows are
    ``h`` distinct rows by Floyd's algorithm, run down the batch at once:
    its ``j``-th row is ``t = int(u[j] * (beta - h + j + 1))``, or
    ``beta - h + j`` if ``t`` is already taken, so every set of ``h`` rows
    is equally likely. The order of the rows within a transversal is not a
    uniform permutation, and need not be: a transversal's cost does not
    depend on it. Its picks are ``int(u[h + j] * h)``.
    """
    bounds = np.concatenate((np.arange(beta - h + 1, beta + 1), np.full(h, h)))
    for start in range(0, samples, P2_BATCH):
        m = min(P2_BATCH, samples - start)
        blocks, rest = divmod(m, _DRAW_BLOCK)
        u = np.empty((2 * h, m))
        if blocks:
            u[:, :m - rest] = rng.random((blocks, 2 * h, _DRAW_BLOCK)).transpose(
                1, 0, 2).reshape(2 * h, m - rest)
        if rest:
            u[:, m - rest:] = rng.random((2 * h, rest))
        draws = (u * bounds[:, None]).astype(np.intp)
        for j in range(1, h):
            taken = (draws[:j] == draws[j]).any(axis=0)
            np.putmask(draws[j], taken, beta - h + j)
        yield draws[:h].T, draws[h:].T


def _packed_blocks(membership: np.ndarray) -> np.ndarray:
    """The blocks of ``membership`` (``membership[j, i, e]`` nonzero when
    element ``e`` lies in block ``i`` of row ``j``) as bitsets of ``W =
    ceil(n / 64)`` words, laid out word-major: bit ``e % 64`` of
    ``packed[e // 64, j * h + i]`` is element ``e`` of block ``(j, i)``."""
    beta, h, n = membership.shape
    words = -(-n // 64)
    bits = np.zeros((beta * h, 8 * words), dtype=np.uint8)
    bits[:, :-(-n // 8)] = np.packbits(membership.reshape(beta * h, n),
                                       axis=1, bitorder="little")
    return np.ascontiguousarray(bits.view(np.uint64).T)


def _transversal_costs(packed: np.ndarray, c_arr: np.ndarray,
                       rows: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Cost of transversal ``t``, which takes block ``picks[t, j]`` of row
    ``rows[t, j]`` for each ``j``, from the ``_packed_blocks`` bitsets.

    ``N_x`` is the number of elements that lie in exactly ``x`` of the
    picked blocks, and the cost is ``sum_{x=1..h} c(x) * N_x``, added from
    ``0.0`` in increasing ``x``. ``c(0) = 0`` by construction (``c(x) = x *
    b(x)``), so no ``N_0`` term is needed. The counts and ``N_x`` are
    integers, so only the ``h`` products and sums round: when every
    ``c(x)`` is an integer and ``n * c(h) < 2**53`` the cost is exact.

    Word by word, one ``take`` gathers the picked blocks' words, ``(h, m)``.
    A bit-sliced counter of ``h.bit_length()`` planes adds them with carry,
    an AND and an XOR a plane, and a decoder that shares prefixes across
    the planes, from the top plane down, turns the planes into the masks of
    ``count == x``, about ``2(h + 1)`` ANDs; ``np.bitwise_count`` of the
    masks adds to ``N_x``. Every array goes to this thread's reused
    buffers, but the returned costs: fresh ones per batch made the
    allocator hand pages back and fault them in again, as often as the
    heap's history decided."""
    m, h = rows.shape
    planes = h.bit_length()
    picked = scratch_array("p2.picked", (h, m), np.intp)
    np.multiply(rows.T, h, out=picked)
    picked += picks.T
    gathered = scratch_array("p2.gathered", (h, m), np.uint64)
    count = scratch_array("p2.count", (planes, m), np.uint64)
    spare = scratch_array("p2.carry", (m,), np.uint64)
    flipped = scratch_array("p2.flipped", (planes, m), np.uint64)
    prefixes = scratch_array("p2.prefixes", (2, (h >> 1) + 1, m), np.uint64)
    # count == 1 is plane 0 itself when there is one plane.
    masks = count if h == 1 else scratch_array("p2.masks", (h, m), np.uint64)
    popcounts = scratch_array("p2.popcounts", (h, m), np.uint8)
    histogram = scratch_array("p2.histogram", (h, m), np.intp)
    histogram.fill(0)
    for word in packed:
        word.take(picked, mode="clip", out=gathered)
        for p, carry in enumerate(gathered, start=1):
            top = p.bit_length() - 1
            free = spare
            for bit in count[:top]:
                np.bitwise_and(bit, carry, out=free)
                bit ^= carry
                carry, free = free, carry
            if p & (p - 1):
                count[top] ^= carry
            else:   # the first count to reach 2**top
                np.copyto(count[top], carry)
        np.invert(count, out=flipped)
        level = (flipped[-1], count[-1])   # masks of the top plane's values
        for plane in range(planes - 2, -1, -1):
            # Prefix q (the bits above ``plane`` included) is reachable only
            # while q <= h >> plane; the last level skips count == 0.
            low = 1 if plane == 0 else 0
            nodes = masks if plane == 0 else prefixes[plane % 2]
            for q in range(low, (h >> plane) + 1):
                np.bitwise_and(level[q >> 1],
                               (count if q & 1 else flipped)[plane],
                               out=nodes[q - low])
            level = nodes
        np.bitwise_count(masks, out=popcounts)
        histogram += popcounts
    costs = np.zeros(m)
    term = scratch_array("p2.term", (m,), float)
    for x in range(1, h + 1):
        np.multiply(histogram[x - 1], c_arr[x], out=term)
        costs += term
    return costs


def _verify_p2(blocks, n: int, beta: int, h: int, k: int, eta: float,
               c_table, mode: str, samples: int, seed: int) -> tuple[float, int]:
    """``(worst margin, transversals checked)`` of P2 in ``mode``
    (``"exhaustive"`` or ``"sampled"``), priced ``P2_BATCH`` transversals
    per sweep on the blocks packed once as bitsets (``_transversal_costs``).
    The margin is the minimum of cost minus threshold. A threshold past the
    double range raises ``KernelOverflow``; a cost past it is ``inf``, which
    clears any threshold."""
    threshold = (binomial_expectation(c_table, h, k) - eta) * n
    if not math.isfinite(threshold):
        raise KernelOverflow(f"P2 threshold leaves the double range at n = {n}")
    membership = np.zeros((beta, h, n), dtype=bool)
    for j in range(beta):
        for i in range(h):
            membership[j, i, list(blocks[j][i])] = True
    packed = _packed_blocks(membership)
    c_arr = np.asarray(c_table[:h + 1], dtype=float)

    if mode == "exhaustive":
        batches = _all_transversals(beta, h)
    else:
        batches = _drawn_transversals(beta, h, samples, seeded_rng(seed))
    worst = math.inf
    checked = 0
    with np.errstate(over="ignore"):
        for rows, picks in batches:
            costs = _transversal_costs(packed, c_arr, rows, picks)
            worst = min(worst, float((costs - threshold).min()))
            checked += len(costs)
    return worst, checked


def required_ground_set(c_k: float, beta: int, h: int, eta: float) -> float:
    """Ground-set size above which random construction succeeds w.h.p."""
    try:
        n = c_k ** 2 / (2.0 * eta ** 2) * (math.log(10.0) + beta * math.log(h + 1.0))
    except (OverflowError, ZeroDivisionError):
        n = math.inf
    if not math.isfinite(n):
        raise KernelOverflow(
            f"required ground-set size overflows at c(k) = {c_k:g}, eta = {eta:g}")
    return n


def build_partitioning_system(n: int, beta: int, h: int, k: int, eta: float,
                              basis: BasisFunction, seed: int = 0,
                              mode: str = "auto",
                              samples: int = P2_DEFAULT_SAMPLES) -> PartitioningSystem:
    """Randomised construction with verification, retried up to 100 times.

    P1 holds exactly by construction and is re-checked in integer
    arithmetic. P2 is checked over all transversals when there are at most
    ``P2_EXHAUSTIVE_LIMIT`` (``10**6``) of them (or ``mode="exhaustive"``
    forces it), else over ``samples`` seeded draws, which must be at least
    one. Either way the transversals are priced ``P2_BATCH`` at a time in
    one numpy sweep each. A sampled margin is a bound over the drawn
    transversals only, never a claim about all of them. The cost is
    ``c(x) = x * basis.b(x)``. The probabilistically sufficient ground-set
    size is reported alongside, but any ``n`` with ``k*n/h`` integral is
    attempted: at desk scale a failure after all retries is informative,
    and raised as ``ConstructionFailed`` with the worst margin seen.
    """
    if not (beta >= h >= k >= 1):
        raise InvalidParams(f"need beta >= h >= k >= 1, got ({beta}, {h}, {k})")
    if (k * n) % h != 0 or n <= 0:
        raise InvalidParams(f"k*n/h must be a positive integer, got k={k}, n={n}, h={h}")
    if not (0.0 < eta < 1.0):
        raise InvalidParams(f"eta must be in (0, 1), got {eta}")
    if mode == "auto":
        total_choices = math.comb(beta, h) * h ** h
        mode = "exhaustive" if total_choices <= P2_EXHAUSTIVE_LIMIT else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise InvalidParams(f"unknown verification mode {mode!r}")
    if mode == "sampled" and samples < 1:
        raise InvalidParams(
            f"sampled P2 verification needs at least one sample, got {samples}")
    c_table = basis.cost_table(h)
    if not all(map(math.isfinite, c_table)):
        raise KernelOverflow(f"cost table c(0..{h}) overflows: {c_table}")
    n_required = required_ground_set(basis.c(k), beta, h, eta)

    worst_overall = -math.inf
    for attempt in range(_CONSTRUCTION_RETRIES):
        rng = seeded_rng(seed + attempt)
        blocks = tuple(
            tuple(tuple(sorted(b)) for b in _balanced_row(n, h, k, rng))
            for _ in range(beta))

        p1 = True
        for row in blocks:
            counts = [0] * n
            for block in row:
                if len(block) != k * n // h:
                    p1 = False
                for e in block:
                    counts[e] += 1
            if any(cnt != k for cnt in counts):
                p1 = False
        if not p1:
            continue

        margin, checked = _verify_p2(
            blocks, n, beta, h, k, eta, c_table, mode, samples, seed + attempt)
        worst_overall = max(worst_overall, margin)
        if margin >= 0.0:
            return PartitioningSystem(
                n=n, beta=beta, h=h, k=k, eta=eta, blocks=blocks,
                p1_passed=True, p2_margin=margin, p2_mode=mode,
                p2_choices_checked=checked, n_required=n_required)
    raise ConstructionFailed(
        f"no verified system in {_CONSTRUCTION_RETRIES} attempts "
        f"(worst transversal margin {worst_overall:g}; "
        f"guaranteed only for n >= {n_required:.0f})",
        worst_margin=worst_overall, attempts=_CONSTRUCTION_RETRIES)


@dataclass(frozen=True)
class LabelCoverInstance:
    """Bi-regular label cover: ``pi[(v, u)]`` maps left labels to right
    labels for the edge ``(v, u)``; every right vertex has degree ``h``."""

    num_left: int
    num_right: int
    edges: tuple[tuple[int, int], ...]
    h: int
    alpha: int
    beta: int
    pi: dict[tuple[int, int], tuple[int, ...]]

    def __post_init__(self):
        # Degrees are counted per edge, so a large num_right costs nothing.
        degrees = Counter()
        seen = set()
        for v, u in self.edges:
            if not (0 <= v < self.num_left and 0 <= u < self.num_right):
                raise InvalidParams(f"edge ({v}, {u}) out of range")
            if (v, u) in seen:
                raise InvalidParams(f"duplicate edge ({v}, {u})")
            seen.add((v, u))
            degrees[u] += 1
        if (any(d != self.h for d in degrees.values())
                or (self.h != 0 and len(degrees) != self.num_right)):
            raise InvalidParams(
                f"every right vertex needs degree exactly {self.h}, got "
                f"{sorted(degrees.values())} over {self.num_right} right vertices")
        for e in self.edges:
            table = self.pi.get(e)
            if table is None or len(table) != self.alpha:
                raise InvalidParams(
                    f"edge {e}: constraint map must cover all {self.alpha} left labels")
            if any(not (0 <= j < self.beta) for j in table):
                raise InvalidParams(f"edge {e}: constraint image out of range")

    def neighbours(self, right: int) -> list[int]:
        return sorted(v for v, u in self.edges if u == right)

    def to_json(self) -> dict:
        return {
            "left": self.num_left, "right": self.num_right,
            "edges": [list(e) for e in self.edges],
            "h": self.h, "alpha": self.alpha, "beta": self.beta,
            "pi": {f"{v},{u}": list(t) for (v, u), t in sorted(self.pi.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "LabelCoverInstance":
        pi = {}
        for key, table in data["pi"].items():
            v, u = key.split(",")
            pi[(int(v), int(u))] = tuple(int(x) for x in table)
        return cls(
            num_left=int(data["left"]), num_right=int(data["right"]),
            edges=tuple((int(v), int(u)) for v, u in data["edges"]),
            h=int(data["h"]), alpha=int(data["alpha"]), beta=int(data["beta"]),
            pi=pi,
        )

    @classmethod
    def load(cls, path) -> "LabelCoverInstance":
        return load_json(cls, path)

    def save(self, path) -> None:
        save_json(path, self.to_json())


def reduce_label_cover(lc: LabelCoverInstance, ps_params: dict,
                       basis: BasisFunction, seed: int = 0
                       ) -> tuple[GameInstance, PartitioningSystem]:
    """Build the congestion game of a label-cover instance.

    ``ps_params`` carries ``n``, ``k``, ``eta`` and optionally ``beta`` (at
    least the label-cover right alphabet; defaults to it), ``mode`` and
    ``samples`` for the verification; the number of blocks per row is
    pinned to the label-cover degree ``h``. One system is constructed and
    copied onto every right vertex with disjoint resources ``u * n + e``.
    Player ``v``'s strategy for left label ``l`` takes, for each
    neighbouring right vertex ``u``, the block in row ``pi[(v,u)][l]`` and
    column ``rank of v among u's neighbours``. The mapping from label
    profiles to allocations is the identity on indices: strategy ``l`` of
    player ``v`` is label ``l``.
    """
    beta_ps = int(ps_params.get("beta", lc.beta))
    if beta_ps < lc.beta:
        raise InvalidParams(
            f"partitioning rows ({beta_ps}) must cover the right alphabet ({lc.beta})")
    system = build_partitioning_system(
        n=int(ps_params["n"]), beta=beta_ps, h=lc.h, k=int(ps_params["k"]),
        eta=float(ps_params["eta"]), basis=basis, seed=seed,
        mode=str(ps_params.get("mode", "auto")),
        samples=int(ps_params.get("samples", P2_DEFAULT_SAMPLES)))

    n = system.n
    slots = {}
    for u in range(lc.num_right):
        for rank, v in enumerate(lc.neighbours(u)):
            slots[(v, u)] = rank

    strategies = []
    for v in range(lc.num_left):
        edges_v = [(v, u) for (vv, u) in lc.edges if vv == v]
        if not edges_v:
            raise InvalidParams(f"left vertex {v} has no edge, so its strategies are empty")
        player_strategies = []
        seen = set()
        for label in range(lc.alpha):
            resources = []
            for (_, u) in edges_v:
                row = lc.pi[(v, u)][label]
                block = system.blocks[row][slots[(v, u)]]
                resources.extend(u * n + e for e in block)
            strat = tuple(sorted(resources))
            if strat in seen:
                raise InvalidParams(
                    f"left vertex {v}: labels map to identical strategies; "
                    "strategy sets must stay distinct")
            seen.add(strat)
            player_strategies.append(strat)
        strategies.append(tuple(player_strategies))

    num_resources = lc.num_right * n
    instance = GameInstance(
        basis=(basis,),
        coefficients=tuple((1.0,) for _ in range(num_resources)),
        strategies=tuple(strategies))
    return instance, system


def random_instance(num_players: int, num_resources: int, basis,
                    strategy_count_range: tuple[int, int] = (1, 3),
                    strategy_size_range: tuple[int, int] = (1, 2),
                    coeff_range: tuple[float, float] = (0.5, 2.0),
                    seed: int = 0) -> GameInstance:
    """Seeded random game; strategies are distinct and every resource is
    referenced by at least one strategy."""
    if num_players < 1 or num_resources < 1:
        raise InvalidParams("need at least one player and one resource")
    basis = tuple(basis)
    if not basis:
        raise InvalidParams("need at least one basis function")
    lo_cnt, hi_cnt = strategy_count_range
    lo_sz, hi_sz = strategy_size_range
    if lo_cnt < 1 or hi_cnt < lo_cnt or lo_sz < 1 or hi_sz < lo_sz:
        raise InvalidParams("strategy ranges must be nonempty and >= 1")
    lo_sz = min(lo_sz, num_resources)
    hi_sz = min(hi_sz, num_resources)
    available = sum(math.comb(num_resources, s) for s in range(lo_sz, hi_sz + 1))
    if hi_cnt > available:
        raise InfeasibleParams(
            f"cannot pick {hi_cnt} distinct strategies of sizes "
            f"{lo_sz}..{hi_sz} from {num_resources} resources")
    lo_c, hi_c = coeff_range
    if not (0.0 <= lo_c <= hi_c < math.inf) or hi_c <= 0:
        raise InvalidParams(
            "coefficient range must be finite and satisfy 0 <= lo <= hi, hi > 0")

    rng = seeded_rng(seed)
    for _ in range(1000):
        strategies = []
        for _i in range(num_players):
            count = int(rng.integers(lo_cnt, hi_cnt + 1))
            chosen: set[tuple[int, ...]] = set()
            while len(chosen) < count:
                size = int(rng.integers(lo_sz, hi_sz + 1))
                strat = tuple(sorted(rng.choice(num_resources, size=size,
                                                replace=False).tolist()))
                chosen.add(strat)
            strategies.append(tuple(sorted(chosen)))
        referenced = {r for player in strategies for strat in player for r in strat}
        if len(referenced) == num_resources:
            break
    else:
        raise InfeasibleParams(
            "could not cover every resource with the requested strategy shape")

    coefficients = []
    for _r in range(num_resources):
        coeffs = [float(rng.uniform(lo_c, hi_c)) for _ in basis]
        if not any(a > 1e-12 for a in coeffs):
            coeffs[int(rng.integers(len(coeffs)))] = (lo_c + hi_c) / 2.0
        coefficients.append(tuple(coeffs))

    return GameInstance(basis=basis, coefficients=tuple(coefficients),
                        strategies=tuple(strategies))
