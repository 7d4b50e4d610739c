"""One-at-a-time references for the partitioning-system construction.

``balanced_row`` is the row sampler ``tollkit.forge`` ran before its repair
loop re-checked only the two elements a swap touches: it keeps the chunks
as a numpy array and recomputes the conflicts of the whole ``bad`` list
after every accepted swap. It takes an attempt's four draws from a row of
a ``(SWAP_BLOCK, 4)`` block of uniforms, as the library does, so the two
consume one stream alike. ``verify_p2`` is the P2 check it ran before the
check became a batched numpy sweep: it gathers one transversal at a time
and counts its elements with one ``sum`` over the picked blocks. The
library walks the exhaustive transversals in the same order and sums each
one's costs in the same order, so the tests require exact equality. In
sampled mode the reference draws each transversal with ``rng.choice``, an
ordered draw of distinct rows. The library draws rows by Floyd's algorithm
from blocks of uniforms, whose order within a transversal is not uniform,
from another stream. A transversal's cost does not depend on the order of
its rows, so both draw the same distribution of costs, but not the same
transversals: sampled margins are compared against the exhaustive one,
not against each other.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.random import Generator

from tollkit import ConstructionFailed, InvalidParams
from tollkit.game import seeded_rng
from tollkit.kernel import binomial_expectation
from tollkit.forge import P2_EXHAUSTIVE_LIMIT, SWAP_BLOCK


def balanced_row(n: int, h: int, k: int, rng: Generator) -> list[list[int]]:
    """``h`` blocks of ``k*n/h`` elements, each element in exactly ``k``."""
    if k == h:
        return [list(range(n)) for _ in range(h)]
    per_block = k * n // h
    slots = np.repeat(np.arange(h), per_block)
    rng.shuffle(slots)
    chunks = slots.reshape(n, k)

    def conflicts(chunk) -> int:
        return k - len(set(chunk.tolist()))

    bad = [e for e in range(n) if conflicts(chunks[e])]
    attempts = 0
    limit = 50 * n * k + 1000
    block = np.empty((0, 4))
    while bad:
        attempts += 1
        if attempts > limit:
            raise ConstructionFailed(
                "balanced assignment repair did not settle", attempts=attempts)
        if not len(block):
            block = rng.random((SWAP_BLOCK, 4))
        (u, u2, u3, u4), block = block[0].tolist(), block[1:]
        e = bad[int(u * len(bad))]
        e2 = int(u2 * n)
        if e2 == e:
            continue
        j1 = int(u3 * k)
        j2 = int(u4 * k)
        before = conflicts(chunks[e]) + conflicts(chunks[e2])
        chunks[e, j1], chunks[e2, j2] = chunks[e2, j2], chunks[e, j1]
        after = conflicts(chunks[e]) + conflicts(chunks[e2])
        if after > before:
            chunks[e, j1], chunks[e2, j2] = chunks[e2, j2], chunks[e, j1]
            continue
        bad = [x for x in bad if conflicts(chunks[x])]
        if conflicts(chunks[e2]) and e2 not in bad:
            bad.append(e2)

    blocks: list[list[int]] = [[] for _ in range(h)]
    for e in range(n):
        for block in chunks[e]:
            blocks[int(block)].append(e)
    return blocks


def membership_of(blocks, n: int, beta: int, h: int) -> np.ndarray:
    """``membership[j, i, e] = 1`` when element ``e`` lies in block ``i`` of
    row ``j``."""
    membership = np.zeros((beta, h, n), dtype=np.int8)
    for j in range(beta):
        for i in range(h):
            membership[j, i, list(blocks[j][i])] = 1
    return membership


def transversal_costs(membership: np.ndarray, c_arr: np.ndarray,
                      transversals) -> list[float]:
    """The cost of each ``(rows, picks)`` transversal, one gather each."""
    costs = []
    for rows, picks in transversals:
        counts = membership[rows, picks, :].sum(axis=0)
        costs.append(float(c_arr[counts].sum()))
    return costs


def verify_p2(blocks, n: int, beta: int, h: int, k: int, eta: float,
              c_table, mode: str, samples: int,
              seed: int) -> tuple[float, str, int]:
    """``(worst margin, mode used, transversals checked)``."""
    threshold = (binomial_expectation(c_table, h, k) - eta) * n
    membership = membership_of(blocks, n, beta, h)
    c_arr = np.asarray(c_table[:h + 1], dtype=float)

    total_choices = math.comb(beta, h) * h ** h
    if mode == "auto":
        mode = "exhaustive" if total_choices <= P2_EXHAUSTIVE_LIMIT else "sampled"
    if mode == "exhaustive":
        transversals = itertools.product(
            itertools.combinations(range(beta), h),
            itertools.product(range(h), repeat=h))
        transversals = ((list(rows), list(picks)) for rows, picks in transversals)
    elif mode == "sampled":
        rng = seeded_rng(seed)
        transversals = ((rng.choice(beta, size=h, replace=False),
                         rng.integers(h, size=h)) for _ in range(samples))
    else:
        raise InvalidParams(f"unknown verification mode {mode!r}")
    worst = math.inf
    checked = 0
    for cost in transversal_costs(membership, c_arr, transversals):
        worst = min(worst, cost - threshold)
        checked += 1
    return worst, mode, checked
