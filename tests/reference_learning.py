"""Round-by-round reference for the memoised multiplicative-weights run.

``multiplicative_weights_run`` is the loop ``tollkit.learning`` ran before
it priced each distinct profile once per run: it draws one uniform at a
time and prices every own strategy of every player in every round with
``loads_of``/``system_cost``/``move_cost``. ``save_jsonl`` writes each round
with its own ``json.dumps``. The memoised run adds the same terms in the
same order and writes the same bytes, so the tests require exact equality.
"""

from __future__ import annotations

import json
import math

from tollkit import Allocation, GameInstance, InvalidParams, RunTrace, TaxProfile
from tollkit.game import (deviation_moves, loads_of, move_cost,
                          perceived_tables, seeded_rng, system_cost,
                          system_cost_tables)


def save_jsonl(trace: RunTrace, path) -> None:
    with open(path, "w") as fh:
        for t, (profile, sc) in enumerate(zip(trace.profiles, trace.social_costs)):
            fh.write(json.dumps({"t": t, "profile": list(profile), "sc": sc}))
            fh.write("\n")
        fh.write(json.dumps({
            "seed": trace.seed, "rounds": trace.rounds, "eta": list(trace.eta),
            "regrets": list(trace.regrets),
            "average_regrets": list(trace.average_regrets),
            "best_profile": list(trace.best_profile.choices),
            "best_sc": trace.best_sc,
        }))
        fh.write("\n")


def multiplicative_weights_run(instance: GameInstance, taxes: TaxProfile,
                               rounds: int, eta: float | str = "auto",
                               seed: int = 0) -> RunTrace:
    if rounds < 1:
        raise InvalidParams(f"rounds must be >= 1, got {rounds}")
    tables = perceived_tables(instance, taxes)
    moves = deviation_moves(instance)
    n = instance.num_players
    strategies = instance.strategies

    scale = []
    for i in range(n):
        scale.append(max(sum(tables[r][instance.num_players] for r in strat)
                         for strat in strategies[i]))
    if eta == "auto":
        etas = [math.sqrt(8.0 * math.log(instance.num_strategies(i)) / rounds)
                for i in range(n)]
    else:
        etas = [float(eta)] * n
    if any(not math.isfinite(e) or e < 0 for e in etas):
        raise InvalidParams(f"eta must be finite and >= 0, got {eta}")

    sc_tables = system_cost_tables(instance)
    rng = seeded_rng(seed)
    weights = [[1.0] * instance.num_strategies(i) for i in range(n)]
    profiles = []
    social_costs = []
    incurred = [0.0] * n
    alt_totals = [[0.0] * instance.num_strategies(i) for i in range(n)]
    best_profile, best_sc = None, math.inf

    for _ in range(rounds):
        choices = []
        for i in range(n):
            row = weights[i]
            total = sum(row)
            u = rng.random() * total
            acc = 0.0
            pick = len(row) - 1
            for k, w in enumerate(row):
                acc += w
                if u < acc:
                    pick = k
                    break
            choices.append(pick)
        choices = tuple(choices)
        loads = loads_of(instance, choices)
        sc = system_cost(sc_tables, loads)
        profiles.append(choices)
        social_costs.append(sc)
        if sc < best_sc:
            best_sc = sc
            best_profile = choices

        for i, played in enumerate(choices):
            row = weights[i]
            rate = etas[i] / scale[i]
            for k, move in enumerate(moves[i][played]):
                cost = move_cost(tables, loads, move)
                alt_totals[i][k] += cost
                if k == played:
                    incurred[i] += cost
                row[k] *= math.exp(-rate * cost)
            top = max(row)
            if top == 0.0:
                raise InvalidParams("weights underflowed to zero; eta too aggressive")
            if top < 1e-150:
                for k in range(len(row)):
                    row[k] /= top

    return RunTrace(
        seed=seed, rounds=rounds, eta=tuple(etas),
        profiles=tuple(profiles), social_costs=tuple(social_costs),
        incurred_total=tuple(incurred),
        strategy_costs_total=tuple(tuple(row) for row in alt_totals),
        best_profile=Allocation(best_profile), best_sc=best_sc)
