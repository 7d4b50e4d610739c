"""Spans at tollkit's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces each layer's public functions at the names their
callers look up (``tollkit.cli.solve_relaxation``, ``tollkit.oracle.
brute_force_min_sc``, ``GameInstance.load``, ...) with wrappers that record a
span: name, layer, start, end and the index of the enclosing span. Spans stay
in memory; ``layer_metrics`` turns one pass of them into per-layer numbers.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter
from time import perf_counter

import tollkit
from tollkit import cli, forge, kernel, learning, oracle, relaxation, taxes

LAYERS = ("cli", "game", "kernel", "taxes", "relaxation", "oracle",
          "learning", "forge")

NAME, LAYER, START, END, PARENT = range(5)


def _profiles(tracer, args, result):
    tracer.counters["oracle.profiles"] += math.prod(
        args[0].num_strategies(i) for i in range(args[0].num_players))


def _rho(tracer, args, result):
    tracer.rho_bases.add(json.dumps(args[0].to_json(), sort_keys=True))


def _solve(tracer, args, result):
    tracer.counters["relaxation.fw_iters"] += result.iters
    tracer.counters["relaxation.ok"] += 1


def _audit(tracer, args, result):
    tracer.counters["taxes.audits"] += 1
    tracer.counters["taxes.audits_passed"] += int(result.passed)


def _mw(tracer, args, result):
    tracer.counters["learning.mw_rounds"] += result.rounds


def _br(tracer, args, result):
    tracer.counters["learning.br_moves"] += result[1]


def _partition(tracer, args, result):
    tracer.counters["forge.p2_checks"] += result.p2_choices_checked


# (owner, attribute, span name, layer, observer of the returned value)
TARGETS = (
    (cli, "main", "cli.main", "cli", None),
    (tollkit.GameInstance, "load", "GameInstance.load", "game", None),
    (tollkit.TaxProfile, "load", "TaxProfile.load", "game", None),
    (cli, "rho_factor", "rho_factor", "kernel", _rho),
    (kernel, "poisson_kernel", "series", "kernel", None),
    (kernel, "poisson_kernel_derivative", "series", "kernel", None),
    (taxes, "poisson_kernel", "series", "kernel", None),
    (relaxation, "poisson_kernel", "series", "kernel", None),
    (cli, "build_tax_profile", "build_tax_profile", "taxes", None),
    (cli, "audit_taxes", "audit_taxes", "taxes", _audit),
    (cli, "solve_relaxation", "solve_relaxation", "relaxation", _solve),
    (cli, "empirical_poa", "empirical_poa", "oracle", _profiles),
    (cli, "check_smoothness", "check_smoothness", "oracle", _profiles),
    (oracle, "brute_force_min_sc", "brute_force_min_sc", "oracle", _profiles),
    (learning, "brute_force_min_sc", "brute_force_min_sc", "oracle", _profiles),
    (cli, "multiplicative_weights_run", "multiplicative_weights_run", "learning", _mw),
    (cli, "best_profile_approximation", "best_profile_approximation", "learning", None),
    (tollkit.RunTrace, "save_jsonl", "RunTrace.save_jsonl", "learning", None),
    (learning, "best_response_dynamics", "best_response_dynamics", "learning", _br),
    (forge, "random_instance", "random_instance", "forge", None),
    (forge, "build_partitioning_system", "build_partitioning_system", "forge",
     _partition),
    (forge, "reduce_label_cover", "reduce_label_cover", "forge", None),
    (forge.LabelCoverInstance, "load", "LabelCoverInstance.load", "forge", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.rho_bases: set[str] = set()
        self._undo: list = []

    def _wrap(self, fn, name, layer, observe):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, layer, observe in TARGETS:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = staticmethod(self._wrap(getattr(owner, attr), name,
                                                  layer, observe))
            else:
                patched = self._wrap(original, name, layer, observe)
            setattr(owner, attr, patched)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list, Counter, set]:
        """Hand over what was recorded since the last call and start afresh."""
        taken = (self.spans[:], self.counters.copy(), set(self.rho_bases))
        del self.spans[:]
        self.counters.clear()
        self.rho_bases.clear()
        return taken


def self_times(spans) -> list[float]:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans, counters, rho_bases, items: int) -> dict:
    """Per-layer numbers of one traced pass over ``items`` items."""
    own = self_times(spans)
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    calls: Counter = Counter()
    rho_s = series_s = 0.0
    series_calls = 0
    for s, t in zip(spans, own):
        by_name[s[NAME]] += t
        by_layer[s[LAYER]] += t
        calls[s[NAME]] += 1
        if s[NAME] == "rho_factor":
            rho_s += s[END] - s[START]
        elif s[NAME] == "series" and (s[PARENT] < 0
                                      or spans[s[PARENT]][NAME] != "rho_factor"):
            # Series evaluated inside a rho scan are part of kernel.rho_s.
            series_s += t
            series_calls += 1
    item_s = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    oracle_s = sum(by_name[n] for n in
                   ("empirical_poa", "check_smoothness", "brute_force_min_sc"))
    enumerations = sum(calls[n] for n in
                       ("empirical_poa", "check_smoothness", "brute_force_min_sc"))

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {
        "cli.self_s": by_layer["cli"],
        "game.load_s": by_name["GameInstance.load"] + by_name["TaxProfile.load"],
        "kernel.rho_s": rho_s,
        "kernel.rho_calls": calls["rho_factor"],
        "kernel.rho_distinct_ratio": per(len(rho_bases), calls["rho_factor"]),
        "kernel.series_s": series_s,
        "kernel.series_calls": series_calls,
        "kernel.us_per_series_call": per(series_s, series_calls, 1e6),
        "taxes.build_s": by_name["build_tax_profile"],
        "taxes.audit_s": by_name["audit_taxes"],
        "taxes.audit_pass_ratio": per(counters["taxes.audits_passed"],
                                      counters["taxes.audits"]),
        "relaxation.solve_s": by_name["solve_relaxation"],
        "relaxation.solves": calls["solve_relaxation"],
        "relaxation.fw_iters": counters["relaxation.fw_iters"],
        "relaxation.us_per_iter": per(by_name["solve_relaxation"],
                                      counters["relaxation.fw_iters"], 1e6),
        "relaxation.ok_ratio": per(counters["relaxation.ok"],
                                   calls["solve_relaxation"]),
        "oracle.poa_s": by_name["empirical_poa"],
        "oracle.smooth_s": by_name["check_smoothness"],
        "oracle.min_sc_s": by_name["brute_force_min_sc"],
        "oracle.profiles": counters["oracle.profiles"],
        "oracle.us_per_profile": per(oracle_s, counters["oracle.profiles"], 1e6),
        "oracle.enumerations_per_instance": per(enumerations, items),
        "learning.mw_s": by_name["multiplicative_weights_run"],
        "learning.mw_rounds": counters["learning.mw_rounds"],
        "learning.us_per_round": per(by_name["multiplicative_weights_run"],
                                     counters["learning.mw_rounds"], 1e6),
        "learning.trace_write_s": by_name["RunTrace.save_jsonl"],
        "learning.best_profile_s": by_name["best_profile_approximation"],
        "learning.br_s": by_name["best_response_dynamics"],
        "learning.br_moves": counters["learning.br_moves"],
        "forge.partition_s": by_name["build_partitioning_system"],
        "forge.p2_checks": counters["forge.p2_checks"],
        "forge.us_per_p2_check": per(by_name["build_partitioning_system"],
                                     counters["forge.p2_checks"], 1e6),
        "forge.reduce_s": by_name["reduce_label_cover"],
        "trace.item_s": item_s,
    }
    for layer in LAYERS:
        m[f"{layer}.share_pct"] = per(by_layer[layer], item_s, 100.0)
    return m


def median_metrics(passes: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


def write_spans(path: str, groups: dict) -> None:
    """One JSON line per span, tagged with the group it was recorded in."""
    with open(path, "w") as fh:
        for group, spans in groups.items():
            for s in spans:
                fh.write(json.dumps({"group": group, "name": s[NAME],
                                     "layer": s[LAYER], "start": s[START],
                                     "end": s[END], "parent": s[PARENT]}))
                fh.write("\n")
