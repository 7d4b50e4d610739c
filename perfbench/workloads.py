"""The four seeded workloads: inputs, one closed-loop item, and its gate.

Every item drives the ``tollkit`` command in-process through
``tollkit.cli.main`` (looked up at call time, so the traced run sees the
same entry point) and checks what it printed. A workload's ``setup`` writes
all inputs under its work directory; the program only ever sees those files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import tollkit
from tollkit import cli, forge, learning

# Workload seed n draws its inputs from seeds stride*n + j, j < pool, where
# the stride is the pool size rounded up to a multiple of 180. The family
# shape (players, resources, degree, constant basis, table twin) depends on
# the seed modulo lcm(9, 5, 4) = 180, so every workload seed gets the same
# mix of shapes, only the random strategies and coefficients change, and no
# two workload seeds share an input.
SHAPE_PERIOD = 180


@dataclass
class Item:
    """One unit of closed-loop work; ``label`` names it in failure reports."""

    label: str
    argv: list
    context: dict = field(default_factory=dict)


@dataclass
class Result:
    seconds: float
    ok: bool
    reason: str
    counters: dict
    digest: str


def call_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def design_family(seed: int):
    """The acceptance-suite family: 2-4 players, 2-4 resources, monomial
    degree ``seed % 3``, plus a constant basis when ``seed % 5 == 0``."""
    n_players = 2 + seed % 3
    n_resources = 2 + (seed // 3) % 3
    degree = seed % 3
    basis = [tollkit.BasisFunction.monomial(degree)]
    if seed % 5 == 0 and degree > 0:
        basis.append(tollkit.BasisFunction.monomial(0))
    return forge.random_instance(n_players, n_resources, basis,
                                 strategy_count_range=(2, 3),
                                 strategy_size_range=(1, 2),
                                 coeff_range=(0.5, 2.0), seed=seed)


def table_twin(instance):
    """The same game with every basis written as ``b(1), ..., b(N)``."""
    n = instance.num_players
    basis = tuple(tollkit.BasisFunction.table([b.b(x) for x in range(1, n + 1)])
                  for b in instance.basis)
    return tollkit.GameInstance(basis=basis, coefficients=instance.coefficients,
                                strategies=instance.strategies)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def check_bundle(bundle: dict) -> str:
    """Gate of one design bundle; returns the first violation or ''."""
    st = bundle["stages"]
    relax = st["relaxation"]
    if relax.get("status") != "ok":
        return f"relaxation status {relax.get('status')}"
    if not relax["gap"] <= 1e-6 * max(1.0, abs(relax["objective"])):
        return f"relaxation gap {relax['gap']} above tolerance"
    if not (st["audit"].get("status") == "ok" and st["audit"]["passed"]):
        return "tax audit failed"
    if st["rho"].get("status") != "ok":
        return f"rho status {st['rho'].get('status')}"
    rho = st["rho"]["rho"]
    if st["poa"].get("status") != "ok":
        return f"poa status {st['poa'].get('status')}"
    if not st["poa"]["poa"] <= rho + 1e-3:
        return f"poa {st['poa']['poa']} above rho {rho}"
    if not (st["smoothness"].get("status") == "ok" and st["smoothness"]["passed"]):
        return "smoothness certificate failed"
    return ""


def design_item(item: Item) -> Result:
    t0 = time.perf_counter()
    code, out, err = call_cli(item.argv)
    seconds = time.perf_counter() - t0
    if code != 0:
        return Result(seconds, False, f"exit {code}: {err.strip()[:200]}", {}, "")
    bundle = json.loads(out)
    st = bundle["stages"]
    counters = {
        "relaxation.fw_iters": st["relaxation"].get("iters", 0),
        # PoA, the smoothness loop and the exact minimum the smoothness
        # check computes first each enumerate every profile.
        "oracle.profiles": 3 * st.get("poa", {}).get("enumerated_profiles", 0),
    }
    reason = check_bundle(bundle)
    return Result(seconds, not reason, reason, counters, digest(out))


class Workload:
    name = ""
    work_key = ""         # the counter behind work_per_s
    work_name = ""        # that throughput under its own name
    pool = 0              # distinct items; the timed loop cycles over them
    trace_items = 0       # items in one traced pass

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        stride = SHAPE_PERIOD * -(-self.pool // SHAPE_PERIOD)
        self.seeds = range(stride * seed, stride * seed + self.pool)

    def setup(self) -> list:
        raise NotImplementedError

    def run(self, item: Item) -> Result:
        raise NotImplementedError


class Design(Workload):
    name = "design"
    work_key = "oracle.profiles"
    work_name = "profiles_per_s"
    pool = 1440
    trace_items = 120

    def setup(self) -> list:
        os.makedirs(self.workdir, exist_ok=True)
        items = []
        for s in self.seeds:
            instance = design_family(s)
            if s % 4 == 3:
                instance = table_twin(instance)
            path = os.path.join(self.workdir, f"instance-{s}.json")
            instance.save(path)
            items.append(Item(f"family seed {s}", ["design", path]))
        return items

    run = staticmethod(design_item)


class Verify(Workload):
    name = "verify"
    work_key = "oracle.profiles"
    work_name = "profiles_per_s"
    pool = 24
    trace_items = 8

    def setup(self) -> list:
        items = []
        for s in self.seeds:
            out = os.path.join(self.workdir, f"random-{s}")
            argv = ["forge", "random", "--players", "8", "--resources", "6",
                    "--monomial", str(1 + s % 2),
                    "--min-strategies", "3", "--max-strategies", "3",
                    "--min-size", "1", "--max-size", "3",
                    "--seed", str(s), "--out", out]
            code, _, err = call_cli(argv)
            if code != 0:
                raise RuntimeError(f"forge random --seed {s} exited {code}: {err}")
            items.append(Item(f"forge random seed {s}",
                              ["design", os.path.join(out, "instance.json")]))
        return items

    run = staticmethod(design_item)


class Learn(Workload):
    name = "learn"
    work_key = "learning.mw_rounds"
    work_name = "mw_rounds_per_s"
    pool = 20
    trace_items = 8
    play_seeds = (0, 1, 2)

    def setup(self) -> list:
        items = []
        for s in self.seeds:
            out = os.path.join(self.workdir, f"family-{s}")
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, "instance.json")
            design_family(s).save(path)
            code, stdout, err = call_cli(["design", path, "--out", out])
            bundle = json.loads(stdout) if code == 0 else None
            if bundle is None or check_bundle(bundle):
                raise RuntimeError(f"designing taxes for family seed {s} failed: "
                                   f"{err or check_bundle(bundle)}")
            taxes = os.path.join(out, "taxes.json")
            st = bundle["stages"]
            items.append(Item(
                f"family seed {s}",
                ["learn", path, "--taxes", taxes, "--rounds", "5000",
                 "--seeds", ",".join(map(str, self.play_seeds)), "--out", out],
                {"out": out, "rho": st["rho"]["rho"],
                 "min_cost": st["poa"]["min_cost"],
                 "instance": tollkit.GameInstance.load(path),
                 "taxes": tollkit.TaxProfile.load(taxes)}))
        return items

    def run(self, item: Item) -> Result:
        ctx = item.context
        t0 = time.perf_counter()
        code, out, err = call_cli(item.argv)
        endpoints = []
        if code == 0:
            for seed in self.play_seeds:
                endpoints.append(learning.best_response_dynamics(
                    ctx["instance"], ctx["taxes"], seed=seed))
        seconds = time.perf_counter() - t0
        if code != 0:
            return Result(seconds, False, f"exit {code}: {err.strip()[:200]}", {}, "")
        runs = json.loads(out)["runs"]
        rho, min_cost = ctx["rho"], ctx["min_cost"]
        reason = ""
        for run in runs:
            if run["ratio"] is None or not run["ratio"] <= rho + 0.05:
                reason = (f"seed {run['seed']}: ratio {run['ratio']} above "
                          f"rho {rho} + 0.05")
                break
        costs = [tollkit.social_cost(ctx["instance"], alloc) for alloc, _ in endpoints]
        for seed, cost in zip(self.play_seeds, costs):
            if not reason and not cost <= (rho + 1e-3) * min_cost:
                reason = (f"best response from seed {seed}: cost {cost} above "
                          f"(rho + 1e-3) * {min_cost}")
        files = []
        for run in runs:
            path = os.path.join(ctx["out"], f"trace-{run['seed']}.jsonl")
            with open(path, "rb") as fh:
                files.append(fh.read())
        with open(os.path.join(ctx["out"], "learn_summary.csv"), "rb") as fh:
            files.append(fh.read())
        counters = {"learning.mw_rounds": sum(run["rounds"] for run in runs),
                    "learning.br_moves": sum(steps for _, steps in endpoints)}
        return Result(seconds, not reason, reason, counters,
                      digest(out, *files, [(a.choices, n) for a, n in endpoints]))


class Forge(Workload):
    name = "forge"
    work_key = "forge.p2_checks"
    work_name = "p2_checks_per_s"
    pool = 12
    trace_items = 4
    samples = 20_000
    exhaustive_checks = 108     # C(4, 3) * 3**3 transversals at beta = 4
    reduction_checks = 4        # C(2, 2) * 2**2 in the reduction's system

    def setup(self) -> list:
        os.makedirs(self.workdir, exist_ok=True)
        # The acceptance suite's strongly satisfiable label cover.
        lc = tollkit.LabelCoverInstance(
            num_left=2, num_right=1, edges=((0, 0), (1, 0)), h=2, alpha=1,
            beta=1, pi={(0, 0): (0,), (1, 0): (0,)})
        lc_path = os.path.join(self.workdir, "labelcover.json")
        lc.save(lc_path)
        partition = ["forge", "partition", "--n", "120", "--h", "3", "--k", "2",
                     "--eta", "0.9", "--monomial", "1"]
        items = []
        for s in self.seeds:
            items.append(Item(f"forge seed {s}", [
                partition + ["--beta", "6", "--mode", "sampled",
                             "--samples", str(self.samples), "--seed", str(s)],
                partition + ["--beta", "4", "--mode", "exhaustive",
                             "--seed", str(s)],
                ["forge", "reduce", "--labelcover", lc_path, "--n", "8",
                 "--k", "1", "--eta", "0.5", "--beta", "2", "--monomial", "1",
                 "--seed", str(s)],
            ], {"right_vertices": lc.num_right}))
        return items

    def run(self, item: Item) -> Result:
        t0 = time.perf_counter()
        calls = []
        for argv in item.argv:
            calls.append(call_cli(argv))
            if calls[-1][0] != 0:
                break
        seconds = time.perf_counter() - t0
        for argv, (code, _, err) in zip(item.argv, calls):
            if code != 0:
                reason = f"{' '.join(argv[:2])} exit {code}: {err.strip()[:200]}"
                return Result(seconds, False, reason, {}, "")
        sampled, exhaustive, reduced = (json.loads(out) for _, out, _ in calls)
        system = reduced["partitioning_system"]
        reason = ""
        for ps, mode, checks in ((sampled, "sampled", self.samples),
                                 (exhaustive, "exhaustive", self.exhaustive_checks),
                                 (system, "exhaustive", self.reduction_checks)):
            if not (ps["p1_passed"] and ps["p2_margin"] >= 0.0
                    and ps["p2_mode"] == mode and ps["p2_choices_checked"] == checks):
                reason = (f"{mode} system: p1 {ps['p1_passed']}, margin "
                          f"{ps['p2_margin']}, mode {ps['p2_mode']}, "
                          f"checked {ps['p2_choices_checked']}")
                break
        instance = tollkit.GameInstance.from_json(reduced["instance"])
        cost = tollkit.social_cost(
            instance, tollkit.Allocation.of([0] * instance.num_players))
        expected = (system["n"] * item.context["right_vertices"]
                    * tollkit.BasisFunction.monomial(1).c(system["k"]))
        if not reason and cost != expected:
            reason = f"completeness cost {cost}, expected n*|R|*c(k) = {expected}"
        counters = {"forge.p2_checks": sum(ps["p2_choices_checked"]
                                           for ps in (sampled, exhaustive, system))}
        return Result(seconds, not reason, reason, counters,
                      digest(*(out for _, out, _ in calls)))


WORKLOADS = {w.name: w for w in (Design, Verify, Learn, Forge)}
