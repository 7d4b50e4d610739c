"""Command-line front end.

Subcommands: ``analyze-basis``, ``design``, ``learn``, ``forge``, ``oracle``.
All commands honour ``--seed`` and ``--out``, never mutate their inputs, and
emit JSON (plus CSV summaries where tabular). Every run with ``--out`` also
drops a ``config-<command>.json`` snapshot; ``tollkit --config <snapshot>``
replays it to bit-identical outputs. Exit codes: 0 success, 2 parse or validation
failure, 3 numeric failure where non-convergence is an error, 4 construction
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass

from .errors import (ConstructionFailed, GameValidationError,
                     InfeasibleParams, InvalidParams, KernelNonConvergent,
                     KernelOverflow, TollkitError, TooLarge, UnsupportedBasis)
from .game import (BasisFunction, GameInstance, TaxProfile, load_json,
                   save_json, save_json_text, seeded_rng)
from .kernel import bell_fractional, mu_factor, rho_factor
# ``best_profile_approximation`` stays importable here: perfbench's tracer
# wraps the learning entry points at the names ``cli`` holds.
from .learning import best_profile_approximation, multiplicative_weights_run  # noqa: F401
# The tracer also wraps the design stages at these names, which ``design``
# does not call through.
from .oracle import DEFAULT_ENUMERATION_CAP, check_smoothness, empirical_poa  # noqa: F401
from .pipeline import audit_taxes, build_tax_profile, design, solve_relaxation  # noqa: F401
from . import forge, learning

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_CONSTRUCTION = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """A reproducible record of one CLI invocation.

    Stores the exact argument vector, seed and output directory included;
    replaying it regenerates the same outputs bit-exactly within one build.
    """

    argv: tuple[str, ...]

    def to_json(self) -> dict:
        return {"argv": list(self.argv)}

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        return cls(argv=tuple(str(a) for a in data["argv"]))

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return load_json(cls, path)


def _write_config(args, argv) -> None:
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
        config = ExperimentConfig(argv=tuple(argv))
        label = args.command
        if label == "forge":
            label = f"forge-{args.forge_command}"
        # Per-command names so pipelines sharing one output directory keep
        # every stage replayable.
        save_json(os.path.join(args.out, f"config-{label}.json"),
                    config.to_json())


def _parse_basis(args) -> BasisFunction:
    if args.monomial is not None and args.table is not None:
        raise GameValidationError("give either --monomial or --table, not both")
    if args.monomial is not None:
        return BasisFunction.monomial(args.monomial)
    if args.table is not None:
        values = [float(x) for x in args.table.split(",") if x.strip()]
        return BasisFunction.table(values)
    raise GameValidationError("a basis is required: --monomial D or --table v1,v2,...")


def _emit(args, payload, name: str) -> None:
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_json_text(os.path.join(args.out, name), text)


def cmd_analyze_basis(args) -> int:
    basis = _parse_basis(args)
    report = rho_factor(basis, x_max=args.x_max)
    payload = {"basis": basis.to_json(), "rho_report": report.to_json()}
    try:
        mu = mu_factor(basis, monomial_like=args.monomial_like)
        if math.isfinite(mu):
            payload["mu"] = mu
        else:
            payload["mu"] = None
            payload["mu_status"] = "non-finite"
    except UnsupportedBasis:
        payload["mu"] = None
        payload["mu_status"] = "unsupported-basis"
    if basis.kind == "monomial":
        payload["bell"] = bell_fractional(basis.degree)
    if args.bell_table is not None:
        payload["bell_table"] = [
            {"degree": d, "rho": bell_fractional(d)}
            for d in range(args.bell_table + 1)]
    _emit(args, payload, "analyze_basis.json")
    if args.out:
        with open(os.path.join(args.out, "analyze_basis.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rho", "argmax", "mu", "infinite"])
            writer.writerow([
                "" if report.infinite else report.value, report.argmax,
                "" if payload["mu"] is None else payload["mu"], report.infinite])
        if args.bell_table is not None:
            with open(os.path.join(args.out, "bell_table.csv"), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["degree", "rho"])
                for row in payload["bell_table"]:
                    writer.writerow([row["degree"], row["rho"]])
    return EXIT_OK


def cmd_design(args) -> int:
    report = design(GameInstance.load(args.instance), tol_gap=args.tol_gap,
                    max_iters=args.max_iters, audit_tol=args.audit_tol,
                    x_max=args.x_max, enum_cap=args.enum_cap)
    _emit(args, {"instance": args.instance, "stages": report.to_json()},
          "design_bundle.json")
    if args.out and report.taxes is not None:
        report.taxes.save(os.path.join(args.out, "taxes.json"))
    if args.out and report.relaxation is not None:
        report.relaxation.save(os.path.join(args.out, "relaxation.json"))
    return EXIT_OK


def _parse_seeds(text: str, offset: int) -> list[int]:
    """``--seeds`` plus the ``--seed`` offset: comma-separated integers,
    blank entries skipped, at least one seed. Every offset seed is checked
    before the first run, so a bad one writes no trace: each must be a
    Philox key and named once, as each names its own trace file."""
    try:
        seeds = [int(s) + offset for s in text.split(",") if s.strip()]
    except ValueError:
        raise InvalidParams(
            f"--seeds must be comma-separated integers, got {text!r}") from None
    if not seeds:
        raise InvalidParams(f"--seeds names no seed: {text!r}")
    seen = set()
    for seed in seeds:
        seeded_rng(seed)  # raises InvalidParams outside Philox's key range
        if seed in seen:
            raise InvalidParams(f"--seeds names seed {seed} more than once")
        seen.add(seed)
    return seeds


def _parse_eta(text: str) -> float | str:
    """``--eta``: ``auto`` or a finite float >= 0."""
    if text == "auto":
        return text
    try:
        eta = float(text)
    except ValueError:
        eta = math.nan
    if not math.isfinite(eta) or eta < 0:
        raise InvalidParams(f"--eta must be 'auto' or a finite number >= 0, got {text!r}")
    return eta


def cmd_learn(args) -> int:
    instance = GameInstance.load(args.instance)
    taxes = TaxProfile.load(args.taxes)
    seeds = _parse_seeds(args.seeds, args.seed)
    eta = _parse_eta(args.eta)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)

    traces = []
    for seed in seeds:
        trace = multiplicative_weights_run(instance, taxes, rounds=args.rounds,
                                           eta=eta, seed=seed)
        trace.save_jsonl(os.path.join(out_dir, f"trace-{seed}.jsonl"))
        traces.append(trace)

    # One exact minimum serves every seed's ratio. It is looked up as
    # ``learning.brute_force_min_sc``, the name ``best_profile_approximation``
    # calls, so whatever wraps that name sees this call too.
    try:
        _, min_cost = learning.brute_force_min_sc(instance, args.enum_cap)
    except TooLarge:
        min_cost = None

    rows = []
    summary = []
    for trace in traces:
        ratio = None if min_cost is None else trace.best_sc / min_cost
        row = {
            "seed": trace.seed, "rounds": args.rounds,
            "max_average_regret": max(trace.average_regrets),
            "best_sc": trace.best_sc,
            "best_profile": list(trace.best_profile.choices),
            "ratio": ratio,
        }
        summary.append(row)
        rows.append([trace.seed, args.rounds, row["max_average_regret"],
                     trace.best_sc, "" if ratio is None else ratio])

    with open(os.path.join(out_dir, "learn_summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "rounds", "max_average_regret", "best_sc", "ratio"])
        writer.writerows(rows)
    print(json.dumps({"runs": summary}, indent=2))
    return EXIT_OK


def cmd_forge(args) -> int:
    if args.forge_command == "random":
        basis = [_parse_basis(args)]
        instance = forge.random_instance(
            num_players=args.players, num_resources=args.resources, basis=basis,
            strategy_count_range=(args.min_strategies, args.max_strategies),
            strategy_size_range=(args.min_size, args.max_size),
            coeff_range=(args.min_coeff, args.max_coeff), seed=args.seed)
        _emit(args, instance.to_json(), "instance.json")
        return EXIT_OK
    if args.forge_command == "partition":
        basis = _parse_basis(args)
        system = forge.build_partitioning_system(
            n=args.n, beta=args.beta, h=args.h, k=args.k, eta=args.eta,
            basis=basis, seed=args.seed, mode=args.mode, samples=args.samples)
        _emit(args, system.to_json(), "partitioning_system.json")
        return EXIT_OK
    if args.forge_command == "reduce":
        basis = _parse_basis(args)
        lc = forge.LabelCoverInstance.load(args.labelcover)
        ps_params = {"n": args.n, "k": args.k, "eta": args.eta, "mode": args.mode}
        if args.beta is not None:
            ps_params["beta"] = args.beta
        instance, system = forge.reduce_label_cover(lc, ps_params, basis,
                                                    seed=args.seed)
        _emit(args, {"instance": instance.to_json(),
                     "partitioning_system": system.to_json()}, "reduction.json")
        if args.out:
            instance.save(os.path.join(args.out, "instance.json"))
        return EXIT_OK
    raise GameValidationError(f"unknown forge command {args.forge_command!r}")


def cmd_oracle(args) -> int:
    instance = GameInstance.load(args.instance)
    taxes = TaxProfile.load(args.taxes) if args.taxes else None
    report = empirical_poa(instance, taxes, cap=args.enum_cap)
    _emit(args, report.to_json(), "poa_report.json")
    return EXIT_OK


def _add_basis_flags(parser) -> None:
    parser.add_argument("--monomial", type=float, default=None,
                        help="monomial basis x**D")
    parser.add_argument("--table", type=str, default=None,
                        help="table basis, comma-separated values for x=1,2,...")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tollkit",
        description="design and verify congestion-dependent taxes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-basis", help="efficiency factors of one basis")
    _add_basis_flags(p)
    p.add_argument("--monomial-like", action="store_true",
                   help="evaluate a table basis at real arguments for mu")
    p.add_argument("--x-max", type=int, default=1000)
    p.add_argument("--bell-table", type=int, default=None, metavar="D_MAX",
                   help="also tabulate factors for integer degrees 0..D_MAX")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_analyze_basis)

    p = sub.add_parser("design", help="solve relaxation, build and audit taxes")
    p.add_argument("instance")
    p.add_argument("--tol-gap", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--audit-tol", type=float)
    p.add_argument("--x-max", type=int)
    p.add_argument("--enum-cap", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_design, **{
        name: param.default for name, param in inspect.signature(design).parameters.items()
        if name != "instance"})

    p = sub.add_parser("learn", help="multiplicative-weights runs over seeds")
    p.add_argument("instance")
    p.add_argument("--taxes", required=True)
    p.add_argument("--rounds", type=int, default=5000)
    p.add_argument("--eta", type=str, default="auto")
    p.add_argument("--seeds", type=str, default="0,1,2")
    p.add_argument("--seed", type=int, default=0,
                   help="offset added to every entry of --seeds")
    p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("forge", help="generate instances and gadgets")
    forge_sub = p.add_subparsers(dest="forge_command", required=True)

    q = forge_sub.add_parser("random")
    q.add_argument("--players", type=int, required=True)
    q.add_argument("--resources", type=int, required=True)
    _add_basis_flags(q)
    q.add_argument("--min-strategies", type=int, default=1)
    q.add_argument("--max-strategies", type=int, default=3)
    q.add_argument("--min-size", type=int, default=1)
    q.add_argument("--max-size", type=int, default=2)
    q.add_argument("--min-coeff", type=float, default=0.5)
    q.add_argument("--max-coeff", type=float, default=2.0)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", type=str, default=None)
    q.set_defaults(func=cmd_forge)

    q = forge_sub.add_parser("partition")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--beta", type=int, required=True)
    q.add_argument("--h", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--eta", type=float, required=True)
    _add_basis_flags(q)
    q.add_argument("--mode", type=str, default="auto",
                   choices=["auto", "exhaustive", "sampled"])
    q.add_argument("--samples", type=int, default=forge.P2_DEFAULT_SAMPLES)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", type=str, default=None)
    q.set_defaults(func=cmd_forge)

    q = forge_sub.add_parser("reduce")
    q.add_argument("--labelcover", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--eta", type=float, required=True)
    q.add_argument("--beta", type=int, default=None,
                   help="rows in the partitioning system (default: right alphabet)")
    _add_basis_flags(q)
    q.add_argument("--mode", type=str, default="auto",
                   choices=["auto", "exhaustive", "sampled"])
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", type=str, default=None)
    q.set_defaults(func=cmd_forge)

    p = sub.add_parser("oracle", help="brute-force equilibrium report")
    p.add_argument("instance")
    p.add_argument("--taxes", type=str, default=None)
    p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on first use, then kept. parse_args
    fills a fresh namespace on every call, so no value carries over."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv[:1] == ["--config"]:
        if len(argv) < 2:
            print("error: --config needs a file", file=sys.stderr)
            return EXIT_PARSE
        try:
            replay = ExperimentConfig.load(argv[1])
        except (OSError, ValueError) as exc:
            print(f"error: cannot load config: {exc}", file=sys.stderr)
            return EXIT_PARSE
        argv = list(replay.argv) + argv[2:]
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the parse-error contract
        return int(exc.code or 0)
    try:
        _write_config(args, argv)
        return args.func(args)
    except (GameValidationError, InvalidParams, InfeasibleParams, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (KernelNonConvergent, KernelOverflow, TooLarge) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConstructionFailed as exc:
        report = {"status": "construction-failed", "detail": str(exc),
                  "worst_margin": exc.worst_margin, "attempts": exc.attempts}
        print(json.dumps(report, indent=2), file=sys.stderr)
        return EXIT_CONSTRUCTION
    except TollkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
