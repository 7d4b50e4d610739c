"""The design pipeline as one library call: solve the load relaxation, turn
its loads into taxes, audit the tables, bound the efficiency factor ``rho``
of the bases in use, and check the price of anarchy and the smoothness
certificate on every pure profile."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import (KernelNonConvergent, KernelOverflow, MaxItersExceeded,
                     TooLarge, require_finite_nonnegative)
from .game import GameInstance, TaxProfile
from .kernel import rho_factor
from .oracle import (DEFAULT_ENUMERATION_CAP, PoaReport, SmoothnessResult,
                     empirical_poa, poa_and_smoothness)
from .relaxation import FractionalProfile, solve_relaxation
from .taxes import TaxAudit, audit_taxes, build_tax_profile


@dataclass(frozen=True)
class DesignReport:
    """What ``design`` found. ``status`` names every stage in pipeline order
    with ``ok``, ``skipped`` or why it stopped, and ``detail`` the error of
    a stage that stopped on ``overflow`` or ``too-large``. A stage's result
    is None unless it finished; the relaxation keeps its last iterate on
    ``max-iters``. The audit is absent, not skipped, after failed taxes."""

    status: dict[str, str]
    detail: dict[str, str] = field(default_factory=dict)
    relaxation: Optional[FractionalProfile] = None
    taxes: Optional[TaxProfile] = None
    audit: Optional[TaxAudit] = None
    rho: Optional[float] = None
    poa: Optional[PoaReport] = None
    smoothness: Optional[SmoothnessResult] = None

    def to_json(self) -> dict:
        stages = {}
        for name, status in self.status.items():
            stage = stages[name] = {"status": status}
            result = getattr(self, name)
            if name in self.detail:
                stage["detail"] = self.detail[name]
            elif name == "rho" and result is not None:
                stage["rho"] = result
            elif result is not None:
                stage.update(result.to_json())
        return stages


def _instance_rho(instance: GameInstance, x_max: int) -> float:
    """Worst efficiency factor over the bases actually used."""
    used = [j for j in range(instance.num_basis)
            if any(c[j] > 0 for c in instance.coefficients)]
    value = 1.0
    for j in used:
        report = rho_factor(instance.basis[j], x_max=x_max)
        if report.infinite:
            raise KernelNonConvergent("efficiency factor is unbounded")
        value = max(value, report.value)
    return value


def design(instance: GameInstance, *, tol_gap: float = 1e-8,
           max_iters: int = 10_000, audit_tol: float = 1e-7, x_max: int = 1000,
           enum_cap: int = DEFAULT_ENUMERATION_CAP) -> DesignReport:
    """Every stage of the design of ``instance``; ``tollkit design`` takes
    its flag defaults from this signature.

    The relaxation ends ``ok``, ``max-iters`` or ``infinite-rho``; the
    taxes ``ok``, ``infinite-rho`` or ``overflow``; ``rho`` ``ok`` or
    ``infinite-rho`` (a factor past the double range raises
    ``KernelOverflow``); the price of anarchy and smoothness ``ok`` or
    ``too-large``. A stage whose input is missing is ``skipped``. The last
    two stages share one compiled game and one sweep of its profiles, at
    every size.
    """
    require_finite_nonnegative("audit tol", audit_tol)
    status: dict[str, str] = {}
    detail: dict[str, str] = {}
    profile = taxes = audit = rho = poa = smoothness = None
    try:
        profile = solve_relaxation(instance, tol_gap=tol_gap, max_iters=max_iters)
        status["relaxation"] = "ok"
    except MaxItersExceeded as exc:
        profile = exc.profile
        status["relaxation"] = "max-iters"
    except KernelNonConvergent:
        status["relaxation"] = "infinite-rho"

    if profile is None:
        status["taxes"] = status["audit"] = "skipped"
    else:
        try:
            built = build_tax_profile(instance, profile.loads)
            audit = audit_taxes(instance, built, tol=audit_tol)
            taxes = built
            status["taxes"] = status["audit"] = "ok"
        except KernelNonConvergent:
            status["taxes"] = "infinite-rho"
        except KernelOverflow as exc:
            status["taxes"] = "overflow"
            detail["taxes"] = str(exc)

    try:
        rho = _instance_rho(instance, x_max)
        status["rho"] = "ok"
    except KernelNonConvergent:
        status["rho"] = "infinite-rho"

    status["poa"] = status["smoothness"] = "skipped"
    if taxes is not None:
        checked = ("poa",) if rho is None else ("poa", "smoothness")
        try:
            if rho is None:
                poa = empirical_poa(instance, taxes, cap=enum_cap)
            else:
                poa, smoothness = poa_and_smoothness(instance, taxes, profile,
                                                     rho, cap=enum_cap)
            status.update(dict.fromkeys(checked, "ok"))
        except TooLarge as exc:
            status.update(dict.fromkeys(checked, "too-large"))
            detail.update(dict.fromkeys(checked, str(exc)))
    return DesignReport(status, detail, relaxation=profile, taxes=taxes,
                        audit=audit, rho=rho, poa=poa, smoothness=smoothness)
