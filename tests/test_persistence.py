"""JSON round trips of every persisted result type: ``from_json`` of
``to_json`` gives the object back, also through JSON text."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from game_strategies import small_games
from tollkit import (Allocation, CoarseCorrelatedReport, FractionalProfile,
                     LabelCoverInstance, PartitioningSystem, PoaReport,
                     RhoReport, SmoothnessResult, TaxAudit, TaxProfile)
from tollkit.taxes import ResourceAudit

finite = st.floats(allow_nan=False, allow_infinity=False)
allocations = st.lists(st.integers(0, 50), min_size=1, max_size=6).map(Allocation.of)


def round_trips(obj) -> None:
    cls = type(obj)
    assert cls.from_json(obj.to_json()) == obj
    assert cls.from_json(json.loads(json.dumps(obj.to_json()))) == obj


poa_reports = st.builds(PoaReport, min_cost=finite, min_witness=allocations,
                        worst_ne_cost=finite, worst_ne_witness=allocations,
                        poa=finite, num_pure_ne=st.integers(0, 10 ** 6),
                        enumerated_profiles=st.integers(1, 10 ** 7))
smoothness_results = st.builds(SmoothnessResult, passed=st.booleans(),
                               worst_margin=finite, witness=allocations)
coarse_correlated_reports = st.builds(
    CoarseCorrelatedReport, passed=st.booleans(), slack=finite,
    expected_sc=finite, expected_lhs=finite, rho_bound=finite, min_sc=finite,
    eps_regret=finite)


@st.composite
def tax_profiles(draw):
    num_r = draw(st.integers(1, 4))
    n_cap = draw(st.integers(0, 5))
    table = st.lists(finite, min_size=n_cap + 1, max_size=n_cap + 1).map(tuple)
    return TaxProfile(v=tuple(draw(st.lists(finite, min_size=num_r, max_size=num_r))),
                      tau=tuple(draw(table) for _ in range(num_r)),
                      ell_bar=tuple(draw(table) for _ in range(num_r)),
                      n_cap=n_cap)


@st.composite
def fractional_profile_records(draw):
    """Any stored record: the type holds what a solve produced, valid or not."""
    weights = draw(st.lists(st.lists(finite, min_size=1, max_size=4).map(tuple),
                            min_size=1, max_size=4))
    return FractionalProfile(
        weights=tuple(weights),
        loads=tuple(draw(st.lists(finite, min_size=1, max_size=5))),
        objective=draw(finite), gap=draw(finite),
        iters=draw(st.integers(0, 10 ** 6)))


@st.composite
def rho_reports(draw):
    """A finite factor, or the diverged report whose value is ``inf``."""
    infinite = draw(st.booleans())
    return RhoReport(value=float("inf") if infinite else draw(finite),
                     argmax=draw(st.none() | st.integers(1, 10 ** 6)),
                     x_max=draw(st.integers(1, 10 ** 6)),
                     samples=tuple(draw(st.lists(finite, max_size=6))),
                     infinite=infinite)


resource_audits = st.builds(ResourceAudit, resource=st.integers(0, 100),
                            max_residual=finite, min_monotonicity_gap=finite,
                            min_tax=finite, max_split_error=finite)
tax_audits = st.builds(TaxAudit,
                       resources=st.lists(resource_audits, max_size=4).map(tuple),
                       passed=st.booleans(), tol=finite)
partitioning_systems = st.builds(
    PartitioningSystem, n=st.integers(1, 500), beta=st.integers(1, 10),
    h=st.integers(1, 10), k=st.integers(1, 10), eta=finite,
    blocks=st.lists(st.lists(st.lists(st.integers(0, 500), max_size=5).map(tuple),
                             max_size=4).map(tuple), max_size=4).map(tuple),
    p1_passed=st.booleans(), p2_margin=finite,
    p2_mode=st.sampled_from(["exhaustive", "sampled"]),
    p2_choices_checked=st.integers(0, 10 ** 9), n_required=finite)


@st.composite
def label_cover_instances(draw):
    """Bi-regular instances: every right vertex gets ``h`` distinct left
    neighbours, and every edge a full constraint map."""
    h = draw(st.integers(1, 3))
    num_left = draw(st.integers(h, 5))
    num_right = draw(st.integers(1, 3))
    alpha = draw(st.integers(1, 3))
    beta = draw(st.integers(1, 3))
    edges = [(v, u) for u in range(num_right)
             for v in draw(st.lists(st.integers(0, num_left - 1), min_size=h,
                                    max_size=h, unique=True))]
    edges = draw(st.permutations(edges))
    label = st.integers(0, beta - 1)
    pi = {e: tuple(draw(st.lists(label, min_size=alpha, max_size=alpha)))
          for e in edges}
    return LabelCoverInstance(num_left=num_left, num_right=num_right,
                              edges=tuple(edges), h=h, alpha=alpha, beta=beta,
                              pi=pi)


@pytest.mark.parametrize("objects", [
    poa_reports, smoothness_results, coarse_correlated_reports,
    small_games(), tax_profiles(), fractional_profile_records(),
    rho_reports(), tax_audits, partitioning_systems, label_cover_instances(),
], ids=["PoaReport", "SmoothnessResult", "CoarseCorrelatedReport",
        "GameInstance", "TaxProfile", "FractionalProfile", "RhoReport",
        "TaxAudit", "PartitioningSystem", "LabelCoverInstance"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip(objects, data):
    round_trips(data.draw(objects))
