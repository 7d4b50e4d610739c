"""JSON round trips of every persisted result type: ``from_json`` of
``to_json`` gives the object back, also through JSON text."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from game_strategies import small_games
from tollkit import (Allocation, CoarseCorrelatedReport, FractionalProfile,
                     PoaReport, SmoothnessResult, TaxProfile)

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


@pytest.mark.parametrize("objects", [
    poa_reports, smoothness_results, coarse_correlated_reports,
    small_games(), tax_profiles(), fractional_profile_records(),
], ids=["PoaReport", "SmoothnessResult", "CoarseCorrelatedReport",
        "GameInstance", "TaxProfile", "FractionalProfile"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip(objects, data):
    round_trips(data.draw(objects))
