"""Hypothesis strategies for small valid games and the objects built on
them, and fixed games, shared by the oracle, learning and persistence
tests."""

from hypothesis import strategies as st

from tollkit import BasisFunction, FractionalProfile, GameInstance, TaxProfile
from tollkit.relaxation import fractional_loads


def parallel_links(players, links):
    """``players`` players each choosing one of ``links`` identical links."""
    b = BasisFunction.monomial(1)
    return GameInstance.build([b], [[1.0]] * links,
                              [[[r] for r in range(links)]] * players)


def table_twin(instance):
    """The same game with every basis written as the table ``b(1..N)``."""
    n = instance.num_players
    basis = tuple(BasisFunction.table([b.b(x) for x in range(1, n + 1)])
                  for b in instance.basis)
    return GameInstance(basis=basis, coefficients=instance.coefficients,
                        strategies=instance.strategies)


def negated_taxes(instance, factor):
    """Taxes ``tau = -factor * ell`` on loads ``0..N``: every perceived cost
    is 0 at ``factor = 1`` and negative above it."""
    ell = instance.ell_tables(instance.num_players)
    return TaxProfile(v=(0.0,) * instance.num_resources,
                      tau=tuple(tuple(-factor * c for c in row) for row in ell),
                      ell_bar=tuple(tuple(c - factor * c for c in row) for row in ell),
                      n_cap=instance.num_players)


@st.composite
def basis_functions(draw):
    """An integer monomial or a table with non-decreasing increments, which
    keeps ``b`` non-decreasing and ``x * b(x)`` convex."""
    if draw(st.booleans()):
        return BasisFunction.monomial(draw(st.integers(0, 3)))
    first = draw(st.floats(0.1, 3.0))
    steps = sorted(draw(st.lists(st.floats(0.0, 2.0), max_size=5)))
    values = [first]
    for step in steps:
        values.append(values[-1] + step)
    return BasisFunction.table(values)


@st.composite
def small_games(draw):
    """2-5 players, 1-4 strategies each, strategies of 1-4 resources."""
    num_resources = draw(st.integers(1, 6))
    basis = draw(st.lists(basis_functions(), min_size=1, max_size=2))
    coefficients = [draw(st.lists(st.floats(0.1, 3.0), min_size=len(basis),
                                  max_size=len(basis)))
                    for _ in range(num_resources)]
    strategy = st.frozensets(st.integers(0, num_resources - 1),
                             min_size=1, max_size=4)
    players = draw(st.lists(st.lists(strategy, min_size=1, max_size=4, unique=True),
                            min_size=2, max_size=5))
    return GameInstance.build(basis, coefficients,
                              [[sorted(s) for s in strats] for strats in players])


@st.composite
def fractional_profiles(draw, instance):
    """Simplex weights with random zeros, so supports differ in size."""
    weights = []
    for i in range(instance.num_players):
        raw = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.0, 3.5]),
                            min_size=instance.num_strategies(i),
                            max_size=instance.num_strategies(i)))
        if not any(raw):
            raw[draw(st.integers(0, len(raw) - 1))] = 1.0
        total = sum(raw)
        weights.append(tuple(w / total for w in raw))
    loads = tuple(fractional_loads(instance, weights))
    return FractionalProfile(weights=tuple(weights), loads=loads,
                             objective=0.0, gap=0.0, iters=0)
