"""Property tests of the arc-array walk over random connected graphs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qwbutterfly import ArcBasis, Graph, WalkOperator, evolve, receiver_state, sender_state

# derandomize keeps the drawn examples, and so the test outcome, fixed
# from run to run; no example database is written.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def scenarios(draw):
    """A connected graph (random spanning tree plus extra edges, randomly
    labelled) with a distinct sender and receiver."""
    n = draw(st.integers(2, 9))
    label = draw(st.permutations(range(n)))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = sorted({(u, v) for v in range(n) for u in range(v)} - tree)
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    graph = Graph(n, tuple((label[u], label[v]) for u, v in sorted(tree) + extra))
    sender = draw(st.integers(0, n - 1))
    receiver = draw(st.integers(0, n - 2))
    return graph, sender, receiver + (receiver >= sender)


@PROPERTY
@given(scenarios(), st.integers(0, 2**32 - 1))
def test_step_matches_dense_evolution(scenario, seed):
    graph, s, r = scenario
    walk = WalkOperator.assemble(graph, s, r)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=walk.basis.dim) + 1j * rng.normal(size=walk.basis.dim)
    psi /= np.linalg.norm(psi)
    assert np.max(np.abs(walk.step(psi) - walk.evolution @ psi)) <= 1e-12


@PROPERTY
@given(scenarios())
def test_norm_is_preserved_over_100_steps(scenario):
    graph, s, r = scenario
    walk = WalkOperator.assemble(graph, s, r)
    psi = sender_state(graph, walk.basis, s)
    for _ in range(100):
        psi = walk.step(psi)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    np.testing.assert_array_equal(psi, evolve(walk, sender_state(graph, walk.basis, s), 100))


@PROPERTY
@given(scenarios())
def test_receiver_states_match_arc_by_arc_construction(scenario):
    graph, _, r = scenario
    basis = ArcBasis(graph)
    assert basis.arcs == tuple(zip(basis.tail.tolist(), basis.tail[basis.reverse].tolist()))
    amp = 1.0 / np.sqrt(graph.degree(r))
    incoming = np.zeros(basis.dim, dtype=complex)
    outgoing = np.zeros(basis.dim, dtype=complex)
    for q in graph.neighbors(r):
        incoming[basis.index[(q, r)]] = amp
        outgoing[basis.index[(r, q)]] = amp
    np.testing.assert_array_equal(receiver_state(graph, basis, r, "incoming"), incoming)
    np.testing.assert_array_equal(receiver_state(graph, basis, r, "outgoing"), outgoing)
    np.testing.assert_array_equal(sender_state(graph, basis, r), outgoing)


@PROPERTY
@given(scenarios(), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_real_step_matches_dense_evolution(scenario, seed, k):
    graph, s, r = scenario
    walk = WalkOperator.assemble(graph, s, r)
    psi = np.random.default_rng(seed).normal(size=(k, walk.basis.dim))
    stepped = walk.step(psi)
    assert stepped.dtype == np.float64
    assert np.max(np.abs(stepped - psi @ walk.evolution.T)) <= 1e-12
