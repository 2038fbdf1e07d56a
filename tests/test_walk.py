import inspect

import numpy as np
import pytest

from qwbutterfly import (
    ArcBasis,
    ScenarioConfig,
    WalkOperator,
    assemble_coin,
    assemble_shift,
    build_butterfly,
    build_path,
    evolve,
    fidelity_pure,
    grover_coin,
    receiver_state,
    sender_state,
)

P2 = build_path(2)
B1 = build_butterfly(P2, 1)
B2 = build_butterfly(P2, 2)
B3_P2 = build_butterfly(P2, 3)
B3_P3 = build_butterfly(build_path(3), 3)

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_grover_coin_degree_two_is_pauli_x():
    np.testing.assert_array_equal(grover_coin(2), X)


def test_grover_coin_degree_three():
    expected = np.full((3, 3), 2.0 / 3.0) - np.eye(3)
    np.testing.assert_allclose(grover_coin(3), expected, atol=1e-15)


def test_grover_coin_degree_five():
    c = grover_coin(5)
    np.testing.assert_allclose(np.diag(c), np.full(5, -0.6), atol=1e-15)
    off = c[~np.eye(5, dtype=bool)]
    np.testing.assert_allclose(off, np.full(20, 0.4), atol=1e-15)


def test_grover_coin_degree_one():
    np.testing.assert_array_equal(grover_coin(1), [[1.0]])


def test_grover_coin_rejects_zero():
    with pytest.raises(ValueError):
        grover_coin(0)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_grover_coin_is_an_involutive_reflection(d):
    c = grover_coin(d)
    np.testing.assert_allclose(c @ c, np.eye(d), atol=1e-14)
    np.testing.assert_allclose(c, c.T, atol=0)


def test_basis_ordering_and_bijection():
    basis = ArcBasis(B2)
    assert basis.dim == 2 * B2.m
    assert list(basis.arcs) == sorted(basis.arcs)
    assert sorted(basis.index.values()) == list(range(basis.dim))
    arcset = set(basis.arcs)
    for u, v in B2.edges:
        assert (u, v) in arcset and (v, u) in arcset


def test_coin_b1_body_pair():
    basis = ArcBasis(B1)
    coin = assemble_coin(B1, basis, 0, 1).real
    expected = np.zeros((8, 8))
    for i, sign in enumerate([-1, -1, 1, 1]):
        expected[2 * i:2 * i + 2, 2 * i:2 * i + 2] = sign * X
    np.testing.assert_array_equal(coin, expected)


def test_coin_b1_body_wing_pair():
    basis = ArcBasis(B1)
    coin = assemble_coin(B1, basis, 1, 2).real
    expected = np.zeros((8, 8))
    for i, sign in enumerate([1, -1, -1, 1]):
        expected[2 * i:2 * i + 2, 2 * i:2 * i + 2] = sign * X
    np.testing.assert_array_equal(coin, expected)


def test_coin_p2_is_negated_identity():
    np.testing.assert_array_equal(assemble_coin(P2, ArcBasis(P2), 0, 1).real, -np.eye(2))


def test_coin_rejects_equal_marks():
    with pytest.raises(ValueError):
        assemble_coin(B1, ArcBasis(B1), 2, 2)


def test_shift_p2():
    np.testing.assert_array_equal(assemble_shift(ArcBasis(P2)).real, X)


@pytest.mark.parametrize("graph", [P2, B1, B2, B3_P2, B3_P3])
def test_shift_is_an_involution(graph):
    s = assemble_shift(ArcBasis(graph))
    np.testing.assert_array_equal((s @ s).real, np.eye(graph.m * 2))


# The one-wing operators tabulated by hand from the arc-reversal and
# marked-coin rules, in an arc ordering that follows the construction
# sequence rather than sorted (tail, head).  Aligning the bases must give
# exact integer/half-integer agreement.
REF_ORDER_B1 = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 3), (2, 0), (3, 2), (3, 1)]
REF_SHIFT_B1 = np.array([
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
], dtype=float)

REF_ORDER_B2 = [(0, 1), (0, 2), (0, 4), (1, 0), (1, 3), (1, 5), (2, 3),
                (2, 0), (3, 2), (3, 1), (4, 5), (4, 0), (5, 4), (5, 1)]
REF_SHIFT_B2_PAIRS = [(0, 3), (1, 7), (2, 11), (4, 9), (5, 13), (6, 8), (10, 12)]


def _alignment(basis: ArcBasis, ref_order) -> np.ndarray:
    perm = np.zeros((len(ref_order), len(ref_order)))
    for row, arc in enumerate(ref_order):
        perm[row, basis.index[arc]] = 1.0
    return perm


def test_b1_operators_match_reference_tabulation():
    basis = ArcBasis(B1)
    perm = _alignment(basis, REF_ORDER_B1)
    shift = (perm @ assemble_shift(basis) @ perm.T).real
    np.testing.assert_array_equal(shift, REF_SHIFT_B1)

    coin = (perm @ assemble_coin(B1, basis, 0, 1) @ perm.T).real
    ref_coin = np.zeros((8, 8))
    for i, sign in enumerate([-1, -1, 1, 1]):
        ref_coin[2 * i:2 * i + 2, 2 * i:2 * i + 2] = sign * X
    np.testing.assert_array_equal(coin, ref_coin)

    evolution = (perm @ (assemble_shift(basis) @ assemble_coin(B1, basis, 0, 1)) @ perm.T).real
    np.testing.assert_array_equal(evolution, REF_SHIFT_B1 @ ref_coin)


def test_b2_shift_matches_reference_tabulation():
    basis = ArcBasis(B2)
    perm = _alignment(basis, REF_ORDER_B2)
    ref = np.zeros((14, 14))
    for a, b in REF_SHIFT_B2_PAIRS:
        ref[a, b] = ref[b, a] = 1.0
    np.testing.assert_array_equal((perm @ assemble_shift(basis) @ perm.T).real, ref)


def test_sender_state_examples():
    basis = ArcBasis(B2)
    psi = sender_state(B2, basis, 0)
    amp = 1.0 / np.sqrt(3.0)
    for arc in [(0, 1), (0, 2), (0, 4)]:
        assert psi[basis.index[arc]] == pytest.approx(amp)
    assert np.count_nonzero(psi) == 3

    basis_p2 = ArcBasis(P2)
    np.testing.assert_array_equal(sender_state(P2, basis_p2, 0),
                                  np.array([1.0, 0.0], dtype=complex))

    basis_b3p3 = ArcBasis(B3_P3)
    psi = sender_state(B3_P3, basis_b3p3, 4)
    amp = 1.0 / np.sqrt(3.0)
    for arc in [(4, 1), (4, 3), (4, 5)]:
        assert psi[basis_b3p3.index[arc]] == pytest.approx(amp)
    assert np.count_nonzero(psi) == 3


def test_receiver_state_conventions():
    basis = ArcBasis(B2)
    amp = 1.0 / np.sqrt(2.0)
    incoming = receiver_state(B2, basis, 5, "incoming")
    for arc in [(1, 5), (4, 5)]:
        assert incoming[basis.index[arc]] == pytest.approx(amp)
    assert np.count_nonzero(incoming) == 2

    outgoing = receiver_state(B2, basis, 5, "outgoing")
    for arc in [(5, 1), (5, 4)]:
        assert outgoing[basis.index[arc]] == pytest.approx(amp)

    basis_b3 = ArcBasis(B3_P2)
    incoming = receiver_state(B3_P2, basis_b3, 6, "incoming")
    for arc in [(0, 6), (7, 6)]:
        assert incoming[basis_b3.index[arc]] == pytest.approx(amp)
    assert np.count_nonzero(incoming) == 2


def test_receiver_state_rejects_unknown_convention():
    with pytest.raises(ValueError, match="convention"):
        receiver_state(B2, ArcBasis(B2), 5, "sideways")


def test_receiver_state_default_matches_scenario_default():
    default = inspect.signature(receiver_state).parameters["convention"].default
    assert default == ScenarioConfig.receiver_convention
    basis = ArcBasis(B2)
    np.testing.assert_array_equal(receiver_state(B2, basis, 5),
                                  receiver_state(B2, basis, 5, default))


def test_states_reject_isolated_vertex():
    from qwbutterfly import Graph
    g = Graph(3, ((0, 1),))
    basis = ArcBasis(g)
    with pytest.raises(ValueError, match="isolated"):
        sender_state(g, basis, 2)
    with pytest.raises(ValueError, match="isolated"):
        receiver_state(g, basis, 2)


def test_evolve_p2_single_step():
    walk = WalkOperator.assemble(P2, 0, 1)
    psi0 = sender_state(P2, walk.basis, 0)
    psi1 = evolve(walk, psi0, 1)
    np.testing.assert_allclose(psi1, np.array([0.0, -1.0], dtype=complex), atol=1e-15)
    target = receiver_state(P2, walk.basis, 1, "outgoing")
    assert fidelity_pure(psi1, target) == pytest.approx(1.0, abs=1e-12)


def test_evolve_zero_steps_is_identity():
    walk = WalkOperator.assemble(B2, 0, 1)
    psi0 = sender_state(B2, walk.basis, 0)
    np.testing.assert_array_equal(evolve(walk, psi0, 0), psi0)


def test_evolve_rejects_negative_steps():
    walk = WalkOperator.assemble(P2, 0, 1)
    with pytest.raises(ValueError):
        evolve(walk, sender_state(P2, walk.basis, 0), -1)


@pytest.mark.parametrize("steps", [True, 2.5, "2", -1], ids=repr)
def test_evolve_steps_must_be_an_integer(steps):
    walk = WalkOperator.assemble(P2, 0, 1)
    with pytest.raises(ValueError, match="steps must be an integer >= 0"):
        evolve(walk, sender_state(P2, walk.basis, 0), steps)


@pytest.mark.parametrize("graph,s,r", [
    (P2, 0, 1), (B1, 0, 1), (B2, 2, 5), (B3_P2, 5, 6), (B3_P3, 5, 6),
])
def test_operator_invariants(graph, s, r):
    walk = WalkOperator.assemble(graph, s, r)
    dim = walk.basis.dim
    eye = np.eye(dim)
    assert np.max(np.abs(walk.evolution.conj().T @ walk.evolution - eye)) < 1e-12
    assert np.max(np.abs(walk.coin @ walk.coin - eye)) < 1e-12
    assert np.max(np.abs(walk.shift @ walk.shift - eye)) < 1e-12


@pytest.mark.parametrize("graph,s,r", [
    (P2, 0, 1), (B1, 1, 2), (B2, 2, 5), (B3_P2, 5, 6), (B3_P3, 5, 6),
])
def test_step_matches_dense_evolution_at_every_step(graph, s, r):
    walk = WalkOperator.assemble(graph, s, r)
    fast = dense = sender_state(graph, walk.basis, s)
    for _ in range(200):
        fast = walk.step(fast)
        dense = walk.evolution @ dense
        assert np.max(np.abs(fast - dense)) <= 1e-12


def test_step_acts_on_the_last_axis():
    walk = WalkOperator.assemble(B3_P3, 5, 6)
    rng = np.random.default_rng(3)
    rho = rng.normal(size=(walk.basis.dim, walk.basis.dim)) + 0j
    np.testing.assert_allclose(walk.step(rho), rho @ walk.evolution.T, rtol=0, atol=1e-12)


def test_dense_matrices_are_built_on_first_access_only():
    walk = WalkOperator.assemble(B2, 2, 5)
    assert not {"coin", "shift", "evolution"} & set(vars(walk))
    assert walk.evolution is walk.evolution
    np.testing.assert_array_equal(walk.evolution, walk.shift @ walk.coin)


def test_norm_preserved_over_long_walks():
    walk = WalkOperator.assemble(B3_P3, 5, 6)
    psi = evolve(walk, sender_state(B3_P3, walk.basis, 5), 1000)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_walk_operator_matrices_are_read_only():
    walk = WalkOperator.assemble(P2, 0, 1)
    with pytest.raises(ValueError):
        walk.evolution[0, 0] = 5.0


def test_dense_operators_skip_isolated_vertices():
    from qwbutterfly import Graph
    g = Graph(3, ((0, 1),))
    walk = WalkOperator.assemble(g, 0, 1)
    assert walk.coin.shape == (2, 2)
    psi = np.array([0.6, 0.8j])
    np.testing.assert_allclose(walk.evolution @ psi, walk.step(psi), rtol=0, atol=1e-15)


def test_for_pairs_steps_each_row_under_its_own_marks():
    pairs = [(5, 6), (0, 1), (6, 5), (2, 7)]
    batch = WalkOperator.assemble(B3_P3, 0, 1).for_pairs(*zip(*pairs))
    assert batch.sign.shape == (len(pairs), batch.basis.dim)
    rng = np.random.default_rng(7)
    shape = (len(pairs), batch.basis.dim)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    stepped = batch.step(psi)
    for row, (s, r) in enumerate(pairs):
        single = WalkOperator.assemble(B3_P3, s, r)
        np.testing.assert_array_equal(single.sign, batch.sign[row])
        np.testing.assert_allclose(stepped[row], single.evolution @ psi[row], rtol=0, atol=1e-12)


@pytest.mark.parametrize("vertex", [True, 1.0], ids=repr)
@pytest.mark.parametrize("call", [
    lambda v: B2.degree(v),
    lambda v: B2.neighbors(v),
    lambda v: B2.has_edge(0, v),
    lambda v: B2.has_edge(v, 0),
    lambda v: sender_state(B2, ArcBasis(B2), v),
    lambda v: receiver_state(B2, ArcBasis(B2), v),
    lambda v: WalkOperator.assemble(B2, v, 2),
    lambda v: WalkOperator.assemble(B2, 2, v),
], ids=["degree", "neighbors", "has_edge_v", "has_edge_u", "sender_state",
        "receiver_state", "assemble_sender", "assemble_receiver"])
def test_vertices_must_be_integers(call, vertex):
    with pytest.raises(ValueError, match=rf"vertex {vertex!r} must be an integer"):
        call(vertex)
    call(np.int64(1))


def test_states_are_real():
    basis = ArcBasis(B3_P3)
    for psi in (sender_state(B3_P3, basis, 4), receiver_state(B3_P3, basis, 4, "incoming"),
                receiver_state(B3_P3, basis, 4, "outgoing")):
        assert psi.dtype == np.float64
    walk = WalkOperator.assemble(B3_P3, 4, 6)
    assert evolve(walk, sender_state(B3_P3, basis, 4), 5).dtype == np.float64
    assert evolve(walk, sender_state(B3_P3, basis, 4) + 0j, 5).dtype == np.complex128


def test_step_keeps_real_input_real_and_splits_complex_input():
    batch = WalkOperator.assemble(B3_P3, 0, 1).for_pairs([5, 0, 2], [6, 1, 7])
    rng = np.random.default_rng(11)
    shape = (3, batch.basis.dim)
    x, y = rng.normal(size=shape), rng.normal(size=shape)
    assert batch.step(x).dtype == np.float64
    assert batch.step(x.astype(np.float32)).dtype == np.float64
    z = batch.step(x + 1j * y)
    assert z.dtype == np.complex128
    np.testing.assert_allclose(z, batch.step(x) + 1j * batch.step(y), rtol=0, atol=1e-15)


def test_step_bins_follow_the_input_layout():
    # one operator steps a (k, dim) batch, a (dim, k, dim) density batch and a
    # (k, dim) batch again, real and complex: bins kept for the wrong layout
    # would mix rows
    pairs = [(5, 6), (0, 1), (2, 7)]
    batch = WalkOperator.assemble(B3_P3, 0, 1).for_pairs(*zip(*pairs))
    dim, k = batch.basis.dim, len(pairs)
    singles = [WalkOperator.assemble(B3_P3, s, r).evolution for s, r in pairs]
    rng = np.random.default_rng(5)
    for dtype in (float, complex, float):
        psi = rng.normal(size=(k, dim)).astype(dtype)
        rho = rng.normal(size=(dim, k, dim)).astype(dtype)
        for _ in range(2):
            stepped = batch.step(psi)
            for row, u in enumerate(singles):
                np.testing.assert_allclose(stepped[row], u @ psi[row], rtol=0, atol=1e-12)
            both = batch.step(batch.step(rho).T).T
            for row, u in enumerate(singles):
                np.testing.assert_allclose(both[:, row], u @ rho[:, row] @ u.T, rtol=0, atol=1e-12)


def test_step_rejects_a_state_of_the_wrong_length():
    walk = WalkOperator.assemble(P2, 0, 1)
    with pytest.raises(ValueError, match=r"expected \(\.\.\., 2\)"):
        walk.step(np.zeros(3))
