"""Arc-space operators for coined quantum walks.

The walker lives on the 2m directed arcs of a simple graph.  One step is
U = S @ C where C applies a Grover reflection block per vertex (negated at
the marked sender and receiver) and S reverses every arc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph

RECEIVER_CONVENTIONS = ("incoming", "outgoing")


class ArcBasis:
    """Canonical ordering of the 2m directed arcs of a graph.

    Arcs are sorted by (tail, head), i.e. grouped by tail vertex ascending
    with heads ascending inside each group.  This makes the coin operator
    block diagonal with one d(v) x d(v) block per vertex v, and fixes the
    computational basis so runs are reproducible bit for bit.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        arcs = []
        for tail in range(graph.n):
            arcs.extend((tail, head) for head in graph.neighbors(tail))
        self.arcs: tuple[tuple[int, int], ...] = tuple(arcs)
        self.index: dict[tuple[int, int], int] = {a: i for i, a in enumerate(arcs)}

    @property
    def dim(self) -> int:
        return len(self.arcs)

    def __len__(self) -> int:
        return len(self.arcs)


def grover_coin(d: int) -> np.ndarray:
    """Grover diffusion coin of dimension d.

    Reflection about the uniform superposition: entries 2/d off the
    diagonal and 2/d - 1 on it.  Symmetric, orthogonal and involutive;
    d=1 gives [[1]] and d=2 gives Pauli X.
    """
    if d < 1:
        raise ValueError(f"coin dimension must be >= 1, got {d}")
    return np.full((d, d), 2.0 / d) - np.eye(d)


def assemble_coin(graph: Graph, basis: ArcBasis, sender: int, receiver: int) -> np.ndarray:
    """Block-diagonal coin with the sender and receiver blocks negated."""
    graph._check_vertex(sender)
    graph._check_vertex(receiver)
    if sender == receiver:
        raise ValueError("sender and receiver must be distinct vertices")
    dim = basis.dim
    coin = np.zeros((dim, dim), dtype=complex)
    offset = 0
    for v in range(graph.n):
        d = graph.degree(v)
        block = grover_coin(d)
        if v in (sender, receiver):
            block = -block
        coin[offset:offset + d, offset:offset + d] = block
        offset += d
    return coin


def assemble_shift(basis: ArcBasis) -> np.ndarray:
    """Permutation matrix reversing every arc: S|(i,j)> = |(j,i)>."""
    dim = basis.dim
    shift = np.zeros((dim, dim), dtype=complex)
    for (i, j), col in basis.index.items():
        shift[basis.index[(j, i)], col] = 1.0
    return shift


def sender_state(graph: Graph, basis: ArcBasis, sender: int) -> np.ndarray:
    """Uniform superposition over the arcs leaving the sender vertex."""
    d = graph.degree(sender)
    if d == 0:
        raise ValueError(f"vertex {sender} is isolated; no outgoing arcs")
    psi = np.zeros(basis.dim, dtype=complex)
    amp = 1.0 / np.sqrt(d)
    for head in graph.neighbors(sender):
        psi[basis.index[(sender, head)]] = amp
    return psi


def receiver_state(graph: Graph, basis: ArcBasis, receiver: int,
                   convention: str = "outgoing") -> np.ndarray:
    """Uniform superposition over the receiver's arcs.

    convention="incoming" uses the arcs (q, r) pointing into the receiver;
    convention="outgoing" uses the arcs (r, q) leaving it.  The two give
    fidelity series shifted by one step relative to each other; "outgoing",
    the scenario default, reproduces the reference tables.
    """
    if convention not in RECEIVER_CONVENTIONS:
        raise ValueError(f"unknown receiver convention {convention!r}")
    d = graph.degree(receiver)
    if d == 0:
        raise ValueError(f"vertex {receiver} is isolated; no arcs to receive on")
    psi = np.zeros(basis.dim, dtype=complex)
    amp = 1.0 / np.sqrt(d)
    for q in graph.neighbors(receiver):
        arc = (q, receiver) if convention == "incoming" else (receiver, q)
        psi[basis.index[arc]] = amp
    return psi


@dataclass(frozen=True)
class WalkOperator:
    """Coin, shift and one-step evolution U = S @ C for one scenario.

    Matrices are marked read-only; instances may be shared across threads.
    """

    basis: ArcBasis
    coin: np.ndarray
    shift: np.ndarray
    evolution: np.ndarray
    sender: int
    receiver: int

    @classmethod
    def assemble(cls, graph: Graph, sender: int, receiver: int,
                 basis: ArcBasis | None = None) -> "WalkOperator":
        basis = basis if basis is not None else ArcBasis(graph)
        coin = assemble_coin(graph, basis, sender, receiver)
        shift = assemble_shift(basis)
        evolution = shift @ coin
        for mat in (coin, shift, evolution):
            mat.setflags(write=False)
        return cls(basis=basis, coin=coin, shift=shift, evolution=evolution,
                   sender=sender, receiver=receiver)


def evolve(walk: WalkOperator, psi0: np.ndarray, steps: int) -> np.ndarray:
    """Apply the evolution operator `steps` times to a pure state.

    Repeated matrix-vector products rather than a matrix power; cheaper
    and numerically tighter at these dimensions.
    """
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (walk.basis.dim,):
        raise ValueError(f"state has shape {psi.shape}, expected ({walk.basis.dim},)")
    for _ in range(steps):
        psi = walk.evolution @ psi
    return psi
