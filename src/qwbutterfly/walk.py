"""Arc-space walk for coined quantum walks.

The walker lives on the 2m directed arcs of a simple graph.  One step is
U = S @ C where C applies a Grover reflection block per vertex (negated at
the marked sender and receiver) and S reverses every arc.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .graphs import Graph, is_int

RECEIVER_CONVENTIONS = ("incoming", "outgoing")


class ArcBasis:
    """Canonical ordering of the 2m directed arcs of a graph.

    Arcs are sorted by (tail, head), i.e. grouped by tail vertex ascending
    with heads ascending inside each group.  This makes the coin operator
    block diagonal with one d(v) x d(v) block per vertex v, and fixes the
    computational basis so runs are reproducible bit for bit.  Arc i runs
    from `tail[i]` and `reverse[i]` is the index of its reversal.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.arcs: tuple[tuple[int, int], ...] = tuple(
            (tail, head) for tail in range(graph.n) for head in graph.neighbors(tail))
        self.index: dict[tuple[int, int], int] = {a: i for i, a in enumerate(self.arcs)}
        self.tail = np.array([t for t, _ in self.arcs], dtype=np.intp)
        self.reverse = np.array([self.index[(h, t)] for t, h in self.arcs], dtype=np.intp)

    @property
    def dim(self) -> int:
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


def _check_marks(graph: Graph, sender: int, receiver: int) -> None:
    graph._check_vertex(sender)
    graph._check_vertex(receiver)
    if sender == receiver:
        raise ValueError("sender and receiver must be distinct vertices")


def assemble_coin(graph: Graph, basis: ArcBasis, sender: int, receiver: int) -> np.ndarray:
    """Block-diagonal coin with the sender and receiver blocks negated."""
    _check_marks(graph, sender, receiver)
    dim = basis.dim
    coin = np.zeros((dim, dim), dtype=complex)
    offset = 0
    for v in range(graph.n):
        d = graph.degree(v)
        if d == 0:  # an isolated vertex has no arcs and so no block
            continue
        block = grover_coin(d)
        if v in (sender, receiver):
            block = -block
        coin[offset:offset + d, offset:offset + d] = block
        offset += d
    return coin


def assemble_shift(basis: ArcBasis) -> np.ndarray:
    """Permutation matrix reversing every arc: S|(i,j)> = |(j,i)>."""
    shift = np.zeros((basis.dim, basis.dim), dtype=complex)
    shift[basis.reverse, np.arange(basis.dim)] = 1.0
    return shift


def _marked_sign(basis: ArcBasis, sender, receiver) -> np.ndarray:
    """-1 on the arcs leaving the sender or receiver, else +1.  Marks given
    as arrays of shape (k,) give one row per pair, shape (k, dim)."""
    tail = basis.tail
    hit = (tail == np.asarray(sender)[..., None]) | (tail == np.asarray(receiver)[..., None])
    return np.where(hit, -1.0, 1.0)


def sender_state(graph: Graph, basis: ArcBasis, sender: int) -> np.ndarray:
    """Uniform superposition over the arcs leaving the sender vertex."""
    return receiver_state(graph, basis, sender, "outgoing")


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
        raise ValueError(f"vertex {receiver} is isolated; it has no arcs")
    psi = np.where(basis.tail == receiver, 1.0 / np.sqrt(d), 0j)
    return psi[basis.reverse] if convention == "incoming" else psi


@dataclass(frozen=True)
class WalkOperator:
    """The one-step evolution U = S @ C of one scenario, kept as arc arrays.

    `step` applies U in O(dim).  The dense `coin`, `shift` and `evolution`
    matrices are built on first access, for inspection and as the test
    oracle, and are read-only; instances may be shared across threads.
    """

    basis: ArcBasis
    sender: int | np.ndarray    # k marks in a batch operator (see `for_pairs`)
    receiver: int | np.ndarray
    sign: np.ndarray      # -1 on the arcs leaving the sender or receiver, else +1;
                          # one row per pair in a batch operator
    starts: np.ndarray    # first arc of each vertex that has arcs
    degrees: np.ndarray   # number of arcs from each of those vertices

    @classmethod
    def assemble(cls, graph: Graph, sender: int, receiver: int) -> "WalkOperator":
        basis = ArcBasis(graph)
        _check_marks(graph, sender, receiver)
        _, starts, degrees = np.unique(basis.tail, return_index=True, return_counts=True)
        return cls(basis, sender, receiver, _marked_sign(basis, sender, receiver), starts,
                   degrees)

    def for_pairs(self, senders, receivers) -> "WalkOperator":
        """This walk with pair i's marks on row i: `step` then advances a
        (k, dim) batch, or any (..., k, dim) stack of batches, in one call.

        The marks are not checked here; the dense matrices need the scalar
        marks of `assemble`.
        """
        senders, receivers = np.asarray(senders), np.asarray(receivers)
        return replace(self, sender=senders, receiver=receivers,
                       sign=_marked_sign(self.basis, senders, receivers))

    def step(self, psi: np.ndarray) -> np.ndarray:
        """U applied along the last axis: reflect each vertex's arcs about
        their mean, apply the marked sign, then reverse every arc."""
        means = np.add.reduceat(psi, self.starts, axis=-1) / self.degrees
        coined = self.sign * (2.0 * np.repeat(means, self.degrees, axis=-1) - psi)
        return coined.take(self.basis.reverse, axis=-1)

    @cached_property
    def coin(self) -> np.ndarray:
        return _read_only(assemble_coin(self.basis.graph, self.basis, self.sender,
                                        self.receiver))

    @cached_property
    def shift(self) -> np.ndarray:
        return _read_only(assemble_shift(self.basis))

    @cached_property
    def evolution(self) -> np.ndarray:
        return _read_only(self.shift @ self.coin)


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


def evolve(walk: WalkOperator, psi0: np.ndarray, steps: int) -> np.ndarray:
    """Apply the evolution operator `steps` times to a pure state."""
    if not (is_int(steps) and steps >= 0):
        raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (walk.basis.dim,):
        raise ValueError(f"state has shape {psi.shape}, expected ({walk.basis.dim},)")
    for _ in range(steps):
        psi = walk.step(psi)
    return psi
