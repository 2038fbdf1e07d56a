"""Arc-space walk for coined quantum walks.

The walker lives on the 2m directed arcs of a simple graph.  One step is
U = S @ C where C applies a Grover reflection block per vertex (negated at
the marked sender and receiver) and S reverses every arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    """Uniform superposition over the arcs leaving the sender vertex, float64."""
    return receiver_state(graph, basis, sender, "outgoing")


def receiver_state(graph: Graph, basis: ArcBasis, receiver: int,
                   convention: str = "outgoing") -> np.ndarray:
    """Uniform superposition over the receiver's arcs, float64.

    convention="incoming" uses the arcs (q, r) pointing into the receiver;
    convention="outgoing" uses the arcs (r, q) leaving it.  The two give
    fidelity series shifted by one step relative to each other; "outgoing",
    the scenario default, reproduces the reference tables.
    """
    if convention not in RECEIVER_CONVENTIONS:
        raise ValueError(f"unknown receiver convention {convention!r}")
    if graph.degree(receiver) == 0:
        raise ValueError(f"vertex {receiver} is isolated; it has no arcs")
    return _vertex_states(basis, receiver, convention)


def _vertex_states(basis: ArcBasis, vertices, convention: str = "outgoing") -> np.ndarray:
    """receiver_state of a vertex, shape (dim,), or of each of k vertices, as
    the rows of a (k, dim) array.  The vertices are not checked: each must
    have arcs."""
    vertices = np.asarray(vertices)
    degree = np.bincount(basis.tail, minlength=basis.graph.n)[vertices]
    psi = np.where(basis.tail == vertices[..., None], 1.0 / np.sqrt(degree)[..., None], 0.0)
    return psi[..., basis.reverse] if convention == "incoming" else psi


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
    vertex: np.ndarray    # each arc's tail as an index into `degrees`
    degrees: np.ndarray   # number of arcs from each vertex that has arcs
    # bincount bins by float64s per arc (1 real, 2 complex), for the most rows
    # stepped so far; fewer rows use a prefix
    _bins: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def assemble(cls, graph: Graph, sender: int, receiver: int) -> "WalkOperator":
        basis = ArcBasis(graph)
        _check_marks(graph, sender, receiver)
        _, vertex, degrees = np.unique(basis.tail, return_inverse=True, return_counts=True)
        return cls(basis, sender, receiver, _marked_sign(basis, sender, receiver), vertex,
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
        their mean, apply the marked sign, then reverse every arc.

        Real input gives a float64 result and complex input a complex128
        one.  The vertex sums of all rows come from one np.bincount over the
        array's float64 parts (real and imaginary parts interleaved for
        complex input), whose bins are built once and kept on the operator.
        """
        psi = np.asarray(psi)
        psi = np.ascontiguousarray(psi, dtype=complex if psi.dtype.kind == "c" else float)
        if psi.shape[-1:] != self.vertex.shape:
            raise ValueError(f"state has shape {psi.shape}, expected (..., {self.basis.dim})")
        parts = psi.view(float)
        sums = np.bincount(self._bins_for(parts.size, psi.itemsize // parts.itemsize),
                           parts.ravel())
        twice_means = (sums.view(psi.dtype).reshape(*psi.shape[:-1], len(self.degrees))
                       * self._twice_inverse_degree)
        coined = self.sign * (twice_means.take(self.vertex, axis=-1) - psi)
        return coined.take(self.basis.reverse, axis=-1)

    def _bins_for(self, size: int, parts: int) -> np.ndarray:
        """The `size` flat bins (vertex + nv row) parts + part of an input
        whose arcs are `parts` float64s each (1 real, 2 complex)."""
        bins = self._bins.get(parts)
        if bins is None or len(bins) < size:
            rows = size // max(1, parts * len(self.vertex))
            slots = self.vertex + len(self.degrees) * np.arange(rows)[:, None]
            bins = self._bins[parts] = (parts * slots[..., None] + np.arange(parts)).ravel()
        return bins[:size]

    @cached_property
    def _twice_inverse_degree(self) -> np.ndarray:
        return 2.0 / self.degrees

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
    """Apply the evolution operator `steps` times to a pure state.

    A real state stays real (float64); a complex one is complex128.
    """
    if not (is_int(steps) and steps >= 0):
        raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
    psi = np.asarray(psi0)
    psi = psi.astype(complex if np.iscomplexobj(psi) else float)
    if psi.shape != (walk.basis.dim,):
        raise ValueError(f"state has shape {psi.shape}, expected ({walk.basis.dim},)")
    for _ in range(steps):
        psi = walk.step(psi)
    return psi
