"""Simple undirected graphs and the butterfly family grown from a seed graph.

Vertices are dense integers 0..n-1.  A butterfly graph attaches k "wings"
(copies of the seed) to the seed "body", joining corresponding vertices,
so wing j occupies labels j*n .. (j+1)*n - 1.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no self-loops, no parallel edges.

    Edges are stored as a sorted tuple of (u, v) pairs with u < v, so two
    graphs with the same edge set compare equal.  Instances are immutable
    and safe to share across threads.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not (is_int(self.n) and self.n >= 1):
            raise ValueError(f"graph needs an integer number of vertices >= 1, got n={self.n!r}")
        normalized = []
        for u, v in self.edges:
            if not (is_int(u) and is_int(v)):
                raise ValueError(f"edge ({u!r}, {v!r}) has a vertex that is not an integer")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) references a vertex outside [0, {self.n})")
            normalized.append((u, v) if u < v else (v, u))
        deduped = tuple(sorted(set(normalized)))
        if len(deduped) != len(normalized):
            raise ValueError("duplicate edges are not allowed in a simple graph")
        object.__setattr__(self, "edges", deduped)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.edges)

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        self._check_vertex(v)
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        """Number of vertices adjacent to v."""
        self._check_vertex(v)
        return len(self._adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adjacency[u]

    def _check_vertex(self, v: int) -> None:
        if not is_int(v):
            raise ValueError(f"vertex {v!r} must be an integer")
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range [0, {self.n})")


def is_int(value) -> bool:
    """True for Python and NumPy integers, false for bools."""
    # plain ints first: the ABC check costs ~10x more, and graphs check every vertex
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def is_real(value) -> bool:
    """True for Python and NumPy real numbers, false for bools."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def build_path(n: int) -> Graph:
    """Path graph on n vertices with edges (i, i+1)."""
    if not is_int(n) or n < 1:
        raise ValueError(f"path graph needs an integer n >= 1, got {n!r}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def build_butterfly(seed: Graph, wings: int) -> Graph:
    """Attach `wings` copies of the seed to the seed body.

    Wing j (1 <= j <= wings) carries the seed's edges shifted by j*n plus
    one joining edge (i, j*n + i) per body vertex i.  The result has
    (wings+1)*n vertices and (wings+1)*m + wings*n edges.
    """
    if not is_int(wings) or wings < 0:
        raise ValueError(f"wings must be an integer >= 0, got {wings!r}")
    n = seed.n
    edges = list(seed.edges)
    for j in range(1, wings + 1):
        offset = j * n
        edges.extend((u + offset, v + offset) for u, v in seed.edges)
        edges.extend((i, offset + i) for i in range(n))
    return Graph((wings + 1) * n, tuple(edges))


def bfs_distances(g: Graph, source: int) -> list[Optional[int]]:
    """Hop counts from source to every vertex; None for unreachable ones."""
    g._check_vertex(source)
    dist: list[Optional[int]] = [None] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def distance(g: Graph, u: int, v: int) -> int:
    """Length of the shortest path between u and v."""
    g._check_vertex(v)
    d = bfs_distances(g, u)[v]
    if d is None:
        raise ValueError(f"no path between vertices {u} and {v}")
    return d


def is_connected(g: Graph) -> bool:
    return all(d is not None for d in bfs_distances(g, 0))


def diameter(g: Graph) -> int:
    """Largest shortest-path distance over all vertex pairs."""
    best = 0
    for v in range(g.n):
        dists = bfs_distances(g, v)
        if any(d is None for d in dists):
            raise ValueError("diameter is undefined for a disconnected graph")
        best = max(best, max(d for d in dists if d is not None))
    return best


def bipartition(g: Graph) -> Optional[tuple[set[int], set[int]]]:
    """Two partite sets from BFS 2-coloring, or None if an odd cycle exists."""
    color: list[Optional[int]] = [None] * g.n
    for start in range(g.n):
        if color[start] is not None:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if color[w] is None:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return ({v for v in range(g.n) if color[v] == 0},
            {v for v in range(g.n) if color[v] == 1})


def write_edge_list(g: Graph, path: str | Path) -> None:
    """Write the text edge-list format: header "n <count>", then "u v" lines."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(path: str | Path) -> Graph:
    """Parse the text edge-list format written by write_edge_list."""
    path = Path(path)
    raw = [ln.strip() for ln in path.read_text().splitlines()]
    lines = [ln for ln in raw if ln]
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "n":
        raise ValueError(f"{path}: expected header 'n <count>', got {lines[0]!r}")
    try:
        n = int(header[1])
        edges = tuple((int(a), int(b)) for a, b in (ln.split() for ln in lines[1:]))
    except ValueError as exc:
        raise ValueError(f"{path}: malformed edge list ({exc})") from exc
    return Graph(n, edges)
