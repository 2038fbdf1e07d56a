import numpy as np
import pytest

from qwbutterfly import (
    Graph,
    bipartition,
    build_butterfly,
    build_path,
    diameter,
    distance,
    is_connected,
    read_edge_list,
    write_edge_list,
)

P2 = build_path(2)
P3 = build_path(3)
B1_P2 = build_butterfly(P2, 1)
B2_P2 = build_butterfly(P2, 2)
B3_P2 = build_butterfly(P2, 3)
B3_P3 = build_butterfly(P3, 3)
TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))


def test_path_two():
    assert P2.n == 2
    assert P2.edges == ((0, 1),)


def test_path_one_vertex():
    g = build_path(1)
    assert g.n == 1 and g.edges == ()


def test_path_three():
    assert P3.edges == ((0, 1), (1, 2))


def test_path_rejects_zero():
    with pytest.raises(ValueError):
        build_path(0)


def test_butterfly_one_wing_from_two_path():
    assert B1_P2.n == 4
    assert B1_P2.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert B1_P2.has_edge(2, 0) and not B1_P2.has_edge(1, 2)


def test_butterfly_zero_wings_is_seed():
    assert build_butterfly(P2, 0) == P2


def test_butterfly_three_wings_from_three_path():
    assert B3_P3.n == 12
    assert B3_P3.m == 17
    degrees = [B3_P3.degree(v) for v in range(12)]
    assert degrees == [4, 5, 4, 2, 3, 2, 2, 3, 2, 2, 3, 2]


def test_butterfly_rejects_negative_wings():
    with pytest.raises(ValueError):
        build_butterfly(P2, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
def test_butterfly_counts_closed_form(n, k):
    seed = build_path(n)
    g = build_butterfly(seed, k)
    assert g.n == (k + 1) * n
    assert g.m == (k + 1) * seed.m + k * n
    # handshake: enumerated degrees are consistent with the edge count
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(2, ((0, 0),))


def test_graph_rejects_duplicate_edge():
    with pytest.raises(ValueError):
        Graph(2, ((0, 1), (1, 0)))


def test_graph_rejects_out_of_range_edge():
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))


def test_graph_rejects_empty_vertex_set():
    with pytest.raises(ValueError):
        Graph(0, ())


@pytest.mark.parametrize("n,edges", [(3, ((0, 1.0), (1, 2))), (3, ((0, True), (1, 2))),
                                     (True, ()), (2.0, ((0, 1),))], ids=repr)
def test_graph_rejects_non_integer_vertices(n, edges):
    with pytest.raises(ValueError, match="integer"):
        Graph(n, edges)


def test_degree_examples():
    assert B1_P2.degree(0) == 2
    assert P2.degree(0) == 1
    assert B3_P3.degree(1) == 5


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        P2.degree(2)


def test_distance_examples():
    assert distance(B1_P2, 1, 2) == 2
    assert distance(B1_P2, 3, 3) == 0
    assert distance(B3_P3, 5, 6) == 4


def test_distance_no_path():
    g = Graph(3, ((0, 1),))
    with pytest.raises(ValueError, match="no path"):
        distance(g, 0, 2)


def test_distance_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(7)
    for g in (B2_P2, B3_P2, B3_P3):
        for _ in range(30):
            u, v, w = rng.integers(0, g.n, size=3)
            assert distance(g, u, v) == distance(g, v, u)
            assert distance(g, u, w) <= distance(g, u, v) + distance(g, v, w)


def test_bipartition_two_wing_butterfly():
    assert bipartition(B2_P2) == ({0, 3, 5}, {1, 2, 4})


def test_bipartition_rejects_odd_cycle():
    assert bipartition(TRIANGLE) is None


def test_bipartition_three_wing_three_path():
    # frozen from the BFS 2-coloring: wing ends 5 and 6 land together
    parts = bipartition(B3_P3)
    assert parts == ({0, 2, 4, 7, 10}, {1, 3, 5, 6, 8, 9, 11})
    assert any(5 in side and 6 in side for side in parts)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
def test_path_seeded_butterflies_stay_bipartite(n, k):
    assert bipartition(build_butterfly(build_path(n), k)) is not None


def test_diameter_one_wing_exception():
    assert diameter(B1_P2) == 2


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_diameter_path_seeds_two_or_more_wings(n, k):
    # diameter settles at n + 1 once at least two wings are attached
    assert diameter(build_butterfly(build_path(n), k)) == n + 1


def test_connectivity():
    assert is_connected(B3_P3)
    assert not is_connected(Graph(3, ((0, 1),)))


def test_edge_list_round_trip(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(B2_P2, path)
    assert read_edge_list(path) == B2_P2
    assert path.read_text().splitlines()[0] == "n 6"


def test_edge_list_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertices 4\n0 1\n")
    with pytest.raises(ValueError, match="header"):
        read_edge_list(path)


def test_edge_list_rejects_garbage_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n 4\n0 one\n")
    with pytest.raises(ValueError, match="malformed"):
        read_edge_list(path)
