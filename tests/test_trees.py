import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewalks.generate import (
    all_labeled_trees,
    enumerate_free_trees,
    leaf_rooted,
    p_broom,
    path_tree,
    star_tree,
)
from treewalks.transforms import _kc_along, bare_paths
from treewalks.trees import (
    Tree,
    _branch,
    canonical_code,
    center,
    diameter,
    distance,
    distances_from,
    format_tree_text,
    is_isomorphic,
    parse_tree_text,
    to_dot,
    tree,
    tree_path,
)

from conftest import trees


def relabel(t: Tree, perm: list[int]) -> Tree:
    return tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])


def brute_force_isomorphic(t1: Tree, t2: Tree) -> bool:
    """Oracle: try every vertex bijection."""
    if t1.n != t2.n:
        return False
    target = t2.edges
    for perm in itertools.permutations(range(t1.n)):
        if frozenset((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in t1.edges) == target:
            return True
    return False


class TestConstruction:
    def test_single_vertex(self):
        t = tree(1, [])
        assert t.n == 1 and not t.edges

    def test_no_vertices_rejected(self):
        with pytest.raises(ValueError, match="vertex count must be positive, got 0"):
            Tree(0, frozenset())

    def test_wrong_edge_count(self):
        with pytest.raises(ValueError):
            tree(4, [(0, 1), (1, 2)])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            tree(3, [(0, 1), (1, 0)])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: tree(3, [(0, 1), (1, 0), (1, 2)]),
            lambda: tree(3, [(0, 1), (0, 1), (1, 2)]),
            lambda: Tree(3, frozenset({(0, 1), (1, 0), (1, 2)})),
        ],
        ids=["reversed", "same-orientation", "frozenset"],
    )
    def test_repeated_edge_with_right_count_rejected(self, build):
        # n - 1 edges listed, one of them twice: merging the repeat would
        # leave the path 0-1-2, a tree other than the one listed
        with pytest.raises(ValueError, match="^repeated edge: 3 edges given, 2 distinct$"):
            build()

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            tree(3, [(0, 1), (2, 2)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            tree(4, [(0, 1), (1, 2), (0, 2)])

    def test_disconnected_isolated_root_rejected(self):
        # the traversal starts at vertex 0, here the isolated one
        with pytest.raises(ValueError, match="not connected"):
            tree(4, [(1, 2), (2, 3), (1, 3)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tree(3, [(0, 1), (1, 5)])

    @given(trees(max_n=9))
    def test_invariants(self, t):
        assert len(t.edges) == t.n - 1
        assert all(distances_from(t, 0)[v] >= 0 for v in range(t.n))


class TestDistance:
    def test_path_endpoints(self, p4):
        assert distance(p4, 0, 3) == 3

    def test_same_vertex(self, p4):
        assert all(distance(p4, v, v) == 0 for v in range(4))

    def test_star_leaves(self):
        assert distance(star_tree(5), 1, 2) == 2

    def test_out_of_range(self, p4):
        with pytest.raises(ValueError):
            distance(p4, 0, 7)

    @given(trees(min_n=2, max_n=8), st.data())
    def test_tree_metric_along_path(self, t, data):
        u = data.draw(st.integers(0, t.n - 1))
        v = data.draw(st.integers(0, t.n - 1))
        path = tree_path(t, u, v)
        w = data.draw(st.sampled_from(list(path)))
        assert distance(t, u, v) == distance(t, u, w) + distance(t, w, v)

    @given(trees(min_n=2, max_n=8), st.data())
    def test_symmetry(self, t, data):
        u = data.draw(st.integers(0, t.n - 1))
        v = data.draw(st.integers(0, t.n - 1))
        assert distance(t, u, v) == distance(t, v, u)


def assert_traversal_matches_networkx(t: Tree) -> None:
    """distances_from and tree_path against networkx shortest paths, and
    each side of every edge against networkx components."""
    g = nx.Graph()
    g.add_nodes_from(range(t.n))
    g.add_edges_from(t.edges)
    for u in range(t.n):
        paths = nx.single_source_shortest_path(g, u)
        assert distances_from(t, u) == [len(paths[v]) - 1 for v in range(t.n)]
        assert [tree_path(t, u, v) for v in range(t.n)] == [
            tuple(paths[v]) for v in range(t.n)
        ]
    for u, v in t.edges:
        g.remove_edge(u, v)
        assert _branch(t, u, v) == nx.node_connected_component(g, u)
        assert _branch(t, v, u) == nx.node_connected_component(g, v)
        g.add_edge(u, v)


class TestTraversalOracle:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_labeled_tree(self, n):
        for t in all_labeled_trees(n):
            assert_traversal_matches_networkx(t)

    @given(trees(max_n=60))
    @settings(deadline=None)
    def test_random_trees(self, t):
        assert_traversal_matches_networkx(t)


class TestDiameter:
    def test_star(self):
        assert all(diameter(star_tree(n)) == 2 for n in range(3, 8))

    def test_path(self):
        assert all(diameter(path_tree(n)) == n - 1 for n in range(1, 9))

    def test_p_broom_reaches_target_length(self):
        # frozen from the all-pairs oracle below
        t = p_broom(16, 4, 3)
        assert diameter(t) == 4
        all_pairs = max(
            distance(t, u, v) for u in range(t.n) for v in range(t.n)
        )
        assert all_pairs == 4

    @given(trees(min_n=2, max_n=8))
    def test_matches_all_pairs(self, t):
        assert diameter(t) == max(
            max(distances_from(t, v)) for v in range(t.n)
        )


class TestCanonicalCode:
    def test_relabeling_invariance_path5(self):
        t = path_tree(5)
        for perm in ([4, 3, 2, 1, 0], [2, 0, 1, 4, 3], [1, 3, 0, 2, 4]):
            relabeled = relabel(t, perm)
            if is_isomorphic(t, relabeled):
                assert canonical_code(t) == canonical_code(relabeled)

    def test_star_vs_path(self, p4, s4):
        assert canonical_code(p4) != canonical_code(s4)

    def test_all_pruefer_trees_n5_give_three_codes(self):
        codes = {canonical_code(t) for t in all_labeled_trees(5)}
        assert len(codes) == 3

    @given(trees(min_n=1, max_n=8), st.data())
    @settings(deadline=None)
    def test_relabeling_invariance(self, t, data):
        perm = data.draw(st.permutations(list(range(t.n))))
        assert canonical_code(t) == canonical_code(relabel(t, list(perm)))

    def test_complete_invariant_small(self):
        # codes agree exactly with brute-force isomorphism classes
        for n in range(2, 7):
            trees_n = list(all_labeled_trees(n))[:120]
            by_code = {}
            for t in trees_n:
                by_code.setdefault(canonical_code(t), []).append(t)
            reps = [group[0] for group in by_code.values()]
            for r1, r2 in itertools.combinations(reps, 2):
                assert not brute_force_isomorphic(r1, r2)
            for group in by_code.values():
                for t in group[1:3]:
                    assert brute_force_isomorphic(group[0], t)

    def test_center_of_even_path_is_edge(self):
        assert center(path_tree(4)) == (1, 2)
        assert center(path_tree(5)) == (2,)


def oracle_center(t: Tree) -> tuple[int, ...]:
    """The center by leaf removal, reading degrees through ``degree``."""
    if t.n <= 2:
        return tuple(range(t.n))
    degree = [t.degree(v) for v in range(t.n)]
    layer = [v for v in range(t.n) if degree[v] == 1]
    remaining = t.n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for u in t.adjacency[v]:
                if degree[u] > 1:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    return tuple(sorted(layer))


def oracle_rooted_code(t: Tree, root: int) -> str:
    """The nested-parenthesis code of t rooted at root, children sorted."""
    parent = [-1] * t.n
    parent[root] = root
    order = [root]
    for x in order:
        for y in t.adjacency[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    codes = [""] * t.n
    children: list[list[int]] = [[] for _ in range(t.n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    for v in reversed(order):
        codes[v] = "(" + "".join(sorted(codes[c] for c in children[v])) + ")"
    return codes[root]


def oracle_code(t: Tree) -> str:
    """The two-rooting definition: the rooted code at each center, min."""
    return min(oracle_rooted_code(t, r) for r in oracle_center(t))


class TestCanonicalCodeOracle:
    """The one-pass code against the rooted code at each center."""

    def test_every_free_tree_to_twelve(self):
        for n in range(1, 13):
            for t in enumerate_free_trees(n):
                assert canonical_code(t) == oracle_code(t)
                assert center(t) == oracle_center(t)

    def test_every_kc_move_to_ten(self):
        for n in range(2, 11):
            for t in map(leaf_rooted, enumerate_free_trees(n)):
                for bp in bare_paths(t):
                    for path in (bp.vertices, bp.vertices[::-1]):
                        moved = _kc_along(t, path)
                        assert canonical_code(moved) == oracle_code(moved)

    @given(trees(max_n=60))
    @settings(max_examples=200, deadline=None)
    def test_random_trees(self, t):
        assert canonical_code(t) == oracle_code(t)
        assert center(t) == oracle_center(t)

    def test_long_path_and_large_star(self):
        # 3,000 levels deep: a recursive encoder would pass the recursion limit
        n = 3000
        half = "(" * (n // 2) + ")" * (n // 2)
        shorter = "(" * (n // 2 - 1) + ")" * (n // 2 - 1)
        assert canonical_code(path_tree(n)) == "(" + half + shorter + ")"
        assert canonical_code(path_tree(n)) == oracle_code(path_tree(n))
        assert canonical_code(star_tree(n)) == "(" + "()" * (n - 1) + ")"

    def test_keeps_its_cache(self):
        # perfbench/spantrace.py reads the cache statistics
        assert canonical_code.cache_info().maxsize == 65536


class TestIsomorphism:
    def test_relabeled_true(self, p4):
        assert is_isomorphic(p4, relabel(p4, [3, 1, 0, 2]))

    def test_path_vs_star_false(self, p4, s4):
        assert not is_isomorphic(p4, s4)


class TestTextFormat:
    def test_roundtrip(self, p4):
        assert parse_tree_text(format_tree_text(p4)) == p4

    def test_malformed_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_tree_text("3\n0 1\n1 x\n")

    def test_bad_header(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_tree_text("nope\n0 1\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("3\n0 1\n1 0\n1 2\n", "line 3: edge '1 0' repeats line 2"),
            ("3\n0 1\n1 2\n2 2\n", "line 4: self-loop at vertex 2"),
            ("3\n0 1\n\n1 3\n", "line 4: edge '1 3' out of range for n=3"),
            ("3\n0 1 2\n1 2\n", "line 2: expected 'u v', got '0 1 2'"),
            ("\n  \n", "line 1: empty input, expected vertex count"),
        ],
        ids=["repeated", "self-loop", "out-of-range", "not-an-edge", "empty"],
    )
    def test_bad_edge_reports_its_line(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_tree_text(text)
        assert str(exc.value) == message

    def test_edge_count_reports_line_one(self):
        with pytest.raises(ValueError, match="^line 1: invalid tree: "):
            parse_tree_text("3\n0 1\n")

    def test_dot_output(self, p4):
        dot = to_dot(p4)
        assert dot.startswith("graph") and "0 -- 1" in dot
