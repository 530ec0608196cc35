import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewalks.generate import (
    all_labeled_trees,
    broom,
    enumerate_free_trees,
    leaf_rooted,
    path_tree,
    star_tree,
)
from treewalks.transforms import (
    _kc_along,
    bare_paths,
    dc_transform,
    kc_moves,
    kc_transform,
    valency,
)
from treewalks.trees import canonical_code, distance, is_isomorphic, tree, tree_path
from treewalks.walks import closed_walk_profile, count_closed_walks, count_ell_paths, walk_profile
from treewalks.words import build_context

from conftest import trees


class TestBarePaths:
    def test_path_graph_all_pairs(self):
        for n in range(2, 8):
            assert len(bare_paths(path_tree(n))) == n * (n - 1) // 2

    def test_star_only_edges(self):
        for n in range(4, 8):
            paths = bare_paths(star_tree(n))
            assert len(paths) == n - 1
            assert all(bp.k == 1 for bp in paths)

    def test_small_broom(self):
        # 5-vertex broom: handle pairs {01, 02, 12} plus star edges {2-3, 2-4}
        got = {bp.vertices for bp in bare_paths(broom(2, 2))}
        assert got == {(0, 1), (0, 1, 2), (1, 2), (2, 3), (2, 4)}

    @staticmethod
    def pair_oracle(t):
        paths = (tree_path(t, x, y) for x in range(t.n) for y in range(x + 1, t.n))
        return [p for p in paths if all(t.degree(v) == 2 for v in p[1:-1])]

    def test_matches_pair_oracle_on_free_trees(self):
        for n in range(2, 11):
            for t in enumerate_free_trees(n):
                assert [bp.vertices for bp in bare_paths(t)] == self.pair_oracle(t)

    def test_matches_pair_oracle_on_labeled_trees(self):
        for n in range(2, 7):
            for t in all_labeled_trees(n):
                assert [bp.vertices for bp in bare_paths(t)] == self.pair_oracle(t)

    def test_interior_degree_two(self):
        for t in enumerate_free_trees(7):
            for bp in bare_paths(t):
                assert all(t.degree(v) == 2 for v in bp.vertices[1:-1])

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError, match="bare paths need n >= 2"):
            bare_paths(tree(1, []))


class TestKcTransform:
    def test_path4_to_star(self, p4):
        moved = kc_transform(p4, 1, 2)
        assert is_isomorphic(moved, star_tree(4))
        assert moved.edges == tree(4, [(0, 1), (1, 2), (1, 3)]).edges

    def test_leaf_target_is_identity(self, p4):
        assert kc_transform(p4, 1, 0) == p4

    def test_star_leaf_center(self):
        s5 = star_tree(5)
        assert is_isomorphic(kc_transform(s5, 1, 0), s5)

    def test_non_bare_path_rejected(self):
        with pytest.raises(ValueError):
            kc_transform(star_tree(5), 1, 2)

    def test_same_vertex_rejected(self, p4):
        with pytest.raises(ValueError):
            kc_transform(p4, 1, 1)

    def test_symmetry_small(self):
        # both orientations give isomorphic trees, all trees n <= 8
        for n in range(2, 9):
            for t in enumerate_free_trees(n):
                for bp in bare_paths(t):
                    x, y = bp.endpoints
                    assert is_isomorphic(kc_transform(t, x, y), kc_transform(t, y, x))

    @staticmethod
    def bare_path_oracle(t, x, y):
        """("path", vertices) when x and y span a bare path, otherwise
        ("error", message): tree_path checks the range first, then x == y
        is rejected, and a path with an interior vertex of degree other
        than two is not bare."""
        try:
            path = tree_path(t, x, y)
        except ValueError as exc:
            return "error", str(exc)
        if x == y or any(t.degree(v) != 2 for v in path[1:-1]):
            return "error", f"({x}, {y}) does not span a bare path"
        return "path", path

    def test_kc_transform_and_build_context_match_bare_path_oracle(self):
        # every ordered pair, x = y included, and pairs with an end out of
        # range; each call gives the oracle's path or its exact message
        cases = 0
        for n in range(1, 8):
            for t in map(leaf_rooted, enumerate_free_trees(n)):
                outside = (-1, n, n + 5)
                pairs = [(x, y) for x in range(n) for y in range(n)]
                pairs += [(x, y) for x in outside for y in (*outside, 0)]
                pairs += [(0, y) for y in outside]
                for x, y in pairs:
                    kind, expect = self.bare_path_oracle(t, x, y)
                    cases += 1
                    if kind == "path":
                        assert kc_transform(t, x, y) == _kc_along(t, expect)
                        assert build_context(t, x, y).path == expect
                        continue
                    for build in (kc_transform, build_context):
                        with pytest.raises(ValueError) as err:
                            build(t, x, y)
                        assert str(err.value) == expect, (build.__name__, t, x, y)
        assert cases == 1251

    @given(trees(min_n=2, max_n=8), st.data())
    @settings(deadline=None)
    def test_output_is_valid_tree(self, t, data):
        bp = data.draw(st.sampled_from(bare_paths(t)))
        moved = kc_transform(t, *bp.endpoints)
        assert moved.n == t.n
        assert len(moved.edges) == t.n - 1


class TestKcMoves:
    def test_star_fixed_point(self):
        s5 = star_tree(5)
        assert kc_moves(s5) == {canonical_code(s5)}

    def test_path4_moves(self, p4, s4):
        assert kc_moves(p4) == {canonical_code(p4), canonical_code(s4)}

    def test_matches_kc_transform_both_ways(self):
        # oracle: every unordered pair spanning a bare path, moved both ways
        # by kc_transform, which re-derives the path itself
        for n in range(2, 9):
            for t in enumerate_free_trees(n):
                expected = {
                    canonical_code(kc_transform(t, *ends))
                    for path in TestBarePaths.pair_oracle(t)
                    for ends in ((path[0], path[-1]), (path[-1], path[0]))
                }
                assert kc_moves(t) == expected

    def test_non_star_has_improving_move(self):
        for n in range(4, 10):
            by_code = {canonical_code(t): t for t in enumerate_free_trees(n)}
            star_code = canonical_code(star_tree(n))
            for code, t in by_code.items():
                if code == star_code:
                    continue
                base = count_closed_walks(t, 4)
                assert any(
                    count_closed_walks(by_code[m], 4) > base
                    for m in kc_moves(t)
                    if m in by_code
                )


class TestValency:
    def test_path_endpoint(self):
        for n in range(2, 8):
            assert valency(path_tree(n), 0, n - 1).r == 1

    def test_star_center(self):
        for n in range(3, 8):
            assert valency(star_tree(n), 0, 1).r == n - 1

    def test_double_counting(self):
        for n in range(2, 9):
            for t in enumerate_free_trees(n):
                for ell in range(1, 8):
                    total = sum(valency(t, v, ell).r for v in range(t.n))
                    assert total == 2 * count_ell_paths(t, ell)

    def test_rejects_length_zero(self, p4):
        with pytest.raises(ValueError, match="ell must be >= 1, got 0"):
            valency(p4, 0, 0)


class TestDcTransform:
    def test_path_to_star(self):
        t = tree(4, [(0, 1), (1, 2), (2, 3)])
        moved = dc_transform(t, 0, 3)
        assert moved.edges == tree(4, [(1, 2), (2, 3), (0, 2)]).edges

    def test_star_stays_star(self):
        s5 = star_tree(5)
        assert is_isomorphic(dc_transform(s5, 1, 2), s5)

    def test_non_leaf_rejected(self, p4):
        with pytest.raises(ValueError):
            dc_transform(p4, 1, 3)

    def test_same_leaf_rejected(self, p4):
        with pytest.raises(ValueError):
            dc_transform(p4, 0, 0)

    def test_two_vertices_rejected(self):
        with pytest.raises(ValueError):
            dc_transform(tree(2, [(0, 1)]), 0, 1)
    def test_gain_identity(self):
        # R(T') - R(T) = r(w) - r(v) for leaves at distance other than ell
        for n in range(3, 9):
            for t in enumerate_free_trees(n):
                leaves = t.leaves()
                for ell in range(3, 8):
                    base = count_ell_paths(t, ell)
                    for v in leaves:
                        for w in leaves:
                            if v == w or distance(t, v, w) == ell:
                                continue
                            gain = count_ell_paths(dc_transform(t, v, w), ell) - base
                            assert gain == valency(t, w, ell).r - valency(t, v, ell).r


class TestKcMonotoneTheorem:
    """The paper's main theorem: the end-to-end path move never lowers the
    number of walks or of closed walks of any length."""

    @given(trees(min_n=2, max_n=20))
    @settings(deadline=None, max_examples=25)
    def test_kc_never_lowers_walk_profiles(self, t):
        base_all, base_closed = walk_profile(t, 12), closed_walk_profile(t, 12)
        for bp in bare_paths(t):
            moved = kc_transform(t, *bp.endpoints)
            for before, after in zip(base_all, walk_profile(moved, 12)):
                assert before <= after
            for before, after in zip(base_closed, closed_walk_profile(moved, 12)):
                assert before <= after
