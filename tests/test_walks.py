import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewalks.generate import (
    double_broom_paths,
    enumerate_free_trees,
    from_pruefer,
    path_tree,
    star_tree,
)
from treewalks.trees import distance, distances_from, tree
from treewalks.walks import (
    closed_walk_profile,
    count_closed_walks,
    count_ell_paths,
    count_walks,
    enumerate_walks,
    path_profile,
    walk_profile,
    wiener,
)

from conftest import trees


def wiener_oracle(t):
    return sum(sum(distances_from(t, v)) for v in range(t.n)) // 2


class TestClosedWalks:
    def test_odd_lengths_vanish(self):
        for n in range(2, 7):
            for t in enumerate_free_trees(n):
                assert count_closed_walks(t, 3) == 0
                assert count_closed_walks(t, 5) == 0

    def test_length_two_counts_edge_ends(self):
        for n in range(2, 8):
            for t in enumerate_free_trees(n):
                assert count_closed_walks(t, 2) == 2 * (n - 1)

    def test_path4_star4(self, p4, s4):
        assert count_closed_walks(p4, 4) == 14
        assert count_closed_walks(s4, 4) == 18

    def test_degree_square_formula(self):
        for n in range(2, 8):
            for t in enumerate_free_trees(n):
                expect = 2 * sum(t.degree(v) ** 2 for v in range(n)) - 2 * (n - 1)
                assert count_closed_walks(t, 4) == expect

    def test_rejects_length_zero(self, p4):
        with pytest.raises(ValueError):
            count_closed_walks(p4, 0)

    def test_enumeration_rejects_negative_length(self, p4):
        with pytest.raises(ValueError, match="walk length must be >= 0, got -1"):
            enumerate_walks(p4, -1)


class TestWalkCounts:
    def test_single_edge(self):
        assert count_walks(tree(2, [(0, 1)]), 1) == 2

    def test_length_one(self):
        for n in range(2, 8):
            for t in enumerate_free_trees(n):
                assert count_walks(t, 1) == 2 * (n - 1)

    def test_path3_length2(self):
        assert count_walks(path_tree(3), 2) == 6


class TestEnumerationOracle:
    def test_star_center_to_center(self, s4):
        walks = enumerate_walks(s4, 2, start=0, end=0)
        assert walks == [(0, 1, 0), (0, 2, 0), (0, 3, 0)]

    def test_length_zero_convention(self, p4):
        assert enumerate_walks(p4, 0, start=2, end=2) == [(2,)]
        assert enumerate_walks(p4, 0, start=2, end=1) == []

    def test_path3_all_length2(self):
        assert len(enumerate_walks(path_tree(3), 2)) == 6

    def test_deterministic_order(self, p4):
        walks = enumerate_walks(p4, 2)
        assert walks == sorted(walks)

    def test_matrix_counts_match_enumeration(self):
        for n in range(2, 7):
            for t in enumerate_free_trees(n):
                for ell in range(1, 7):
                    walks = enumerate_walks(t, ell)
                    assert count_walks(t, ell) == len(walks)
                    closed = sum(1 for w in walks if w[0] == w[-1])
                    assert count_closed_walks(t, ell) == closed

    def test_endpoint_constrained_counts(self):
        for t in enumerate_free_trees(5):
            for ell in (1, 2, 3, 4):
                walks = enumerate_walks(t, ell)
                for u in range(t.n):
                    for v in range(t.n):
                        got = enumerate_walks(t, ell, start=u, end=v)
                        want = [w for w in walks if w[0] == u and w[-1] == v]
                        assert got == want


class TestPathCounts:
    def test_path_graph(self):
        for n in range(2, 9):
            for ell in range(1, n + 2):
                assert count_ell_paths(path_tree(n), ell) == max(n - ell, 0)

    def test_star_two_paths(self, s4):
        assert count_ell_paths(s4, 2) == 3

    def test_double_broom(self):
        assert count_ell_paths(double_broom_paths(8, 5), 5) == 4

    @given(trees(min_n=2, max_n=9), st.integers(1, 9))
    @settings(deadline=None)
    def test_bounded_by_all_pairs(self, t, ell):
        assert count_ell_paths(t, ell) <= t.n * (t.n - 1) // 2


class TestWiener:
    def test_single_edge(self):
        assert wiener(tree(2, [(0, 1)])) == 1

    def test_path_with_three_edges(self, p4):
        assert wiener(p4) == 10  # 1 + 3 + 6

    def test_path_closed_form(self):
        for t_edges in range(1, 12):
            assert wiener(path_tree(t_edges + 1)) == t_edges * (t_edges + 1) * (t_edges + 2) // 6

    def test_star(self):
        for n in range(2, 9):
            assert wiener(star_tree(n)) == (n - 1) ** 2

    @given(trees(min_n=1, max_n=9))
    @settings(deadline=None)
    def test_matches_distance_sum_oracle(self, t):
        assert wiener(t) == wiener_oracle(t)


# ---------------------------------------------------------------------------
# Oracles for the per-length kernels


def walks_from(adj, source, ell):
    """{end: number of ell-step walks from source to end}, by sparse steps."""
    vec = {source: 1}
    for _ in range(ell):
        nxt = {}
        for v, c in vec.items():
            for u in adj[v]:
                nxt[u] = nxt.get(u, 0) + c
        vec = nxt
    return vec


def closed_walk_oracle(t, ell):
    """trace(A^ell) by one sparse vector walk per source, with the leaves
    on a common neighbor walked once and weighted by their number."""
    adj = t.adjacency
    leaf_groups = {}
    sources = []
    for v in range(t.n):
        if len(adj[v]) == 1 and t.n > 1:
            leaf_groups.setdefault(adj[v][0], []).append(v)
        else:
            sources.append((v, 1))
    sources += [(min(g), len(g)) for g in leaf_groups.values()]
    return sum(mult * walks_from(adj, s, ell).get(s, 0) for s, mult in sources)


def walk_oracle(t, ell):
    """1^T A^ell 1 as the sum over sources of the walks leaving them."""
    return sum(sum(walks_from(t.adjacency, s, ell).values()) for s in range(t.n))


def naive_walk_profile(t, max_len):
    """1^T A^l 1 for l = 0..max_len, one vector multiply per length."""
    vec = [1] * t.n
    out = [t.n]
    for _ in range(max_len):
        vec = [sum(vec[u] for u in nbrs) for nbrs in t.adjacency]
        out.append(sum(vec))
    return out


def path_oracle(t, max_len):
    """Unordered pairs at each distance, from all-pairs BFS distances."""
    out = [0] * (max_len + 1)
    for v in range(t.n):
        for d in distances_from(t, v):
            if d <= max_len:
                out[d] += 1
    return [out[0]] + [c // 2 for c in out[1:]]


class TestClosedWalkProfile:
    def test_matches_per_source_oracle(self):
        for n in range(1, 10):
            for t in enumerate_free_trees(n):
                assert closed_walk_profile(t, 12) == [closed_walk_oracle(t, ell) for ell in range(13)]

    def test_matches_enumeration(self):
        # enumeration lists every walk, so long lengths only on small trees
        for n in range(1, 10):
            max_len = 12 if n <= 5 else 8
            for t in enumerate_free_trees(n):
                profile = closed_walk_profile(t, max_len)
                for ell in range(max_len + 1):
                    closed = sum(len(enumerate_walks(t, ell, s, s)) for s in range(n))
                    assert profile[ell] == closed

    def test_star_closed_form(self):
        # trace(A^(2j)) of the star K_{1,m} is 2 m^j; of the path on
        # 3 vertices (a star with m = 2) it is 2^(j+1)
        for m in range(1, 8):
            profile = closed_walk_profile(star_tree(m + 1), 30)
            assert profile[0] == m + 1
            assert profile[2::2] == [2 * m**j for j in range(1, 16)]
            assert not any(profile[1::2])

    def test_prefix_consistency(self, p4):
        assert closed_walk_profile(p4, 7) == closed_walk_profile(p4, 12)[:8]

    def test_rejects_negative_length(self, p4):
        with pytest.raises(ValueError):
            closed_walk_profile(p4, -1)

    def test_single_vertex(self):
        assert closed_walk_profile(tree(1, []), 4) == [1, 0, 0, 0, 0]

    @given(trees(min_n=1, max_n=40), st.integers(0, 16))
    @settings(deadline=None, max_examples=40)
    def test_random_trees(self, t, max_len):
        profile = closed_walk_profile(t, max_len)
        assert profile == [closed_walk_oracle(t, ell) for ell in range(max_len + 1)]
        for ell in range(1, max_len + 1):
            assert count_closed_walks(t, ell) == profile[ell]


class TestWalkProfile:
    def test_matches_oracle_and_enumeration(self):
        for n in range(1, 8):
            for t in enumerate_free_trees(n):
                profile = walk_profile(t, 6)
                assert profile == [walk_oracle(t, ell) for ell in range(7)]
                assert profile == [len(enumerate_walks(t, ell)) for ell in range(7)]

    def test_rejects_negative_length(self, p4):
        with pytest.raises(ValueError):
            walk_profile(p4, -1)

    def test_matches_iterated_multiply_on_large_trees(self):
        # the kernel squares iterates A^m 1; every length up to 60, odd and
        # even ends, against one multiply per length
        rng = random.Random(7)
        for n in (1, 2, 3, 57, 128, 200):
            t = from_pruefer([rng.randrange(n) for _ in range(n - 2)], n) if n > 1 else path_tree(1)
            oracle = naive_walk_profile(t, 60)
            for max_len in range(61):
                assert walk_profile(t, max_len) == oracle[: max_len + 1]

    @given(trees(min_n=1, max_n=40), st.integers(0, 16))
    @settings(deadline=None, max_examples=40)
    def test_random_trees(self, t, max_len):
        profile = walk_profile(t, max_len)
        assert profile == [walk_oracle(t, ell) for ell in range(max_len + 1)]
        for ell in range(1, max_len + 1):
            assert count_walks(t, ell) == profile[ell]


class TestPathProfile:
    def test_matches_distance_oracle(self):
        for n in range(1, 10):
            for t in enumerate_free_trees(n):
                for max_len in (0, 1, 3, n + 1):
                    assert path_profile(t, max_len) == path_oracle(t, max_len)

    def test_rejects_negative_length(self, p4):
        with pytest.raises(ValueError):
            path_profile(p4, -1)

    @given(trees(min_n=1, max_n=40), st.integers(0, 45))
    @settings(deadline=None, max_examples=40)
    def test_random_trees(self, t, max_len):
        profile = path_profile(t, max_len)
        assert profile == path_oracle(t, max_len)
        for ell in range(1, max_len + 1):
            assert count_ell_paths(t, ell) == profile[ell]
        if max_len >= t.n:
            assert sum(profile[1:]) == t.n * (t.n - 1) // 2
            assert sum(ell * c for ell, c in enumerate(profile)) == wiener(t)
