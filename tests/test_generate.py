import hashlib
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewalks import generate
from treewalks.generate import (
    MAX_FREE_TREE_N,
    all_labeled_trees,
    broom,
    double_broom_paths,
    double_broom_walks,
    enumerate_free_trees,
    from_pruefer,
    leaf_rooted,
    p_broom,
    path_tree,
    star_tree,
    to_pruefer,
)
from treewalks.trees import canonical_code, format_tree_text, is_isomorphic, tree, tree_path
from treewalks.verify import _legs

from conftest import A000055, trees

# computed by Pruefer enumeration plus canonical deduplication (see
# test_free_counts_match_pruefer_oracle), not copied from anywhere
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)


# Constructor arguments outside the domain, each with the message it raises.
BAD_ARGUMENTS = [
    ("from_pruefer n=1", lambda: from_pruefer((), 1), "needs n >= 2"),
    ("to_pruefer n=1", lambda: to_pruefer(tree(1, [])), "needs n >= 2"),
    ("path_tree n=0", lambda: path_tree(0), "path needs n >= 1"),
    ("star_tree n=0", lambda: star_tree(0), "star needs n >= 1"),
    ("broom negative path", lambda: broom(-1, 2), "must be nonnegative"),
    ("broom negative leaves", lambda: broom(2, -1), "must be nonnegative"),
    ("double_broom_walks k=0", lambda: double_broom_walks(0), "needs k >= 1"),
    ("double_broom_paths ell=1", lambda: double_broom_paths(5, 1), "needs ell >= 2"),
    ("double_broom_paths n=3 ell=5", lambda: double_broom_paths(3, 5), "n=3 too small for ell=5"),
    ("p_broom p=0", lambda: p_broom(9, 4, 0), "needs p >= 1"),
]


@pytest.mark.parametrize("build,message", [c[1:] for c in BAD_ARGUMENTS], ids=[c[0] for c in BAD_ARGUMENTS])
def test_argument_outside_domain_raises(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestPruefer:
    def test_n2_empty_sequence(self):
        assert from_pruefer((), 2) == tree(2, [(0, 1)])

    def test_repeated_symbol_gives_star(self):
        assert from_pruefer((0, 0, 0), 5) == star_tree(5)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            from_pruefer((0, 1), 5)

    def test_out_of_range_entry(self):
        with pytest.raises(ValueError):
            from_pruefer((0, 9, 0), 5)

    def test_all_sequences_n4(self):
        all_trees = [from_pruefer(seq, 4) for seq in itertools.product(range(4), repeat=2)]
        assert len({t.edges for t in all_trees}) == 16
        assert len({canonical_code(t) for t in all_trees}) == 2

    @given(trees(min_n=2, max_n=9))
    def test_roundtrip(self, t):
        assert from_pruefer(to_pruefer(t), t.n) == t

    @staticmethod
    def neighbour_set_oracle(t):
        """Pruefer code by removing the smallest leaf and reading its one
        neighbour off a neighbour-set table, which is updated as leaves go."""
        degree = [len(nbrs) for nbrs in t.adjacency]
        neighbors = {v: set(t.adjacency[v]) for v in range(t.n)}
        out = []
        for _ in range(t.n - 2):
            leaf = min(v for v in range(t.n) if degree[v] == 1)
            (parent,) = neighbors[leaf]
            neighbors[parent].discard(leaf)
            degree[leaf] = 0
            degree[parent] -= 1
            out.append(parent)
        return tuple(out)

    def test_matches_neighbour_set_oracle_on_every_small_tree(self):
        labeled = 0
        for n in range(2, 8):
            for t in all_labeled_trees(n):
                assert to_pruefer(t) == self.neighbour_set_oracle(t), t
                labeled += 1
        assert labeled == 18248

    def test_matches_neighbour_set_oracle_on_seeded_trees(self):
        rng = random.Random(28)
        for _ in range(500):
            n = rng.randint(2, 200)
            seq = tuple(rng.randrange(n) for _ in range(n - 2))
            t = from_pruefer(seq, n)
            assert to_pruefer(t) == self.neighbour_set_oracle(t) == seq


class TestFreeTreeEnumeration:
    def test_n1(self):
        assert len(enumerate_free_trees(1)) == 1

    def test_n4_is_path_and_star(self):
        codes = {canonical_code(t) for t in enumerate_free_trees(4)}
        assert codes == {canonical_code(path_tree(4)), canonical_code(star_tree(4))}

    def test_counts(self):
        got = tuple(len(enumerate_free_trees(n)) for n in range(1, 11))
        assert got == FREE_TREE_COUNTS

    def test_free_counts_match_pruefer_oracle(self):
        # independent route: exhaustive labeled generation, dedupe by code
        for n in range(2, 8):
            oracle = len({canonical_code(t) for t in all_labeled_trees(n)})
            assert len(enumerate_free_trees(n)) == oracle

    def test_second_canonicalization_pass(self):
        # re-count n=7 using a brute-force canonical form (lexicographically
        # smallest relabeled edge set) instead of the production code
        def brute_canonical(t):
            return min(
                tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in t.edges))
                for p in itertools.permutations(range(t.n))
            )

        reps = enumerate_free_trees(7)
        assert len(reps) == 11
        assert len({brute_canonical(t) for t in reps}) == 11

    def test_sorted_and_deterministic(self):
        codes = [canonical_code(t) for t in enumerate_free_trees(8)]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)

    def test_limit(self):
        with pytest.raises(ValueError):
            enumerate_free_trees(17)

    @pytest.mark.parametrize("n", range(1, MAX_FREE_TREE_N + 1))
    def test_one_tree_per_class_up_to_cap(self, n):
        codes = [canonical_code(t) for t in enumerate_free_trees(n)]
        assert len(codes) == A000055[n]
        assert codes == sorted(set(codes))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_classes_match_networkx(self, n):
        def as_tree(g):
            return tree(g.number_of_nodes(), g.edges())

        oracle = (
            {canonical_code(as_tree(g)) for g in nx.nonisomorphic_trees(n)}
            if n > 1
            else {canonical_code(tree(1, []))}
        )
        assert {canonical_code(t) for t in enumerate_free_trees(n)} == oracle

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_builds_each_tree_once(self, n, monkeypatch):
        built = []

        def counting_tree(order, edges):
            built.append(order)
            return tree(order, edges)

        monkeypatch.setattr(generate, "tree", counting_tree)
        assert len(enumerate_free_trees(n)) == len(built) == A000055[n]


def _relabel(t, perm):
    return tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])


class TestLeafRooted:
    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_every_relabeling_gives_one_tree(self, data):
        t = data.draw(trees(min_n=1, max_n=14))
        perm = data.draw(st.permutations(range(t.n)))
        rep = leaf_rooted(t)
        assert leaf_rooted(_relabel(t, perm)) == rep
        assert is_isomorphic(rep, t)

    def test_root_is_a_leaf_numbered_first(self):
        for t in enumerate_free_trees(9):
            rep = leaf_rooted(t)
            assert rep.degree(0) == 1 and rep.neighbors(0) == (1,)
            assert leaf_rooted(rep) == rep

    def test_small_orders(self):
        assert leaf_rooted(tree(1, [])) == tree(1, [])
        assert leaf_rooted(tree(2, [(0, 1)])) == tree(2, [(0, 1)])

    def test_tall_and_wide_trees(self):
        # no recursion: a 2,000-vertex path is rooted at an end
        assert leaf_rooted(_relabel(path_tree(2000), list(range(1999, -1, -1)))) == path_tree(2000)
        assert leaf_rooted(star_tree(50)) == tree(50, [(0, 1)] + [(1, v) for v in range(2, 50)])

    def test_children_in_descending_size(self):
        # spider with legs of 1, 2 and 3 edges at vertex 0.  Of the three
        # hanging subtrees, the one at leaf 1 has the largest index: its
        # root's largest child has 3 vertices, the others' have 5.  Vertex 0
        # then numbers its 3-edge leg before its 2-edge leg.
        spider = tree(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        assert leaf_rooted(spider) == tree(
            7, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6)]
        )


# sha256 over format_tree_text of every tree that family_grid yields, in order
FAMILY_DIGEST = "1e6b611539a84a9b26d8589d0c824cbffbb6ce4134150371a7f0210c9f65b1aa"


def family_grid():
    """2,285 family trees: paths and stars, brooms, double brooms and
    p-brooms over small parameters."""
    for n in range(1, 41):
        yield path_tree(n)
        yield star_tree(n)
    for path_length, leaves in itertools.product(range(13), repeat=2):
        yield broom(path_length, leaves)
    for n in range(1, 41):
        for ell in range(2, n + 2):
            yield double_broom_paths(n, ell)
    for k in range(1, 61):
        yield double_broom_walks(k)
    for n in range(1, 41):
        for ell in range(4, 15, 2):
            for p in _legs(n, ell):
                yield p_broom(n, ell, p)


class TestFamilies:
    def test_family_labels_digest(self):
        # pins every vertex label, not only the degrees and shapes below
        digest = hashlib.sha256()
        count = 0
        for t in family_grid():
            digest.update(format_tree_text(t).encode())
            count += 1
        assert count == 2285
        assert digest.hexdigest() == FAMILY_DIGEST

    def test_family_repr(self):
        # two legs 1-2 and 5-6; the leftover third leaf goes to the first
        assert repr(p_broom(8, 6, 2)) == (
            "Tree(n=8, edges=[(0, 1), (0, 5), (1, 2), (2, 3), (2, 4), (5, 6), (6, 7)])"
        )

    def test_broom_from_exact_rational_instance(self):
        # ck = 720 leaves, (2-c)k = 1280 path edges at c = 18/25, k = 1000
        t = broom(1280, 720)
        assert t.n == 2001
        assert t.degree(1280) == 720 + 1

    def test_double_broom_walks_order(self):
        for k in (2, 4, 10, 1000):
            assert double_broom_walks(k).n == 2 * k + 1

    @pytest.mark.parametrize("k", range(1, 31))
    def test_double_broom_walks_is_a_double_broom_paths(self, k):
        t = double_broom_walks(k)
        assert t == double_broom_paths(2 * k + 1, k + 2)
        # a path 0..k with floor(k/2) leaves on 0 and ceil(k/2) on k
        assert tree_path(t, 0, k) == tuple(range(k + 1))
        assert (t.degree(0), t.degree(k)) == (k // 2 + 1, k - k // 2 + 1)

    def test_double_broom_paths_shape(self):
        t = double_broom_paths(8, 5)
        assert t.n == 8
        assert t.degree(0) == 1 + 2 and t.degree(3) == 1 + 2

    def test_p_broom_structure(self):
        t = p_broom(16, 4, 3)
        assert t.n == 16
        assert t.degree(0) == 3
        leaf_parents = sorted(t.neighbors(v)[0] for v in t.leaves())
        counts = {p: leaf_parents.count(p) for p in set(leaf_parents)}
        assert sorted(counts.values()) == [4, 4, 4]

    def test_p_broom_leaf_distribution_balanced(self):
        t = p_broom(14, 6, 2)
        per_leg = sorted(
            sum(1 for v in t.leaves() if t.neighbors(v)[0] == end)
            for end in {t.neighbors(v)[0] for v in t.leaves()}
        )
        assert per_leg[-1] - per_leg[0] <= 1

    def test_p_broom_infeasible(self):
        with pytest.raises(ValueError):
            p_broom(4, 4, 3)
        with pytest.raises(ValueError):
            p_broom(16, 5, 2)

    def test_degenerate_double_broom_is_path(self):
        assert is_isomorphic(double_broom_paths(5, 4), path_tree(5))

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(deadline=None)
    def test_broom_valid(self, path_length, leaves):
        if path_length == 0 and leaves == 0:
            t = broom(0, 0)
            assert t.n == 1
        else:
            t = broom(path_length, leaves)
            assert t.n == path_length + leaves + 1
