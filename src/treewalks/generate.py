"""Tree generation: the Pruefer correspondence, free-tree enumeration,
and the named parametric families (paths, stars, brooms and relatives).

Every tree built here, except a Pruefer decoding, is a parent list
(``_from_parents``): vertices numbered as created, each hung from an earlier one.

``enumerate_free_trees`` builds each free tree once, by the
Wright-Richmond-Odlyzko-McKay generator over level sequences, and sorts
the classes by canonical code.  Its trees are numbered in level-sequence
preorder.  ``leaf_rooted`` relabels a tree to the representative that
``treewalks enumerate`` prints and the per-tree sweeps name vertices by:
rooted at a leaf, numbered in preorder with larger subtrees first.  Only
output that prints labels needs it.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .trees import Tree, _rooted, canonical_code, tree

__all__ = [
    "MAX_FREE_TREE_N",
    "all_labeled_trees",
    "broom",
    "double_broom_paths",
    "double_broom_walks",
    "enumerate_free_trees",
    "from_pruefer",
    "leaf_rooted",
    "p_broom",
    "path_tree",
    "star_tree",
    "to_pruefer",
]

MAX_FREE_TREE_N = 16


def from_pruefer(seq: tuple[int, ...] | list[int], n: int) -> Tree:
    """The unique labeled tree on n vertices with the given Pruefer sequence.

    The sequence must have length n-2 with entries in 0..n-1 (empty for n=2).
    """
    if n < 2:
        raise ValueError("Pruefer correspondence needs n >= 2")
    seq = tuple(seq)
    if len(seq) != n - 2:
        raise ValueError(f"sequence length {len(seq)} != n-2 = {n - 2}")
    for s in seq:
        if not (0 <= s < n):
            raise ValueError(f"sequence entry {s} out of range for n={n}")
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    # min-heap free: scan pointer over the smallest current leaf
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return tree(n, edges)


def to_pruefer(t: Tree) -> tuple[int, ...]:
    """Pruefer sequence of a labeled tree (inverse of from_pruefer).  The
    leaf removed is never n-1, and its one neighbor left is its parent
    in the tree rooted at n-1."""
    if t.n < 2:
        raise ValueError("Pruefer correspondence needs n >= 2")
    import heapq

    parents = _rooted(t, t.n - 1)[1]
    degree = [len(nbrs) for nbrs in t.adjacency]
    leaves = list(t.leaves())  # ascending, so already a heap
    out = []
    for _ in range(t.n - 2):
        parent = parents[heapq.heappop(leaves)]
        out.append(parent)
        degree[parent] -= 1
        if degree[parent] == 1:
            heapq.heappush(leaves, parent)
    return tuple(out)


def all_labeled_trees(n: int) -> Iterator[Tree]:
    """Every labeled tree on n vertices, by exhaustive Pruefer generation.

    This is the brute-force substrate (n^(n-2) trees); use it as an oracle
    at small n, not for production sweeps.
    """
    if n == 1:
        yield _from_parents([])
        return
    for seq in product(range(n), repeat=n - 2):
        yield from_pruefer(seq, n)


# Free trees come from the Wright-Richmond-Odlyzko-McKay generator
# ("Constant time generation of free trees", SIAM J. Comput. 15, 1986).  A
# rooted tree is written as its level sequence: the depth of each vertex in
# preorder, with the children of every vertex ordered so that the sequence
# is the lexicographically largest one of its rooted tree.  Beyer and
# Hedetniemi's successor steps through those sequences in decreasing order.
# A sequence stands for a free tree when its root is the center: the root's
# first subtree is no taller than the rest of the tree, and on a tie (a
# central edge) it is no larger in (size, sequence).  When the first subtree
# fails that test, every later sequence that keeps it fails too, so the
# generator jumps past them all.


def _split(levels: list[int]) -> tuple[list[int], list[int]]:
    """The level sequences of the root's first subtree (rooted at its own
    root) and of the tree without that subtree."""
    m = next((i for i in range(2, len(levels)) if levels[i] == 1), len(levels))
    return [d - 1 for d in levels[1:m]], [0] + levels[m:]


def _successor(levels: list[int], p: int) -> list[int] | None:
    """The next sequence after every sequence that shares levels[:p+1],
    or None past the last one (Beyer-Hedetniemi)."""
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    out = levels[:p]
    for i in range(p, len(levels)):
        out.append(out[i - p + q])
    return out


def _free_level_sequences(n: int) -> Iterator[list[int]]:
    """The level sequence of each free tree on n >= 2 vertices, once."""
    levels: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        first, rest = _split(levels)
        h1, h2 = max(first), max(rest)
        free = h1 < h2 or (h1 == h2 and (len(first), first) <= (len(rest), rest))
        if free:
            yield levels
            p = next((i for i in range(n - 1, 0, -1) if levels[i] > 1), 0)
        else:
            p = len(first)
        deep = not free and levels[p] > 2
        levels = _successor(levels, p)
        if deep:
            # the copy step put every later vertex inside the first subtree,
            # so the rest is a bare root and fails; skip on to the sequence
            # whose tail is a branch as tall as that subtree, 1, 2, ..., h + 1
            h = max(_split(levels)[0])
            levels[n - h - 1:] = range(1, h + 2)


def _level_tree(levels: list[int]) -> Tree:
    """The tree of a level sequence, vertices numbered in preorder."""
    parents = []
    spine: list[int] = []  # spine[d]: the latest vertex at depth d
    for v, d in enumerate(levels):
        del spine[d:]
        if d:
            parents.append(spine[d - 1])
        spine.append(v)
    return _from_parents(parents)


def enumerate_free_trees(n: int) -> list[Tree]:
    """One representative per isomorphism class of trees on n vertices,
    sorted by canonical code.

    Each representative is numbered in the preorder of its level sequence,
    rooted at a center; ``leaf_rooted`` gives the labels that ``enumerate``
    and the per-tree sweeps print."""
    if not (1 <= n <= MAX_FREE_TREE_N):
        raise ValueError(f"n must be in 1..{MAX_FREE_TREE_N}, got {n}")
    if n == 1:
        return [_from_parents([])]
    return sorted(map(_level_tree, _free_level_sequences(n)), key=canonical_code)


def leaf_rooted(t: Tree) -> Tree:
    """The labeled representative of t's class that ``enumerate`` prints.

    Root t at a leaf and number its vertices in preorder, the children of
    each vertex in descending (size, index) order.  The index ranks the
    rooted trees of one size: a larger index has the smaller sequence of
    its children's (size, index) pairs, listed in descending order.  Of the
    leaves, the one whose hanging subtree (the tree less the leaf, rooted
    at its neighbor) has the largest index is the root.  Indices are
    compared through their ranks among the subtrees of t itself, so no
    table of rooted trees is built.  Isomorphic trees give the same labeled
    tree."""
    if t.n == 1:
        return t
    n, adj = t.n, t.adjacency
    order, parent = _rooted(t, 0)
    below = [1] * n
    for v in reversed(order[1:]):
        below[parent[v]] += below[v]
    # each directed edge (u, v) stands for the subtree at v away from u
    size: dict[tuple[int, int], int] = {}
    by_size: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for v in order[1:]:
        u, s = parent[v], below[v]
        size[u, v], size[v, u] = s, n - s
        by_size[s].append((u, v))
        by_size[n - s].append((v, u))
    rank: dict[tuple[int, int], int] = {}
    kids: dict[tuple[int, int], list] = {}  # (size, rank, child), descending
    for group in by_size:
        seqs = {}
        for edge in group:
            u, v = edge
            kids[edge] = sorted(
                [(size[v, c], rank[v, c], c) for c in adj[v] if c != u], reverse=True
            )
            seqs[edge] = tuple([k[:2] for k in kids[edge]])
        ranks = {seq: r for r, seq in enumerate(sorted(set(seqs.values()), reverse=True))}
        for edge, seq in seqs.items():
            rank[edge] = ranks[seq]
    root = max(t.leaves(), key=lambda leaf: rank[leaf, adj[leaf][0]])
    parents = []
    stack = [(adj[root][0], root, 0)]  # (vertex, its parent, parent's label)
    while stack:
        v, u, up = stack.pop()
        parents.append(up)  # v's label is now len(parents)
        stack.extend([(k[2], v, len(parents)) for k in reversed(kids[u, v])])
    return _from_parents(parents)


# Named families.  Path lengths count edges throughout.


def _from_parents(parents: list[int]) -> Tree:
    """The tree on 0..len(parents) in which vertex i+1 hangs from parents[i]."""
    return tree(len(parents) + 1, [(p, v) for v, p in enumerate(parents, 1)])


def path_tree(n: int) -> Tree:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return _from_parents(list(range(n - 1)))


def star_tree(n: int) -> Tree:
    if n < 1:
        raise ValueError("star needs n >= 1")
    return _from_parents([0] * (n - 1))


def broom(path_length: int, leaf_count: int) -> Tree:
    """A path with `path_length` edges and `leaf_count` extra leaves attached
    to its far endpoint (vertex `path_length`)."""
    if path_length < 0 or leaf_count < 0:
        raise ValueError("broom parameters must be nonnegative")
    return _from_parents([*range(path_length), *[path_length] * leaf_count])


def double_broom_walks(k: int) -> Tree:
    """A path with k edges, floor(k/2) leaves on one end and ceil(k/2) on
    the other: 2k+1 vertices for every k >= 1."""
    if k < 1:
        raise ValueError("double broom needs k >= 1")
    return double_broom_paths(2 * k + 1, k + 2)


def double_broom_paths(n: int, ell: int) -> Tree:
    """A path with ell-2 edges and n-ell+1 extra leaves split as evenly as
    possible between its two endpoints."""
    if ell < 2:
        raise ValueError("double broom needs ell >= 2")
    extra = n - ell + 1
    if extra < 0:
        raise ValueError(f"n={n} too small for ell={ell}")
    return _double_broom(ell - 2, extra // 2, extra - extra // 2)


def _double_broom(spine: int, lo: int, hi: int) -> Tree:
    """A path 0..spine with lo leaves on vertex 0 and hi on vertex spine."""
    return _from_parents([*range(spine), *[0] * lo, *[spine] * hi])


def p_broom(n: int, ell: int, p: int) -> Tree:
    """A central vertex with p legs, each a path of (ell-2)/2 edges, and the
    remaining n-1-p*(ell-2)/2 vertices attached as leaves to the leg ends,
    distributed as equally as possible (leftovers go to lower leg indices).
    """
    if ell < 4 or ell % 2 != 0:
        raise ValueError("p-broom needs even ell >= 4")
    if p < 1:
        raise ValueError("p-broom needs p >= 1")
    half = (ell - 2) // 2
    leaf_total = n - 1 - p * half
    if leaf_total < p:
        raise ValueError(
            f"n={n} too small for p={p}, ell={ell}: needs {1 + p * half + p}"
        )
    base, rem = divmod(leaf_total, p)
    parents = []
    for leg in range(p):
        end = len(parents) + half  # the leg's far end
        parents += [0, *range(end - half + 1, end), *[end] * (base + (leg < rem))]
    return _from_parents(parents)
