"""Tree generation: the Pruefer correspondence, free-tree enumeration,
and the named parametric families (paths, stars, brooms and relatives).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator

from .trees import Tree, canonical_code, tree

__all__ = [
    "MAX_FREE_TREE_N",
    "all_labeled_trees",
    "broom",
    "double_broom_paths",
    "double_broom_walks",
    "enumerate_free_trees",
    "from_pruefer",
    "p_broom",
    "path_tree",
    "star_tree",
    "to_pruefer",
]

MAX_FREE_TREE_N = 12


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
    """Pruefer sequence of a labeled tree (inverse of from_pruefer)."""
    if t.n < 2:
        raise ValueError("Pruefer correspondence needs n >= 2")
    import heapq

    degree = [t.degree(v) for v in range(t.n)]
    neighbors = {v: set(t.adjacency[v]) for v in range(t.n)}
    leaves = [v for v in range(t.n) if degree[v] == 1]
    heapq.heapify(leaves)
    out = []
    for _ in range(t.n - 2):
        leaf = heapq.heappop(leaves)
        parent = neighbors[leaf].pop()
        neighbors[parent].discard(leaf)
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
        yield tree(1, [])
        return
    for seq in product(range(n), repeat=n - 2):
        yield from_pruefer(seq, n)


# Free trees are enumerated through non-isomorphic rooted trees: a rooted
# tree is a canonical tuple of child subtrees, and a multiset of subtrees is
# generated in nonincreasing (size, index) order so each shape appears once.


@lru_cache(maxsize=None)
def _rooted_shapes(size: int) -> tuple:
    if size == 1:
        return ((),)
    prev = _rooted_shapes(size - 1)
    return tuple(_forests(size - 1, size - 1, len(prev) - 1))


@lru_cache(maxsize=None)
def _forests(total: int, max_size: int, max_index: int) -> tuple:
    """Forests (tuples of rooted shapes) of given total size whose items are
    <= (max_size, max_index) in the generation order, nonincreasing."""
    if total == 0:
        return ((),)
    out = []
    for size in range(min(total, max_size), 0, -1):
        shapes = _rooted_shapes(size)
        top = max_index if size == max_size else len(shapes) - 1
        for idx in range(top, -1, -1):
            for rest in _forests(total - size, size, idx):
                out.append((shapes[idx],) + rest)
    return tuple(out)


def _shape_edges(shape: tuple) -> list[tuple[int, int]]:
    edges: list[tuple[int, int]] = []
    counter = [0]

    def walk(node: tuple, my_id: int) -> None:
        for child in node:
            counter[0] += 1
            cid = counter[0]
            edges.append((my_id, cid))
            walk(child, cid)

    walk(shape, 0)
    return edges


def enumerate_free_trees(n: int) -> list[Tree]:
    """One representative per isomorphism class of trees on n vertices,
    sorted by canonical code."""
    if not (1 <= n <= MAX_FREE_TREE_N):
        raise ValueError(f"n must be in 1..{MAX_FREE_TREE_N}, got {n}")
    if n == 1:
        return [tree(1, [])]
    # Every class with n >= 2 has a leaf, so rooting it there gives a shape
    # (child,).  Those leaf-rooted shapes are the first entries of
    # _rooted_shapes(n), in the order of reversed(_rooted_shapes(n - 1)),
    # so building only them keeps the same first occurrence of each class.
    by_code: dict[str, Tree] = {}
    for child in reversed(_rooted_shapes(n - 1)):
        t = tree(n, _shape_edges((child,)))
        by_code.setdefault(canonical_code(t), t)
    return [by_code[c] for c in sorted(by_code)]


# Named families.  Path lengths count edges throughout.


def path_tree(n: int) -> Tree:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return tree(n, [(i, i + 1) for i in range(n - 1)])


def star_tree(n: int) -> Tree:
    if n < 1:
        raise ValueError("star needs n >= 1")
    return tree(n, [(0, i) for i in range(1, n)])


def broom(path_length: int, leaf_count: int) -> Tree:
    """A path with `path_length` edges and `leaf_count` extra leaves attached
    to its far endpoint (vertex `path_length`)."""
    if path_length < 0 or leaf_count < 0:
        raise ValueError("broom parameters must be nonnegative")
    n = path_length + 1 + leaf_count
    edges = [(i, i + 1) for i in range(path_length)]
    edges += [(path_length, path_length + 1 + j) for j in range(leaf_count)]
    return tree(n, edges)


def double_broom_walks(k: int) -> Tree:
    """A path with k edges, floor(k/2) leaves on one end and ceil(k/2) on
    the other.  For even k this has 2k+1 vertices."""
    if k < 1:
        raise ValueError("double broom needs k >= 1")
    lo, hi = k // 2, k - k // 2
    edges = [(i, i + 1) for i in range(k)]
    nxt = k + 1
    for _ in range(lo):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(hi):
        edges.append((k, nxt))
        nxt += 1
    return tree(nxt, edges)


def double_broom_paths(n: int, ell: int) -> Tree:
    """A path with ell-2 edges and n-ell+1 extra leaves split as evenly as
    possible between its two endpoints."""
    if ell < 2:
        raise ValueError("double broom needs ell >= 2")
    extra = n - ell + 1
    if extra < 0:
        raise ValueError(f"n={n} too small for ell={ell}")
    spine = ell - 2
    lo, hi = extra // 2, extra - extra // 2
    edges = [(i, i + 1) for i in range(spine)]
    nxt = spine + 1
    for _ in range(lo):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(hi):
        edges.append((spine, nxt))
        nxt += 1
    return tree(nxt, edges)


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
    edges = []
    nxt = 1
    for leg in range(p):
        prev = 0
        for _ in range(half):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        for _ in range(base + (1 if leg < rem else 0)):
            edges.append((prev, nxt))
            nxt += 1
    return tree(nxt, edges)
