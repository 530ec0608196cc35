"""Immutable labeled trees on dense integer vertices, with exact metrics
and a canonical form that is a complete isomorphism invariant.

Vertices are 0..n-1.  Every value here is immutable after construction and
safe to share between concurrent workers.

Every rooted traversal in the package goes through ``_rooted`` (the BFS order
from a root, parents first, and each vertex's parent) or ``_branch`` (one
side of an edge, built on it): the connectivity check, distances, paths,
canonical codes, Pruefer codes, the leaf-rooted labels, the walk and path
kernels, the word contexts' end components and the delete-clone reduction.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

__all__ = [
    "CanonicalCode",
    "Tree",
    "canonical_code",
    "center",
    "diameter",
    "distance",
    "distances_from",
    "format_tree_text",
    "is_isomorphic",
    "parse_tree_text",
    "to_dot",
    "tree_path",
]

# A canonical code is a nested-parenthesis string; equal codes iff isomorphic.
CanonicalCode = str

Edge = tuple[int, int]


class Tree:
    """A tree given by its vertex count and edge set.

    Construction validates the invariants: exactly n-1 edges over
    {0..n-1}, none repeated in either orientation, no self-loops,
    connected.  Edges are normalized to (u, v) tuples with u < v.  The
    read-only attribute ``adjacency`` lists each vertex's neighbors,
    ascending.  Trees compare and hash by (n, edges); no attribute can be
    set after construction.
    """

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n: int, edges) -> None:
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        norm = set()
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e!r} out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        if len(norm) != len(edges):
            raise ValueError(f"repeated edge: {len(edges)} edges given, {len(norm)} distinct")
        if len(norm) != n - 1:
            raise ValueError(
                f"a tree on {n} vertices needs exactly {n - 1} "
                f"edges, got {len(norm)}"
            )
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        init = object.__setattr__
        init(self, "n", n)
        init(self, "edges", frozenset(norm))
        init(self, "adjacency", tuple(tuple(sorted(nbrs)) for nbrs in adj))
        if len(_rooted(self, 0)[0]) != n:
            raise ValueError("edge set is not connected")

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set {name!r}: a Tree is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Tree, (self.n, self.edges)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v, nbrs in enumerate(self.adjacency) if len(nbrs) == 1)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def __repr__(self) -> str:  # compact, deterministic
        return f"Tree(n={self.n}, edges={sorted(self.edges)})"


def tree(n: int, edges: Iterable[Edge]) -> Tree:
    """Convenience constructor accepting any iterable of edge pairs; a
    repeated edge raises ValueError like any other invalid edge list."""
    # a list, not a set, so a repeat reaches Tree's check; not a tuple,
    # whose freed copies CPython keeps on a free list per length
    return Tree(n, [tuple(e) for e in edges])


def _rooted(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """The vertices reachable from `root` in BFS order, and each vertex's
    parent (the root is its own parent, an unreached vertex has -1), so
    the order lists parents before children and reversed order children
    before parents."""
    adj = t.adjacency
    parent = [-1] * t.n
    parent[root] = root
    order = [root]
    for x in order:
        for y in adj[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    return order, parent


def _branch(t: Tree, v: int, away_from: int) -> frozenset:
    """v's side of the edge (v, away_from): the vertices whose path to
    `away_from` passes through v, v included."""
    order, parent = _rooted(t, away_from)
    side = {v}
    for x in order:
        if parent[x] in side:
            side.add(x)
    return frozenset(side)


def distances_from(t: Tree, source: int) -> list[int]:
    """BFS distances from `source` to every vertex."""
    t._check_vertex(source)
    order, parent = _rooted(t, source)
    dist = [0] * t.n
    for x in order[1:]:
        dist[x] = dist[parent[x]] + 1
    return dist


def distance(t: Tree, u: int, v: int) -> int:
    """Length of the unique u-v path."""
    dist = distances_from(t, u)
    t._check_vertex(v)
    return dist[v]


def diameter(t: Tree) -> int:
    """Maximum pairwise distance (double-sweep BFS)."""
    d0 = distances_from(t, 0)
    return max(distances_from(t, d0.index(max(d0))))


def tree_path(t: Tree, u: int, v: int) -> tuple[int, ...]:
    """The unique path u .. v as a vertex tuple."""
    t._check_vertex(u)
    t._check_vertex(v)
    parent = _rooted(t, v)[1]
    path = [u]
    while path[-1] != v:
        path.append(parent[path[-1]])
    return tuple(path)


def center(t: Tree) -> tuple[int, ...]:
    """The one or two middle vertices, found by iterative leaf removal."""
    n, adj = t.n, t.adjacency
    if n <= 2:
        return tuple(range(n))
    degree = [len(nbrs) for nbrs in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt
    return tuple(sorted(layer))


@lru_cache(maxsize=65536)
def canonical_code(t: Tree) -> CanonicalCode:
    """A complete isomorphism invariant: the nested-parenthesis encoding of
    the tree rooted at its center, each vertex's child codes sorted, and
    the lexicographic minimum over the two rootings when the center is an
    edge.

    One pass builds every subtree code bottom-up from the first center.
    For an edge center (a, b) that pass gives a's rooting and b's half-code
    (its side of the edge); a's half-code then joins b's children to give
    b's rooting, so the tree is never re-rooted."""
    mids = center(t)
    root = mids[0]
    order, parent = _rooted(t, root)
    kids: list[list[str]] = [[] for _ in range(t.n)]  # child codes
    for v in reversed(order[1:]):
        below = kids[v]
        below.sort()
        kids[parent[v]].append("(" + "".join(below) + ")")
    top = kids[root]
    top.sort()
    code = "(" + "".join(top) + ")"
    if len(mids) == 1:
        return code
    other = kids[mids[1]]
    top.remove("(" + "".join(other) + ")")
    other.append("(" + "".join(top) + ")")
    other.sort()
    return min(code, "(" + "".join(other) + ")")


def is_isomorphic(t1: Tree, t2: Tree) -> bool:
    return t1.n == t2.n and canonical_code(t1) == canonical_code(t2)


# Tree text format: first line `n`, then n-1 lines `u v`, 0-based, LF.

def format_tree_text(t: Tree) -> str:
    lines = [str(t.n)]
    lines.extend(f"{u} {v}" for u, v in sorted(t.edges))
    return "\n".join(lines) + "\n"


def parse_tree_text(text: str) -> Tree:
    """Parse the tree text format; malformed input reports the line number.
    An edge line with a vertex out of range, a self-loop or an edge already
    given (in either orientation) is reported at its own line; a wrong edge
    count or a disconnected graph at line 1."""
    lines = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise ValueError("line 1: empty input, expected vertex count")
    lineno, head = rows[0]
    try:
        n = int(head)
    except ValueError:
        raise ValueError(f"line {lineno}: expected vertex count, got {head!r}") from None
    edges: dict[Edge, int] = {}  # normalized edge -> its line
    for lineno, row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {row!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex in {row!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: edge {row!r} out of range for n={n}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        edge = (u, v) if u < v else (v, u)
        if edge in edges:
            raise ValueError(f"line {lineno}: edge {row!r} repeats line {edges[edge]}")
        edges[edge] = lineno
    try:
        return tree(n, edges)
    except ValueError as exc:
        raise ValueError(f"line 1: invalid tree: {exc}") from None


def to_dot(t: Tree, edge_labels: dict | None = None, name: str = "tree") -> str:
    """DOT serialization; optional per-edge labels keyed by (u, v), u < v."""
    lines = [f"graph {name} {{"]
    for u, v in sorted(t.edges):
        if edge_labels and (u, v) in edge_labels:
            lines.append(f'  {u} -- {v} [label="{edge_labels[(u, v)]}"];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
