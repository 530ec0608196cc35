"""Tree rewiring moves: the end-to-end path move (kc_transform) that shifts
one endpoint's branches to the other, the leaf delete-clone move
(dc_transform), bare-path enumeration, and distance-valency.  ``_bare_path``
is the one bare-path check, for ``kc_transform`` and ``words.build_context``.
"""

from __future__ import annotations

from .trees import CanonicalCode, Tree, canonical_code, distances_from, tree, tree_path

__all__ = [
    "BarePath",
    "Valency",
    "bare_paths",
    "dc_transform",
    "kc_moves",
    "kc_transform",
    "valency",
]


class BarePath:
    """A path whose interior vertices all have degree two in the host tree.
    Single edges qualify vacuously."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[int, ...]) -> None:
        self.vertices = vertices

    @property
    def k(self) -> int:
        return len(self.vertices) - 1

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]


class Valency:
    """Number of vertices at one fixed distance from a vertex."""

    __slots__ = ("vertex", "r")

    def __init__(self, vertex: int, r: int) -> None:
        self.vertex, self.r = vertex, r


def _bare_path(t: Tree, x: int, y: int) -> tuple[int, ...]:
    """The bare path from x to y; ValueError when tree_path finds an end out
    of range, then when x == y or an interior vertex is not of degree 2."""
    path = tree_path(t, x, y)
    if x != y and all(len(t.adjacency[v]) == 2 for v in path[1:-1]):
        return path
    raise ValueError(f"({x}, {y}) does not span a bare path")


def bare_paths(t: Tree) -> list[BarePath]:
    """All bare paths, one per unordered endpoint pair (x < y), sorted."""
    if t.n < 2:
        raise ValueError("bare paths need n >= 2")
    out = []
    for x in range(t.n):
        # walk out of x along each edge, through degree-two vertices only
        for first in t.adjacency[x]:
            path = [x, first]
            while True:
                if x < path[-1]:
                    out.append(BarePath(tuple(path)))
                ahead = t.adjacency[path[-1]]
                if len(ahead) != 2:
                    break
                path.append(ahead[0] if ahead[1] == path[-2] else ahead[1])
    out.sort(key=lambda bp: bp.endpoints)
    return out


def kc_transform(t: Tree, x: int, y: int) -> Tree:
    """Move every neighbor of y except its path-neighbor z over to x, along
    the bare path from x to y.  The result is again a tree on n vertices;
    with y a leaf the tree is unchanged."""
    return _kc_along(t, _bare_path(t, x, y))


def _kc_along(t: Tree, path: tuple[int, ...]) -> Tree:
    """kc_transform along a path the caller already knows is bare, from
    path[0] to path[-1]."""
    x, y, z = path[0], path[-1], path[-2]
    moved = [w for w in t.neighbors(y) if w != z]
    edges = set(t.edges)
    for w in moved:
        edges.discard((min(w, y), max(w, y)))
        edges.add((min(w, x), max(w, x)))
    return tree(t.n, edges)


def kc_moves(t: Tree) -> set[CanonicalCode]:
    """Canonical codes of every tree reachable by one end-to-end path move,
    over all bare paths and both orientations, deduplicated."""
    out: set[CanonicalCode] = set()
    for bp in bare_paths(t):
        out.add(canonical_code(_kc_along(t, bp.vertices)))
        out.add(canonical_code(_kc_along(t, bp.vertices[::-1])))
    return out


def valency(t: Tree, v: int, ell: int) -> Valency:
    """r(v): the number of vertices at distance exactly ell from v."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    return Valency(vertex=v, r=distances_from(t, v).count(ell))


def dc_transform(t: Tree, v: int, w: int) -> Tree:
    """Delete leaf v and attach a clone of leaf w (reusing v's id) to w's
    unique neighbor.  Total on distinct leaf pairs with n >= 3; callers
    enforce any valency conditions themselves."""
    if v == w:
        raise ValueError("leaves must be distinct")
    if t.degree(v) != 1 or t.degree(w) != 1:
        raise ValueError(f"{v} and {w} must both be leaves")
    if t.n < 3:
        raise ValueError("delete-clone needs n >= 3")
    old_parent = t.neighbors(v)[0]
    new_parent = t.neighbors(w)[0]
    edges = set(t.edges)
    edges.discard((min(v, old_parent), max(v, old_parent)))
    edges.add((min(v, new_parent), max(v, new_parent)))
    return tree(t.n, edges)
