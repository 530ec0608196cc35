"""Exact counting of walks, closed walks, fixed-length paths, and the
distance sum, plus a brute-force enumeration oracle.

Each counted quantity has one kernel that returns its whole per-length
vector over lengths 0..max_len; the ``count_*`` functions read one entry.

- ``closed_walk_profile``: trace(A^l).  For a forest the characteristic
  polynomial equals the matching polynomial (Godsil and Gutman, "On the
  theory of the matching polynomial", J. Graph Theory 5, 1981), so its
  elementary symmetric functions are e_{2k} = (-1)^k m_k and e_odd = 0,
  where m_k counts k-edge matchings.  A rooted DP computes m_0..m_{L/2},
  and Newton's identities turn them into every power sum p_l = trace(A^l),
  l <= L.  Odd entries are 0 because trees are bipartite.
- ``walk_profile``: 1^T A^l 1 from dot products of the iterates A^m 1,
  which halves the exact vector multiplies.
- ``path_profile``: pairs at each distance, by merging depth histograms of
  the children at every vertex (the pair's top vertex).

The rooted DPs (and ``wiener``'s subtree sizes) run children first over
the reversed BFS order of ``trees._rooted`` from vertex 0.

All counts are directed walks (a walk and its reverse are distinct) and use
arbitrary-precision integers; there is no floating point anywhere here.
"""

from __future__ import annotations

from operator import mul

from .trees import Tree, _rooted

__all__ = [
    "Walk",
    "closed_walk_profile",
    "count_closed_walks",
    "count_ell_paths",
    "count_walks",
    "enumerate_walks",
    "path_profile",
    "walk_profile",
    "wiener",
]

Walk = tuple[int, ...]


def _require_positive_length(length: int) -> None:
    # length-0 walks exist (one per vertex) but the counting APIs are
    # deliberately restricted to length >= 1
    if length < 1:
        raise ValueError(f"walk length must be >= 1, got {length}")


def _require_profile_length(max_len: int) -> None:
    if max_len < 0:
        raise ValueError(f"profile length must be >= 0, got {max_len}")


def _poly_mul(a: list[int], b: list[int], cap: int) -> list[int]:
    """Product of coefficient lists, truncated to degree <= cap."""
    if not a or not b:
        return []
    out = [0] * min(len(a) + len(b) - 1, cap + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: cap + 1 - i], i):
            out[j] += x * y
    return out


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, y in enumerate(b):
        out[i] += y
    return out


def _matching_counts(t: Tree, cap: int) -> list[int]:
    """m_0..m_cap, where m_k is the number of k-edge matchings.

    Bottom-up over ``_rooted``'s BFS order, each vertex keeps two truncated
    generating polynomials of its subtree's matchings: ``free`` (the vertex
    unmatched) and ``every``.  Children fold in one at a time: ``free`` is
    the running product of the children's ``every``, and ``hit`` (the vertex
    matched to a child folded so far) gains x * free_so_far * child_free."""
    order, parent = _rooted(t, 0)
    adj = t.adjacency
    free: list = [None] * t.n
    every: list = [None] * t.n
    for v in reversed(order):
        f = [1]
        hit: list[int] = []
        for c in adj[v]:
            if c == parent[v]:
                continue
            fc, gc = free[c], every[c]
            free[c] = every[c] = None
            if len(gc) == 1:  # fc == gc == [1]: a leaf child (or cap 0)
                hit = _poly_add(hit, [0] + f[:cap])
                continue
            hit = _poly_add(_poly_mul(hit, gc, cap), [0] + _poly_mul(f, fc, cap - 1))
            f = _poly_mul(f, gc, cap)
        free[v] = f
        every[v] = _poly_add(f, hit)
    counts = every[order[0]]
    return counts + [0] * (cap + 1 - len(counts))


def closed_walk_profile(t: Tree, max_len: int) -> list[int]:
    """Closed-walk counts trace(A^l) for l = 0..max_len.

    With s_k = (-1)^k m_k the signed matching counts, Newton's identities
    for the even power sums read
    p_{2j} = -(2j s_j + sum_{i=1}^{j-1} s_i p_{2j-2i}); odd entries are 0.
    """
    _require_profile_length(max_len)
    half = max_len // 2
    signed = [c if k % 2 == 0 else -c for k, c in enumerate(_matching_counts(t, half))]
    out = [0] * (max_len + 1)
    out[0] = t.n
    for j in range(1, half + 1):
        acc = 2 * j * signed[j]
        for i in range(1, j):
            acc += signed[i] * out[2 * (j - i)]
        out[2 * j] = -acc
    return out


def walk_profile(t: Tree, max_len: int) -> list[int]:
    """Walk counts 1^T A^l 1 for l = 0..max_len.

    With v_m = A^m 1 and A symmetric, w_{2m} = v_m . v_m and
    w_{2m+1} = v_m . v_{m+1}, so ceil(max_len / 2) exact vector multiplies
    give every entry; only v_m and v_{m+1} are kept."""
    _require_profile_length(max_len)
    adj = t.adjacency
    vec = [1] * t.n
    out = [t.n]
    while len(out) <= max_len:
        nxt = [sum([vec[u] for u in nbrs]) for nbrs in adj]
        out.append(sum(map(mul, vec, nxt)))
        if len(out) <= max_len:
            out.append(sum(map(mul, nxt, nxt)))
        vec = nxt
    return out


def path_profile(t: Tree, max_len: int) -> list[int]:
    """Path counts for l = 0..max_len: the number of vertex pairs at
    distance l (each vertex is the one path of length 0).

    Every pair has one top vertex, nearest the root, on its path.  Bottom-up,
    each vertex merges its children's depth histograms (truncated at
    max_len) and counts the pairs that straddle two of its branches or end
    at itself."""
    _require_profile_length(max_len)
    order, parent = _rooted(t, 0)
    adj = t.adjacency
    out = [0] * (max_len + 1)
    out[0] = t.n
    depth: list = [None] * t.n
    for v in reversed(order):
        acc = [1]  # acc[d]: folded vertices at depth d below v
        for c in adj[v]:
            if c == parent[v]:
                continue
            below = depth[c]  # below[j]: vertices at depth j + 1 below v
            depth[c] = None
            for i, a in enumerate(acc[:max_len]):
                for d, b in enumerate(below[: max_len - i], i + 1):
                    out[d] += a * b
            if len(acc) <= len(below):
                acc.extend([0] * (len(below) + 1 - len(acc)))
            for j, b in enumerate(below, 1):
                acc[j] += b
        depth[v] = acc[:max_len]
    return out


def count_walks(t: Tree, length: int) -> int:
    """Number of directed walks of `length` steps: the sum of all entries of
    the length-th adjacency power."""
    _require_positive_length(length)
    return walk_profile(t, length)[length]


def count_closed_walks(t: Tree, length: int) -> int:
    """Number of directed closed walks of `length` steps: the trace of the
    length-th adjacency power.  Trees are bipartite, so odd lengths give 0
    at once."""
    _require_positive_length(length)
    return 0 if length % 2 else closed_walk_profile(t, length)[length]


def count_ell_paths(t: Tree, length: int) -> int:
    """Number of paths with exactly `length` edges.  In a tree every vertex
    pair determines one path, so this is the number of unordered pairs at
    distance `length`."""
    _require_positive_length(length)
    return path_profile(t, length)[length]


def enumerate_walks(
    t: Tree, length: int, start: int | None = None, end: int | None = None
) -> list[Walk]:
    """All walks of exactly `length` steps matching the optional endpoint
    constraints, in lexicographic vertex order.  This is the enumeration
    oracle; counts must agree with the matrix-power counters."""
    if length < 0:
        raise ValueError(f"walk length must be >= 0, got {length}")
    if start is not None:
        t._check_vertex(start)
    if end is not None:
        t._check_vertex(end)
    sources = [start] if start is not None else list(range(t.n))
    adj = t.adjacency
    out: list[Walk] = []
    for s in sources:
        stack: list[tuple[tuple[int, ...], int]] = [((s,), 0)]
        while stack:
            walk, depth = stack.pop()
            if depth == length:
                if end is None or walk[-1] == end:
                    out.append(walk)
                continue
            for u in reversed(adj[walk[-1]]):
                stack.append((walk + (u,), depth + 1))
    return out


def wiener(t: Tree) -> int:
    """Sum of distances over unordered vertex pairs, via the edge-split
    identity: each edge contributes (size of one side) * (size of the other).
    """
    order, parent = _rooted(t, 0)
    size = [1] * t.n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return sum(size[v] * (t.n - size[v]) for v in order[1:])
