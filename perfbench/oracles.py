"""Output checks.

Outputs that do not depend on the seed (the sweeps and the counterexample)
must match a pinned sha256 digest, and so must the big-trees outputs at the
default seed.  At every seed the
big-trees outputs are also recomputed by independent oracles:

* ``paths`` and ``wiener``: networkx all-pairs distances;
* ``closed`` at odd length: 0, since trees are bipartite;
* ``closed`` at even length, on the smallest trees: trace(A^len) by dense
  matrix powers modulo two primes, small enough that every float64 product
  and sum stays exact;
* ``all``: 1^T A^len 1 by exact integer vector iteration over networkx
  adjacency;
* ``dc``: the output is a tree on the same vertex count whose path count at
  the length is no smaller than the input's.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os

from workloads import DEFAULT_SEED, Command

HERE = os.path.dirname(os.path.abspath(__file__))
# Primes below 2^20, so that n * p^2 < 2^53 for every n up to 8000.
PRIMES = (999_979, 999_983)
# Even closed-walk counts are recounted densely on this many of the
# smallest input trees; the dense power is cubic in n.
CLOSED_SAMPLE = 2


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def pinned_digest(expected: dict, workload: str, cmd: Command, seed: int) -> str | None:
    """The pinned digest for this command at this seed, if there is one."""
    key = f"{workload}/{cmd.key}"
    if key in expected["any_seed"]:
        return expected["any_seed"][key]
    if seed == DEFAULT_SEED:
        return expected["default_seed"].get(key)
    return None


def _parse_graph(text: str):
    """A networkx graph from the tree text format; ValueError if malformed."""
    import networkx as nx

    lines = [ln.split() for ln in text.split("\n") if ln.strip()]
    if not lines or len(lines[0]) != 1 or any(len(ln) != 2 for ln in lines[1:]):
        raise ValueError("not in the tree text format")
    g = nx.Graph()
    g.add_nodes_from(range(int(lines[0][0])))
    g.add_edges_from((int(u), int(v)) for u, v in lines[1:])
    return g


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@functools.lru_cache(maxsize=16)
def _distance_histogram(text: str) -> dict[int, int]:
    """Number of ordered vertex pairs at each distance in the tree text."""
    import networkx as nx

    hist: dict[int, int] = {}
    for _source, dist in nx.all_pairs_shortest_path_length(_parse_graph(text)):
        for d in dist.values():
            hist[d] = hist.get(d, 0) + 1
    return hist


def _closed_walks_mod(g, length: int, p: int) -> int:
    """trace(A^length) mod p with float64 matrix products reduced mod p."""
    import networkx as nx
    import numpy as np

    a = nx.to_numpy_array(g, nodelist=range(g.number_of_nodes()), dtype=np.float64)
    result = np.eye(a.shape[0])
    base = a
    e = length
    while e:
        if e & 1:
            result = np.mod(result @ base, p)
        e >>= 1
        if e:
            base = np.mod(base @ base, p)
    return int(np.trace(result)) % p


def _all_walks(g, length: int) -> int:
    n = g.number_of_nodes()
    adj = [list(g.neighbors(v)) for v in range(n)]
    vec = [1] * n
    for _ in range(length):
        vec = [sum(vec[u] for u in adj[v]) for v in range(n)]
    return sum(vec)


def _parse_count_output(text: str, files: list[str]) -> list[int] | None:
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != "file,value" or len(lines) != len(files) + 2:
        return None
    values = []
    for path, line in zip(files, lines[1:-1]):
        name, _, value = line.rpartition(",")
        if name != path or not value.isdigit():
            return None
        values.append(int(value))
    return values


def _check_count(cmd: Command, text: str, root: str) -> str | None:
    files = [a for a in cmd.argv if a.endswith(".tree")]
    values = _parse_count_output(text, files)
    if values is None:
        return "malformed count output"
    trees = [_read_text(os.path.join(root, path)) for path in files]
    sample = sorted(range(len(trees)), key=lambda i: len(trees[i]))[:CLOSED_SAMPLE]
    for i, (path, value, tree_text) in enumerate(zip(files, values, trees)):
        if cmd.check == "closed":
            if cmd.arg % 2:
                ok = value == 0
            elif i in sample:
                g = _parse_graph(tree_text)
                ok = all(value % p == _closed_walks_mod(g, cmd.arg, p) for p in PRIMES)
            else:
                ok = True
        elif cmd.check == "all":
            ok = value == _all_walks(_parse_graph(tree_text), cmd.arg)
        elif cmd.check == "paths":
            ok = value == _distance_histogram(tree_text).get(cmd.arg, 0) // 2
        else:
            ok = value == sum(d * c for d, c in _distance_histogram(tree_text).items()) // 2
        if not ok:
            return f"{path}: {value} disagrees with the oracle"
    return None


def _check_dc(cmd: Command, text: str, root: str) -> str | None:
    import networkx as nx

    before = _read_text(os.path.join(root, cmd.argv[cmd.argv.index("--tree") + 1]))
    try:
        after = _parse_graph(text)
    except ValueError:
        return "malformed tree output"
    if after.number_of_nodes() != _parse_graph(before).number_of_nodes() or not nx.is_tree(after):
        return "output is not a tree on the input's vertices"
    ell = cmd.arg
    if _distance_histogram(text).get(ell, 0) < _distance_histogram(before).get(ell, 0):
        return f"length-{ell} path count decreased"
    return None


def check_output(expected: dict, workload: str, cmd: Command, seed: int,
                 stdout: bytes, root: str) -> str | None:
    """None when the stdout of a successful command is correct, else the
    reason it is not."""
    pinned = pinned_digest(expected, workload, cmd, seed)
    if pinned is not None and digest(stdout) != pinned:
        return "stdout digest differs from the pinned one"
    if cmd.check == "digest":
        return None if pinned is not None else "no pinned digest"
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError:
        return "stdout is not UTF-8"
    if cmd.check == "dc":
        return _check_dc(cmd, text, root)
    return _check_count(cmd, text, root)
