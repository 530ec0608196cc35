"""Workload definitions and seeded input generation.

Each workload is a fixed list of ``treewalks`` CLI commands.  ``sweep`` and
``injections`` take no input files, so their commands (and outputs) do not
depend on the seed.  ``big-trees`` runs on random labeled trees drawn from
the seed through uniform Pruefer sequences and written as tree files; the
program only ever sees those files.

Tree sizes are fixed and only the shapes are random, so every seed asks for
about the same amount of work.
"""

from __future__ import annotations

import heapq
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# Orders of the random big trees, and of the trees given to dc-reduce.
BIG_TREE_ORDERS = (300, 400, 500, 600, 700, 800)
DC_TREE_ORDER = 36
DC_TREE_COUNT = 1


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``key`` names it in the pinned-digest table and
    ``check`` selects the output oracle (see oracles.py)."""

    key: str
    argv: tuple[str, ...]
    check: str
    arg: object = None


def pruefer_edges(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Edges (u < v, sorted) of the labeled tree with Pruefer sequence seq."""
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return sorted(edges)


def random_tree_text(rng: random.Random, n: int) -> str:
    """A uniform random labeled tree on n vertices in the tree text format."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    lines = [str(n)] + [f"{u} {v}" for u, v in pruefer_edges(seq, n)]
    return "\n".join(lines) + "\n"


def write_inputs(workload: str, seed: int, root: str, workdir: str) -> list[str]:
    """Write the workload's input files under workdir; return their paths
    relative to root, in the order the commands use them."""
    if workload != "big-trees":
        return []
    rng = random.Random(f"big-trees:{seed}")
    os.makedirs(workdir, exist_ok=True)
    names = [f"big{i}.tree" for i in range(len(BIG_TREE_ORDERS))]
    names += [f"dc{i}.tree" for i in range(DC_TREE_COUNT)]
    orders = list(BIG_TREE_ORDERS) + [DC_TREE_ORDER] * DC_TREE_COUNT
    paths = []
    for name, n in zip(names, orders):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(random_tree_text(rng, n))
        paths.append(os.path.relpath(path, root))
    return paths


def commands(workload: str, inputs: list[str]) -> list[Command]:
    """The workload's CLI commands, in run order."""
    if workload == "sweep":
        return [
            Command("closed-extremal", ("verify", "closed-extremal", "--max-n", "12", "--max-len", "12"), "digest"),
            Command("kc-monotone", ("verify", "kc-monotone", "--max-n", "10", "--max-len", "8", "--kind", "both"), "digest"),
            Command("path-extremal-5", ("verify", "path-extremal", "--max-n", "12", "--len", "5"), "digest"),
            Command("path-extremal-6", ("verify", "path-extremal", "--max-n", "12", "--len", "6"), "digest"),
        ]
    if workload == "injections":
        return [
            Command("injections", ("verify", "injections", "--max-n", "7", "--max-len", "5"), "digest"),
        ]
    if workload == "big-trees":
        big = inputs[: len(BIG_TREE_ORDERS)]
        small = inputs[len(BIG_TREE_ORDERS):]
        out = [
            Command("counterexample", ("counterexample", "--c", "3/5", "--k", "300", "--len", "60"), "digest"),
            Command("closed-40", ("count", "--kind", "closed", "--len", "40", *big), "closed", 40),
            Command("closed-21", ("count", "--kind", "closed", "--len", "21", *big), "closed", 21),
            Command("all-40", ("count", "--kind", "all", "--len", "40", *big), "all", 40),
            Command("paths-6", ("count", "--kind", "paths", "--len", "6", *big), "paths", 6),
            Command("wiener", ("count", "--kind", "wiener", *big), "wiener"),
        ]
        for i, path in enumerate(small):
            for ell in (4, 5):
                out.append(Command(f"dc-reduce-{i}-{ell}", ("dc-reduce", "--len", str(ell), "--tree", path), "dc", ell))
        return out
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sweep", "injections", "big-trees")
