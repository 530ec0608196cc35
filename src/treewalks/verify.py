"""Experiment harness: exhaustive verification sweeps over all small trees,
the distance-sum versus walk-count counterexample at full scale, and the
multi-broom path-count optimization.

Every reported relation is recomputed from exact integer counts; sweeps
cache per-tree counts only inside a single run.

The whole-order sweeps and kc-monotone have one shape: a loop over the
orders that enumerates each order's free trees once, keys that order's
table of counts by canonical code, and checks from the table.  The
injection sweep alone builds one job per tree and runs them through
``_pmap``, in worker processes if asked.

Sweeps stream.  Each ``verify_*`` sweep hands its checks to a consumer in
blocks, one per tree (kc-monotone, injections) or per order (closed- and
path-extremal), each block sorted by ``Check.instance`` and the blocks in
that order too, since the instance starts with the zero-padded
``n=NN t=TTT``.  The default consumer collects every block into
``report.checks``; ``report_writer`` gives the consumer that renders a
format as the blocks come, keeping only the current block, so a sweep's
memory does not grow with its output.  Whichever consumer runs, the report
counts the checks and keeps the failed ones: it holds the verdict.

Import rule: at module level this file imports only what the delete-clone
reduction needs (``.transforms`` and ``.trees``).  The sweeps, the
counterexample and the serializers import enumeration, the walk kernels,
``json``, ``fractions`` and ``math`` when they run, so ``dc-reduce`` loads
none of them.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter

from .transforms import _kc_along, bare_paths, dc_transform, valency
from .trees import Tree, _branch, canonical_code, distances_from, is_isomorphic, tree_path

__all__ = [
    "BroomProfile",
    "Check",
    "CounterexampleResult",
    "VerificationReport",
    "broom_profile",
    "broom_paths_exact",
    "build_counterexample",
    "dc_reduce",
    "dc_reduce_trace",
    "is_double_broom",
    "is_p_broom",
    "report_to_csv",
    "report_to_json",
    "report_to_summary",
    "report_writer",
    "verify_closed_extremal",
    "verify_injections",
    "verify_kc_monotone",
    "verify_path_extremal",
]


class Check:
    """One checked relation ``lhs relation rhs`` and whether it held.

    ``n`` is the tree order, ``ell`` the walk or path length and ``name``
    the check (``star-max``, ``closed``, ``h-inject``, ...).  The per-tree
    sweeps (kc-monotone, injections) also set ``tree``, the index of the
    tree among the free trees of order n, and ``path``, the vertices of the
    bare path moved or split.  ``instance`` renders the record as

        n=NN len=LL name                          (whole-order checks)
        n=NN t=TTT path=v0-v1-...-vk len=LL name  (per-tree checks)

    with zero-padded n, t and ell; reports sort and print by that string,
    which each record renders once (the per-tree sweeps set it as they
    build the row, from ``_path_prefix`` rendered once per path).  ``t``
    has 3 digits up to n = 12 and past it as many as the largest index of
    its order needs (``_INDEX_DIGITS``), so one order's strings sort in
    index order.  Checks compare by every field but the rendered string.
    """

    __slots__ = ("n", "ell", "name", "lhs", "rhs", "relation", "passed", "tree", "path", "_instance")

    def __init__(
        self,
        n: int,
        ell: int,
        name: str,
        lhs,
        rhs,
        relation: str,
        passed: bool,
        tree: int | None = None,
        path: tuple[int, ...] | None = None,
    ) -> None:
        self.n, self.ell, self.name = n, ell, name
        self.lhs, self.rhs, self.relation, self.passed = lhs, rhs, relation, passed
        self.tree, self.path = tree, path
        self._instance = None

    def _fields(self) -> tuple:
        return (self.n, self.ell, self.name, self.lhs, self.rhs, self.relation, self.passed, self.tree, self.path)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    @property
    def instance(self) -> str:
        text = self._instance
        if text is None:
            if self.tree is None:
                text = f"n={self.n:02d} len={self.ell:02d} {self.name}"
            else:
                text = f"{_path_prefix(self.n, self.tree, self.path)}{self.ell:02d} {self.name}"
            self._instance = text
        return text


# Digits of the tree index ``t`` for the orders whose largest index needs
# more than 3 (the free trees number 1,301, 3,159, 7,741 and 19,320 there);
# every other order prints 3.
_INDEX_DIGITS = {13: 4, 14: 4, 15: 4, 16: 5}


def _tree_index(n: int, index: int) -> str:
    """The tree index ``t`` of order n, zero-padded to its order's width."""
    return str(index).zfill(_INDEX_DIGITS.get(n, 3))


def _path_prefix(n: int, index: int, path: tuple[int, ...]) -> str:
    """A per-tree check's instance up to its length, ``n=NN t=TTT
    path=v0-v1-...-vk len=``; the per-tree sweeps render it once per path."""
    return f"n={n:02d} t={_tree_index(n, index)} path={'-'.join(map(str, path))} len="


class VerificationReport:
    """The scope of a sweep, its collected checks and, for the whole-order
    sweeps, the extremal trees, with the count and the failed ones of every
    check the sweep ran (or of ``checks``, for a report built from them).
    A sweep run with its own consumer leaves ``checks`` empty."""

    __slots__ = ("scope", "checks", "extremal_witnesses", "count", "violations")

    def __init__(self, scope: dict, checks: list | None = None, extremal_witnesses: dict | None = None) -> None:
        self.scope = scope
        self.checks = [] if checks is None else checks
        self.extremal_witnesses = {} if extremal_witnesses is None else extremal_witnesses
        self.count = 0
        self.violations = []
        self._record(self.checks)

    def _record(self, block: list) -> None:
        self.count += len(block)
        self.violations += [c for c in block if not c.passed]

    @property
    def ok(self) -> bool:
        return not self.violations


class _Writer:
    """A block consumer that renders checks through ``out`` as they come:
    the format's header before the first block, the rows of each block,
    and ``close(report)`` at the end.  It only renders: the report holds
    the count and the verdict."""

    head = ""

    def __init__(self, out):
        self.out = out
        self._started = False

    def __call__(self, block: list) -> None:
        self._start()
        self.out(self.rows(block))

    def _start(self) -> None:
        if not self._started:
            self._started = True
            self.out(self.head)

    def rows(self, block: list) -> str:
        return ""

    def close(self, report: VerificationReport) -> None:
        self._start()


class _CsvWriter(_Writer):
    head = "instance,lhs,rhs,relation,passed\n"

    def rows(self, block: list) -> str:
        return "".join(
            f"{c.instance},{c.lhs},{c.rhs},{c.relation},{int(c.passed)}\n" for c in block
        )


class _JsonWriter(_Writer):
    def close(self, report: VerificationReport) -> None:
        import json

        super().close(report)
        payload = {
            "scope": {k: str(v) for k, v in report.scope.items()},
            "ok": report.ok,
            "checks": report.count,
            "violations": [
                {
                    "instance": c.instance,
                    "lhs": str(c.lhs),
                    "rhs": str(c.rhs),
                    "relation": c.relation,
                    "passed": c.passed,
                }
                for c in report.violations
            ],
            "extremal_witnesses": report.extremal_witnesses,
        }
        self.out(json.dumps(payload, sort_keys=True, default=str) + "\n")


class _SummaryWriter(_Writer):
    """One row per (tree, bare path, length) of a per-tree sweep: the size
    of the h-map's domain and image there, and the count of failed checks.
    Rows follow the check order; a tree's cells never span two blocks."""

    head = "tree,path,len,domain,image,violations\n"

    def rows(self, block: list) -> str:
        cells: dict[tuple, list] = {}
        for c in block:
            row = cells.setdefault((c.n, c.tree, c.path, c.ell), [0, 0, 0])
            if c.name == "h-inject":
                row[0], row[1] = c.lhs, c.rhs
            if not c.passed:
                row[2] += 1
        return "".join(
            f"{n:02d}/{_tree_index(n, index)},{'-'.join(map(str, path))},{ell},{domain},{image},{violations}\n"
            for (n, index, path, ell), (domain, image, violations) in cells.items()
        )


_WRITERS = {"csv": _CsvWriter, "json": _JsonWriter, "summary": _SummaryWriter}


def report_writer(fmt: str, out) -> _Writer:
    """The block consumer that renders format ``fmt`` ('csv', 'json' or
    'summary') through ``out``, a callable taking each piece of text.  Pass
    it to a ``verify_*`` sweep as ``emit``, then call ``close(report)`` on
    the report the sweep returns, whose ``ok`` is the verdict."""
    return _WRITERS[fmt](out)


def _render(fmt: str, report: VerificationReport) -> str:
    parts: list[str] = []
    writer = report_writer(fmt, parts.append)
    writer(report.checks)
    writer.close(report)
    return "".join(parts)


def report_to_csv(report: VerificationReport) -> str:
    return _render("csv", report)


def report_to_json(report: VerificationReport) -> str:
    return _render("json", report)


def report_to_summary(report: VerificationReport) -> str:
    """The summary rows (see ``_SummaryWriter``) of a collected per-tree
    report, in its check order."""
    return _render("summary", report)


def _require(name: str, value: int, least: int) -> None:
    """Reject a scope bound under which a sweep would check nothing."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _require_max_n(max_n: int, least: int) -> None:
    """Reject a max_n under which a sweep would check nothing or past the
    enumeration cap, before the sweep emits its first block."""
    from .generate import MAX_FREE_TREE_N

    _require("max_n", max_n, least)
    if max_n > MAX_FREE_TREE_N:
        raise ValueError(f"max_n must be <= {MAX_FREE_TREE_N}, got {max_n}")


def _pmap(fn, items, workers: int):
    """fn over items, yielded lazily and in item order, in ``workers``
    processes, at most one per CPU; the order does not depend on the
    worker count."""
    import os

    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor

    items = list(items)
    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items, chunksize=chunk)


def _stream(report: VerificationReport, blocks, emit) -> VerificationReport:
    """Sort each block of checks by instance, record it on the report and
    hand it to ``emit`` (default: collect it into ``report.checks``).
    Blocks come in instance order, so they concatenate to one sorted
    report."""
    emit = emit or report.checks.extend
    for block in blocks:
        block.sort(key=attrgetter("instance"))
        report._record(block)
        emit(block)
    return report


# ---------------------------------------------------------------------------
# Closed-walk extremality and monotonicity sweeps


def verify_closed_extremal(max_n: int, max_len: int, emit=None) -> VerificationReport:
    """For each n <= max_n and even length, the star must attain the
    maximum closed-walk count and the path the minimum, uniquely whenever
    the counts are not all equal.  One block of checks per n goes to
    ``emit`` (see ``_stream``)."""
    from .generate import enumerate_free_trees, path_tree, star_tree
    from .walks import closed_walk_profile

    _require_max_n(max_n, 1)
    _require("max_len", max_len, 2)
    report = VerificationReport(scope={"max_n": max_n, "max_len": max_len})

    def blocks():
        for n in range(1, max_n + 1):
            trees = enumerate_free_trees(n)
            star_code = canonical_code(star_tree(n))
            path_code = canonical_code(path_tree(n))
            profiles = {canonical_code(t): closed_walk_profile(t, max_len) for t in trees}
            checks = []
            for ell in range(2, max_len + 1, 2):
                values = {code: prof[ell] for code, prof in profiles.items()}
                vmax = max(values.values())
                vmin = min(values.values())
                argmax = sorted(c for c, v in values.items() if v == vmax)
                argmin = sorted(c for c, v in values.items() if v == vmin)
                base = f"n={n:02d} len={ell:02d}"
                checks.append(
                    Check(n, ell, "star-max", values[star_code], vmax, "==", values[star_code] == vmax)
                )
                checks.append(
                    Check(n, ell, "path-min", values[path_code], vmin, "==", values[path_code] == vmin)
                )
                if vmax != vmin:
                    checks.append(Check(n, ell, "star-unique", len(argmax), 1, "==", len(argmax) == 1))
                    checks.append(Check(n, ell, "path-unique", len(argmin), 1, "==", len(argmin) == 1))
                report.extremal_witnesses[base] = {"max": argmax, "min": argmin}
            yield checks

    return _stream(report, blocks(), emit)


def _kc_monotone_rows(t: Tree, index: int, base: dict, table: dict, max_len: int, kinds) -> list:
    """The kc-monotone checks of tree ``t``, the ``index``-th of its order.

    ``base`` holds t's profiles by kind, and ``table`` the profiles of every
    class of t's order, keyed by canonical code.  A moved tree has its
    source's order, so its profiles are a lookup once its code is known.  A
    move along a path with a leaf end gives the base tree back (y a leaf)
    or its path reflected end for end (x a leaf), so it needs no code at
    all.

    Rows are built in report order, so the sweep's sort finds them sorted:
    paths by their ``-``-joined string (``1-10`` before ``1-2``), then ell,
    then kind by name.  Each row's instance is set from a prefix built once
    per path."""
    n, adj = t.n, t.adjacency
    kinds = sorted(kinds)
    moves = []
    for bp in bare_paths(t):
        path = bp.vertices
        if len(adj[path[0]]) == 1 or len(adj[path[-1]]) == 1:
            moved = base
        else:
            moved = table[canonical_code(_kc_along(t, path))]
        moves.append((_path_prefix(n, index, path), path, moved))
    moves.sort(key=itemgetter(0))
    rows = []
    for prefix, path, moved in moves:
        for ell in range(1, max_len + 1):
            lead = f"{prefix}{ell:02d} "
            for kind in kinds:
                lhs, rhs = base[kind][ell], moved[kind][ell]
                check = Check(n, ell, kind, lhs, rhs, "<=", lhs <= rhs, index, path)
                check._instance = lead + kind
                rows.append(check)
    return rows


def verify_kc_monotone(max_n: int, max_len: int, kind: str = "closed", emit=None) -> VerificationReport:
    """Counts of the given kind ('closed', 'all', or 'both') must never
    decrease under any single end-to-end path move, over every tree up to
    max_n and every bare path.  'both' checks the two kinds in one pass.
    Each class's profiles are computed once, in its order's table; one
    block of checks per tree goes to ``emit`` (see ``_stream``)."""
    from .generate import enumerate_free_trees, leaf_rooted
    from .walks import closed_walk_profile, walk_profile

    if kind not in ("closed", "all", "both"):
        raise ValueError(f"kind must be 'closed', 'all' or 'both', got {kind!r}")
    _require_max_n(max_n, 2)
    _require("max_len", max_len, 1)
    kernels = {"closed": closed_walk_profile, "all": walk_profile}
    kinds = tuple(kernels) if kind == "both" else (kind,)
    report = VerificationReport(scope={"max_n": max_n, "max_len": max_len, "kind": kind})

    def blocks():
        for n in range(2, max_n + 1):
            trees = enumerate_free_trees(n)
            # the enumeration sorted its trees by code, so each code here is
            # a cache hit
            table = {canonical_code(t): {k: kernels[k](t, max_len) for k in kinds} for t in trees}
            # leaf_rooted only relabels, so a tree's profiles are its class's
            for index, (t, base) in enumerate(zip(trees, table.values())):
                yield _kc_monotone_rows(leaf_rooted(t), index, base, table, max_len, kinds)

    return _stream(report, blocks(), emit)


# ---------------------------------------------------------------------------
# Word-map injections

# the scope entry of every injection report: all four check families run
_INJECTION_SCOPE = "f,g,h,lemmas"


def verify_injections(max_n: int, max_len: int, workers: int = 1, emit=None) -> VerificationReport:
    """Exhaustively check injectivity, validity, length- and
    type-preservation of the word maps over every context from trees up to
    max_n, plus the endpoint-swap counting inequalities.  The per-tree
    worker lives in ``injections``, which this imports only here, so the
    other sweeps never load the word layer.  Each tree carries the labels
    ``enumerate`` prints (``leaf_rooted``), since the checks name its
    vertices; one block of checks per tree goes to ``emit``."""
    from .generate import enumerate_free_trees, leaf_rooted
    from .injections import injection_rows

    _require_max_n(max_n, 2)
    _require("max_len", max_len, 1)
    _require("workers", workers, 1)
    report = VerificationReport(
        scope={"max_n": max_n, "max_len": max_len, "suites": _INJECTION_SCOPE}
    )
    jobs = (
        (leaf_rooted(t), index, max_len)
        for n in range(2, max_n + 1)
        for index, t in enumerate(enumerate_free_trees(n))
    )
    return _stream(report, _pmap(injection_rows, jobs, workers), emit)


# ---------------------------------------------------------------------------
# The distance-sum counterexample


class CounterexampleResult:
    """Exact comparison of a broom against the balanced double broom of the
    same order: distance sums, closed-walk counts at twice the length, and
    total walk counts at the length.  ``__slots__`` names the fields."""

    __slots__ = (
        "c", "k", "ell", "wiener_broom", "wiener_double",
        "closed_broom", "closed_double", "total_broom", "total_double",
    )

    def __init__(
        self, c: Fraction, k: int, ell: int, wiener_broom: int, wiener_double: int,
        closed_broom: int, closed_double: int, total_broom: int, total_double: int,
    ) -> None:
        self.c, self.k, self.ell = c, k, ell
        self.wiener_broom, self.wiener_double = wiener_broom, wiener_double
        self.closed_broom, self.closed_double = closed_broom, closed_double
        self.total_broom, self.total_double = total_broom, total_double

    @property
    def verdict(self) -> bool:
        return (
            self.wiener_broom > self.wiener_double
            and self.closed_broom > self.closed_double
        )


def build_counterexample(c, k: int, ell: int) -> CounterexampleResult:
    """Build the broom with (2-c)k path edges and ck leaves and the double
    broom on a k-edge path, both on 2k+1 vertices, and compare exactly.

    c is taken as an exact rational; ck, (2-c)k and k/2 must be integers.
    """
    from fractions import Fraction

    from .generate import broom, double_broom_walks
    from .walks import count_closed_walks, count_walks, wiener

    c = Fraction(c)
    if ell < 2:
        raise ValueError("ell must be >= 2")
    leaves = c * k
    handle = (2 - c) * k
    if leaves.denominator != 1 or handle.denominator != 1 or k % 2 != 0:
        raise ValueError(
            f"c={c} and k={k} must make ck, (2-c)k and k/2 all integral"
        )
    t1 = broom(int(handle), int(leaves))
    t2 = double_broom_walks(k)
    return CounterexampleResult(
        c=c,
        k=k,
        ell=ell,
        wiener_broom=wiener(t1),
        wiener_double=wiener(t2),
        closed_broom=count_closed_walks(t1, 2 * ell),
        closed_double=count_closed_walks(t2, 2 * ell),
        total_broom=count_walks(t1, ell),
        total_double=count_walks(t2, ell),
    )


# ---------------------------------------------------------------------------
# Fixed-length path extremality


def verify_path_extremal(max_n: int, ell: int, emit=None) -> VerificationReport:
    """For each n <= max_n the maximum count of length-ell paths over the
    enumerated trees must equal the best ``broom_paths_exact`` over ``_legs``
    (even ell; the star at ell = 2) or the balanced double-broom formula
    (odd ell).  One block of checks per n goes to ``emit`` (see ``_stream``)."""
    from .generate import enumerate_free_trees
    from .walks import count_ell_paths

    _require("ell", ell, 2)
    _require_max_n(max_n, 1)
    report = VerificationReport(scope={"max_n": max_n, "ell": ell})

    def blocks():
        for n in range(1, max_n + 1):
            trees = enumerate_free_trees(n)
            values = {canonical_code(t): count_ell_paths(t, ell) for t in trees}
            vmax = max(values.values())
            argmax = sorted(c for c, v in values.items() if v == vmax)
            base = f"n={n:02d} len={ell:02d}"
            report.extremal_witnesses[base] = {"max": argmax, "value": vmax}
            if ell % 2 == 0:
                best = max((broom_paths_exact(n, ell, p) for p in _legs(n, ell)), default=0)
                rule = "star-formula" if ell == 2 else "broom-max"
                yield [Check(n, ell, rule, vmax, best, "==", vmax == best)]
            else:
                extra = max(n - ell + 1, 0)
                expect = (extra // 2) * (extra - extra // 2)
                checks = [Check(n, ell, "double-broom-max", vmax, expect, "==", vmax == expect)]
                if ell == 3:
                    expect3 = (n - 2) ** 2 // 4 if n >= 2 else 0
                    checks.append(
                        Check(n, ell, "square-formula", vmax, expect3, "==", vmax == expect3)
                    )
                yield checks

    return _stream(report, blocks(), emit)


# ---------------------------------------------------------------------------
# Multi-broom optimization


def _legs(n: int, ell: int) -> range:
    """The feasible leg counts p of a p-broom of order n, even ell >= 2 (the
    star at 2): each leg takes (ell-2)/2 path vertices and at least one leaf."""
    return range(1, (n - 1) // ((ell - 2) // 2 + 1) + 1)


def broom_paths_exact(n: int, ell: int, p: int) -> int:
    """Exact count of length-ell paths in the balanced p-legged broom:
    pairs of leaves on different legs, with leaf counts as equal as
    possible."""
    half = (ell - 2) // 2
    total = n - 1 - p * half
    if total < p:
        raise ValueError(f"p={p} infeasible for n={n}, ell={ell}")
    base, rem = divmod(total, p)
    sizes = [base + 1] * rem + [base] * (p - rem)
    return (total * total - sum(s * s for s in sizes)) // 2


class BroomProfile:
    """The exact path counts of the balanced p-brooms of order n at length
    ell, as (p, count) rows, and the best p.  ``__slots__`` names the
    fields."""

    __slots__ = ("n", "ell", "rows", "argmax_p", "best", "p_opt")

    def __init__(self, n: int, ell: int, rows: tuple, argmax_p: int, best: int, p_opt: float) -> None:
        self.n, self.ell, self.rows = n, ell, rows
        self.argmax_p, self.best, self.p_opt = argmax_p, best, p_opt


def _stationary_sign(r: Fraction, m) -> int:
    """Sign of (1/4 + sqrt(r)) - m, decided exactly (r >= 0)."""
    from fractions import Fraction

    d = m - Fraction(1, 4)
    if d < 0:
        return 1
    return (r > d * d) - (r < d * d)


def broom_profile(n: int, ell: int) -> BroomProfile:
    """Exact path counts of every feasible balanced p-broom, the optimal p,
    and the real-valued stationary point 1/4 + sqrt(1/16 + (n-1)/(ell-2)).

    Among the maximizing p, the one closest to the stationary point wins
    (the smaller on a tie).  The integer argmax always lies within 1 of the
    stationary point; a drift raises ValueError.  Both decisions compare
    squared rationals exactly; the float ``p_opt`` is for display only."""
    from fractions import Fraction
    from math import sqrt

    if ell < 4 or ell % 2 != 0:
        raise ValueError("broom profile needs even ell >= 4")
    rows = [(p, broom_paths_exact(n, ell, p)) for p in _legs(n, ell)]
    if not rows:
        raise ValueError(f"no feasible leg count for n={n}, ell={ell}")
    best = max(v for _, v in rows)
    r = Fraction(1, 16) + Fraction(n - 1, ell - 2)
    p_opt = 0.25 + sqrt(1.0 / 16.0 + (n - 1) / (ell - 2))
    argmax_p = None
    for p, v in rows:
        # p beats a smaller argmax_p iff the stationary point lies past
        # their midpoint
        if v == best and (argmax_p is None or _stationary_sign(r, Fraction(argmax_p + p, 2)) > 0):
            argmax_p = p
    if _stationary_sign(r, argmax_p - 1) < 0 or _stationary_sign(r, argmax_p + 1) > 0:
        raise ValueError(
            f"argmax {argmax_p} drifted from stationary point {p_opt}"
        )
    return BroomProfile(
        n=n, ell=ell, rows=tuple(rows), argmax_p=argmax_p, best=best, p_opt=p_opt
    )


# ---------------------------------------------------------------------------
# Greedy delete-clone reduction


def _first_pair(t: Tree, test) -> tuple[int, int] | None:
    """The first ordered pair (v, w) of distinct leaves, smallest v first and
    then smallest w, that passes ``test(v, w)``; None if none does."""
    leaves = t.leaves()
    for v in leaves:
        for w in leaves:
            if v != w and test(v, w):
                return v, w
    return None


def _leaf_distances(t: Tree) -> dict[int, list[int]]:
    """The BFS distance row of every leaf: one BFS per leaf."""
    return {v: distances_from(t, v) for v in t.leaves()}


def _improve_valency(t: Tree, ell: int, dist: dict, r: dict) -> Tree | None:
    """One strict improvement: remove the leaf with smaller distance-ell
    valency in favor of a clone of the larger, over pairs at distance
    other than ell, smallest pair first."""
    pair = _first_pair(t, lambda v, w: dist[v][w] != ell and r[v] < r[w])
    return None if pair is None else dc_transform(t, *pair)


def _shrink_diameter(t: Tree, ell: int, dist: dict, r: dict) -> Tree | None:
    """Replace everything beyond distance ell from a leaf (along a too-long
    leaf pair) with clones of that leaf, one delete-clone at a time."""
    pair = _first_pair(t, lambda v, w: v < w and dist[v][w] > ell)
    if pair is None:
        return None
    v, w = pair
    path = tree_path(t, v, w)
    vprime = path[ell]
    beyond = set(_branch(t, vprime, path[ell - 1])) - {vprime}
    return _clone_onto(t, beyond, v, ell, r)


def _merge_leaf_classes(t: Tree, ell: int, dist: dict, r: dict) -> Tree | None:
    """Merge the sibling class of one leaf onto another leaf at distance
    strictly between 2 and ell, preserving counts (valencies are equal at
    this point in the reduction)."""
    pair = _first_pair(t, lambda v, w: 2 < dist[v][w] < ell)
    if pair is None:
        return None
    v, w = pair
    parent_v = t.neighbors(v)[0]
    siblings = {u for u in t.neighbors(parent_v) if t.degree(u) == 1}
    return _clone_onto(t, siblings, w, ell, r)


def _clone_onto(t: Tree, movable: set, target: int, ell: int, r: dict) -> Tree | None:
    """Clone leaf ``target`` over the smallest leaf of ``movable``, one
    delete-clone at a time, until ``movable`` is empty or its next leaf has
    the larger distance-ell valency (the valency phase takes that move).
    Valencies come from the step's table ``r`` until the first move, then
    by BFS; None if nothing moved."""
    cur = t
    while movable:
        u = min(x for x in movable if cur.degree(x) == 1)
        if cur is t:
            ru, rt = r[u], r[target]
        else:
            ru, rt = valency(cur, u, ell).r, valency(cur, target, ell).r
        if ru > rt:
            break
        cur = dc_transform(cur, u, target)
        movable.discard(u)
    return None if cur is t else cur


def dc_reduce_trace(t: Tree, ell: int) -> list[Tree]:
    """All intermediate trees of the greedy delete-clone reduction,
    starting with the input.  Every executed move keeps the length-ell
    path count from decreasing.

    Each step runs one BFS per leaf of the current tree and reads every
    leaf-leaf distance and leaf valency from that table; only
    ``_clone_onto``, the move loop of diameter shrinking and class merging,
    runs BFS on the trees it produces (two per executed move)."""
    if ell < 3:
        raise ValueError("reduction needs ell >= 3")
    trace = [t]
    cur = t
    guard = 0
    limit = 200 + 20 * t.n * t.n
    while True:
        guard += 1
        if guard > limit:
            raise RuntimeError("delete-clone reduction did not converge")
        dist = _leaf_distances(cur)
        r = {v: row.count(ell) for v, row in dist.items()}
        nxt = (
            _improve_valency(cur, ell, dist, r)
            or _shrink_diameter(cur, ell, dist, r)
            or _merge_leaf_classes(cur, ell, dist, r)
        )
        if nxt is None:
            return trace
        trace.append(nxt)
        cur = nxt


def dc_reduce(t: Tree, ell: int) -> Tree:
    """Greedy delete-clone reduction: strict valency improvements first,
    then diameter shrinking, then sibling-class merging, until no move
    applies.  The length-ell path count never decreases."""
    return dc_reduce_trace(t, ell)[-1]


def is_p_broom(t: Tree, ell: int) -> bool:
    """Whether some vertex splits the tree into legs: chains of (ell-2)/2
    vertices with extra leaves allowed only at the chain ends.  Legs with
    empty leaf stars are accepted."""
    if ell < 4 or ell % 2 != 0:
        raise ValueError("p-broom shape needs even ell >= 4")
    half = (ell - 2) // 2
    for c in range(t.n):
        if all(_is_leg(t, c, nb, half) for nb in t.neighbors(c)):
            return True
    return False


def _is_leg(t: Tree, center: int, nb: int, half: int) -> bool:
    prev, cur = center, nb
    for _ in range(half - 1):
        nxt = [x for x in t.neighbors(cur) if x != prev]
        if len(nxt) != 1:
            return False
        prev, cur = cur, nxt[0]
    return all(t.degree(x) == 1 for x in t.neighbors(cur) if x != prev)


def is_double_broom(t: Tree, ell: int) -> bool:
    """Whether the tree is a spine of ell-2 edges with every remaining
    vertex a leaf on one of the spine ends: whether it is isomorphic to
    ``generate._double_broom(ell-2, lo, hi)`` for some lo <= hi.  That tree
    has largest degree hi+1 when hi >= 2; otherwise no degree is above 2
    and lo, hi is the even split.  So t's largest degree names the one
    split to test."""
    from .generate import _double_broom

    if ell < 3:
        raise ValueError("double-broom shape needs ell >= 3")
    extra = t.n - ell + 1
    top = max(map(len, t.adjacency))
    hi = top - 1 if top > 2 else extra - extra // 2
    lo = extra - hi
    return 0 <= lo <= hi and is_isomorphic(t, _double_broom(ell - 2, lo, hi))
