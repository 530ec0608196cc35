import gc
import hashlib
import random
from decimal import Decimal, localcontext
from math import comb

import pytest

from treewalks import transforms, trees, verify, words
from treewalks.generate import (
    MAX_FREE_TREE_N,
    double_broom_paths,
    enumerate_free_trees,
    from_pruefer,
    leaf_rooted,
    p_broom,
    path_tree,
    star_tree,
)
from treewalks.transforms import dc_transform, valency
from treewalks.trees import canonical_code, distance, format_tree_text, tree, tree_path
from treewalks.verify import (
    Check,
    VerificationReport,
    broom_profile,
    dc_reduce,
    dc_reduce_trace,
    is_double_broom,
    is_p_broom,
    report_to_summary,
    verify_closed_extremal,
    verify_injections,
    verify_kc_monotone,
    verify_path_extremal,
)
from treewalks.walks import closed_walk_profile, count_ell_paths, walk_profile

from conftest import A000055


class TestCheckRecords:
    def test_instance_forms(self):
        whole = Check(7, 4, "star-max", 1, 1, "==", True)
        per_tree = Check(7, 4, "h-inject", 3, 3, "==", True, tree=12, path=(10, 2, 3))
        assert whole.instance == "n=07 len=04 star-max"
        assert per_tree.instance == "n=07 t=012 path=10-2-3 len=04 h-inject"
        assert per_tree == Check(7, 4, "h-inject", 3, 3, "==", True, tree=12, path=(10, 2, 3))

    def test_index_width_past_twelve(self):
        def per_tree(n, index):
            return Check(n, 2, "closed", 1, 1, "<=", True, tree=index, path=(0, 1))

        assert per_tree(13, 1000).instance == "n=13 t=1000 path=0-1 len=02 closed"
        assert per_tree(16, 7).instance == "n=16 t=00007 path=0-1 len=02 closed"
        for n in range(2, MAX_FREE_TREE_N + 1):
            indices = sorted({0, 9, 10, 99, 100, 999, 1000, 9999, 10000, A000055[n] - 1})
            names = [per_tree(n, i).instance for i in indices if i < A000055[n]]
            assert names == sorted(names)
            assert len({len(name) for name in names}) == 1

    def test_summary_groups_checks_by_cell(self):
        cell = {"tree": 1, "path": (0, 1)}
        report = VerificationReport(
            scope={},
            checks=[
                Check(4, 2, "f-closed-inject", 2, 2, "==", True, **cell),
                Check(4, 2, "h-inject", 6, 6, "==", True, **cell),
                Check(4, 3, "h-inject", 5, 4, "==", False, **cell),
                Check(4, 3, "lemma-odd", 1, 0, "<=", False, **cell),
            ],
        )
        assert report_to_summary(report) == (
            "tree,path,len,domain,image,violations\n"
            "04/001,0-1,2,6,6,0\n"
            "04/001,0-1,3,5,4,2\n"
        )
        # a report built from a list of checks counts them
        assert (report.count, report.violations, report.ok) == (4, report.checks[2:], False)


def _profile_table(n, max_len):
    """The kc-monotone sweep's table for order n: both profiles of every
    class, keyed by canonical code."""
    return {
        canonical_code(t): {"closed": closed_walk_profile(t, max_len), "all": walk_profile(t, max_len)}
        for t in enumerate_free_trees(n)
    }


class TestKcMonotone:
    def test_both_is_sorted_union_of_kinds(self):
        closed = verify_kc_monotone(7, 6, kind="closed")
        walks = verify_kc_monotone(7, 6, kind="all")
        both = verify_kc_monotone(7, 6, kind="both")
        union = sorted(closed.checks + walks.checks, key=lambda c: c.instance)
        assert both.checks == union
        assert both.scope == {"max_n": 7, "max_len": 6, "kind": "both"}
        assert both.ok

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            verify_kc_monotone(4, 2, kind="open")

    def test_codes_only_moved_trees(self, monkeypatch):
        # the base tree's profiles are passed in, and a move along a path
        # with a leaf end gives a tree isomorphic to the base; only the
        # other moved trees are keyed by canonical code
        table = _profile_table(8, 4)
        coded = []
        monkeypatch.setattr(
            verify, "canonical_code", lambda t: coded.append(t) or canonical_code(t)
        )
        for t in map(leaf_rooted, enumerate_free_trees(8)):
            coded.clear()
            base = table[canonical_code(t)]
            verify._kc_monotone_rows(t, 0, base, table, 4, ("closed", "all"))
            proper = []
            for bp in transforms.bare_paths(t):
                moved = transforms._kc_along(t, bp.vertices)
                if t.degree(bp.vertices[0]) == 1 or t.degree(bp.vertices[-1]) == 1:
                    assert canonical_code(moved) == canonical_code(t)
                else:
                    proper.append(moved.edges)
            assert all(c is not t for c in coded)
            assert [c.edges for c in coded] == proper

    def test_one_profile_per_class(self, monkeypatch):
        # one profile table per order, keyed by canonical code: each kernel
        # runs once per free tree of order 2..10, and the table does not
        # outlive its sweep
        from treewalks import walks

        calls = {"closed": 0, "all": 0}

        def counted(kind, kernel):
            def profile(t, max_len):
                calls[kind] += 1
                return kernel(t, max_len)

            return profile

        monkeypatch.setattr(walks, "closed_walk_profile", counted("closed", walks.closed_walk_profile))
        monkeypatch.setattr(walks, "walk_profile", counted("all", walks.walk_profile))
        classes = sum(A000055[2:11])
        assert classes == 200
        for sweeps in (1, 2):
            assert verify_kc_monotone(10, 8, "both").ok
            assert calls == {"closed": sweeps * classes, "all": sweeps * classes}

    @pytest.mark.parametrize("n", [11, 12])
    def test_rows_come_in_report_order(self, n):
        # every row's preset instance is the one Check renders, and the rows
        # of a tree are already in instance order, two-digit vertices too
        table = _profile_table(n, 3)
        for index, t in list(enumerate(enumerate_free_trees(n)))[::17]:
            base = table[canonical_code(t)]
            rows = verify._kc_monotone_rows(leaf_rooted(t), index, base, table, 3, ("closed", "all"))
            fresh = [
                Check(c.n, c.ell, c.name, c.lhs, c.rhs, c.relation, c.passed, c.tree, c.path)
                for c in rows
            ]
            assert [c.instance for c in rows] == [c.instance for c in fresh]
            assert [c.instance for c in rows] == sorted(c.instance for c in rows)


# ---------------------------------------------------------------------------
# Greedy delete-clone reduction


def _oracle_pairs(t):
    leaves = t.leaves()
    return [(v, w) for v in leaves for w in leaves if v != w]


def _oracle_improve(t, ell):
    for v, w in _oracle_pairs(t):
        if distance(t, v, w) == ell:
            continue
        if valency(t, v, ell).r < valency(t, w, ell).r:
            return dc_transform(t, v, w)
    return None


def _oracle_shrink(t, ell):
    target = None
    for v, w in _oracle_pairs(t):
        if v < w and distance(t, v, w) > ell:
            target = (v, w)
            break
    if target is None:
        return None
    v, w = target
    path = tree_path(t, v, w)
    vprime = path[ell]
    on_v_side = path[ell - 1]
    beyond = set()
    stack = [x for x in t.neighbors(vprime) if x != on_v_side]
    seen = set(stack) | {vprime, on_v_side}
    while stack:
        x = stack.pop()
        beyond.add(x)
        for y in t.adjacency[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    cur = t
    moved = False
    while beyond:
        u = min(x for x in beyond if cur.degree(x) == 1)
        if valency(cur, u, ell).r > valency(cur, v, ell).r:
            break
        cur = dc_transform(cur, u, v)
        beyond.discard(u)
        moved = True
    return cur if moved else None


def _oracle_merge(t, ell):
    target = None
    for v, w in _oracle_pairs(t):
        if 2 < distance(t, v, w) < ell:
            target = (v, w)
            break
    if target is None:
        return None
    v, w = target
    parent_v = t.neighbors(v)[0]
    siblings = sorted(u for u in t.neighbors(parent_v) if t.degree(u) == 1)
    cur = t
    moved = False
    for u in siblings:
        if valency(cur, u, ell).r > valency(cur, w, ell).r:
            break
        cur = dc_transform(cur, u, w)
        moved = True
    return cur if moved else None


def oracle_dc_trace(t, ell):
    """The reduction as it was before the per-step leaf-distance table: one
    BFS per distance and per valency read, pair by pair."""
    trace = [t]
    while True:
        nxt = _oracle_improve(t, ell) or _oracle_shrink(t, ell) or _oracle_merge(t, ell)
        if nxt is None:
            return trace
        trace.append(nxt)
        t = nxt


def _random_tree(rng, n):
    return from_pruefer([rng.randrange(n) for _ in range(n - 2)], n)


# the n = 36 input of the big-trees benchmark at seed 0 (15 leaves)
PRUEFER_36 = [
    28, 6, 21, 15, 25, 2, 5, 7, 12, 16, 11, 19, 11, 9, 28, 3, 15,
    35, 9, 34, 19, 11, 31, 14, 16, 33, 7, 27, 27, 19, 13, 27, 12, 27,
]


DC_TRACE_DIGEST = "cc794f0805fca0e6737630c1d4870965a4957539bb6e784d619c7565613a7c65"


class TestDcReduce:
    CASES = [(seed, 3 + seed % 4) for seed in range(48)]

    @pytest.mark.parametrize("seed,ell", CASES)
    def test_trace_matches_pairwise_oracle(self, seed, ell):
        rng = random.Random(seed)
        t = _random_tree(rng, rng.randint(5, 30))
        assert dc_reduce_trace(t, ell) == oracle_dc_trace(t, ell)

    @pytest.mark.parametrize("seed,ell", CASES)
    def test_path_count_never_decreases(self, seed, ell):
        rng = random.Random(seed)
        t = _random_tree(rng, rng.randint(5, 30))
        counts = [count_ell_paths(x, ell) for x in dc_reduce_trace(t, ell)]
        assert counts == sorted(counts)

    def test_fixed_tree_uses_count_keeping_moves(self):
        t = from_pruefer(PRUEFER_36, 36)
        trace = dc_reduce_trace(t, 5)
        assert trace == oracle_dc_trace(t, 5)
        counts = [count_ell_paths(x, 5) for x in trace]
        # shrink and merge moves keep the count; valency moves raise it
        assert counts[0] < counts[-1]
        assert any(a == b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("ell", [4, 5])
    def test_bfs_runs_per_step(self, ell, monkeypatch):
        events = []
        real_bfs = trees.distances_from
        real_table = verify._leaf_distances
        real_dc = verify.dc_transform

        def bfs(t, source):
            events.append("bfs")
            return real_bfs(t, source)

        def table(t):
            events.append(("step", len(t.leaves())))
            return real_table(t)

        def dc(t, v, w):
            events.append("move")
            return real_dc(t, v, w)

        for module in (trees, transforms, verify):
            monkeypatch.setattr(module, "distances_from", bfs)
        monkeypatch.setattr(verify, "_leaf_distances", table)
        monkeypatch.setattr(verify, "dc_transform", dc)
        trace = dc_reduce_trace(from_pruefer(PRUEFER_36, 36), ell)
        steps = []
        for event in events:
            if isinstance(event, tuple):
                steps.append({"leaves": event[1], "bfs": 0, "move": 0})
            else:
                steps[-1][event] += 1
        assert len(steps) == len(trace)
        for step in steps:
            assert step["bfs"] <= step["leaves"] + 2 * step["move"]

    def test_rejects_short_length(self):
        with pytest.raises(ValueError, match="ell >= 3"):
            dc_reduce_trace(from_pruefer(PRUEFER_36, 36), 2)

    def test_a_reduction_that_never_settles_raises(self, monkeypatch):
        # a valency phase that always "moves" to a fresh copy of its tree
        # never reaches a tree with no move, so the step guard stops it
        monkeypatch.setattr(verify, "_improve_valency", lambda t, ell, dist, r: tree(t.n, t.edges))
        with pytest.raises(RuntimeError, match="^delete-clone reduction did not converge$"):
            dc_reduce_trace(path_tree(5), 3)

    def test_trace_digest(self):
        # sha256 over the traces of 300 seeded random trees, n = 5..30 and
        # ell = 3..8 (2,820 moves); in two of them (seeds 150 and 173) the
        # diameter shrink stops at a leaf of larger valency
        digest = hashlib.sha256()
        for seed in range(300):
            rng = random.Random(seed)
            n, ell = rng.randint(5, 30), rng.randint(3, 8)
            digest.update(f"{ell}\n".encode())
            for t in dc_reduce_trace(_random_tree(rng, n), ell):
                digest.update(format_tree_text(t).encode())
        assert digest.hexdigest() == DC_TRACE_DIGEST


# ---------------------------------------------------------------------------
# Extremal shapes of the path count: p-brooms (even length) and double brooms
# (odd length)

# sha256 over "n,index,labelling,ell" of the cases is_double_broom accepts in
# test_double_broom_acceptance_digest, recorded with the spine-end search
# that is_double_broom ran before it tested isomorphism to a double broom
DOUBLE_BROOM_DIGEST = "c1b8868c05cf438525230247047dcf2cf0afdbdb5af6f3aa4087011dddf81366"


class TestBroomShapes:
    @pytest.mark.parametrize("ell", [4, 6, 8])
    def test_every_feasible_p_broom_is_one(self, ell):
        half = (ell - 2) // 2
        built = 0
        for n in range(1, 30):
            for p in range(1, n):
                if n - 1 - p * half >= p:
                    assert is_p_broom(p_broom(n, ell, p), ell), (n, p)
                    built += 1
        assert built

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_every_double_broom_is_one(self, ell):
        for n in range(ell - 1, 30):
            assert is_double_broom(double_broom_paths(n, ell), ell), n

    def test_double_broom_acceptance_digest(self):
        # every free tree n <= 12, as enumerated and as leaf_rooted, at
        # ell = 3..n+2
        digest = hashlib.sha256()
        cases = accepted = 0
        for n in range(1, 13):
            for i, t in enumerate(enumerate_free_trees(n)):
                for label, u in (("enum", t), ("leaf", leaf_rooted(t))):
                    for ell in range(3, n + 3):
                        cases += 1
                        if is_double_broom(u, ell):
                            accepted += 1
                            digest.update(f"{n},{i},{label},{ell}\n".encode())
        assert (cases, accepted) == (22012, 322)
        assert digest.hexdigest() == DOUBLE_BROOM_DIGEST

    def test_other_shapes_are_rejected(self):
        assert not is_p_broom(path_tree(9), 4)
        assert not is_double_broom(star_tree(6), 5)
        assert not is_p_broom(star_tree(6), 6)
        # a leaf hung in the middle of a leg, or of the spine
        assert not is_p_broom(tree(6, [(0, 1), (1, 2), (0, 3), (3, 4), (1, 5)]), 6)
        assert not is_double_broom(tree(5, [(0, 1), (1, 2), (2, 3), (1, 4)]), 5)

    def test_double_broom_tests_one_candidate(self):
        # the largest degree names the split, so one call computes at most
        # the codes of the tree and of one candidate; testing every split
        # computed 100 on this tree
        rng = random.Random(5)
        t = from_pruefer([rng.randrange(200) for _ in range(198)], 200)
        before = canonical_code.cache_info().misses
        assert not is_double_broom(t, 5)
        assert canonical_code.cache_info().misses - before <= 2

    def test_double_broom_matches_every_split_search(self):
        # oracle: isomorphism to the double broom of some split, every
        # split tried, on relabelled double brooms and random trees
        from treewalks.generate import _double_broom

        def every_split(t, ell):
            extra = t.n - ell + 1
            return any(
                trees.is_isomorphic(t, _double_broom(ell - 2, a, extra - a))
                for a in range(extra // 2 + 1)
            )

        rng = random.Random(26)
        cases = accepted = 0
        for _ in range(400):
            spine = rng.randrange(1, 12)
            lo, hi = rng.randrange(0, 8), rng.randrange(0, 8)
            built = _double_broom(spine, lo, hi)
            labels = list(range(built.n))
            rng.shuffle(labels)
            relabelled = tree(built.n, [(labels[u], labels[v]) for u, v in built.edges])
            n = built.n
            drawn = from_pruefer([rng.randrange(n) for _ in range(n - 2)], n) if n > 2 else built
            for t in (relabelled, drawn):
                for ell in range(3, n + 3):
                    expected = every_split(t, ell)
                    assert is_double_broom(t, ell) == expected, (sorted(t.edges), ell)
                    cases += 1
                    accepted += expected
        assert (cases, accepted) == (11184, 672)

    @pytest.mark.parametrize("ell", [3, 4, 5, 6])
    def test_dc_reduction_ends_in_the_extremal_shape(self, ell):
        shape = is_double_broom if ell % 2 else is_p_broom
        reduced = 0
        for n in range(1, 11):
            for t in enumerate_free_trees(n):
                if count_ell_paths(t, ell):
                    assert shape(dc_reduce(t, ell), ell), (n, canonical_code(t))
                    reduced += 1
        assert reduced == REDUCTIONS_UP_TO_10[ell]


# trees with n <= 10 and a length-ell path, per ell: 558 reductions in all
REDUCTIONS_UP_TO_10 = {3: 191, 4: 175, 5: 124, 6: 68}


# ---------------------------------------------------------------------------
# Injection checks: the sweep runs every check family of the word maps

SUITE_CHECKS = {
    "f": {"f-closed-inject", "f-general-inject"},
    "g": {"g-even-involution", "g-odd-involution", "g-total-inject"},
    "h": {"h-inject", "word-count-monotone"},
    "lemmas": {"lemma-even", "lemma-odd", "corollary-total"},
}


def _check_name(check):
    return check.name


@pytest.fixture(scope="module")
def full_injections():
    return verify_injections(6, 4)


class TestInjectionSuites:
    def test_full_run_has_every_suite_check(self, full_injections):
        names = {_check_name(c) for c in full_injections.checks}
        assert names == set().union(*SUITE_CHECKS.values())

    def test_type_table_serves_the_full_run(self, monkeypatch):
        # the sweep types every domain word and image from the word sets
        calls = []
        real = words.classify
        monkeypatch.setattr(words, "classify", lambda word: calls.append(word) or real(word))
        verify_injections(5, 3)
        assert calls == []

    def test_h_check_tests_images_that_differ_from_the_f_image(self, monkeypatch):
        # the h check reuses an f-general verdict only for the same (word,
        # image) pair; here every all-c1 word, an f-general word, has an
        # h-image one letter short of its f-image, which must fail h-inject
        from treewalks import injections

        real = injections.h_map

        def h_map(ctx, word):
            image = real(ctx, word)
            return image[:-1] if set(word) == {("c", 1)} else image

        monkeypatch.setattr(injections, "h_map", h_map)
        report = verify_injections(5, 3)
        h_checks = [c for c in report.checks if c.name == "h-inject"]
        assert h_checks and not any(c.passed for c in h_checks)
        assert all(c.lhs == c.rhs for c in h_checks)  # still injective
        assert all(c.passed for c in report.checks if c.name.startswith("f-"))

    def test_f_closed_check_needs_a_closed_image(self, monkeypatch):
        # c1 c1 is mapped once for both f domains; here, on paths of length
        # >= 2, it goes to c1 c2, an open T'-word of its length and type, so
        # only the closedness test of the f-closed check can reject it
        from treewalks import injections

        real = injections.f_map
        bounce, bent = (("c", 1), ("c", 1)), (("c", 1), ("c", 2))

        def f_map(ctx, word):
            return bent if word == bounce and ctx.k >= 2 else real(ctx, word)

        monkeypatch.setattr(injections, "f_map", f_map)
        report = verify_injections(5, 2)
        closed_checks = [c for c in report.checks if c.name == "f-closed-inject"]
        bent_checks = [c for c in closed_checks if c.ell == 2 and len(c.path) >= 3]
        assert bent_checks and not any(c.passed for c in bent_checks)
        assert all(c.lhs == c.rhs for c in bent_checks)  # still injective
        assert all(c.passed for c in closed_checks if c not in bent_checks)

    def test_sweep_path_image_digest(self, monkeypatch):
        # sha256 of the set of (tree, path, length, map, word, image) the
        # sweep itself computes at n <= 6, l <= 5, recorded before the sweep
        # mapped each word once.  A set, so that mapping a word once instead
        # of twice leaves it unchanged; stdout sees only domain and image
        # sizes, so this is what catches images that change but stay
        # injective on the sweep's own path.
        from treewalks import injections

        seen = set()

        def recording(name, real):
            def mapped(ctx, word, *args, **kwargs):
                image = real(ctx, word, *args, **kwargs)
                head = (str(sorted(ctx.tree.edges)), ctx.path, len(word), name)
                seen.add((*head, words.word_to_str(word), words.word_to_str(image)))
                return image

            return mapped

        for name in ("f_map", "h_map", "g_even", "g_odd", "g_total"):
            monkeypatch.setattr(injections, name, recording(name, getattr(injections, name)))
        assert verify_injections(6, 5).ok
        lines = "".join(f"{row}\n" for row in sorted(seen))
        assert hashlib.sha256(lines.encode()).hexdigest() == SWEEP_IMAGE_DIGEST

    def test_each_f_domain_word_is_mapped_once(self, monkeypatch):
        # closed T0/T11/T12 words sit in both f domains but are mapped once
        from treewalks import injections

        calls = []
        real = injections.f_map
        monkeypatch.setattr(injections, "f_map", lambda *a, **k: calls.append(1) or real(*a, **k))
        assert verify_injections(6, 4).ok
        assert len(calls) == 8054

    def test_no_words_of_search_per_length(self, monkeypatch):
        # the per-start word sets come from the word growth that serves
        # word_sets, not from one words_of DFS per (start, part, length)
        from treewalks import injections

        calls = []
        real = words.words_of
        for module in (words, injections):
            if hasattr(module, "words_of"):
                monkeypatch.setattr(module, "words_of", lambda *a, **k: calls.append(1) or real(*a, **k))
        assert verify_injections(6, 4).ok
        assert calls == []


SWEEP_IMAGE_DIGEST = "14872bf459ceb51b667b21e51216979fb2b3d085bad78ce7a3b930f8f9d0cfd1"


# Broken word maps for the sweep's failure branches, each patched where the
# sweep calls it.  The maps inside words (h_map's own f_map and g_total)
# stay whole, so each breaks only the check of the map it replaces.
def _f_map_undecodable(monkeypatch):
    # open T11 words go to a word of their length that no T' walk spells
    from treewalks import injections

    real = injections.f_map

    def f_map(ctx, word):
        walk = words.decode_word(ctx, word, words.HOST_T)[0]
        if walk[0] != walk[-1] and words.classify(word) is words.WordType.T11:
            return (("a", 0),) * len(word)
        return real(ctx, word)

    monkeypatch.setattr(injections, "f_map", f_map)


def _g_total_short(monkeypatch):
    from treewalks import injections

    real = injections.g_total
    monkeypatch.setattr(injections, "g_total", lambda ctx, word: real(ctx, word)[:-1])


def _g_total_without_b(monkeypatch):
    from treewalks import injections

    monkeypatch.setattr(injections, "g_total", lambda ctx, word: (("c", 1),) * len(word))


BROKEN_MAPS = [
    (_f_map_undecodable, "f-general-inject"),
    (_g_total_short, "g-total-inject"),
    (_g_total_without_b, "g-total-inject"),
]


@pytest.mark.parametrize("patch,name", BROKEN_MAPS, ids=[p.__name__[1:] for p, _ in BROKEN_MAPS])
def test_broken_map_fails_its_own_check(patch, name, monkeypatch):
    patch(monkeypatch)
    report = verify_injections(5, 3)
    assert not report.ok
    assert {c.name for c in report.checks if not c.passed} == {name}


class TestCollectorPause:
    """The injection sweep pauses the cyclic garbage collector while a tree's
    word tables live, and leaves it as the caller had it."""

    @pytest.fixture
    def collector(self):
        was = gc.isenabled()
        yield
        if was:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_sweep_leaves_the_collector_as_it_found_it(self, enabled, collector):
        (gc.enable if enabled else gc.disable)()
        verify_injections(6, 4)
        assert gc.isenabled() is enabled

    def test_failing_sweep_restores_the_collector(self, collector, monkeypatch):
        from treewalks import injections

        def broken(ctx, word):
            raise RuntimeError("broken f")

        monkeypatch.setattr(injections, "f_map", broken)
        gc.enable()
        with pytest.raises(RuntimeError, match="broken f"):
            verify_injections(4, 2)
        assert gc.isenabled()

    def test_paused_sweep_leaves_no_cyclic_garbage(self, collector):
        # the word tables hold no reference cycles, so reference counting
        # frees them and the pause costs no memory
        gc.collect()
        gc.disable()
        verify_injections(6, 4)
        assert gc.collect() == 0


class TestWorkerPool:
    """``--workers`` is clamped to the CPU count.  A recording executor
    stands in for the process pool, so these start no process."""

    @pytest.fixture
    def pools(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class Recording:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        return sizes

    def test_workers_clamp_to_cpu_count(self, pools, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert list(verify._pmap(abs, [-1, 2, -3], 5000)) == [1, 2, 3]
        assert pools == [3]

    def test_unknown_cpu_count_runs_in_process(self, pools, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert list(verify._pmap(abs, [-1, 2, -3], 5000)) == [1, 2, 3]
        assert pools == []

    def test_clamped_sweep_matches_one_worker(self, pools, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        wide = verify_injections(4, 3, workers=5000).checks
        assert pools == [2]
        assert wide == verify_injections(4, 3, workers=1).checks


# ---------------------------------------------------------------------------
# Scopes that would check nothing are rejected (see test_cli.py); the
# smallest accepted ones check something


def test_two_path_maxima_match_degree_oracle():
    # a 2-path is a pair of edges at their shared vertex, so a tree has
    # sum_v C(deg v, 2) of them, and the star alone attains C(n - 1, 2)
    report = verify_path_extremal(10, 2)
    assert report.ok
    for n in range(1, 11):
        values = {
            canonical_code(t): sum(comb(t.degree(v), 2) for v in range(n))
            for t in enumerate_free_trees(n)
        }
        best = max(values.values())
        assert best == comb(n - 1, 2)
        assert [c for c, v in values.items() if v == best] == [canonical_code(star_tree(n))]
        witness = report.extremal_witnesses[f"n={n:02d} len=02"]
        assert witness == {"max": [canonical_code(star_tree(n))], "value": best}


# Arguments outside the domain, each with the message it raises.
BAD_ARGUMENTS = [
    ("counterexample ell=1", lambda: verify.build_counterexample("3/5", 20, 1), "ell must be >= 2"),
    ("broom_paths_exact p=3", lambda: verify.broom_paths_exact(4, 4, 3), "p=3 infeasible for n=4, ell=4"),
    ("broom_profile n=2", lambda: broom_profile(2, 4), "no feasible leg count for n=2, ell=4"),
    ("is_p_broom ell=5", lambda: is_p_broom(path_tree(5), 5), "p-broom shape needs even ell >= 4"),
    ("is_p_broom ell=2", lambda: is_p_broom(path_tree(5), 2), "p-broom shape needs even ell >= 4"),
    ("is_double_broom ell=2", lambda: is_double_broom(path_tree(5), 2), "double-broom shape needs ell >= 3"),
]


@pytest.mark.parametrize("call,message", [c[1:] for c in BAD_ARGUMENTS], ids=[c[0] for c in BAD_ARGUMENTS])
def test_argument_outside_domain_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestBroomClosedForms:
    """``broom_paths_exact`` is the best-p-broom value path-extremal checks
    against; these tie it to the path kernel and to a direct argmax."""

    def test_closed_form_matches_the_kernel(self):
        cases = 0
        for n in range(1, 41):
            for ell in range(4, 15, 2):
                for p in verify._legs(n, ell):
                    assert verify.broom_paths_exact(n, ell, p) == count_ell_paths(p_broom(n, ell, p), ell), (n, ell, p)
                    cases += 1
        assert cases == 1156

    @pytest.mark.parametrize("n", range(1, 17))
    def test_best_value_at_length_two_is_the_star(self, n):
        best = max((verify.broom_paths_exact(n, 2, p) for p in verify._legs(n, 2)), default=0)
        assert best == (n - 1) * (n - 2) // 2

    def test_argmax_is_the_maximizer_nearest_the_stationary_point(self):
        cells = ties = 0
        with localcontext() as ctx:
            ctx.prec = 60
            for ell in range(4, 21, 2):
                for n in range(5, 301):
                    legs = verify._legs(n, ell)
                    if not legs:
                        continue
                    values = {p: verify.broom_paths_exact(n, ell, p) for p in legs}
                    best = max(values.values())
                    top = [p for p, v in values.items() if v == best]
                    point = Decimal(1) / 4 + (Decimal(1) / 16 + Decimal(n - 1) / (ell - 2)).sqrt()
                    expect = min(top, key=lambda p: (abs(p - point), p))
                    assert broom_profile(n, ell).argmax_p == expect, (n, ell)
                    cells += 1
                    ties += len(top) > 1
        assert (cells, ties) == (2643, 35)


def test_broom_profile_with_one_feasible_leg():
    # p = 1 is the only leg count that fits, so the drift check compares the
    # stationary point with p - 1 = 0, which lies below 1/4: no squaring
    profile = broom_profile(5, 6)
    assert profile.rows == ((1, 0),)
    assert (profile.argmax_p, profile.best) == (1, 0)


def test_broom_profile_argmax_far_from_the_stationary_point_raises(monkeypatch):
    # values that fall with p put the argmax at the smallest leg count,
    # more than 1 below the stationary point 1/4 + sqrt(1/16 + 39/4)
    monkeypatch.setattr(verify, "broom_paths_exact", lambda n, ell, p: -p)
    with pytest.raises(ValueError, match=r"^argmax 1 drifted from stationary point 3\.38"):
        broom_profile(40, 6)


def test_whole_order_sweeps_past_twelve():
    assert verify_closed_extremal(13, 6).ok
    assert verify_path_extremal(14, 6).ok


def test_smallest_scopes_check_something():
    assert verify_closed_extremal(1, 2).checks
    assert verify_kc_monotone(2, 1).checks
    assert verify_path_extremal(1, 4).checks
    assert verify_injections(2, 1).checks
