import hashlib
from collections import defaultdict
from functools import partial
from itertools import product

import networkx as nx
import pytest
from hypothesis import given, settings

from treewalks import words
from treewalks.generate import enumerate_free_trees, leaf_rooted, path_tree
from treewalks.transforms import bare_paths, kc_transform
from treewalks.trees import tree
from treewalks.walks import count_closed_walks, count_walks, enumerate_walks
from treewalks.words import (
    HOST_T,
    HOST_T2,
    WordType,
    build_context,
    classify,
    conjugate,
    decode_word,
    encode_walk,
    f_map,
    g_even,
    g_odd,
    g_total,
    g_total_aside,
    h_map,
    parse_word,
    reverse,
    word_sets,
    word_to_str,
    words_of,
)

from conftest import trees


@pytest.fixture
def k1():
    """Path a-p0-p1-b: vertices 0=a, 1=p0, 2=p1, 3=b; labels a1, c1, b1."""
    return build_context(tree(4, [(0, 1), (1, 2), (2, 3)]), 1, 2)


@pytest.fixture
def k2():
    """p0-p1-p2 with a leaf on p0 and a leaf on p2."""
    return build_context(tree(5, [(0, 1), (1, 2), (3, 0), (2, 4)]), 0, 2)


@pytest.fixture
def k3():
    """p0..p3 with one leaf u on p3."""
    return build_context(tree(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 0, 3)


def all_contexts(max_n, skip_trivial_b=False):
    for n in range(2, max_n + 1):
        for t in map(leaf_rooted, enumerate_free_trees(n)):
            for bp in bare_paths(t):
                ctx = build_context(t, *bp.endpoints)
                if skip_trivial_b and not ctx.b_component - {ctx.pk}:
                    continue
                yield ctx


def t_words(ctx, ell, walks=None):
    walks = walks if walks is not None else enumerate_walks(ctx.tree, ell)
    return {encode_walk(ctx, w, HOST_T) for w in walks}


def is_closed(ctx, word, host):
    """Whether the word encodes a closed walk in the host."""
    return any(w[0] == w[-1] for w in decode_word(ctx, word, host))


def b_side_from(ctx, ell, start):
    """B-side T-words of length ell from start that contain a b-letter."""
    words = words_of(ctx, HOST_T, ell, start=start, part="B")
    return {w for w in words if any(kind == "b" for kind, _ in w)}


def a_side_from_pk(ctx, ell):
    """A-side T-words of length ell from p_k that contain an a-letter: the
    domain of g_total_aside."""
    words = words_of(ctx, HOST_T, ell, start=ctx.pk, part="A")
    return {w for w in words if any(kind == "a" for kind, _ in w)}


class TestContext:
    def test_k1_labels(self, k1):
        labels = {word_to_str([v]) for v in k1.labeling.values()}
        assert labels == {"a1", "c1", "b1"}

    def test_transform_reattaches_b_side(self, k1):
        assert (1, 3) in k1.labeling_transformed
        assert k1.labeling_transformed[(1, 3)] == ("b", 1)

    def test_leaf_endpoint_gives_no_a_labels(self):
        ctx = build_context(path_tree(3), 0, 1)
        assert all(kind != "a" for kind, _ in ctx.labeling.values())

    def test_labels_partition_edges(self):
        for ctx in all_contexts(6):
            assert set(ctx.labeling) == set(ctx.tree.edges)
            assert set(ctx.labeling_transformed) == set(ctx.transformed_tree.edges)
            assert not (ctx.a_component & ctx.b_component)

    def test_transform_matches_kc_transform(self):
        # T' is built from the inherited labeling; kc_transform moves the
        # edges itself, in both orientations of every bare path
        for n in range(2, 9):
            for t in enumerate_free_trees(n):
                for bp in bare_paths(t):
                    for x, y in (bp.endpoints, bp.endpoints[::-1]):
                        ctx = build_context(t, x, y)
                        assert ctx.transformed_tree == kc_transform(t, x, y)

    def test_end_components_match_networkx(self):
        # A and B are p_0's and p_k's components of T less the path edges
        for ctx in all_contexts(8):
            g = nx.Graph(ctx.tree.edges)
            g.add_nodes_from(range(ctx.tree.n))
            g.remove_edges_from(zip(ctx.path, ctx.path[1:]))
            assert ctx.a_component == nx.node_connected_component(g, ctx.p0)
            assert ctx.b_component == nx.node_connected_component(g, ctx.pk)

    def test_a_side_identical_in_both_hosts(self):
        for ctx in all_contexts(6):
            t_a = {e for e, l in ctx.labeling.items() if l[0] == "a"}
            t2_a = {e for e, l in ctx.labeling_transformed.items() if l[0] == "a"}
            assert t_a == t2_a

    def test_non_bare_rejected(self):
        from treewalks.generate import star_tree

        with pytest.raises(ValueError):
            build_context(star_tree(5), 1, 2)

    # the constructor's consistency guards, each reached by breaking the
    # helper it checks; on the k1 tree the path is 1-2, A = {0, 1} and
    # B = {2, 3}

    def test_overlapping_components_rejected(self, monkeypatch):
        monkeypatch.setattr(words, "_branch", lambda t, v, away_from: frozenset(range(t.n)))
        with pytest.raises(RuntimeError, match=r"^path \(1, 2\) does not separate its end components$"):
            build_context(tree(4, [(0, 1), (1, 2), (2, 3)]), 1, 2)

    def test_component_missing_a_vertex_rejected(self, monkeypatch):
        branch = words._branch
        monkeypatch.setattr(words, "_branch", lambda t, v, away_from: branch(t, v, away_from) - {v})
        with pytest.raises(RuntimeError, match=r"^1 labels for 3 edges$"):
            build_context(tree(4, [(0, 1), (1, 2), (2, 3)]), 1, 2)


class TestEncodeDecode:
    def test_back_and_forth(self, k1):
        assert word_to_str(encode_walk(k1, (1, 2, 1), HOST_T)) == "c1 c1"

    def test_crossing_walk(self, k1):
        assert word_to_str(encode_walk(k1, (0, 1, 2, 3), HOST_T)) == "a1 c1 b1"

    def test_invalid_walk_rejected(self, k1):
        with pytest.raises(ValueError):
            encode_walk(k1, (0, 3), HOST_T)

    def test_single_edge_power_has_two_walks(self, k1):
        assert decode_word(k1, parse_word("c1 c1"), HOST_T) == [(1, 2, 1), (2, 1, 2)]

    def test_single_letter_two_walks(self, k1):
        assert decode_word(k1, parse_word("a1"), HOST_T) == [(0, 1), (1, 0)]

    def test_result_is_a_fresh_list(self, k1):
        word = parse_word("c1 c1")
        walks = decode_word(k1, word, HOST_T)
        walks.clear()
        assert decode_word(k1, word, HOST_T) == [(1, 2, 1), (2, 1, 2)]
        assert decode_word(k1, word, HOST_T2) == [(1, 2, 1), (2, 1, 2)]

    def test_disjoint_letters_give_nothing(self, k1):
        assert decode_word(k1, parse_word("a1 a1 b1"), HOST_T) == []

    @pytest.mark.parametrize("host", ["t", "x", "T2", "", None])
    def test_unknown_host_rejected(self, k1, host):
        # a misspelt host used to be read as T': decode_word(k1, "a1 b1",
        # "t") gave the T' walk (0, 1, 3)
        word = parse_word("a1 b1")
        calls = [
            lambda: encode_walk(k1, (0, 1), host),
            lambda: decode_word(k1, word, host),
            lambda: words_of(k1, host, 2),
            lambda: word_sets(k1, host, 2),
            lambda: k1.edge_of(("a", 1), host),
            lambda: k1.label_of(0, 1, host),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="host must be T or T'"):
                call()
        assert decode_word(k1, word, HOST_T2) == [(0, 1, 3)]
        assert decode_word(k1, word, HOST_T) == []

    def test_roundtrip_exhaustive(self):
        for ctx in all_contexts(6):
            for ell in range(1, 6):
                for walk in enumerate_walks(ctx.tree, ell):
                    word = encode_walk(ctx, walk, HOST_T)
                    assert walk in decode_word(ctx, word, HOST_T)

    def test_multi_letter_words_have_unique_walk(self):
        for ctx in all_contexts(5):
            for ell in range(2, 6):
                for word in t_words(ctx, ell):
                    expected = 2 if len(set(word)) == 1 else 1
                    assert len(decode_word(ctx, word, HOST_T)) == expected

    def test_walks_exceed_words_by_edge_count(self):
        # every repeated-single-letter word hides one extra walk
        for ctx in all_contexts(6):
            t = ctx.tree
            for ell in range(1, 6):
                words = t_words(ctx, ell)
                assert count_walks(t, ell) == len(words) + (t.n - 1)
                closed = {w for w in words if is_closed(ctx, w, HOST_T)}
                expect = len(closed) + (t.n - 1 if ell % 2 == 0 else 0)
                assert count_closed_walks(t, ell) == expect


class TestWordSets:
    def test_match_walk_enumeration(self):
        # oracle: encode every enumerated walk; a word is closed when some
        # walk spelling it is
        for ctx in all_contexts(6):
            for host, host_tree in ((HOST_T, ctx.tree), (HOST_T2, ctx.transformed_tree)):
                sets = word_sets(ctx, host, 5)
                assert len(sets) == 6
                for ell in range(1, 6):
                    walks = enumerate_walks(host_tree, ell)
                    words = {encode_walk(ctx, w, host) for w in walks}
                    closed = {encode_walk(ctx, w, host) for w in walks if w[0] == w[-1]}
                    assert sets[ell] == (words, closed)

    def test_primed_decodes_match_fresh_context(self):
        # word_sets fills the decode memo; a fresh context traces instead
        for ctx in all_contexts(5):
            fresh = build_context(ctx.tree, ctx.p0, ctx.pk)
            for host in (HOST_T, HOST_T2):
                sets = word_sets(ctx, host, 4)
                for ell in range(1, 5):
                    for word in sets[ell][0]:
                        assert decode_word(ctx, word, host) == decode_word(fresh, word, host)
                assert decode_word(ctx, (), host) == []

    def test_length_zero(self, k1):
        assert word_sets(k1, HOST_T, 0) == [({()}, {()})]

    @pytest.mark.parametrize(
        "start,end,expected",
        [(None, None, {()}), (1, None, {()}), (None, 2, {()}), (2, 2, {()}), (1, 2, set())],
    )
    def test_words_of_length_zero(self, k1, start, end, expected):
        # the empty walk stays where it starts, so a start/end mismatch
        # leaves nothing
        for host in (HOST_T, HOST_T2):
            for part in (None, "A", "B", "P"):
                assert words_of(k1, host, 0, start, end, part) == expected


class TestPerHostMemo:
    def test_memo_holds_each_hosts_walks(self):
        # oracle: group every enumerated walk of each host by its word; the
        # memo keeps one table per (host, length), keyed by the word, whose
        # record holds the walks, the type and a still empty f-image slot
        for ctx in all_contexts(6):
            for host, host_tree in ((HOST_T, ctx.tree), (HOST_T2, ctx.transformed_tree)):
                sets = word_sets(ctx, host, 4)
                for ell in range(1, 5):
                    expected = {}
                    for walk in enumerate_walks(host_tree, ell):
                        expected.setdefault(encode_walk(ctx, walk, host), []).append(walk)
                    closed = {
                        encode_walk(ctx, w, host)
                        for w in enumerate_walks(host_tree, ell)
                        if w[0] == w[-1]
                    }
                    assert sets[ell][1] == closed
                    table = ctx._words[host][ell]
                    assert {w: list(record[0]) for w, record in table.items()} == {
                        w: sorted(found) for w, found in expected.items()
                    }
                    assert all(record[2] is None for record in table.values())
            assert {(h, ell) for h, tables in ctx._words.items() for ell in tables} == {
                (h, ell) for h in (HOST_T, HOST_T2) for ell in range(1, 5)
            }

    @pytest.mark.parametrize(
        "text,valid_in,invalid_in",
        [("a1 c1 b1", HOST_T, HOST_T2), ("a1 b1", HOST_T2, HOST_T)],
    )
    def test_word_of_one_host_decodes_to_nothing_in_the_other(self, k1, text, valid_in, invalid_in):
        # a1 c1 b1 crosses the path in T; in T' b1 hangs at p_0, next to a1
        word = parse_word(text)
        for host in (HOST_T, HOST_T2):
            word_sets(k1, host, 3)
        assert word in k1._words[valid_in][len(word)]
        assert word not in k1._words[invalid_in][len(word)]
        assert decode_word(k1, word, valid_in)
        assert decode_word(k1, word, invalid_in) == []
        assert word not in k1._words[invalid_in][len(word)]

    def test_decode_after_word_sets_is_a_fresh_list(self, k1):
        word = parse_word("c1 c1")
        for host in (HOST_T, HOST_T2):
            word_sets(k1, host, 2)
            walks = decode_word(k1, word, host)
            walks.clear()
            assert decode_word(k1, word, host) == [(1, 2, 1), (2, 1, 2)]
            assert k1._words[host][2][word][0] == ((1, 2, 1), (2, 1, 2))

    def test_decode_on_demand_keeps_a_record_only_for_valid_words(self):
        # oracle: a fresh context with no word sets; a word traced on demand
        # gets the record word_sets would give it, and one that decodes to
        # nothing gets none
        for ctx in all_contexts(5):
            for host in (HOST_T, HOST_T2):
                primed = build_context(ctx.tree, ctx.p0, ctx.pk)
                word_sets(primed, host, 3)
                for ell in range(1, 4):
                    for word in primed._words[host][ell]:
                        assert decode_word(ctx, word, host)
                        assert ctx._words[host][ell][word][:2] == primed._words[host][ell][word][:2]
                        assert ctx._words[host][ell][word][1] is classify(word)
                    bogus = (("c", ctx.k + 1),) * ell
                    assert decode_word(ctx, bogus, host) == []
                    assert ctx._words[host][ell].keys() == primed._words[host][ell].keys()

    def test_growth_collects_the_b_side_words_of_each_start(self):
        # oracle: words_of's DFS per start, less the path words, for every
        # start vertex of both hosts
        for ctx in all_contexts(6):
            for host in (HOST_T, HOST_T2):
                levels = words._grow_words(ctx, host, 4)
                for ell in range(5):
                    b_words = levels[ell][1]
                    for start in range(ctx.tree.n):
                        side = words_of(ctx, host, ell, start=start, part="B")
                        path = words_of(ctx, host, ell, start=start, part="P")
                        found = b_words.get(start, [])
                        assert len(found) == len(set(found))
                        assert set(found) == side - path


def per_host_growth(ctx, host, max_len):
    """The oracle of the one growth: every walk of one host grown by one
    letter per level, each word's record inserted into that host's table
    with its walks in start-vertex order, and the words of the walks with
    a b-letter and no a-letter listed by start vertex, for every length
    0..max_len."""
    adj = ctx._adjacency[host]
    after, type_of = words._KINDS_AFTER, words._TYPE_OF_KINDS
    tables = ctx._words[host]
    walks = [((v,), (), "") for v in range(len(adj))]  # (positions, word, kinds)
    levels = [({}, {})]
    for length in range(1, max_len + 1):
        walks = [
            (positions + (u,), word + (letter,), after[kinds][letter[0]])
            for positions, word, kinds in walks
            for u, letter in adj[positions[-1]]
        ]
        table = tables[length]
        b_words = defaultdict(list)
        for positions, word, kinds in walks:
            record = [(positions,), type_of[kinds], None]
            found = table.setdefault(word, record)
            if found is not record and positions not in found[0]:
                found[0] += (positions,)
            if kinds == "bb":
                b_words[positions[0]].append(word)
        levels.append((table, b_words))
    return levels


class TestOneGrowth:
    HOSTS = (HOST_T, HOST_T2)

    def test_matches_the_per_host_growth(self):
        # both hosts' tables hold the oracle's words with the same walks, in
        # the same order, and type; the B-side word lists of each start hold
        # the same words, in any order
        for ctx in all_contexts(8):
            oracle = build_context(ctx.tree, ctx.p0, ctx.pk)
            for host in self.HOSTS:
                expected = per_host_growth(oracle, host, 6)
                levels = words._grow_words(ctx, host, 6)
                assert len(levels) == 7
                for ell in range(7):
                    table, b_words = levels[ell][:2]
                    want_table, want_b_words = expected[ell]
                    assert {w: r[:2] for w, r in table.items()} == {
                        w: r[:2] for w, r in want_table.items()
                    }
                    assert {s: sorted(found) for s, found in b_words.items()} == {
                        s: sorted(found) for s, found in want_b_words.items()
                    }
                    if ell:
                        assert table is ctx._words[host][ell]
            for host in self.HOSTS:
                assert ctx._words[host].keys() == oracle._words[host].keys()

    def test_b_free_records_are_shared(self):
        # a word with no b-letter spells the same walks in T and T', so
        # both tables hold one record for it
        for ctx in all_contexts(8):
            words._grow_words(ctx, HOST_T, 6)
            for ell in range(1, 7):
                t_table, t2_table = ctx._words[HOST_T][ell], ctx._words[HOST_T2][ell]
                shared = 0
                for word, record in t2_table.items():
                    if not any(kind == "b" for kind, _ in word):
                        assert record is t_table[word]
                        shared += 1
                assert shared == sum(
                    1 for word in t_table if not any(kind == "b" for kind, _ in word)
                )


class TestTypeTable:
    def test_entries_match_classify(self):
        # oracle: the pure classify; the tables of a host hold every
        # nonempty word of that host and nothing else
        for ctx in all_contexts(6):
            for host in (HOST_T, HOST_T2):
                seen = set()
                for words_of_length, _closed in word_sets(ctx, host, 5)[1:]:
                    seen |= words_of_length
                tables = list(ctx._words[host].values())
                assert set().union(*tables) == seen
                for table in tables:
                    for word, record in table.items():
                        assert record[1] is classify(word)


class TestMemosUnderValidation:
    def test_open_type2_rejected_after_typing(self, k1):
        word = parse_word("a1 c1 b1")
        word_sets(k1, HOST_T, 3)
        assert k1._words[HOST_T][3][word][1] is WordType.T21
        with pytest.raises(ValueError, match="only mapped when closed"):
            f_map(k1, word)

    @pytest.mark.parametrize("text", ["a1 c1 a1", "b1 a1 a1 b1"])
    def test_words_that_do_not_decode_in_t_are_rejected(self, k1, text):
        # b1 a1 a1 b1 decodes only in the transform, so word_sets on T'
        # types it as T12, a type f and h take without a closedness claim
        word = parse_word(text)
        for host in (HOST_T, HOST_T2):
            word_sets(k1, host, 4)
        assert not decode_word(k1, word, HOST_T)
        assert word not in k1._words[HOST_T][len(word)]
        assert (word in k1._words[HOST_T2][len(word)]) == bool(decode_word(k1, word, HOST_T2))
        for mapping in (f_map, h_map):
            with pytest.raises(ValueError, match="not valid in the original tree"):
                mapping(k1, word)

    def test_f_image_is_memoized_in_the_record(self):
        # f and h hand out the image stored in the word's record, the same
        # object each time, so the sweep's h check can recognise it
        for ctx in all_contexts(5):
            for words_of_length, closed in word_sets(ctx, HOST_T, 4)[1:]:
                for word in words_of_length:
                    record = ctx._words[HOST_T][len(word)][word]
                    if classify(word) in (WordType.T0, WordType.T11, WordType.T12):
                        image = f_map(ctx, word)
                        assert record[2] is image
                        assert h_map(ctx, word) is image
                    elif word in closed:
                        assert f_map(ctx, word) is record[2]

    def test_h_map_on_typed_words_matches_fresh_f_map(self):
        # h takes its f-images from the memoized surgery; a fresh context
        # computes them from scratch through f_map
        for ctx in all_contexts(6):
            fresh = build_context(ctx.tree, ctx.p0, ctx.pk)
            for words, _closed in word_sets(ctx, HOST_T, 4)[1:]:
                for word in words:
                    if classify(word) in (WordType.T0, WordType.T11, WordType.T12):
                        assert h_map(ctx, word) == f_map(fresh, word)


def blocks_of(word):
    """A word's maximal blocks as (kind, letters), from the maps' own scan."""
    return [(kind, word[lo:hi]) for kind, lo, hi in words._runs(word)]


def proper_c_count(kinds):
    """The C-blocks with a block on each side: the separating C-runs."""
    return sum(1 for kind in kinds[1:-1] if kind == "C")


class TestGrammar:
    def test_blocks_example(self):
        blocks = blocks_of(parse_word("a1 c1 b1 b1 c1 a1"))
        assert [(kind, word_to_str(letters)) for kind, letters in blocks] == [
            ("A", "a1"),
            ("C", "c1"),
            ("B", "b1 b1"),
            ("C", "c1"),
            ("A", "a1"),
        ]
        assert proper_c_count([kind for kind, _ in blocks]) == 2

    def test_outer_c_blocks_not_proper(self):
        kinds = [kind for kind, _ in blocks_of(parse_word("c1 a1 c1"))]
        assert kinds == ["C", "A", "C"]
        assert proper_c_count(kinds) == 0

    def test_single_c_block(self):
        assert [kind for kind, _ in blocks_of(parse_word("c1 c1 c1"))] == ["C"]

    def test_classify_examples(self):
        assert classify(parse_word("c1 c1")) is WordType.T0
        assert classify(parse_word("a1 c1 b1 b1 c1 a1")) is WordType.T11
        assert classify(parse_word("b1 c1 a1")) is WordType.T22

    def test_classify_matches_first_and_last_kinds_on_every_short_word(self):
        # the definition: T0 without an a- or b-letter, otherwise the type
        # named by the kinds of the first and last of those letters
        named = {("a", "a"): WordType.T11, ("b", "b"): WordType.T12, ("a", "b"): WordType.T21, ("b", "a"): WordType.T22}
        letters = [("a", 1), ("b", 1), ("c", 1)]
        count = 0
        for length in range(1, 8):
            for word in product(letters, repeat=length):
                ends = [kind for kind, _ in word if kind != "c"]
                expect = named[ends[0], ends[-1]] if ends else WordType.T0
                assert classify(word) is expect, word_to_str(word)
                count += 1
        assert count == 3279

    def test_parity_rule_equivalent(self):
        # separating-run count equals non-C block count minus one, so the
        # first/last-kind rule matches the parity rule on host-T words
        for ctx in all_contexts(6):
            for ell in range(1, 6):
                for word in t_words(ctx, ell):
                    kinds = [kind for kind, _ in blocks_of(word)]
                    non_c = [kind for kind in kinds if kind != "C"]
                    if not non_c:
                        assert classify(word) is WordType.T0
                        continue
                    separating = proper_c_count(kinds)
                    assert separating == len(non_c) - 1
                    even = separating % 2 == 0
                    tag = classify(word)
                    assert even == (tag in (WordType.T11, WordType.T12))

    def test_separating_runs_nonempty_in_host_t(self):
        for ctx in all_contexts(6):
            for ell in range(1, 6):
                for word in t_words(ctx, ell):
                    kinds = [kind for kind, _ in blocks_of(word)]
                    for left, right in zip(kinds, kinds[1:]):
                        assert not (left in "AB" and right in "AB")

    def test_b_blocks_correspond_under_conjugation(self):
        for ctx in all_contexts(5, skip_trivial_b=True):
            for ell in range(1, 5):
                t_blocks = {
                    w
                    for w in words_of(ctx, HOST_T, ell, start=ctx.pk, end=ctx.pk, part="B")
                    if w and w[0][0] == "b" and w[-1][0] == "b"
                }
                t2_blocks = {
                    w
                    for w in words_of(ctx, HOST_T2, ell, start=ctx.p0, end=ctx.p0, part="B")
                    if w and w[0][0] == "b" and w[-1][0] == "b"
                }
                assert {conjugate(ctx, w) for w in t_blocks} == t2_blocks


class TestInvolutions:
    def test_conjugate_example(self, k2):
        assert word_to_str(conjugate(k2, parse_word("c1 c2 b1"))) == "c2 c1 b1"

    def test_conjugate_involution(self, k2):
        for word in t_words(k2, 4):
            assert conjugate(k2, conjugate(k2, word)) == word

    def test_reverse_involution(self):
        word = parse_word("a1 c1 b2")
        assert reverse(reverse(word)) == word
        assert word_to_str(reverse(parse_word("a1 c1"))) == "c1 a1"

    def test_conjugate_commutes_with_reverse(self, k2):
        for word in t_words(k2, 4):
            assert conjugate(k2, reverse(word)) == reverse(conjugate(k2, word))

    def test_reverse_encodes_reversed_walk(self):
        for ctx in all_contexts(6):
            for ell in range(1, 6):
                for walk in enumerate_walks(ctx.tree, ell):
                    word = encode_walk(ctx, walk, HOST_T)
                    assert reverse(word) == encode_walk(ctx, walk[::-1], HOST_T)


def split_c_run(ctx, word, end):
    """Split a path-walk word where the f-surgery cuts it: just past its
    walk's last visit to path position end (0 or k), where it starts."""
    cut = words._c_cut(word, 0, len(word), ctx.k, end)
    return word[:cut], word[cut:]


class TestSplitCBlock:
    def test_k1_last_visit_start(self, k1):
        left, right = split_c_run(k1, parse_word("c1"), 0)
        assert left == () and word_to_str(right) == "c1"

    def test_k2_last_visit_start(self, k2):
        left, right = split_c_run(k2, parse_word("c1 c1 c1 c2"), 0)
        assert word_to_str(left) == "c1 c1"
        assert word_to_str(right) == "c1 c2"

    def test_run_that_does_not_walk_from_the_end_raises(self):
        # c2 joins p_1 and p_2, so it cannot be the first step from p_0
        with pytest.raises(ValueError, match=r"^not a path-walk word from p_0$"):
            words._c_cut(parse_word("c2"), 0, 1, 3, 0)

    def test_partition_property(self, k2, k3):
        for ctx in (k2, k3):
            for ell in range(1, 8):
                for word in words_of(ctx, HOST_T, ell, start=ctx.p0, part="P"):
                    left, right = split_c_run(ctx, word, 0)
                    assert left + right == word


class TestFMap:
    def test_case_0_identity(self, k1):
        word = parse_word("c1 c1")
        assert f_map(k1, word) == word

    def test_b_only_word_is_letterwise_fixed_at_k1(self, k1):
        word = parse_word("c1 b1 b1 c1")
        image = f_map(k1, word)
        assert image == word  # conjugation is the identity for k = 1
        assert is_closed(k1, image, HOST_T2)

    def test_spec_worked_instance(self, k1):
        image = f_map(k1, parse_word("a1 c1 b1 b1 c1 a1"))
        assert word_to_str(image) == "a1 b1 b1 c1 c1 a1"
        assert is_closed(k1, image, HOST_T2)

    def test_b_lead_cuts_at_last_visit_to_pk(self, k2):
        # the C-run before the A-block leaves p_2, comes back once, and then
        # walks to p_0, so it is cut after that return; with k >= 2 such a
        # run needs a word of length >= 7, past the reference layer's words
        image = f_map(k2, parse_word("b1 c2 c2 c2 c1 a1 a1 c1 c2 b1"))
        assert word_to_str(image) == "b1 c1 c1 a1 a1 c1 c2 c2 c1 b1"
        assert is_closed(k2, image, HOST_T2)

    def test_single_letters_fixed(self):
        for ctx in all_contexts(5):
            for word in t_words(ctx, 1):
                assert f_map(ctx, word) == word

    def test_domain_is_read_from_the_word(self):
        # f reads its domain from the word: it maps every closed word, of
        # every type, to a closed T'-word of its length and type, and it
        # refuses every open T21/T22 word (a closed one has 6 letters or more)
        mixed = (WordType.T21, WordType.T22)
        for ctx in all_contexts(7):
            for domain, closed in word_sets(ctx, HOST_T, 6)[1:]:
                for word in closed:
                    image = f_map(ctx, word)
                    assert len(image) == len(word)
                    assert classify(image) is classify(word)
                    assert is_closed(ctx, image, HOST_T2)
                for word in domain - closed:
                    if classify(word) in mixed:
                        with pytest.raises(ValueError, match="only mapped when closed"):
                            f_map(ctx, word)

    def test_open_type2_rejected(self, k1):
        with pytest.raises(ValueError):
            f_map(k1, parse_word("a1 c1 b1"))

    def test_surgery_rejects_the_wrong_lead(self, k1):
        # a B-led word has no C-run in front of its first block
        with pytest.raises(ValueError, match="without a leading C-run"):
            words._f_surgery(k1, parse_word("b1 c1 a1"), "A")
        with pytest.raises(ValueError, match="without a leading C-run"):
            words._f_surgery(k1, parse_word("a1 c1 b1"), "B")

    def test_invalid_word_rejected(self, k1):
        with pytest.raises(ValueError):
            f_map(k1, parse_word("a1 b1"))

    def test_closed_words_all_types(self):
        for ctx in all_contexts(6):
            for ell in range(2, 7, 2):
                domain = sorted(word_sets(ctx, HOST_T, ell)[ell][1])
                images = [f_map(ctx, w) for w in domain]
                for word, image in zip(domain, images):
                    assert len(image) == len(word)
                    assert classify(image) is classify(word)
                    assert is_closed(ctx, image, HOST_T2)
                assert len(set(images)) == len(domain)

    def test_general_words_even_types(self):
        for ctx in all_contexts(5):
            for ell in range(1, 6):
                domain = sorted(
                    w
                    for w in t_words(ctx, ell)
                    if classify(w) in (WordType.T0, WordType.T11, WordType.T12)
                )
                images = [f_map(ctx, w) for w in domain]
                for word, image in zip(domain, images):
                    assert len(image) == len(word)
                    assert classify(image) is classify(word)
                    assert decode_word(ctx, image, HOST_T2)
                assert len(set(images)) == len(domain)

# Words outside a map's domain, each with the context fixture it is read in
# and the message it raises.  The letters are checked before any walk is
# traced, so "a1" on k3 (which has no A side) still names the a-letter.
BAD_WORDS = [
    ("classify empty", "k1", lambda ctx: classify(()), "cannot classify an empty word"),
    ("f_map empty", "k1", lambda ctx: f_map(ctx, ()), "cannot map an empty word"),
    ("h_map empty", "k1", lambda ctx: h_map(ctx, ()), "cannot map an empty word"),
    ("g_even a-letter", "k2", lambda ctx: g_even(ctx, parse_word("a1 c1")), "g_even takes B-side words only"),
    ("g_odd even k", "k2", lambda ctx: g_odd(ctx, parse_word("c1 b1"), 4), "g_odd needs a path of odd length"),
    ("g_odd a-letter", "k3", lambda ctx: g_odd(ctx, parse_word("a1 c1"), 4), "g_odd takes B-side words only"),
    ("g_odd no b-letter", "k3", lambda ctx: g_odd(ctx, parse_word("c1 c2"), 4), "word lacks a b-letter"),
    # B-side words whose only walk starts at p_1 (k2) or p_2 (k3)
    (
        "g_even from neither end",
        "k2",
        lambda ctx: g_even(ctx, parse_word("c2 b1")),
        r"^word does not start at any of \(0, 2\) in the B-side subgraph$",
    ),
    (
        "g_odd from neither end",
        "k3",
        lambda ctx: g_odd(ctx, parse_word("c3 b1"), 4),
        r"^word does not start at any of \(1, 3\) in the B-side subgraph$",
    ),
    ("g_total not from p_0", "k1", lambda ctx: g_total(ctx, parse_word("b1")), "not a B-side walk word from p_0"),
    ("g_total_aside b-letter", "k1", lambda ctx: g_total_aside(ctx, parse_word("b1")), "takes A-side words only"),
    (
        "g_total_aside not from p_k",
        "k1",
        lambda ctx: g_total_aside(ctx, parse_word("a1")),
        "not an A-side walk word from p_k",
    ),
    ("words_of start past n", "k1", lambda ctx: words_of(ctx, HOST_T, 0, start=99), r"^vertex 99 out of range for n=4$"),
    ("words_of start past n, len 2", "k1", lambda ctx: words_of(ctx, HOST_T, 2, start=99), r"^vertex 99 out of range for n=4$"),
    ("words_of negative start", "k1", lambda ctx: words_of(ctx, HOST_T2, 2, start=-1), r"^vertex -1 out of range for n=4$"),
    ("words_of end past n", "k1", lambda ctx: words_of(ctx, HOST_T, 0, end=99), r"^vertex 99 out of range for n=4$"),
    ("words_of unknown part", "k1", lambda ctx: words_of(ctx, HOST_T, 2, part="X"), r"^part must be 'A', 'B', 'P' or None, got 'X'$"),
    ("words_of lowercase part", "k1", lambda ctx: words_of(ctx, HOST_T, 2, part="a"), r"^part must be 'A', 'B', 'P' or None, got 'a'$"),
    ("words_of negative length", "k1", lambda ctx: words_of(ctx, HOST_T, -1), r"^word length must be >= 0, got -1$"),
    ("word_sets negative length", "k1", lambda ctx: word_sets(ctx, HOST_T2, -1), r"^word length must be >= 0, got -1$"),
    ("words_of unhashable part", "k1", lambda ctx: words_of(ctx, HOST_T, 2, part=["A"]), r"^part must be 'A', 'B', 'P' or None, got \['A'\]$"),
]


@pytest.mark.parametrize("fixture,call,message", [c[1:] for c in BAD_WORDS], ids=[c[0] for c in BAD_WORDS])
def test_word_outside_domain_raises(fixture, call, message, request):
    with pytest.raises(ValueError, match=message):
        call(request.getfixturevalue(fixture))


class TestGMaps:
    def test_g_even_spec_instance(self):
        ctx = build_context(tree(4, [(0, 1), (1, 2), (2, 3)]), 0, 2)
        image = g_even(ctx, parse_word("c1 c2 b1"))
        assert word_to_str(image) == "c2 c2 b1"

    def test_g_even_requires_even(self, k1):
        with pytest.raises(ValueError):
            g_even(k1, parse_word("c1 b1"))

    def test_g_even_requires_b(self, k2):
        with pytest.raises(ValueError):
            g_even(k2, parse_word("c1 c2"))

    def test_g_even_rejects_pk_words_that_miss_the_midpoint(self):
        # on 0-1-2-3 with bare path (0, 2), b1 steps from p_2 into B and
        # never visits the midpoint p_1
        with pytest.raises(ValueError, match="never visits the path midpoint"):
            g_even(build_context(path_tree(4), 0, 2), (("b", 1),))

    def test_g_even_involution(self):
        for ctx in all_contexts(6, skip_trivial_b=True):
            if ctx.k % 2 != 0:
                continue
            for ell in range(1, 8):
                domain = sorted(
                    w
                    for w in words_of(ctx, HOST_T, ell, start=ctx.p0, part="B")
                    if any(kind == "b" for kind, _ in w)
                )
                for word in domain:
                    image = g_even(ctx, word)
                    assert g_even(ctx, image) == word
                    assert len(image) == len(word)

    def test_g_odd_k1_identity(self, k1):
        u = k1.b_neighbors_of_pk()[0]
        assert g_odd(k1, parse_word("b1"), u) == parse_word("b1")

    def test_g_odd_spec_instance(self, k3):
        u = k3.b_neighbors_of_pk()[0]
        b_letter = k3.label_of(3, 4, HOST_T)
        word = (("c", 2), ("c", 3), b_letter)
        image = g_odd(k3, word, u)
        assert image == (("c", 3), ("c", 3), b_letter)

    def test_g_odd_involution(self):
        for ctx in all_contexts(7, skip_trivial_b=True):
            if ctx.k != 3:
                continue
            u = min(ctx.b_neighbors_of_pk())
            for ell in range(1, 7):
                domain = sorted(
                    w
                    for w in words_of(ctx, HOST_T, ell, start=ctx.path[1], part="B")
                    if any(kind == "b" for kind, _ in w)
                )
                for word in domain:
                    image = g_odd(ctx, word, u)
                    assert g_odd(ctx, image, u) == word

    def test_g_odd_rejects_bad_neighbor(self, k3):
        with pytest.raises(ValueError):
            g_odd(k3, parse_word("b1"), 1)

    def test_g_total_spec_instance(self, k1):
        assert word_to_str(g_total(k1, parse_word("c1 b1"))) == "b1 b1"

    def test_g_total_injective_and_lands_right(self):
        for ctx in all_contexts(6, skip_trivial_b=True):
            for ell in range(1, 7):
                domain = sorted(
                    w
                    for w in words_of(ctx, HOST_T, ell, start=ctx.p0, part="B")
                    if any(kind == "b" for kind, _ in w)
                )
                images = [g_total(ctx, w) for w in domain]
                for image in images:
                    assert len(image) == ell
                    assert any(kind == "b" for kind, _ in image)
                    walks = decode_word(ctx, image, HOST_T2)
                    assert any(w[0] == ctx.p0 for w in walks)
                assert len(set(images)) == len(domain)

    def test_g_total_requires_b(self, k1):
        with pytest.raises(ValueError):
            g_total(k1, parse_word("c1 c1"))


class TestHMap:
    def test_delegates_even_types(self):
        for ctx in all_contexts(5):
            for ell in range(1, 5):
                for word in t_words(ctx, ell):
                    if classify(word) in (WordType.T0, WordType.T11, WordType.T12):
                        assert h_map(ctx, word) == f_map(ctx, word)

    def test_spec_worked_instance(self, k1):
        assert word_to_str(h_map(k1, parse_word("a1 c1 b1"))) == "a1 b1 b1"

    def test_mirror_type(self):
        ctx = build_context(tree(4, [(0, 1), (1, 2), (2, 3)]), 1, 2)
        image = h_map(ctx, parse_word("b1 c1 a1"))
        assert classify(image) is WordType.T22
        assert decode_word(ctx, image, HOST_T2)

    def test_injective_and_preserving(self):
        for ctx in all_contexts(6):
            for ell in range(1, 7):
                domain = sorted(t_words(ctx, ell))
                images = [h_map(ctx, w) for w in domain]
                for word, image in zip(domain, images):
                    assert len(image) == len(word)
                    assert classify(image) is classify(word)
                    assert decode_word(ctx, image, HOST_T2)
                assert len(set(images)) == len(domain)

    def test_word_count_monotone(self):
        # the injection h witnesses this inequality
        for ctx in all_contexts(6):
            for ell in range(1, 7):
                assert len(words_of(ctx, HOST_T, ell)) <= len(
                    words_of(ctx, HOST_T2, ell)
                )

    def test_aside_mirror_instance(self):
        # leaf on each side of a single path edge
        ctx = build_context(tree(4, [(0, 1), (1, 2), (2, 3)]), 1, 2)
        word = parse_word("b1 c1 a1")
        image = h_map(ctx, word)
        assert word_to_str(image) == "b1 a1 a1"

    def test_g_total_aside_requires_a(self, k1):
        with pytest.raises(ValueError):
            g_total_aside(k1, parse_word("c1 c1"))

    def test_g_total_aside_injective_and_lands_right(self):
        for ctx in all_contexts(6):
            for ell in range(1, 7):
                domain = sorted(a_side_from_pk(ctx, ell))
                images = [g_total_aside(ctx, w) for w in domain]
                for image in images:
                    assert len(image) == ell
                    walks = decode_word(ctx, image, HOST_T2)
                    assert any(w[0] == ctx.p0 for w in walks)
                assert len(set(images)) == len(domain)


# Reference copies of the block-based word layer as it was before the maps
# read blocks as index ranges of one letter scan: the marks-based block
# decomposition, the c-run split by tracing the walk, the block surgery of
# f, conjugation by arithmetic, and the T21/T22 split of h with g mirrors
# built per call.


def ref_blocks(word):
    marks = [(i, letter[0]) for i, letter in enumerate(word) if letter[0] != "c"]
    blocks = []
    cursor = 0
    i = 0
    while i < len(marks):
        j = i
        while j + 1 < len(marks) and marks[j + 1][1] == marks[i][1]:
            j += 1
        start, end = marks[i][0], marks[j][0]
        if cursor < start:
            blocks.append(("C", word[cursor:start]))
        blocks.append((marks[i][1].upper(), word[start : end + 1]))
        cursor = end + 1
        i = j + 1
    if cursor < len(word):
        blocks.append(("C", word[cursor:]))
    return blocks


def ref_trace(ctx, word, start):
    positions = [start]
    for letter in word:
        u, v = ctx.edge_of(letter, HOST_T)
        positions.append(v if positions[-1] == u else u)
    return positions


def ref_conjugate(ctx, word):
    k = ctx.k
    return tuple(("c", k + 1 - idx) if kind == "c" else (kind, idx) for kind, idx in word)


def ref_split(ctx, cblock, end):
    positions = ref_trace(ctx, cblock, end)
    cut = len(positions) - 1 - positions[::-1].index(end)
    return cblock[:cut], cblock[cut:]


def ref_surgery(ctx, word, lead):
    if lead == "A":
        other, end, keep, swap = "B", ctx.p0, tuple, partial(ref_conjugate, ctx)
    else:
        other, end, keep, swap = "A", ctx.pk, partial(ref_conjugate, ctx), tuple
    blocks = ref_blocks(word)
    out = []
    pending = None
    for i, (kind, letters) in enumerate(blocks):
        if kind == other:
            out.extend(swap(letters))
            out.extend(pending)
            pending = None
        elif kind == "C" and 0 < i < len(blocks) - 1 and blocks[i + 1][0] == other:
            left, right = ref_split(ctx, letters, end)
            out.extend(keep(left))
            pending = swap(reverse(right))
        else:
            out.extend(keep(letters))
    return tuple(out)


def ref_f(ctx, word):
    wtype = classify(word)
    if wtype is WordType.T0:
        return word
    return ref_surgery(ctx, word, "A" if wtype in (WordType.T11, WordType.T21) else "B")


def ref_reflect(word, positions, midpoint, letters):
    cut = positions.index(midpoint)
    table = dict(zip(letters, reversed(letters)))
    return tuple(table.get(letter, letter) for letter in word[:cut]) + word[cut:]


def ref_h(ctx, word):
    wtype = classify(word)
    if wtype not in (WordType.T21, WordType.T22):
        return ref_f(ctx, word)
    blocks = ref_blocks(word)
    split_at = max(
        i for i, (kind, _) in enumerate(blocks) if kind == "C" and 0 < i < len(blocks) - 1
    )
    prefix = tuple(letter for _, letters in blocks[:split_at] for letter in letters)
    suffix = tuple(letter for _, letters in blocks[split_at:] for letter in letters)
    k, path = ctx.k, ctx.path
    c_letters = [("c", i) for i in range(1, k + 1)]
    if wtype is WordType.T21:  # g_total on the B-side suffix from p_0
        if k % 2 == 0:
            reflected = ref_reflect(suffix, ref_trace(ctx, suffix, ctx.p0), path[k // 2], c_letters)
            return ref_f(ctx, prefix) + ref_conjugate(ctx, reflected)
        u = min(ctx.b_neighbors_of_pk())
        letters = c_letters + [ctx.label_of(ctx.pk, u, HOST_T)]
        rest = suffix[1:]
        reflected = ref_reflect(rest, ref_trace(ctx, rest, path[1]), path[(k + 1) // 2], letters)
        image = ref_conjugate(ctx, reflected)
        return ref_f(ctx, prefix) + image + (image[-1],)
    positions = ref_trace(ctx, suffix, ctx.pk)  # g_total_aside from p_k
    if k % 2 == 0:
        return ref_f(ctx, prefix) + ref_reflect(suffix, positions, path[k // 2], c_letters)
    u = min(ctx.a_neighbors_of_p0())
    letters = [ctx.label_of(ctx.p0, u, HOST_T)] + c_letters
    image = ref_reflect(suffix[1:], positions[1:], path[(k - 1) // 2], letters)
    return ref_f(ctx, prefix) + image + (image[-1],)


class TestReferenceLayer:
    """The index-range word layer against the block-based reference above,
    past IMAGE_DIGEST's n <= 6: random trees up to 14 vertices, every bare
    path, every T-word of length <= 5, and the length-6 T-words with both
    an a- and a b-letter, the shortest that make the surgery split a
    C-run."""

    @given(trees(min_n=2, max_n=14))
    @settings(deadline=None, max_examples=8)
    def test_maps_match_reference(self, t):
        f_open = (WordType.T0, WordType.T11, WordType.T12)
        for bp in bare_paths(t):
            ctx = build_context(t, *bp.endpoints)
            sets = word_sets(ctx, HOST_T, 6)
            for ell, (domain, closed) in enumerate(sets[1:], start=1):
                if ell == 6:
                    mixed = {w for w in domain if {"a", "b"} <= {kind for kind, _ in w}}
                    domain, closed = mixed, closed & mixed
                for word in domain:
                    assert blocks_of(word) == ref_blocks(word)
                    expected = ref_h(ctx, word)  # ref_f(ctx, word) on the f-open types
                    assert h_map(ctx, word) == expected
                    if classify(word) in f_open:
                        assert f_map(ctx, word) == expected
                for word in closed:
                    if classify(word) not in f_open:
                        assert f_map(ctx, word) == ref_f(ctx, word)

    @given(trees(min_n=2, max_n=14))
    @settings(deadline=None, max_examples=25)
    def test_split_matches_reference(self, t):
        for bp in bare_paths(t):
            ctx = build_context(t, *bp.endpoints)
            for position, end in ((0, ctx.p0), (ctx.k, ctx.pk)):
                for ell in range(7):
                    for word in words_of(ctx, HOST_T, ell, start=end, part="P"):
                        assert split_c_run(ctx, word, position) == ref_split(ctx, word, end)


class TestSerialization:
    def test_roundtrip(self):
        word = parse_word("a1 c2 b10")
        assert parse_word(word_to_str(word)) == word

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_word("a1 d2")
        with pytest.raises(ValueError):
            parse_word("a0")


# sha256 of every word-map image on every context with n <= 6 and length
# <= 5, recorded before the g maps shared one reflection table builder and
# one midpoint scan.  The injection sweep reports only domain and image
# sizes, so this is what catches a map that changes but stays injective.
IMAGE_DIGEST = "4bf97bf8a1dc0c55159fba094ca1c2938dce68437893167d94764fbc5376e0a6"


def _map_images(ctx, ell, t_words, t_closed):
    """(map name, (word, image) pairs) of every word map at ell."""
    f_open = (WordType.T0, WordType.T11, WordType.T12)
    yield "f-closed", [(w, f_map(ctx, w)) for w in t_closed]
    opens = [w for w in t_words if classify(w) in f_open]
    yield "f-open", [(w, f_map(ctx, w)) for w in opens]
    yield "h", [(w, h_map(ctx, w)) for w in t_words]
    if ctx.k % 2 == 0:
        yield "g-even", [(w, g_even(ctx, w)) for w in b_side_from(ctx, ell, ctx.p0)]
    elif ctx.b_neighbors_of_pk():
        u = min(ctx.b_neighbors_of_pk())
        yield "g-odd", [(w, g_odd(ctx, w, u)) for w in b_side_from(ctx, ell, ctx.path[1])]
    yield "g-total", [(w, g_total(ctx, w)) for w in b_side_from(ctx, ell, ctx.p0)]
    yield "g-total-aside", [(w, g_total_aside(ctx, w)) for w in a_side_from_pk(ctx, ell)]


def test_word_map_images_digest_on_fresh_contexts():
    # every map on a context with no word sets, so each record it reads is
    # traced on demand; the word lists come from a primed copy
    digest = hashlib.sha256()
    for primed in all_contexts(6):
        sets = word_sets(primed, HOST_T, 5)
        ctx = build_context(primed.tree, primed.p0, primed.pk)
        for ell in range(1, 6):
            for name, pairs in _map_images(ctx, ell, *sets[ell]):
                line = " ".join(
                    f"{word_to_str(w)}>{word_to_str(image)};" for w, image in sorted(pairs)
                )
                head = f"{sorted(ctx.tree.edges)} {ctx.path} {name} {ell}"
                digest.update(f"{head}: {line}\n".encode())
        assert not ctx._words[HOST_T2]
    assert digest.hexdigest() == IMAGE_DIGEST


def test_word_map_images_digest():
    digest = hashlib.sha256()
    for ctx in all_contexts(6):
        sets = word_sets(ctx, HOST_T, 5)
        for ell in range(1, 6):
            for name, pairs in _map_images(ctx, ell, *sets[ell]):
                line = " ".join(
                    f"{word_to_str(w)}>{word_to_str(image)};" for w, image in sorted(pairs)
                )
                head = f"{sorted(ctx.tree.edges)} {ctx.path} {name} {ell}"
                digest.update(f"{head}: {line}\n".encode())
    assert digest.hexdigest() == IMAGE_DIGEST


# sha256 over every bare-path context of every free tree with n <= 9, as
# enumerated and as leaf-rooted, recorded before PathContext computed its
# tables in its constructor: the path and its ends, the end components,
# both labelings, the end neighbours, the transform's edges, each host's
# words of length <= 3 with their walks and closedness, each side's
# words_of sets, and on odd-k contexts g_odd through every B-neighbour of
# p_k, not only the smallest one the sweep passes.
CONTEXT_DIGEST = "9ff34a8d797efd29bda63aec9409b18f2c4cdd40b2e7a55dce559144ecc61a9e"
CONTEXT_COUNT = 1986


def _context_lines(ctx):
    yield f"{ctx.path} {ctx.k} {ctx.p0} {ctx.pk}"
    yield f"{sorted(ctx.a_component)} {sorted(ctx.b_component)}"
    yield f"{sorted(ctx.labeling.items())}"
    yield f"{sorted(ctx.labeling_transformed.items())}"
    yield f"{ctx.b_neighbors_of_pk()} {ctx.a_neighbors_of_p0()} {sorted(ctx.transformed_tree.edges)}"
    for host in (HOST_T, HOST_T2):
        for ell, (found, closed) in enumerate(word_sets(ctx, host, 3)):
            for word in sorted(found):
                walks = decode_word(ctx, word, host)
                yield f"{host} {ell} {word_to_str(word)} {walks} {word in closed}"
            for part in (None, "A", "B", "P"):
                yield f"{host} {ell} {part} {sorted(words_of(ctx, host, ell, part=part))}"
    if ctx.k % 2 == 1:
        for u in ctx.b_neighbors_of_pk():
            for ell in range(1, 4):
                for start in (ctx.path[1], ctx.pk):
                    for word in sorted(b_side_from(ctx, ell, start)):
                        try:
                            image = word_to_str(g_odd(ctx, word, u))
                        except ValueError as exc:
                            image = f"! {exc}"
                        yield f"g_odd {u} {word_to_str(word)} > {image}"


def test_context_digest():
    digest = hashlib.sha256()
    count = 0
    for n in range(2, 10):
        for t in enumerate_free_trees(n):
            for host_tree in (t, leaf_rooted(t)):
                for bp in bare_paths(host_tree):
                    ctx = build_context(host_tree, *bp.endpoints)
                    count += 1
                    digest.update(f"{sorted(host_tree.edges)}\n".encode())
                    for line in _context_lines(ctx):
                        digest.update(f"{line}\n".encode())
    assert count == CONTEXT_COUNT
    assert digest.hexdigest() == CONTEXT_DIGEST
