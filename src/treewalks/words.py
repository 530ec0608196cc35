"""Walk words over a bare-path context, their block grammar, and the
injective word maps that witness walk-count monotonicity under the
end-to-end path move.

Fix a tree T and a bare path p_0..p_k in it, and let T' be the transform
that moves p_k's outside branches to p_0.  Deleting the path edges splits T
into the component A of p_0, the component B of p_k, and bare interior
vertices; A is p_0's side of the edge p_0p_1 and B is p_k's side of
p_kp_(k-1), both from ``trees._branch``.  Each edge gets a label: c_1..c_k
along the path, a_i in A, b_i in B; T' keeps every label (the moved B-edges
keep theirs).  A walk is encoded by its sequence of traversed edge labels
with directions dropped.  Words with at least two distinct letters decode
to a unique walk; a word that repeats a single letter decodes to two (one
per direction).

Words decompose into blocks: an A-block is a maximal run of a/c letters
starting and ending with an a, a B-block the same with b, and C-blocks are
the leftover c-runs.  A word's type is T0 when it is all c's, otherwise it
is named by the kinds of its first and last non-C blocks: (A,A) -> T11,
(B,B) -> T12, (A,B) -> T21, (B,A) -> T22.  On host-T words this matches
the parity of the count of separating C-runs, because there non-C blocks
strictly alternate with a separating C-run between each pair.  In T' an
A-block and a B-block may meet at p_0 with no C-run between them.

The maps:

* f_map rewrites a T-word into a T'-word of the same length and type.  It
  is total on T0/T11/T12 and on closed words of types T21/T22, injective on
  each type, and maps closed words to closed words.
* g_even / g_odd are self-inverse swaps between walk words rooted at the
  two path endpoints inside the B-side subgraph.  Both take one reflection
  step: cut the walk at its first visit to the midpoint of a path of even
  length and map the head through that path's mirror, the letter table
  that swaps its letters end for end.  Even k reflects through c_1..c_k
  itself (its mirror is conjugation), cutting at p_(k/2).  Odd k extends
  the path by one designated B-neighbor u of p_k and cuts at p_((k+1)/2).
* g_total composes these into an injection from p_0-rooted B-side T-words
  that touch B into their T'-side counterparts.  g_total_aside is the
  mirror for the A-side: it swaps p_k-rooted A-side words that touch A
  into p_0-rooted ones, for odd k through the path extended at p_0 by its
  smallest A-neighbor.
* h_map stitches f_map and the g-injections into a length- and
  type-preserving injection on all T-words.

The maps read a word's blocks from one scan of its letters (_runs), as
(kind, start, end) index ranges, and slice the word by them.  The f-surgery
splits a C-run by index arithmetic on path positions (c_j joins p_(j-1)
and p_j), and a word with no letter of the other side has no C-run to
split, so it is kept or conjugated whole.

A PathContext builds every table it has in its constructor, each a pure
function of the tree and the path: the labeling as two tables keyed by
host, ctx._labels[host] (edge -> letter) and ctx._edges[host] (letter ->
edge); one labeled adjacency per host, ctx._adjacency[host], whose
neighbors ascend as in Tree.adjacency; the conjugation table (also the
even-k mirror of the g maps); the A-side neighbors of p_0 and the B-side
neighbors of p_k; and, for odd k, the mirror of the path extended by the
edge to each of those neighbors.  words_of walks a host's adjacency and
skips the letters outside its side subgraph.

The one table that grows after construction is the word memo: each word
that decodes in a host gets one record, [walks, type, f-image], in
ctx._words[host][len(word)].  Every lookup reads that one table:
decode_word the walks, f_map and h_map the walks (that the word decodes),
the type and the f-image, which they store in the record's last slot on
first use, the g maps the walk they reflect (_walk_from), and the
injection sweep's image test the walks and type of a T'-word.

_grow_words, which word_sets and the sweep run, is the one growth: it
grows the walks of both hosts one letter per level and inserts each word's
record into its table once, the walks in start-vertex order and the type
from the first and last non-c kinds each walk carries.  A walk with no
b-letter steps only on a- and c-edges, which T and T' share, so it is the
same walk in both hosts with the same word and type: those walks grow
once, and each of their words gets one record that both hosts' tables
hold.  Only the walks with a b-letter grow per host.  So a b-free word's
T' record is its T record, and its image slot holds the f-image of the
T-word; nothing reads the image slot of a T' record.  A word the growth has
not seen is traced and classified on demand; a word that decodes to
nothing gets no record.  Once the growth has run to length l, each table
up to l holds exactly its host's words of that length, and the sweep
reads the word sets off the tables.  The growth also returns, per host,
length and start vertex, the words of the walks with a b-letter and no
a-letter, read off the same kinds: the B-side words that touch B, which
the g maps and the counting lemmas take.  The memo lives exactly as long
as its context (a sweep builds one context per tree and bare path and
drops it after the last length), and it sits under the validations, never
in place of them: f_map and h_map still check that their input decodes
and that its type is in the domain before a memoized result is returned,
and decode_word hands out a fresh list.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from itertools import groupby
from operator import itemgetter

from .transforms import _bare_path, _kc_along
from .trees import Tree, _branch

__all__ = [
    "HOST_T",
    "HOST_T2",
    "Letter",
    "PathContext",
    "Word",
    "WordType",
    "build_context",
    "classify",
    "conjugate",
    "decode_word",
    "encode_walk",
    "f_map",
    "g_even",
    "g_odd",
    "g_total",
    "g_total_aside",
    "h_map",
    "parse_word",
    "reverse",
    "word_sets",
    "word_to_str",
    "words_of",
]

Letter = tuple[str, int]  # (kind 'a'|'b'|'c', 1-based index)
Word = tuple[Letter, ...]
Walk = tuple[int, ...]  # vertex sequence, as in walks.Walk

HOST_T = "T"
HOST_T2 = "T'"


def _require_host(host: str) -> None:
    """Reject a host name other than HOST_T and HOST_T2 with a ValueError:
    the public word entry points call this, since the internal ones index
    the per-host tables by it unchecked."""
    if host != HOST_T and host != HOST_T2:
        raise ValueError(f"host must be {HOST_T} or {HOST_T2}, got {host!r}")


_PART_KINDS = {None: "abc", "A": "ac", "B": "bc", "P": "c"}


class WordType(Enum):
    T0 = "0"
    T11 = "1.1"
    T12 = "1.2"
    T21 = "2.1"
    T22 = "2.2"


# The members under module names for the per-word paths: reading a member
# off the Enum class costs about 0.16 us, a module name a tenth of that.
_T0, _T11, _T12, _T21, _T22 = WordType.T0, WordType.T11, WordType.T12, WordType.T21, WordType.T22


class PathContext:
    """A tree, a bare path p_0..p_k, the edge labeling it induces, and the
    transformed tree with the inherited labeling.  The constructor builds
    every table of the context (see the module docstring); only the word
    records in _words grow afterwards.  Contexts compare by identity."""

    def __init__(self, t: Tree, path: tuple[int, ...]) -> None:
        self.tree, self.path = t, path
        self.k, self.p0, self.pk = k, p0, pk = len(path) - 1, path[0], path[-1]
        self.a_component = a_comp = _branch(t, p0, path[1])
        self.b_component = b_comp = _branch(t, pk, path[-2])
        if a_comp & b_comp:
            raise RuntimeError(f"path {path} does not separate its end components")

        c_letters = [("c", i) for i in range(1, k + 1)]
        edge_label: dict[tuple[int, int], Letter] = {
            (min(u, v), max(u, v)): letter for u, v, letter in zip(path, path[1:], c_letters)
        }
        for kind, comp in (("a", a_comp), ("b", b_comp)):
            side_edges = sorted(e for e in t.edges if e[0] in comp and e[1] in comp)
            for i, e in enumerate(side_edges):
                edge_label[e] = (kind, i + 1)
        if len(edge_label) != t.n - 1:
            raise RuntimeError(f"{len(edge_label)} labels for {t.n - 1} edges")

        self.transformed_tree = t2 = _kc_along(t, path)
        edge_label_t2: dict[tuple[int, int], Letter] = {}
        for (u, v), letter in edge_label.items():
            if letter[0] == "b" and pk in (u, v):
                w = v if u == pk else u
                edge_label_t2[(min(p0, w), max(p0, w))] = letter
            else:
                edge_label_t2[(u, v)] = letter
        if set(edge_label_t2) != set(t2.edges):
            raise RuntimeError("the inherited labeling does not cover the transform's edges")

        self._labels = {HOST_T: edge_label, HOST_T2: edge_label_t2}  # host -> edge -> letter
        self._edges = {}  # host -> letter -> edge
        self._adjacency = {}  # host -> vertex -> [(neighbor, letter)], neighbors ascending
        for host, table in self._labels.items():
            self._edges[host] = {letter: e for e, letter in table.items()}
            adj = self._adjacency[host] = [[] for _ in range(t.n)]
            for (u, v), letter in sorted(table.items()):
                adj[u].append((v, letter))
                adj[v].append((u, letter))
        self._conjugation = _mirror(c_letters)  # c_i -> c_(k+1-i)
        self._a_neighbors = tuple(w for w in t.neighbors(p0) if w in a_comp)
        self._b_neighbors = tuple(w for w in t.neighbors(pk) if w in b_comp)
        # odd k: the mirror of c_1..c_k extended by the edge from its end to
        # u, keyed by u (the A-neighbors of p_0 and B-neighbors of p_k)
        self._mirrors = {}
        if k % 2:
            for u in self._a_neighbors:
                self._mirrors[u] = _mirror([edge_label[min(p0, u), max(p0, u)], *c_letters])
            for u in self._b_neighbors:
                self._mirrors[u] = _mirror([*c_letters, edge_label[min(pk, u), max(pk, u)]])
        # the one memo: host -> length -> word -> record
        self._words = defaultdict(lambda: defaultdict(dict))

    @property
    def labeling(self) -> dict:
        """Edge -> label map for the original tree."""
        return dict(self._labels[HOST_T])

    @property
    def labeling_transformed(self) -> dict:
        return dict(self._labels[HOST_T2])

    def edge_of(self, letter: Letter, host: str) -> tuple[int, int] | None:
        _require_host(host)
        return self._edges[host].get(letter)

    def label_of(self, u: int, v: int, host: str) -> Letter | None:
        _require_host(host)
        return self._labels[host].get((min(u, v), max(u, v)))

    def b_neighbors_of_pk(self) -> tuple[int, ...]:
        return self._b_neighbors

    def a_neighbors_of_p0(self) -> tuple[int, ...]:
        return self._a_neighbors


def build_context(t: Tree, x: int, y: int) -> PathContext:
    """The context of the bare path from x to y; ValueError when x and y do
    not span one."""
    return PathContext(t, _bare_path(t, x, y))


def word_to_str(word: Word) -> str:
    return " ".join(f"{kind}{idx}" for kind, idx in word)


def parse_word(text: str) -> Word:
    letters = []
    for token in text.split():
        kind, idx = token[0], token[1:]
        if kind not in "abc" or not idx.isdigit() or int(idx) < 1:
            raise ValueError(f"bad letter token {token!r}")
        letters.append((kind, int(idx)))
    return tuple(letters)


def encode_walk(ctx: PathContext, walk: Walk, host: str) -> Word:
    """The label sequence traversed by a walk in the given host."""
    _require_host(host)
    labels = ctx._labels[host]
    letters = []
    for u, v in zip(walk, walk[1:]):
        letter = labels.get((min(u, v), max(u, v)))
        if letter is None:
            raise ValueError(f"step ({u}, {v}) is not an edge of host {host}")
        letters.append(letter)
    return tuple(letters)


def decode_word(ctx: PathContext, word: Word, host: str) -> list[Walk]:
    """All walks in the host whose encoding is `word`.  A word over at
    least two distinct letters has at most one; a repeated single letter
    has two (one per direction); invalid words give an empty list."""
    _require_host(host)
    record = _record(ctx, word, host)
    return list(record[0]) if record is not None else []


def _record(ctx: PathContext, word: Word, host: str) -> list | None:
    """The word's record [walks, type, f-image] in its (host, length) table,
    traced and classified on first use; None when it decodes to nothing."""
    table = ctx._words[host][len(word)]
    record = table.get(word)
    if record is None and word:
        edges = ctx._edges[host]
        walks = []
        for start in edges.get(word[0], ()):  # an edge is (u, v) with u < v
            pos, positions = start, [start]
            for letter in word:
                u, v = edges.get(letter, (None, None))
                if pos != u and pos != v:
                    break
                pos = v if pos == u else u
                positions.append(pos)
            else:
                walks.append(tuple(positions))
        if walks:
            record = table[word] = [tuple(walks), classify(word), None]
    return record


def _is_closed(walks: tuple[Walk, ...]) -> bool:
    """Whether a word's walks are closed.  A word has two walks only when it
    repeats one letter, and both are closed exactly when its length is
    even, so the first walk answers for all."""
    first = walks[0]
    return first[0] == first[-1]


_kind_of = itemgetter(0)  # a letter's kind


def _has(word: Word, kind: str) -> bool:
    """Whether the word has a letter of the kind ('a', 'b' or 'c')."""
    return kind in map(_kind_of, word)


def _runs(word: Word) -> list[tuple[str, int, int]]:
    """The maximal blocks of a word as (kind, start, end) index ranges, from
    one scan of its letters: each run of same-kind non-c letters, with the
    c's between them, is one A- or B-block, and the c's left between
    blocks and at the ends are C-blocks."""
    runs = []
    cursor = 0  # end of the last block
    marks = [(i, kind) for i, (kind, _idx) in enumerate(word) if kind != "c"]
    for kind, group in groupby(marks, key=itemgetter(1)):
        group = list(group)
        start, stop = group[0][0], group[-1][0] + 1
        if cursor < start:
            runs.append(("C", cursor, start))
        runs.append((kind.upper(), start, stop))
        cursor = stop
    if cursor < len(word):
        runs.append(("C", cursor, len(word)))
    return runs


def classify(word: Word) -> WordType:
    """Word type from the kinds of the first and last non-C letters."""
    if not word:
        raise ValueError("cannot classify an empty word")
    kinds = ""
    for kind, _idx in word:
        kinds = _KINDS_AFTER[kinds][kind]
    return _TYPE_OF_KINDS[kinds]


# A word's first and last non-c kinds as one string ("" while it has
# none), and the type they name.  "+" marks only "bb+", a word from b to b
# with an a-letter, so "bb" is a word with a b-letter and no a-letter: a
# B-side word that touches B, as _grow_words reads it.  Keys are strings
# because Enum members hash in Python.
_KINDS_AFTER = {
    "": {"a": "aa", "b": "bb", "c": ""},
    "aa": {"a": "aa", "b": "ab", "c": "aa"},
    "ab": {"a": "aa", "b": "ab", "c": "ab"},
    "bb": {"a": "ba", "b": "bb", "c": "bb"},
    "ba": {"a": "ba", "b": "bb+", "c": "ba"},
    "bb+": {"a": "ba", "b": "bb+", "c": "bb+"},
}
_TYPE_OF_KINDS = {
    "": WordType.T0,
    "aa": WordType.T11,
    "bb": WordType.T12,
    "bb+": WordType.T12,
    "ab": WordType.T21,
    "ba": WordType.T22,
}


def conjugate(ctx: PathContext, word: Word) -> Word:
    """The involution c_i -> c_(k+1-i); a- and b-letters are unchanged.
    It identifies B-side words of the original tree with those of the
    transform."""
    get = ctx._conjugation.get
    return tuple(map(get, word, word))


def reverse(word: Word) -> Word:
    return tuple(reversed(word))


def _c_cut(word: Word, lo: int, hi: int, k: int, end: int) -> int:
    """Where the f-surgery cuts the c-run word[lo:hi]: just past its walk's
    last visit to the path end at position ``end`` (0 or k), where the walk
    starts.  The walk is followed on path positions, where c_j joins
    p_(j-1) and p_j; ValueError when the run does not walk from that end."""
    pos = end
    cut = lo
    for i in range(lo, hi):
        j = word[i][1]
        if pos == j - 1 and j <= k:
            pos = j
        elif pos == j and j > 0:
            pos = j - 1
        else:
            raise ValueError(f"not a path-walk word from p_{end}")
        if pos == end:
            cut = i + 1
    return cut


def words_of(
    ctx: PathContext,
    host: str,
    length: int,
    start: int | None = None,
    end: int | None = None,
    part: str | None = None,
) -> set[Word]:
    """The set of host words of the given length, optionally restricted to
    walks starting/ending at fixed vertices and to a side subgraph
    (part 'A' = A with the path, 'B' = B with the path, 'P' = path only).
    One DFS per start over the host's adjacency, which skips the letters
    outside the part."""
    _require_host(host)
    if part not in (None, "A", "B", "P"):  # a tuple, so an unhashable part is rejected too
        raise ValueError(f"part must be 'A', 'B', 'P' or None, got {part!r}")
    for v in (start, end):
        if v is not None:
            ctx.tree._check_vertex(v)
    adj, kinds = ctx._adjacency[host], _PART_KINDS[part]
    out: set[Word] = set()
    sources = [start] if start is not None else list(range(len(adj)))
    for s in sources:
        stack: list[tuple[int, Word]] = [(s, ())]
        while stack:
            pos, word = stack.pop()
            if len(word) == length:
                if end is None or pos == end:
                    out.add(word)
                continue
            for u, letter in adj[pos]:
                if letter[0] in kinds:
                    stack.append((u, word + (letter,)))
    return out


def word_sets(
    ctx: PathContext, host: str, max_len: int
) -> list[tuple[set[Word], set[Word]]]:
    """For every length 0..max_len, the host words of that length and those
    among them that encode a closed walk, read from the word tables that
    _grow_words fills (see the module docstring)."""
    _require_host(host)
    sets = [({()}, {()})]
    for level in _grow_words(ctx, host, max_len)[1:]:
        table = level[0]
        closed = {word for word, record in table.items() if _is_closed(record[0])}
        sets.append((set(table), closed))
    return sets


def _grow_words(
    ctx: PathContext, host: str, max_len: int
) -> list[tuple[dict[Word, list], dict[int, list[Word]], dict[Word, list], dict[int, list[Word]]]]:
    """One labeled walk enumeration of both hosts out of every start vertex
    that grows all walks by one letter per level, and puts each nonempty
    word's record into its (host, length) table once, with the word's walks
    and the type named by the kinds each walk carries.

    A walk with no b-letter steps only on a- and c-edges, which T and T'
    share, so it is the same walk in both hosts with the same word and
    type: those walks grow once, into one record per word that both tables
    take (dict.update).  Only the walks with a b-letter grow per host, from
    a b-free walk by a b-letter or from a walk with one by any letter.

    Returns, for every length 0..max_len, the table of ``host`` and the
    words of its walks with state "bb" (a b-letter and no a-letter) by
    start vertex, then the same two for the other host.  A start's words
    are distinct, since from a fixed start a word spells one walk."""
    hosts = (host, HOST_T2 if host == HOST_T else HOST_T)
    after, type_of = _KINDS_AFTER, _TYPE_OF_KINDS
    # the a- and c-letters out of each vertex, the same in both hosts, and
    # each host's b-letters
    free_adj = [[step for step in steps if step[1][0] != "b"] for steps in ctx._adjacency[HOST_T]]
    b_adj = {
        h: [[step for step in steps if step[1][0] == "b"] for steps in ctx._adjacency[h]]
        for h in hosts
    }
    free = [((v,), (), "") for v in range(len(free_adj))]  # (positions, word, kinds)
    b_walks = dict.fromkeys(hosts, [])
    levels = [({}, {}, {}, {})]
    for length in range(1, max_len + 1):
        # every list stays sorted by start vertex within each word, the
        # order decode_word uses
        for h in hosts:
            steps, adj = b_adj[h], ctx._adjacency[h]
            b_walks[h] = [
                (positions + (u,), word + (letter,), after[kinds]["b"])
                for positions, word, kinds in free
                for u, letter in steps[positions[-1]]
            ] + [
                (positions + (u,), word + (letter,), after[kinds][letter[0]])
                for positions, word, kinds in b_walks[h]
                for u, letter in adj[positions[-1]]
            ]
        free = [
            (positions + (u,), word + (letter,), after[kinds][letter[0]])
            for positions, word, kinds in free
            for u, letter in free_adj[positions[-1]]
        ]
        shared: dict[Word, list] = {}
        for positions, word, kinds in free:
            record = [(positions,), type_of[kinds], None]
            found = shared.setdefault(word, record)
            if found is not record:
                # a repeated letter: its second walk, traced the other way
                found[0] += (positions,)
        level = []
        for h in hosts:
            table = ctx._words[h][length]
            table.update(shared)
            b_words: dict[int, list[Word]] = defaultdict(list)
            for positions, word, kinds in b_walks[h]:
                record = [(positions,), type_of[kinds], None]
                found = table.setdefault(word, record)
                if found is not record and positions not in found[0]:
                    found[0] += (positions,)
                if kinds == "bb":
                    b_words[positions[0]].append(word)
            level += (table, b_words)
        levels.append(tuple(level))
    return levels


# The injective maps; see the module docstring for the shape of the
# construction.


def f_map(ctx: PathContext, word: Word, closed: bool = False) -> Word:
    """Rewrite a T-word as a T'-word of the same length and type.

    Total on types T0/T11/T12.  Types T21/T22 are only defined for closed
    words (pass closed=True); the closedness itself is the caller's claim
    and is not re-derived here.
    """
    record = ctx._words[HOST_T][len(word)].get(word) or _t_record(ctx, word)
    wtype = record[1]
    if (wtype is _T21 or wtype is _T22) and not closed:
        raise ValueError(f"type {wtype.value} words are only mapped when closed")
    return record[2] or _f_image(ctx, word, record)


def _t_record(ctx: PathContext, word: Word) -> list:
    """The record of a word f_map or h_map takes when it is not in the T
    table yet: traced on demand; ValueError when the word is empty or does
    not decode in T."""
    if not word:
        raise ValueError("cannot map an empty word")
    record = _record(ctx, word, HOST_T)
    if record is None:
        raise ValueError("word is not valid in the original tree")
    return record


def _f_image(ctx: PathContext, word: Word, record: list) -> Word:
    """The f-image of a T-word whose record its caller has read, whose type
    it has checked and whose image slot it found empty: computed and stored
    there.  f_map and h_map hand out the stored image (a nonempty word)
    after that.  A word with no letter of the side its type does not lead
    with has no C-run to split: it is kept whole when A leads and
    conjugated whole when B leads."""
    wtype = record[1]
    if wtype is _T0:
        image = word
    elif wtype is _T11 or wtype is _T21:
        image = _f_surgery(ctx, word, "A") if _has(word, "b") else word
    else:
        image = _f_surgery(ctx, word, "B") if _has(word, "a") else conjugate(ctx, word)
    record[2] = image
    return image


def _f_surgery(ctx: PathContext, word: Word, lead: str) -> Word:
    """The block surgery of f_map on a word whose first non-C block has
    kind `lead` ('A' or 'B') and which has a block of the other side.  Each
    C-run that leads from a lead-side block to an other-side block is split
    at its walk's last visit to the lead side's path end (p_0 for A, p_k for
    B); the head stays in place and the reversed tail follows the
    other-side block.  When A leads, lead-side blocks, plain C-runs and
    heads keep their letters while other-side blocks and tails are
    conjugated; when B leads it is the other way round.  The blocks are
    read as index ranges of the word."""
    get = ctx._conjugation.get
    if lead == "A":
        other, end, conjugate_kept = "B", 0, False
    else:
        other, end, conjugate_kept = "A", ctx.k, True
    runs = _runs(word)
    last = len(runs) - 1
    out: list[Letter] = []
    pending: Word | None = None  # the swapped tail waiting for its block
    for i, (kind, lo, hi) in enumerate(runs):
        letters = word[lo:hi]
        if kind == other:
            if pending is None:
                raise ValueError("other-side block without a leading C-run")
            out.extend(letters if conjugate_kept else map(get, letters, letters))
            out.extend(pending)
            pending = None
        elif kind == "C" and 0 < i < last and runs[i + 1][0] == other:
            cut = _c_cut(word, lo, hi, ctx.k, end)
            head, tail = word[lo:cut], word[cut:hi][::-1]
            out.extend(map(get, head, head) if conjugate_kept else head)
            pending = tail if conjugate_kept else tuple(map(get, tail, tail))
        else:
            out.extend(map(get, letters, letters) if conjugate_kept else letters)
    return tuple(out)


def _walk_from(ctx: PathContext, word: Word, starts: tuple[int, ...]) -> Walk | None:
    """The T-walk of the word from the first of starts that has one, read
    from the word's record; None when no start has one."""
    record = _record(ctx, word, HOST_T)
    if record is not None:
        for start in starts:
            for walk in record[0]:
                if walk[0] == start:
                    return walk
    return None


def _b_side_walk(ctx: PathContext, word: Word, name: str, starts: tuple[int, ...]) -> Walk:
    """The walk a g map of the given name reflects: the B-side word's walk
    from the first of starts that has one; ValueError when the word has an
    a-letter, has no b-letter, or starts at none of them."""
    if _has(word, "a"):
        raise ValueError(f"{name} takes B-side words only")
    if not _has(word, "b"):
        raise ValueError("word lacks a b-letter")
    walk = _walk_from(ctx, word, starts)
    if walk is None:
        raise ValueError(f"word does not start at any of {starts} in the B-side subgraph")
    return walk


def _mirror(letters: list[Letter]) -> dict[Letter, Letter]:
    """The letter involution that reverses a path spelled by distinct
    letters: the i-th letter swaps with the i-th from the end.  The mirror
    of c_1..c_k is conjugation."""
    return dict(zip(letters, reversed(letters)))


def _reflect(
    word: Word, positions: tuple[int, ...], midpoint: int, mirror: dict[Letter, Letter]
) -> Word:
    """The reflection step of the g maps: cut the walk (its vertex
    positions) at its first visit to midpoint, the middle vertex of the
    even-length path whose letter table is mirror, and map the head
    through it."""
    try:
        cut = positions.index(midpoint)
    except ValueError:
        raise ValueError("the walk never visits the path midpoint") from None
    head = word[:cut]
    return tuple(map(mirror.get, head, head)) + word[cut:]


def g_even(ctx: PathContext, word: Word) -> Word:
    """Even-k endpoint swap on the B-side subgraph: split at the walk's
    first visit to the path midpoint p_(k/2) and conjugate the head (the
    reflection step through c_1..c_k).

    Self-inverse between the p_0-rooted words that touch B (each crosses
    the midpoint on its way to B) and the p_k-rooted words that touch B and
    reach the midpoint.  A p_k-rooted word that never reaches it, such as
    one that stays in B, is outside the domain and raises ValueError."""
    if ctx.k % 2 != 0:
        raise ValueError("g_even needs a path of even length")
    positions = _b_side_walk(ctx, word, "g_even", (ctx.p0, ctx.pk))
    return _reflect(word, positions, ctx.path[ctx.k // 2], ctx._conjugation)


def g_odd(ctx: PathContext, word: Word, u: int) -> Word:
    """Odd-k reflection between the p_1- and p_k-rooted B-side word sets:
    extend the path by the designated B-neighbor u of p_k, split at the
    walk's first visit to p_((k+1)/2), and reflect the head through the
    extended path.  Self-inverse."""
    if ctx.k % 2 != 1:
        raise ValueError("g_odd needs a path of odd length")
    if u not in ctx.b_neighbors_of_pk():
        raise ValueError(f"{u} is not a B-side neighbor of the far endpoint")
    positions = _b_side_walk(ctx, word, "g_odd", (ctx.path[1], ctx.pk))
    return _reflect(word, positions, ctx.path[(ctx.k + 1) // 2], ctx._mirrors[u])


def g_total(ctx: PathContext, word: Word) -> Word:
    """Injection from p_0-rooted B-side T-words containing a b-letter into
    p_0-rooted B-side T'-words of the same length containing a b-letter.

    Even k: g_even then conjugate into the transform.  Odd k: strip the
    forced leading c_1, apply g_odd with the smallest B-neighbor of p_k,
    conjugate, then restore the length by repeating the final letter (the
    walk steps back along its last edge)."""
    if not _has(word, "b"):
        raise ValueError("word lacks a b-letter")
    if _walk_from(ctx, word, (ctx.p0,)) is None:
        raise ValueError("word is not a B-side walk word from p_0")
    if ctx.k % 2 == 0:
        return conjugate(ctx, g_even(ctx, word))
    u = min(ctx.b_neighbors_of_pk())
    swapped = g_odd(ctx, word[1:], u)
    image = conjugate(ctx, swapped)
    return image + (image[-1],)


def g_total_aside(ctx: PathContext, word: Word) -> Word:
    """A-side mirror of g_total: injection from p_k-rooted A-side words
    containing an a-letter into p_0-rooted ones of the same length.  The
    A-side subgraph is identical in the tree and its transform, so no
    final reinterpretation is needed."""
    if _has(word, "b"):
        raise ValueError("g_total_aside takes A-side words only")
    if not _has(word, "a"):
        raise ValueError("word lacks an a-letter")
    positions = _walk_from(ctx, word, (ctx.pk,))
    if positions is None:
        raise ValueError("word is not an A-side walk word from p_k")
    k = ctx.k
    if k % 2 == 0:
        return _reflect(word, positions, ctx.path[k // 2], ctx._conjugation)
    # Odd k: strip the forced leading c_k, reflect through the path
    # u,p_0..p_k extended by the smallest A-neighbor u of p_0, then restore
    # the length.
    mirror = ctx._mirrors[min(ctx.a_neighbors_of_p0())]
    image = _reflect(word[1:], positions[1:], ctx.path[(k - 1) // 2], mirror)
    return image + (image[-1],)


def h_map(ctx: PathContext, word: Word) -> Word:
    """Length- and type-preserving injection from all T-words into T'-words.

    Types T0/T11/T12 take their f-image.  T21 splits before the last
    separating C-run into a T11 prefix (mapped by f) and a p_0-rooted
    B-side suffix (mapped by g_total); T22 is the mirror with the A-side.
    """
    record = ctx._words[HOST_T][len(word)].get(word) or _t_record(ctx, word)
    wtype = record[1]
    if wtype is not _T21 and wtype is not _T22:
        return record[2] or _f_image(ctx, word, record)
    # the start of the last proper C-run
    cut = max(lo for kind, lo, _hi in _runs(word)[1:-1] if kind == "C")
    prefix, suffix = word[:cut], word[cut:]
    mapped_prefix = f_map(ctx, prefix, closed=False)
    if wtype is _T21:
        return mapped_prefix + g_total(ctx, suffix)
    return mapped_prefix + g_total_aside(ctx, suffix)
