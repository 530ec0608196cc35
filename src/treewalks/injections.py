"""Per-tree worker of the word-map injection sweep (``verify_injections``).

For every bare path of a tree it builds the path's context and checks the
f, g and h word maps and the endpoint-swap counting lemmas at every length.
It is the one part of the sweeps that needs the word layer, so it lives
apart from ``verify`` and is imported only when the injection sweep runs.

Every map check has one shape: map each word of a domain, test each image
(length, type and where it decodes, or that the swap undoes itself), and
pass when every test holds and the images are as many as the words.
``_injective`` turns a domain's images, and whether every image passed its
test, into that check record.  The maps are called by their names in this
module, so a test that replaces one of them here replaces it in the sweep.

The word sets come from what ``words._grow_words`` builds once per
context, for both hosts in one growth: per host and length, the table of
every word with its record (walks, type, f-image), and the B-side words
with a b-letter from each start vertex.  So the f and h checks walk one
table, with no set or lookup per domain; the g maps and the lemmas read
their domains and counts from the per-start lists; and every image test
reads the image's walks and type from the table of its host and length,
with no trace.  Each word of the two f domains (the closed words, and the
T0/T11/T12 words) is mapped and its image tested once: a closed T0/T11/T12
word is in both, and its closed test is its general test plus the
closedness of its image's T' walks.  f_map reads a word's closedness from
its record; the sweep reads it too, to put the word in its f checks.  The
h check takes the f verdict for an h-image that is the tested f-image
itself and tests any other.  Every row is a ``Check`` given the lead of
its instance, rendered once per path and length.

``injection_rows`` pauses the cyclic garbage collector while a tree's
contexts live and restores the caller's setting when it returns or
raises.  A context allocates tens of thousands of word records, which
would otherwise set off collections that find nothing: the word tables
hold no reference cycles, so reference counting frees them with their
context.  ``tests/test_verify.py::TestCollectorPause`` checks that a sweep
run with the collector off leaves no cyclic garbage and that the setting
comes back either way.
"""

from __future__ import annotations

import gc
from functools import partial

from .transforms import bare_paths
from .verify import Check, _path_prefix
from .words import (
    HOST_T,
    HOST_T2,
    _T21,
    _T22,
    _grow_words,
    _has,
    build_context,
    f_map,
    g_even,
    g_odd,
    g_total,
    h_map,
)

__all__ = ["injection_rows"]


def injection_rows(args) -> list:
    """The checks of one tree: every bare path's context, every length up to
    max_len, the f, g and h maps and the lemmas.  ``args`` is one picklable
    job tuple (tree, index among its order, max_len).  The cyclic garbage
    collector is paused while they run and left as the caller had it."""
    t, index, max_len = args
    enabled = gc.isenabled()
    gc.disable()
    try:
        rows = []
        for bp in bare_paths(t):
            rows.extend(_path_rows(t, index, bp, max_len))
        return rows
    finally:
        if enabled:
            gc.enable()


def _path_rows(t, index, bp, max_len):
    """The checks of one bare path at every length.  Its context and word
    tables are freed when this returns, before the next path's are grown."""
    ctx = build_context(t, *bp.endpoints)
    levels = _grow_words(ctx, HOST_T, max_len)
    prefix = _path_prefix(t.n, index, bp.vertices)
    rows = []
    for ell in range(1, max_len + 1):
        # check(name, lhs, rhs, relation, passed) at this path and length
        check = partial(Check, t.n, ell, tree=index, path=bp.vertices, lead=f"{prefix}{ell:02d} ")
        table, b_words, t2_table, t2_b_words = levels[ell]
        # the B-side T-words from p0 that touch B, shared by the g maps and
        # the lemmas
        b_p0 = b_words.get(ctx.p0, [])
        rows.extend(_check_f_h(ctx, check, table, t2_table))
        rows.extend(_check_g(ctx, check, ell, b_p0, levels, t2_table))
        rows.extend(_check_lemmas(ctx, check, ell, b_p0, levels, t2_b_words))
    return rows


def _injective(check, name, images, all_pass):
    """The check that a map is injective on its domain and that every image
    passes its test; images holds one image per word of the domain."""
    distinct = len(set(images))
    passed = all_pass and distinct == len(images)
    return check(name, len(images), distinct, "==", passed)


_FAILS, _PASSES, _PASSES_CLOSED = (False, False), (True, False), (True, True)


def _image_ok(t2_table, wtype, image):
    """The tests of an f- or h-image of a T-word of type wtype, given the
    T'-word table of the word's length: the image has the word's length
    and type and decodes in T'.  The table holds every T'-word of that
    length and no other word, so finding the image there tests its length
    and that it decodes.  Returns whether it passes, and whether it passes
    with a closed T' walk, the fourth test, which the f-closed domain
    adds."""
    record = t2_table.get(image)
    if record is None or record[1] is not wtype:
        return _FAILS
    first = record[0][0]  # see words._is_closed
    return _PASSES_CLOSED if first[0] == first[-1] else _PASSES


def _check_f_h(ctx, check, table, t2_table):
    """The two f checks and the h checks on the T-words of one length.  f
    maps the closed words and the T0/T11/T12 words, each once; h maps every
    word, and an h-image that is the tested f-image takes its verdict.  Each
    check counts the images that fail their tests."""
    closed_images, open_images, h_images = [], [], []
    closed_failed = open_failed = h_failed = 0
    for word, (walks, wtype, _image) in table.items():
        first = walks[0]
        closed = first[0] == first[-1]  # see words._is_closed
        is_open = wtype is not _T21 and wtype is not _T22
        if is_open or closed:
            f_image = f_map(ctx, word)
            f_ok, f_ok_closed = _image_ok(t2_table, wtype, f_image)
            if is_open:
                open_images.append(f_image)
                if not f_ok:
                    open_failed += 1
            if closed:
                closed_images.append(f_image)
                if not f_ok_closed:
                    closed_failed += 1
        else:
            f_image = f_ok = None
        image = h_map(ctx, word)
        h_images.append(image)
        if not (f_ok if image is f_image else _image_ok(t2_table, wtype, image)[0]):
            h_failed += 1
    rows = [
        _injective(check, "f-closed-inject", closed_images, not closed_failed),
        _injective(check, "f-general-inject", open_images, not open_failed),
        _injective(check, "h-inject", h_images, not h_failed),
    ]
    if table:
        size, t2_size = len(table), len(t2_table)
        rows.append(check("word-count-monotone", size, t2_size, "<=", size <= t2_size))
    return rows


def _lands(table, image, start):
    """Whether a g-image has a b-letter and a walk from start in the host
    whose word table is given.  The table holds the host's words of one
    length and no other word, so finding the image there also tests its
    length.  A word has at most two walks, its first and its last."""
    if not _has(image, "b"):
        return False
    record = table.get(image)
    return record is not None and (record[0][0][0] == start or record[0][-1][0] == start)


def _check_g(ctx, check, ell, b_p0, t_levels, t2_table):
    rows = []
    p0, pk = ctx.p0, ctx.pk
    if ctx.k % 2 == 0:
        table = t_levels[ell][0]
        images = [g_even(ctx, w) for w in b_p0]
        tests = [
            _lands(table, i, pk) and g_even(ctx, i) == w
            for w, i in zip(b_p0, images)
        ]
        rows.append(_injective(check, "g-even-involution", images, all(tests)))
    elif ctx.b_neighbors_of_pk() and ell >= 2:
        u = min(ctx.b_neighbors_of_pk())
        shorter, shorter_b_words = t_levels[ell - 1][:2]
        odd = shorter_b_words.get(ctx.path[1], [])
        images = [g_odd(ctx, w, u) for w in odd]
        tests = [
            _lands(shorter, i, pk) and g_odd(ctx, i, u) == w
            for w, i in zip(odd, images)
        ]
        rows.append(_injective(check, "g-odd-involution", images, all(tests)))
    images = [g_total(ctx, w) for w in b_p0]
    tests = [_lands(t2_table, i, p0) for i in images]
    rows.append(_injective(check, "g-total-inject", images, all(tests)))
    return rows


def _check_lemmas(ctx, check, ell, b_p0, t_levels, t2_b_words):
    """Each side counts the B-side words that touch B: the B-side words
    less the path words, from one start."""
    lhs = len(b_p0)
    # odd k compares with the p_k-rooted words one letter shorter
    length, name = (ell, "lemma-even") if ctx.k % 2 == 0 else (ell - 1, "lemma-odd")
    rhs = len(t_levels[length][1].get(ctx.pk, ()))
    total = len(t2_b_words.get(ctx.p0, ()))
    return [
        check(name, lhs, rhs, "<=", lhs <= rhs),
        check("corollary-total", lhs, total, "<=", lhs <= total),
    ]
