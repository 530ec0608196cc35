"""Per-tree worker of the word-map injection sweep (``verify_injections``).

For every bare path of a tree it builds the path's context and checks the
f, g and h word maps and the endpoint-swap counting lemmas at every length.
It is the one part of the sweeps that needs the word layer, so it lives
apart from ``verify`` and is imported only when the injection sweep runs.
"""

from __future__ import annotations

from functools import partial

from .transforms import bare_paths
from .verify import Check
from .words import (
    HOST_T,
    HOST_T2,
    WordType,
    _decoded,
    _trace,
    _word_type,
    build_context,
    f_map,
    g_even,
    g_odd,
    g_total,
    h_map,
    word_sets,
    words_of,
)

__all__ = ["injection_rows"]


def injection_rows(args) -> list:
    """The checks of one tree: every bare path's context, every length up to
    max_len, the f, g and h maps and the lemmas.  ``args`` is one picklable
    job tuple (tree, index among its order, max_len)."""
    t, index, max_len = args
    rows = []
    for bp in bare_paths(t):
        ctx = build_context(t, *bp.endpoints)
        t_sets = word_sets(ctx, HOST_T, max_len)
        t2_sets = word_sets(ctx, HOST_T2, max_len)
        for ell in range(1, max_len + 1):
            # check(name, lhs, rhs, relation, passed) at this path and length
            check = partial(Check, t.n, ell, tree=index, path=bp.vertices)
            words, closed = t_sets[ell]
            # the B-side T-words from p0, shared by the g maps and the lemmas
            b_p0 = words_of(ctx, HOST_T, ell, start=ctx.p0, part="B")
            rows.extend(_check_f(ctx, check, words, closed))
            rows.extend(_check_h(ctx, check, words, t2_sets[ell][0]))
            rows.extend(_check_g(ctx, check, ell, b_p0))
            rows.extend(_check_lemmas(ctx, check, ell, b_p0))
    return rows


def _image_ok(ctx, word, image, require_closed):
    if len(image) != len(word):
        return False
    if _word_type(ctx, image) is not _word_type(ctx, word):
        return False
    walks = _decoded(ctx, image, HOST_T2)
    if not walks:
        return False
    if require_closed and not any(w[0] == w[-1] for w in walks):
        return False
    return True


# the types f_map takes without a closedness claim
_F_OPEN_TYPES = (WordType.T0, WordType.T11, WordType.T12)


def _check_f(ctx, check, words, closed):
    rows = []
    images = set()
    good = True
    for word in closed:
        image = f_map(ctx, word, closed=True)
        good = good and _image_ok(ctx, word, image, require_closed=True)
        images.add(image)
    rows.append(
        check(
            "f-closed-inject",
            len(closed),
            len(images),
            "==",
            good and len(images) == len(closed),
        )
    )
    open_dom = [w for w in words if _word_type(ctx, w) in _F_OPEN_TYPES]
    images = set()
    good = True
    for word in open_dom:
        image = f_map(ctx, word, closed=False)
        good = good and _image_ok(ctx, word, image, require_closed=False)
        images.add(image)
    rows.append(
        check(
            "f-general-inject",
            len(open_dom),
            len(images),
            "==",
            good and len(images) == len(open_dom),
        )
    )
    return rows


def _check_h(ctx, check, words, t2_words):
    images = set()
    good = True
    for word in words:
        image = h_map(ctx, word)
        good = good and _image_ok(ctx, word, image, require_closed=False)
        images.add(image)
    distinct = len(images)
    row = check(
        "h-inject", len(words), distinct, "==", good and distinct == len(words)
    )
    rows = [row]
    if words:
        rows.append(
            check(
                "word-count-monotone",
                len(words),
                len(t2_words),
                "<=",
                len(words) <= len(t2_words),
            )
        )
    return rows


def _has_b(word):
    return any(kind == "b" for kind, _ in word)


def _check_g(ctx, check, ell, b_p0):
    rows = []
    p0, pk, p1 = ctx.p0, ctx.pk, ctx.path[1]
    if ctx.k % 2 == 0:
        domain = [w for w in b_p0 if _has_b(w)]
        images = set()
        good = True
        for word in domain:
            image = g_even(ctx, word)
            ok = (
                len(image) == ell
                and _has_b(image)
                and _trace(ctx, image, pk, HOST_T) is not None
                and g_even(ctx, image) == word
            )
            good = good and ok
            images.add(image)
        rows.append(
            check(
                "g-even-involution",
                len(domain),
                len(images),
                "==",
                good and len(images) == len(domain),
            )
        )
    else:
        b_nbrs = ctx.b_neighbors_of_pk()
        if b_nbrs and ell >= 2:
            u = min(b_nbrs)
            domain = [
                w
                for w in words_of(ctx, HOST_T, ell - 1, start=p1, part="B")
                if _has_b(w)
            ]
            images = set()
            good = True
            for word in domain:
                image = g_odd(ctx, word, u)
                ok = (
                    len(image) == ell - 1
                    and _has_b(image)
                    and _trace(ctx, image, pk, HOST_T) is not None
                    and g_odd(ctx, image, u) == word
                )
                good = good and ok
                images.add(image)
            rows.append(
                check(
                    "g-odd-involution",
                    len(domain),
                    len(images),
                    "==",
                    good and len(images) == len(domain),
                )
            )
    domain = [w for w in b_p0 if _has_b(w)]
    images = set()
    good = True
    for word in domain:
        image = g_total(ctx, word)
        ok = (
            len(image) == ell
            and _has_b(image)
            and _trace(ctx, image, p0, HOST_T2) is not None
        )
        good = good and ok
        images.add(image)
    rows.append(
        check(
            "g-total-inject",
            len(domain),
            len(images),
            "==",
            good and len(images) == len(domain),
        )
    )
    return rows


def _check_lemmas(ctx, check, ell, b_p0):
    rows = []
    p0, pk = ctx.p0, ctx.pk
    w_p0 = len(b_p0)
    path_p0 = len(words_of(ctx, HOST_T, ell, start=p0, part="P"))
    lhs = w_p0 - path_p0
    if ctx.k % 2 == 0:
        w_pk = len(words_of(ctx, HOST_T, ell, start=pk, part="B"))
        path_pk = len(words_of(ctx, HOST_T, ell, start=pk, part="P"))
        rhs = w_pk - path_pk
        rows.append(check("lemma-even", lhs, rhs, "<=", lhs <= rhs))
    else:
        w_pk = len(words_of(ctx, HOST_T, ell - 1, start=pk, part="B"))
        path_pk = len(words_of(ctx, HOST_T, ell - 1, start=pk, part="P"))
        rhs = w_pk - path_pk
        rows.append(check("lemma-odd", lhs, rhs, "<=", lhs <= rhs))
    w2_p0 = len(words_of(ctx, HOST_T2, ell, start=p0, part="B"))
    path2_p0 = len(words_of(ctx, HOST_T2, ell, start=p0, part="P"))
    rhs = w2_p0 - path2_p0
    rows.append(check("corollary-total", lhs, rhs, "<=", lhs <= rhs))
    return rows
