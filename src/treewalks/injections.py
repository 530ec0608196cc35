"""Per-tree worker of the word-map injection sweep (``verify_injections``).

For every bare path of a tree it builds the path's context and checks the
f, g and h word maps and the endpoint-swap counting lemmas at every length.
It is the one part of the sweeps that needs the word layer, so it lives
apart from ``verify`` and is imported only when the injection sweep runs.

Every map check has one shape: map each word of a domain, test each image
(length, type and where it decodes, or that the swap undoes itself), and
pass when every test holds and the images are as many as the words.
``_injective`` turns a domain, its images and the per-image tests into
that check record.  The images and tests are list comprehensions that call
the maps by their names in this module, so a test that replaces one of
them here replaces it in the sweep.
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
            f_rows, f_tested = _check_f(ctx, check, words, closed)
            rows.extend(f_rows)
            rows.extend(_check_h(ctx, check, words, t2_sets[ell][0], f_tested))
            rows.extend(_check_g(ctx, check, ell, b_p0))
            rows.extend(_check_lemmas(ctx, check, ell, b_p0))
    return rows


def _injective(check, name, domain, images, tests):
    """The check that a map is injective on domain and that every image
    passes its test; images and tests follow the order of domain."""
    distinct = len(set(images))
    passed = all(tests) and distinct == len(domain)
    return check(name, len(domain), distinct, "==", passed)


def _image_ok(ctx, word, image, require_closed):
    if len(image) != len(word):
        return False
    types = ctx._types
    if types[image] is not types[word]:
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
    """The two f checks, and each f-general word's image and verdict, keyed
    by the word, for _check_h to reuse."""
    types = ctx._types
    open_dom = [w for w in words if types[w] in _F_OPEN_TYPES]
    closed_images = [f_map(ctx, w, closed=True) for w in closed]
    open_images = [f_map(ctx, w, closed=False) for w in open_dom]
    closed_tests = [_image_ok(ctx, w, i, True) for w, i in zip(closed, closed_images)]
    open_tests = [_image_ok(ctx, w, i, False) for w, i in zip(open_dom, open_images)]
    rows = [
        _injective(check, "f-closed-inject", closed, closed_images, closed_tests),
        _injective(check, "f-general-inject", open_dom, open_images, open_tests),
    ]
    return rows, dict(zip(open_dom, zip(open_images, open_tests)))


def _check_h(ctx, check, words, t2_words, f_tested):
    """The h checks.  h_map gives the f-image on the f-general domain, so
    an image already tested there takes that verdict; any other image,
    including one that differs from the tested f-image, is tested here."""
    images = [h_map(ctx, w) for w in words]
    tests = [
        tested[1]
        if (tested := f_tested.get(w)) is not None and tested[0] == i
        else _image_ok(ctx, w, i, False)
        for w, i in zip(words, images)
    ]
    rows = [_injective(check, "h-inject", words, images, tests)]
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


def _lands(ctx, image, length, start, host):
    """Whether a g-image has the length, a b-letter, and a walk from start
    in host."""
    return (
        len(image) == length
        and _has_b(image)
        and _trace(ctx, image, start, host) is not None
    )


def _check_g(ctx, check, ell, b_p0):
    rows = []
    p0, pk = ctx.p0, ctx.pk
    domain = [w for w in b_p0 if _has_b(w)]
    if ctx.k % 2 == 0:
        images = [g_even(ctx, w) for w in domain]
        tests = [
            _lands(ctx, i, ell, pk, HOST_T) and g_even(ctx, i) == w
            for w, i in zip(domain, images)
        ]
        rows.append(_injective(check, "g-even-involution", domain, images, tests))
    elif ctx.b_neighbors_of_pk() and ell >= 2:
        u = min(ctx.b_neighbors_of_pk())
        from_p1 = words_of(ctx, HOST_T, ell - 1, start=ctx.path[1], part="B")
        odd = [w for w in from_p1 if _has_b(w)]
        images = [g_odd(ctx, w, u) for w in odd]
        tests = [
            _lands(ctx, i, ell - 1, pk, HOST_T) and g_odd(ctx, i, u) == w
            for w, i in zip(odd, images)
        ]
        rows.append(_injective(check, "g-odd-involution", odd, images, tests))
    images = [g_total(ctx, w) for w in domain]
    tests = [_lands(ctx, i, ell, p0, HOST_T2) for i in images]
    rows.append(_injective(check, "g-total-inject", domain, images, tests))
    return rows


def _check_lemmas(ctx, check, ell, b_p0):
    p0, pk = ctx.p0, ctx.pk
    lhs = len(b_p0) - len(words_of(ctx, HOST_T, ell, start=p0, part="P"))
    # odd k compares with the p_k-rooted words one letter shorter
    length, name = (ell, "lemma-even") if ctx.k % 2 == 0 else (ell - 1, "lemma-odd")
    w_pk = len(words_of(ctx, HOST_T, length, start=pk, part="B"))
    rhs = w_pk - len(words_of(ctx, HOST_T, length, start=pk, part="P"))
    w2_p0 = len(words_of(ctx, HOST_T2, ell, start=p0, part="B"))
    total = w2_p0 - len(words_of(ctx, HOST_T2, ell, start=p0, part="P"))
    return [
        check(name, lhs, rhs, "<=", lhs <= rhs),
        check("corollary-total", lhs, total, "<=", lhs <= total),
    ]
