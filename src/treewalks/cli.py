"""Command-line frontend.  Thin adapters only: parsing, one handler per
subcommand, and serialization; all counting and transformation logic lives
in the library modules.

Subcommands:

- ``enumerate --n N``: every free tree of order N (edgelist, pruefer or dot),
  one per isomorphism class, in canonical-code order; tree i of this list
  is tree ``t=i`` of the per-tree sweeps.  Each is labeled by
  ``generate.leaf_rooted``: rooted at a leaf as vertex 0 and numbered in
  preorder, larger subtrees first.
- ``count --kind closed|all|paths|wiener [--len L] FILE...``: exact counts.
- ``kc --tree FILE (--x X --y Y | --list-moves)``: the end-to-end path move.
- ``verify closed-extremal|kc-monotone|injections --max-n N --max-len L``
  and ``verify path-extremal --max-n N --len L``: the exhaustive sweeps.
  ``--format csv`` (default) prints one row per check (``instance,lhs,rhs,
  relation,passed``), ``--format json`` one object with the scope, the
  check count and the violations.  ``verify injections --format summary``
  prints one row per (tree, bare path, length) instead: ``tree,path,len,
  domain,image,violations``, where tree is ``n/index``, domain and image
  are the sizes of the h-map's domain and image, and violations counts the
  failed checks there.  CSV and summary rows are written as the sweep
  runs.  ``--kind closed|all|both`` (kc-monotone only, default ``both``)
  picks the walk counts; ``--workers W`` (injections only, default 1) runs
  the trees in up to W processes, one per CPU at most, with the same
  output.
- ``counterexample --c C --k K --len L``: distance sum up, walk counts up.
- ``broom-profile --n N --len L``: path counts across leg counts.
- ``dc-reduce --tree FILE --len L``: the greedy delete-clone reduction.

Each subparser sets ``handler``, the ``_cmd_*`` function that ``main`` runs
on the parsed namespace.

Import rule: at module level this file imports only what parsing and
``_load_tree`` need (``argparse``, ``sys`` and ``.trees``).  Each
``_cmd_*`` handler imports the library functions it calls when it runs, so
a process compiles and loads only the modules of its own subcommand:
``count`` never loads ``verify`` or ``words``.

Exit codes: 0 all checks pass / verdict true, 1 violation or false verdict,
2 usage error (bad flags, unreadable or malformed input).
"""

from __future__ import annotations

import argparse
import sys

from .trees import Tree, format_tree_text, parse_tree_text, to_dot

__all__ = ["main", "parse_rational"]


def parse_rational(text: str) -> Fraction:
    """Exact rational from 'p/q' or a decimal string; never via binary
    floating point."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _load_tree(path: str) -> Tree:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: not UTF-8 text ({exc})") from None
    return parse_tree_text(text)


def _emit_tree(t: Tree, fmt: str, labels: dict | None = None) -> str:
    if fmt == "edgelist":
        return format_tree_text(t)
    if fmt == "pruefer":
        from .generate import to_pruefer

        return " ".join(map(str, to_pruefer(t))) + "\n" if t.n >= 2 else "\n"
    if fmt == "dot":
        return to_dot(t, edge_labels=labels)
    raise ValueError(f"unknown tree format {fmt!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treewalks",
        description="Exact walk/path counting and rewiring moves on trees, "
        "with exhaustive extremal verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all trees of one order up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["edgelist", "pruefer", "dot"], default="edgelist")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("count", help="count walks, paths, or the distance sum")
    p.add_argument("--kind", choices=["closed", "all", "paths", "wiener"], required=True)
    p.add_argument("--len", type=int, dest="length", default=None)
    p.add_argument("files", nargs="+")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("kc", help="apply the end-to-end path move")
    p.add_argument("--tree", required=True)
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    p.add_argument("--list-moves", action="store_true")
    p.add_argument("--format", choices=["edgelist", "dot"], default="edgelist")
    p.set_defaults(handler=_cmd_kc)

    ver = sub.add_parser("verify", help="exhaustive extremal sweeps")
    vsub = ver.add_subparsers(dest="verify_command", required=True)
    for name in ("closed-extremal", "kc-monotone", "injections"):
        p = vsub.add_parser(name)
        p.add_argument("--max-n", type=int, required=True)
        p.add_argument("--max-len", type=int, required=True)
        formats = ["csv", "json", "summary"] if name == "injections" else ["csv", "json"]
        p.add_argument("--format", choices=formats, default="csv")
        if name == "injections":
            p.add_argument("--workers", type=int, default=1)
        if name == "kc-monotone":
            p.add_argument("--kind", choices=["closed", "all", "both"], default="both")
        p.set_defaults(handler=_cmd_verify)
    p = vsub.add_parser("path-extremal")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--len", type=int, dest="length", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("counterexample", help="distance sum up, walk counts up")
    p.add_argument("--c", type=parse_rational, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--len", type=int, dest="length", required=True)
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser("broom-profile", help="path counts across leg counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--len", type=int, dest="length", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(handler=_cmd_broom_profile)

    p = sub.add_parser("dc-reduce", help="greedy delete-clone reduction")
    p.add_argument("--tree", required=True)
    p.add_argument("--len", type=int, dest="length", required=True)
    p.add_argument("--format", choices=["edgelist", "dot"], default="edgelist")
    p.set_defaults(handler=_cmd_dc_reduce)

    return parser


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .generate import enumerate_free_trees, leaf_rooted

    out = []
    for t in map(leaf_rooted, enumerate_free_trees(args.n)):
        out.append(_emit_tree(t, args.format))
    sys.stdout.write("".join(out))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    from .walks import count_closed_walks, count_ell_paths, count_walks, wiener

    length = args.length
    if args.kind != "wiener" and (length is None or length < 1):
        raise ValueError("--len is required and must be >= 1")
    counters = {
        "closed": lambda t: count_closed_walks(t, length),
        "all": lambda t: count_walks(t, length),
        "paths": lambda t: count_ell_paths(t, length),
        "wiener": wiener,
    }
    values = [(path, counters[args.kind](_load_tree(path))) for path in args.files]
    if len(values) == 1:
        sys.stdout.write(f"{values[0][1]}\n")
    else:
        sys.stdout.write("file,value\n")
        for path, value in values:
            sys.stdout.write(f"{path},{value}\n")
    return 0


def _cmd_kc(args: argparse.Namespace) -> int:
    from .transforms import kc_moves, kc_transform

    t = _load_tree(args.tree)
    if args.list_moves:
        for code in sorted(kc_moves(t)):
            sys.stdout.write(code + "\n")
        return 0
    x, y = args.x, args.y
    if x is None or y is None:
        raise ValueError("kc needs --x and --y (or --list-moves)")
    moved = kc_transform(t, x, y)
    labels = None
    if args.format == "dot":
        from .words import build_context, word_to_str

        ctx = build_context(t, x, y)
        labels = {
            edge: word_to_str([letter])
            for edge, letter in ctx.labeling_transformed.items()
        }
    sys.stdout.write(_emit_tree(moved, args.format, labels=labels))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import (
        report_writer,
        verify_closed_extremal,
        verify_injections,
        verify_kc_monotone,
        verify_path_extremal,
    )

    # the writer renders each block of checks as the sweep hands it over
    writer = report_writer(args.format, sys.stdout.write)
    name = args.verify_command
    if name == "closed-extremal":
        report = verify_closed_extremal(args.max_n, args.max_len, emit=writer)
    elif name == "kc-monotone":
        report = verify_kc_monotone(args.max_n, args.max_len, kind=args.kind, emit=writer)
    elif name == "injections":
        report = verify_injections(args.max_n, args.max_len, workers=args.workers, emit=writer)
    else:
        report = verify_path_extremal(args.max_n, args.length, emit=writer)
    writer.close(report)
    return 0 if report.ok else 1


def _payload(result, **extra) -> str:
    """A library result record as one JSON line with sorted keys: its own
    fields (its ``__slots__``), ``ell`` named ``len`` as on the command
    line, then ``extra``."""
    import json

    payload = {name: getattr(result, name) for name in result.__slots__}
    payload["len"] = payload.pop("ell")
    payload.update(extra)
    return json.dumps(payload, sort_keys=True) + "\n"


def _cmd_counterexample(args: argparse.Namespace) -> int:
    from .verify import build_counterexample

    result = build_counterexample(args.c, args.k, args.length)
    sys.stdout.write(_payload(result, c=str(result.c), verdict=result.verdict))
    return 0 if result.verdict else 1


def _cmd_broom_profile(args: argparse.Namespace) -> int:
    from .verify import broom_profile

    profile = broom_profile(args.n, args.length)
    if args.format == "json":
        sys.stdout.write(_payload(profile))
    else:
        sys.stdout.write("p,paths\n")
        for p, v in profile.rows:
            sys.stdout.write(f"{p},{v}\n")
        sys.stdout.write(f"# argmax_p={profile.argmax_p} best={profile.best} p_opt={profile.p_opt:.6f}\n")
    return 0


def _cmd_dc_reduce(args: argparse.Namespace) -> int:
    from .verify import dc_reduce

    t = _load_tree(args.tree)
    reduced = dc_reduce(t, args.length)
    sys.stdout.write(_emit_tree(reduced, args.format))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
