"""Command-line frontend.  Thin adapters only: parsing, dispatch, and
serialization; all counting and transformation logic lives in the library
modules.

Import rule: at module level this file imports only what parsing and
``_load_tree`` need (``argparse``, ``sys``, ``dataclasses`` and
``.trees``).  Each ``_cmd_*`` handler imports the library functions it
calls when it runs, so a process compiles and loads only the modules of
its own subcommand: ``count`` never loads ``verify`` or ``words``.

Exit codes: 0 all checks pass / verdict true, 1 violation or false verdict,
2 usage error (bad flags, unreadable or malformed input).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .trees import Tree, format_tree_text, parse_tree_text, to_dot

__all__ = ["RunConfig", "dispatch", "main", "parse_rational"]


@dataclass
class RunConfig:
    """A parsed command with its flags."""

    command: str
    options: dict
    fmt: str = "csv"
    workers: int = 1


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

    p = sub.add_parser("count", help="count walks, paths, or the distance sum")
    p.add_argument("--kind", choices=["closed", "all", "paths", "wiener"], required=True)
    p.add_argument("--len", type=int, dest="length", default=None)
    p.add_argument("files", nargs="+")

    p = sub.add_parser("kc", help="apply the end-to-end path move")
    p.add_argument("--tree", required=True)
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    p.add_argument("--list-moves", action="store_true")
    p.add_argument("--format", choices=["edgelist", "dot"], default="edgelist")

    words = sub.add_parser("words", help="word-map verification")
    wsub = words.add_subparsers(dest="words_command", required=True)
    p = wsub.add_parser("verify", help="run the full injection suite")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)

    ver = sub.add_parser("verify", help="exhaustive extremal sweeps")
    vsub = ver.add_subparsers(dest="verify_command", required=True)
    for name in ("closed-extremal", "kc-monotone", "injections"):
        p = vsub.add_parser(name)
        p.add_argument("--max-n", type=int, required=True)
        p.add_argument("--max-len", type=int, required=True)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        if name != "closed-extremal":
            p.add_argument("--workers", type=int, default=1)
        if name == "kc-monotone":
            p.add_argument("--kind", choices=["closed", "all", "both"], default="both")
    p = vsub.add_parser("path-extremal")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--len", type=int, dest="length", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("counterexample", help="distance sum up, walk counts up")
    p.add_argument("--c", type=parse_rational, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--len", type=int, dest="length", required=True)

    p = sub.add_parser("broom-profile", help="path counts across leg counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--len", type=int, dest="length", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("dc-reduce", help="greedy delete-clone reduction")
    p.add_argument("--tree", required=True)
    p.add_argument("--len", type=int, dest="length", required=True)
    p.add_argument("--format", choices=["edgelist", "dot"], default="edgelist")

    return parser


def dispatch(config: RunConfig) -> int:
    """Run one parsed command; returns the process exit code."""
    handler = _HANDLERS[config.command]
    return handler(config)


def _cmd_enumerate(config: RunConfig) -> int:
    from .generate import enumerate_free_trees

    out = []
    for t in enumerate_free_trees(config.options["n"]):
        out.append(_emit_tree(t, config.fmt))
    sys.stdout.write("".join(out))
    return 0


def _cmd_count(config: RunConfig) -> int:
    from .walks import count_closed_walks, count_ell_paths, count_walks, wiener

    kind = config.options["kind"]
    length = config.options["length"]
    if kind != "wiener" and (length is None or length < 1):
        sys.stderr.write("error: --len is required and must be >= 1\n")
        return 2
    counters = {
        "closed": lambda t: count_closed_walks(t, length),
        "all": lambda t: count_walks(t, length),
        "paths": lambda t: count_ell_paths(t, length),
        "wiener": wiener,
    }
    files = config.options["files"]
    values = [(path, counters[kind](_load_tree(path))) for path in files]
    if len(values) == 1:
        sys.stdout.write(f"{values[0][1]}\n")
    else:
        sys.stdout.write("file,value\n")
        for path, value in values:
            sys.stdout.write(f"{path},{value}\n")
    return 0


def _cmd_kc(config: RunConfig) -> int:
    from .transforms import kc_moves, kc_transform

    t = _load_tree(config.options["tree"])
    if config.options["list_moves"]:
        for code in sorted(kc_moves(t)):
            sys.stdout.write(code + "\n")
        return 0
    x, y = config.options["x"], config.options["y"]
    if x is None or y is None:
        sys.stderr.write("error: kc needs --x and --y (or --list-moves)\n")
        return 2
    moved = kc_transform(t, x, y)
    labels = None
    if config.fmt == "dot":
        from .words import build_context, word_to_str

        ctx = build_context(t, x, y)
        labels = {
            edge: word_to_str([letter])
            for edge, letter in ctx.labeling_transformed.items()
        }
    sys.stdout.write(_emit_tree(moved, config.fmt, labels=labels))
    return 0


def _cmd_words_verify(config: RunConfig) -> int:
    from .verify import verify_injections

    report = verify_injections(
        config.options["max_n"], config.options["max_len"], workers=config.workers
    )
    by_cell: dict[str, dict] = {}
    for check in report.checks:
        cell, name = check.instance.rsplit(" ", 1)
        row = by_cell.setdefault(
            cell, {"domain": 0, "image": 0, "violations": 0}
        )
        if name == "h-inject":
            row["domain"] = check.lhs
            row["image"] = check.rhs
        if not check.passed:
            row["violations"] += 1
    sys.stdout.write("tree,path,len,domain,image,violations\n")
    for cell in sorted(by_cell):
        parts = dict(p.split("=") for p in cell.split())
        row = by_cell[cell]
        sys.stdout.write(
            f"{parts['n']}/{parts['t']},{parts['path']},{int(parts['len'])},"
            f"{row['domain']},{row['image']},{row['violations']}\n"
        )
    return 0 if report.ok else 1


def _cmd_verify(config: RunConfig) -> int:
    from .verify import (
        report_to_csv,
        report_to_json,
        verify_closed_extremal,
        verify_injections,
        verify_kc_monotone,
        verify_path_extremal,
    )

    name = config.options["verify_command"]
    if name == "closed-extremal":
        report = verify_closed_extremal(config.options["max_n"], config.options["max_len"])
    elif name == "kc-monotone":
        report = verify_kc_monotone(
            config.options["max_n"],
            config.options["max_len"],
            kind=config.options["kind"],
            workers=config.workers,
        )
    elif name == "injections":
        report = verify_injections(
            config.options["max_n"], config.options["max_len"], workers=config.workers
        )
    else:
        report = verify_path_extremal(
            config.options["max_n"], config.options["length"]
        )
    writer = report_to_csv if config.fmt == "csv" else report_to_json
    sys.stdout.write(writer(report))
    return 0 if report.ok else 1


def _cmd_counterexample(config: RunConfig) -> int:
    import json

    from .verify import build_counterexample

    try:
        result = build_counterexample(
            config.options["c"], config.options["k"], config.options["length"]
        )
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    payload = {
        "c": str(result.c),
        "k": result.k,
        "len": result.ell,
        "wiener_broom": result.wiener_broom,
        "wiener_double": result.wiener_double,
        "closed_broom": result.closed_broom,
        "closed_double": result.closed_double,
        "total_broom": result.total_broom,
        "total_double": result.total_double,
        "verdict": result.verdict,
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0 if result.verdict else 1


def _cmd_broom_profile(config: RunConfig) -> int:
    from .verify import broom_profile

    try:
        profile = broom_profile(config.options["n"], config.options["length"])
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if config.fmt == "json":
        import json

        payload = {
            "n": profile.n,
            "len": profile.ell,
            "argmax_p": profile.argmax_p,
            "best": profile.best,
            "p_opt": profile.p_opt,
            "rows": [list(r) for r in profile.rows],
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write("p,paths\n")
        for p, v in profile.rows:
            sys.stdout.write(f"{p},{v}\n")
        sys.stdout.write(f"# argmax_p={profile.argmax_p} best={profile.best} p_opt={profile.p_opt:.6f}\n")
    return 0


def _cmd_dc_reduce(config: RunConfig) -> int:
    from .verify import dc_reduce

    t = _load_tree(config.options["tree"])
    reduced = dc_reduce(t, config.options["length"])
    sys.stdout.write(_emit_tree(reduced, config.fmt))
    return 0


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "kc": _cmd_kc,
    "words": _cmd_words_verify,
    "verify": _cmd_verify,
    "counterexample": _cmd_counterexample,
    "broom-profile": _cmd_broom_profile,
    "dc-reduce": _cmd_dc_reduce,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    options = vars(args)
    config = RunConfig(
        command=options.pop("command"),
        fmt=options.pop("format", "csv"),
        workers=options.pop("workers", 1),
        options=options,
    )
    try:
        return dispatch(config)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
