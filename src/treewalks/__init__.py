"""Exact combinatorics of walks and paths in trees: counting, rewiring
moves, walk-word grammar, and exhaustive extremal verification.

Importing the package loads no submodule.  Each exported name is resolved
on first access through ``_EXPORTS`` (PEP 562 module ``__getattr__``), which
imports only the submodule that defines it, so ``treewalks.count_walks`` is
``treewalks.walks.count_walks`` and ``import treewalks`` stays cheap for
the CLI, whose subcommands each need a few submodules.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "generate": (
        "broom",
        "double_broom_paths",
        "double_broom_walks",
        "enumerate_free_trees",
        "from_pruefer",
        "p_broom",
        "path_tree",
        "star_tree",
        "to_pruefer",
    ),
    "transforms": (
        "BarePath",
        "Valency",
        "bare_paths",
        "dc_transform",
        "kc_moves",
        "kc_transform",
        "valency",
    ),
    "trees": (
        "CanonicalCode",
        "Tree",
        "canonical_code",
        "diameter",
        "distance",
        "is_isomorphic",
        "parse_tree_text",
        "format_tree_text",
    ),
    "verify": (
        "BroomProfile",
        "CounterexampleResult",
        "VerificationReport",
        "broom_profile",
        "build_counterexample",
        "dc_reduce",
        "verify_closed_extremal",
        "verify_injections",
        "verify_kc_monotone",
        "verify_path_extremal",
    ),
    "walks": (
        "count_closed_walks",
        "count_ell_paths",
        "count_walks",
        "enumerate_walks",
        "wiener",
    ),
    "words": (
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
        "h_map",
        "reverse",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
