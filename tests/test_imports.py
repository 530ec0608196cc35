"""What each CLI process imports, and the names the package and the span
tracer rely on.

Every CLI command runs in its own process, so importing a module a
subcommand does not run costs start-up time on every call.  These tests
pin which ``treewalks`` modules each command loads, that the lazy package
namespace still exports every name it did when it imported all submodules
eagerly, and that every function ``perfbench/spantrace.py`` wraps is still
where it looks for it.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import treewalks

SRC = os.path.dirname(os.path.dirname(treewalks.__file__))
ROOT = os.path.dirname(SRC)
TREE_TEXT = "14\n0 1\n1 2\n2 3\n3 4\n1 5\n1 6\n2 7\n7 8\n7 9\n9 10\n4 11\n4 12\n12 13\n"

# Imports treewalks.cli, optionally runs main(argv) with stdout captured, and
# prints the loaded treewalks modules before and after as JSON.
CHILD = """
import contextlib, io, json, sys
import treewalks.cli

def loaded():
    return sorted(m for m in sys.modules if m == "treewalks" or m.startswith("treewalks."))

argv = json.loads(sys.argv[1])
before = loaded()
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = treewalks.cli.main(argv)
print(json.dumps({"before": before, "after": loaded(), "code": code}))
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _loaded_by(argv):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        capture_output=True, text=True, env=_env(), check=True,
    )
    result = json.loads(proc.stdout)
    return set(result["before"]), set(result["after"]), result["code"]


# Runs main(argv) with stdout captured and prints which of the standard
# library modules given after it are loaded by then.
STDLIB_CHILD = """
import contextlib, io, json, sys
import treewalks.cli

argv, names = json.loads(sys.argv[1]), json.loads(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    code = treewalks.cli.main(argv)
print(json.dumps({"loaded": [m for m in names if m in sys.modules], "code": code}))
"""


def _stdlib_loaded_by(argv, names):
    proc = subprocess.run(
        [sys.executable, "-c", STDLIB_CHILD, json.dumps(argv), json.dumps(names)],
        capture_output=True, text=True, env=_env(), check=True,
    )
    result = json.loads(proc.stdout)
    return set(result["loaded"]), result["code"]


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "fixed.tree"
    path.write_text(TREE_TEXT)
    return str(path)


class TestImportFootprint:
    def test_package_import_loads_no_submodule(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, treewalks; print(sorted(m for m in sys.modules if m.startswith('treewalks')))"],
            capture_output=True, text=True, env=_env(), check=True,
        )
        assert proc.stdout.strip() == "['treewalks']"

    def test_cli_import_loads_parsing_modules_only(self):
        before, _, _ = _loaded_by([])
        assert before == {"treewalks", "treewalks.cli", "treewalks.trees"}

    @pytest.mark.parametrize("kind", ["closed", "all", "paths", "wiener"])
    def test_count_adds_only_walks(self, kind, tree_file):
        argv = ["count", "--kind", kind, tree_file]
        if kind != "wiener":
            argv[3:3] = ["--len", "4"]
        before, after, code = _loaded_by(argv)
        assert code == 0
        assert after - before == {"treewalks.walks"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["dc-reduce", "--len", "4", "--tree", "TREE"],
            ["counterexample", "--c", "3/5", "--k", "20", "--len", "10"],
            ["verify", "closed-extremal", "--max-n", "5", "--max-len", "4"],
            ["verify", "kc-monotone", "--max-n", "5", "--max-len", "4"],
            ["verify", "path-extremal", "--max-n", "6", "--len", "4"],
        ],
        ids=lambda argv: argv[0] if argv[0] != "verify" else argv[1],
    )
    def test_commands_without_words_never_load_them(self, argv, tree_file):
        argv = [tree_file if a == "TREE" else a for a in argv]
        _, after, code = _loaded_by(argv)
        assert code == 0
        assert "treewalks.verify" in after
        assert "treewalks.words" not in after
        assert "treewalks.injections" not in after

    def test_dc_reduce_loads_no_enumeration_or_kernels(self, tree_file):
        _, after, code = _loaded_by(["dc-reduce", "--len", "4", "--tree", tree_file])
        assert code == 0
        assert "treewalks.generate" not in after
        assert "treewalks.walks" not in after

    def test_injection_sweep_loads_the_word_layer(self):
        _, after, code = _loaded_by(["verify", "injections", "--max-n", "4", "--max-len", "2"])
        assert code == 0
        assert {"treewalks.words", "treewalks.injections"} <= after
        assert "treewalks.walks" not in after  # words needs only the Walk alias


class TestStandardLibraryFootprint:
    # every command the benchmark runs, at small scopes: none loads
    # dataclasses, or inspect, which dataclasses imports
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--kind", "closed", "--len", "4", "TREE"],
            ["count", "--kind", "all", "--len", "4", "TREE"],
            ["count", "--kind", "paths", "--len", "4", "TREE"],
            ["count", "--kind", "wiener", "TREE"],
            ["counterexample", "--c", "3/5", "--k", "20", "--len", "10"],
            ["dc-reduce", "--len", "4", "--tree", "TREE"],
            ["dc-reduce", "--len", "5", "--tree", "TREE"],
            ["verify", "closed-extremal", "--max-n", "6", "--max-len", "4"],
            ["verify", "kc-monotone", "--max-n", "6", "--max-len", "4", "--kind", "both"],
            ["verify", "path-extremal", "--max-n", "6", "--len", "5"],
            ["verify", "path-extremal", "--max-n", "6", "--len", "6"],
            ["verify", "injections", "--max-n", "5", "--max-len", "3"],
        ],
        ids=lambda argv: "-".join(a for a in argv if not a.startswith("-") and a not in ("TREE", "verify")),
    )
    def test_benchmarked_commands_load_no_dataclasses(self, argv, tree_file):
        argv = [tree_file if a == "TREE" else a for a in argv]
        loaded, code = _stdlib_loaded_by(argv, ["dataclasses", "inspect"])
        assert code == 0
        assert loaded == set()


# Every name treewalks/__init__.py exported when it imported all of its
# submodules eagerly, with the submodule that defines it.
PUBLIC_API = {
    "generate": [
        "broom", "double_broom_paths", "double_broom_walks",
        "enumerate_free_trees", "from_pruefer", "p_broom", "path_tree",
        "star_tree", "to_pruefer",
    ],
    "transforms": [
        "BarePath", "Valency", "bare_paths", "dc_transform", "kc_moves",
        "kc_transform", "valency",
    ],
    "trees": [
        "CanonicalCode", "Tree", "canonical_code", "diameter", "distance",
        "is_isomorphic", "parse_tree_text", "format_tree_text",
    ],
    "verify": [
        "BroomProfile", "CounterexampleResult", "VerificationReport",
        "broom_profile", "build_counterexample", "dc_reduce",
        "verify_closed_extremal", "verify_injections", "verify_kc_monotone",
        "verify_path_extremal",
    ],
    "walks": [
        "count_closed_walks", "count_ell_paths", "count_walks",
        "enumerate_walks", "wiener",
    ],
    "words": [
        "PathContext", "Word", "WordType", "build_context", "classify",
        "conjugate", "decode_word", "encode_walk", "f_map", "g_even", "g_odd",
        "g_total", "h_map", "reverse",
    ],
}
PUBLIC_NAMES = [(module, name) for module, names in PUBLIC_API.items() for name in names]

# The ``__all__`` of the word layer and of the move layer, pinned so that
# their public names change only on purpose.
MODULE_ALL = {
    "transforms": [
        "BarePath", "Valency", "bare_paths", "dc_transform", "kc_moves",
        "kc_transform", "valency",
    ],
    "words": [
        "HOST_T", "HOST_T2", "Letter", "PathContext", "Word", "WordType",
        "build_context", "classify", "conjugate", "decode_word", "encode_walk",
        "f_map", "g_even", "g_odd", "g_total", "g_total_aside", "h_map",
        "parse_word", "reverse", "word_sets", "word_to_str", "words_of",
    ],
}


class TestPublicApi:
    @pytest.mark.parametrize("module,name", PUBLIC_NAMES, ids=[n for _, n in PUBLIC_NAMES])
    def test_name_is_the_submodule_object(self, module, name):
        defining = importlib.import_module(f"treewalks.{module}")
        assert getattr(treewalks, name) is getattr(defining, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from treewalks import *", namespace)
        for module, name in PUBLIC_NAMES:
            assert namespace[name] is getattr(importlib.import_module(f"treewalks.{module}"), name)
        assert sorted(treewalks.__all__) == sorted(name for _, name in PUBLIC_NAMES)

    @pytest.mark.parametrize("module", sorted(MODULE_ALL))
    def test_module_all_is_pinned(self, module):
        defining = importlib.import_module(f"treewalks.{module}")
        assert sorted(defining.__all__) == sorted(MODULE_ALL[module])
        assert all(hasattr(defining, name) for name in defining.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            treewalks.no_such_name
        assert treewalks.__version__ == "0.1.0"


def _spantrace():
    spec = importlib.util.spec_from_file_location(
        "spantrace_under_test", os.path.join(ROOT, "perfbench", "spantrace.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = [(module, name) for module, names in _spantrace().TRACED.items() for name in names]


class TestTracerTargets:
    @pytest.mark.parametrize("module,name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
    def test_traced_function_exists(self, module, name):
        assert callable(getattr(importlib.import_module(f"treewalks.{module}"), name))

    def test_traced_injection_sweep_sees_word_spans(self, tmp_path):
        # the injection worker imports the word maps after the tracer has
        # wrapped them, so their spans must still nest under the sweep
        spans = tmp_path / "spans.json"
        argv = ["verify", "injections", "--max-n", "4", "--max-len", "3"]
        traced = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "spantrace.py"), str(spans), *argv],
            capture_output=True, env=_env(), check=True,
        )
        plain = subprocess.run(
            [sys.executable, "-m", "treewalks.cli", *argv], capture_output=True, env=_env(), check=True,
        )
        assert traced.stdout == plain.stdout
        rows = {(name, parent): calls for name, parent, calls, _, _ in json.loads(spans.read_text())["rows"]}
        assert rows[("verify.verify_injections", "cli.main")] == 1
        assert rows[("words.f_map", "verify.verify_injections")] > 0
        assert rows[("words.build_context", "verify.verify_injections")] > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--kind", "closed", "--len", "4", "TREE"],
            ["count", "--kind", "all", "--len", "4", "TREE"],
            ["count", "--kind", "paths", "--len", "4", "TREE"],
            ["count", "--kind", "wiener", "TREE"],
            ["counterexample", "--c", "3/5", "--k", "20", "--len", "10"],
            ["dc-reduce", "--len", "4", "--tree", "TREE"],
            ["dc-reduce", "--len", "5", "--tree", "TREE"],
            ["verify", "closed-extremal", "--max-n", "6", "--max-len", "4"],
            ["verify", "kc-monotone", "--max-n", "6", "--max-len", "4", "--kind", "both"],
            ["verify", "path-extremal", "--max-n", "6", "--len", "4"],
        ],
        ids=lambda argv: "-".join(a for a in argv if not a.startswith("-") and a not in ("TREE", "verify")),
    )
    def test_traced_cli_matches_untraced(self, argv, tree_file, tmp_path):
        # every command the benchmark runs, traced: same stdout, exit 0,
        # and the spans open at the CLI entry point
        argv = [tree_file if a == "TREE" else a for a in argv]
        spans = tmp_path / "spans.json"
        traced = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "spantrace.py"), str(spans), *argv],
            capture_output=True, env=_env(),
        )
        plain = subprocess.run(
            [sys.executable, "-m", "treewalks.cli", *argv], capture_output=True, env=_env(),
        )
        assert traced.returncode == plain.returncode == 0
        assert traced.stdout == plain.stdout != b""
        names = {name for name, _parent, _calls, _, _ in json.loads(spans.read_text())["rows"]}
        assert "cli.main" in names
