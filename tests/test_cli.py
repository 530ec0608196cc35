"""CLI tests: golden stdout digests on fixed scopes (recorded before the
per-length walk kernels replaced the per-call counters, so they pin that
refactor as byte-identical), exit codes, error text, and the streamed
sweep output against the collected reports."""

import hashlib
import os
import subprocess
import sys
from functools import partial

import pytest

import treewalks
from treewalks.cli import main
from treewalks.generate import from_pruefer
from treewalks.trees import parse_tree_text
from treewalks.verify import (
    report_to_csv,
    report_to_json,
    report_to_summary,
    verify_closed_extremal,
    verify_injections,
    verify_kc_monotone,
    verify_path_extremal,
)
from treewalks.walks import wiener

from test_verify import _f_map_undecodable

FIXED_TREE = "14\n0 1\n1 2\n2 3\n3 4\n1 5\n1 6\n2 7\n7 8\n7 9\n9 10\n4 11\n4 12\n12 13\n"

GOLDEN = [
    (
        ["verify", "closed-extremal", "--max-n", "8", "--max-len", "8"],
        "14761c5920b1859c00990e0b5631a7fec622514653b28982e43f4129aacbca38",
    ),
    (
        ["verify", "kc-monotone", "--max-n", "7", "--max-len", "6", "--kind", "both"],
        "0a28786dbc0ee377fa6f6e45c398feac14db63e67f5bfe13e01dd76f6cdd9f97",
    ),
    (
        ["verify", "kc-monotone", "--max-n", "7", "--max-len", "6", "--kind", "both", "--format", "json"],
        "363ec31c984d96ff0efd21f61f6ed628a0069994f54fafe1f0eb9b38a4b20c4a",
    ),
    # recorded before kc-monotone built its rows in report order: paths
    # sort as strings (path=1-10 before path=1-2), and 2,046 rows here end
    # at vertex 10, which no scope of n <= 10 has
    (
        ["verify", "kc-monotone", "--max-n", "11", "--max-len", "3", "--kind", "both"],
        "cff6e25b1e41923024e138a9abcbb9cb2d606a464bb3ef10393d7d274d11eddc",
    ),
    # the ell = 2 branch (the star-formula check), recorded before
    # kc-monotone built its profile table in its own per-order loop
    (
        ["verify", "path-extremal", "--max-n", "10", "--len", "2"],
        "3361444bd640cabbaef855fcdb30bddb78b0ba4c7fbb3770cacfda4c9dea4cf6",
    ),
    (
        ["verify", "path-extremal", "--max-n", "10", "--len", "2", "--format", "json"],
        "69ab3f1dcc81142274094246c97cc44acb9cb7cf4df04a29962cbd531a154a48",
    ),
    (
        ["verify", "path-extremal", "--max-n", "10", "--len", "5"],
        "b6656a297c9b25ed4d5bf13673883d9c8f8680e23debcc6d0b8c4d2d3ab69fbb",
    ),
    (
        ["verify", "path-extremal", "--max-n", "10", "--len", "6"],
        "1b63e789afe3b23cc12b3479ccb03d48e386569e667abcb92333816f5267b0af",
    ),
    # the only pinned scope with 3-digit t, two-digit vertices and ell = 8
    # together (about 1 s), recorded before kc-monotone built its profile
    # table in its own per-order loop
    (
        ["verify", "kc-monotone", "--max-n", "12", "--max-len", "8", "--kind", "both"],
        "d221a8607cb507ce4a6eea228bdd9201b6f37baba76c43ca2f236d10f65dd6f2",
    ),
    (
        ["counterexample", "--c", "3/5", "--k", "100", "--len", "50"],
        "3c3d17f67bc44d2121f65c736036c163e51ec820e3c10902557c7dcafb2abd3c",
    ),
    (
        ["broom-profile", "--n", "40", "--len", "6"],
        "827f30672fa4ad58ac9d3a301f1c6ea0955c542f25854f27ec1f745fbaca17ad",
    ),
    (
        ["broom-profile", "--n", "40", "--len", "6", "--format", "json"],
        "5f73e30cd89e7a5d46096fea3560ab46cd6df55f8d17263b3b101947ae308cc7",
    ),
    (
        ["broom-profile", "--n", "200", "--len", "10", "--format", "json"],
        "e7cc7d94c24feffe61e9e818224e7016c6f9703e54ce0349da42308923fcf9d4",
    ),
]

# stdout digest of `enumerate --n k` (edgelist), k = 1..12, recorded before
# enumeration switched to leaf-rooted candidates
GOLDEN_ENUMERATE = {
    1: "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    2: "1e7a4f32fb9185df1c6fd771a5cf931f03681ea1d0ee5e4efb66e78a58277eeb",
    3: "78346fce52be56f4953a4bfa9eaded489c594537e9430783119b2bf02a5b80b3",
    4: "b0ce56c68927b73288b113e15f6bc00a883641517df0f93edee4ddc49dce3b9e",
    5: "0dfead5d690538a432da3539662ea56722554f3547ba81ff9b10f9fa6508252c",
    6: "e0307043454f54744e3aad9a572d491e3ff5b174cd11876a22d27222024740b9",
    7: "01c8c6663a82b7f768ad1f791111990b6b5340d74b609c603e0c19c845af9d0e",
    8: "6bd2f3faa6e6c704aa87f3351bb28ce6a83424d730804de379c750bd79fa2324",
    9: "8fdb5b049a746daa8d91cca5e29eed0364f73076d176a5366bd6f09e7c0a8670",
    10: "57efe40707a608b390ab6fe760d58faeb644059f10f80b8035b1e5f08beaf2cd",
    11: "c83e9e5d27ea99ce472ddd193a94989d486a32d47d22bd883fe2f48fa7fdeb8b",
    12: "47546be449646d9d62eb02512035ad992f18d6009b86f02431c8f21105ef2773",
}

# stdout digest of `enumerate --n 7` in the other two formats
GOLDEN_ENUMERATE_FORMATS = {
    "dot": "7e2c8ce894a340633933bc1a8a7cdf16e422b56bae56040e62de21ced7048a36",
    "pruefer": "a282588f02dbee1e6ee8537b3ab0a07dd6afae25aa927cf286b9c80f2376c681",
}

# stdout digest of the word-map injection reports, recorded before the
# injection sweep built its word sets by one labeled DFS per context and
# memoized decodes and f-images (the summary digest was recorded as the
# output of `words verify`, which `--format summary` replaced)
GOLDEN_INJECTIONS = [
    (
        ["verify", "injections", "--max-n", "6", "--max-len", "4"],
        "d675632577a14cca9b8078bb5d54f7ff913dca80133520ca5366a0dabd5ec84f",
    ),
    (
        ["verify", "injections", "--max-n", "6", "--max-len", "4", "--format", "json"],
        "f347f49f4dd65bf18a38f85365746e9e2fc5565d248f32616e8c13ba67840ff8",
    ),
    (
        ["verify", "injections", "--max-n", "6", "--max-len", "4", "--format", "summary"],
        "916401c2abd2f21ff9259bbf20c5267ba6a82ca8eac8103f98b4a2bd3777550d",
    ),
    # the injections benchmark scope, recorded before the word maps read
    # blocks as index ranges of one letter scan
    (
        ["verify", "injections", "--max-n", "7", "--max-len", "5"],
        "4905e238be3587f6fc204c32fbda5c63f4d5526cbaf2060607648e19057e7300",
    ),
    # the wider reference scope (19,242 checks), recorded before f read
    # closedness from its word and Check rendered its own instance
    (
        ["verify", "injections", "--max-n", "8", "--max-len", "6"],
        "15c769b6bcc059cdf638ab9a4416a3e971c5d1c3283250df02559e3e66aad0ab",
    ),
]

# (length, format, stdout digest) of `dc-reduce` on FIXED_TREE, recorded
# before the reduction read its distances from one leaf table per step
GOLDEN_DC_REDUCE = [
    ("4", "edgelist", "5ae5923a27f3cba98a48809d30aa73279027dda3ba15cd052ab8ab5a7daee676"),
    ("4", "dot", "54d6a00822622ad79a725ab008d0a4e0e74f0cdb9d8b2a233b509a93aae0d2da"),
    ("5", "edgelist", "89bc99184a69c23cf741f158d1bf424d39d29c80fd9ffaf880b5a63aeb435d86"),
    ("5", "dot", "66867e2ea97561e6cbc43989f85ff3d19f5c34ea0639deabc826cd0624a1fc4e"),
]

# (extra arguments, stdout digest) of `kc` on FIXED_TREE, where 2-3-4 is a
# bare path; the dot labels come from words.build_context
GOLDEN_KC = [
    (["--x", "2", "--y", "4"], "963e4f5f6c972bf594574f69627d65611d9d6724512624aa4acc77f1f0335025"),
    (
        ["--x", "2", "--y", "4", "--format", "dot"],
        "f4fb76e82f428c5403ce6517b29079d10954c6bba6d931e2712afd0affa821f0",
    ),
    (["--list-moves"], "fe0692e02680e4cfeac54838dcc6f12530f84bb0636988b5e928ee05e3db6614"),
]

# (kind, length, stdout digest) of `count` on FIXED_TREE
GOLDEN_COUNTS = [
    ("closed", "10", "d02086d65c69d5b315c087307b2912e0e26063b47c97b0700c557012bf280667"),
    ("closed", "9", "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("all", "9", "04bc08e87ab30a5910efc2d148b2e26013829418358962baefaf755e69a4170d"),
    ("paths", "4", "7ee29791fc17e986b97128845622b077fb45e349fdb80523fac9dba879b4ad60"),
]


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _child_env():
    """The environment of a child interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(treewalks.__file__))
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


@pytest.fixture
def fixed_tree(tmp_path):
    path = tmp_path / "fixed.tree"
    path.write_text(FIXED_TREE)
    return str(path)


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(argv, digest, capsys):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert sha256(out) == digest


@pytest.mark.parametrize(
    "argv,digest", GOLDEN_INJECTIONS, ids=[" ".join(a) for a, _ in GOLDEN_INJECTIONS]
)
def test_golden_injections(argv, digest, capsys):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert sha256(out) == digest


@pytest.mark.parametrize(
    "argv", [["verify", "injections"], ["verify", "injections", "--format", "summary"]]
)
def test_injections_two_workers_match_one(argv, capsys):
    scope = ["--max-n", "5", "--max-len", "3"]
    outputs = [run(argv + scope + ["--workers", w], capsys) for w in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


@pytest.mark.parametrize("n,digest", GOLDEN_ENUMERATE.items())
def test_golden_enumerate(n, digest, capsys):
    code, out, err = run(["enumerate", "--n", str(n)], capsys)
    assert (code, err) == (0, "")
    assert sha256(out) == digest


@pytest.mark.parametrize("fmt,digest", GOLDEN_ENUMERATE_FORMATS.items())
def test_golden_enumerate_formats(fmt, digest, capsys):
    code, out, err = run(["enumerate", "--n", "7", "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert sha256(out) == digest


def test_enumerate_pruefer_lines_decode_to_edgelist_trees(capsys):
    _, edgelist, _ = run(["enumerate", "--n", "7"], capsys)
    _, pruefer, _ = run(["enumerate", "--n", "7", "--format", "pruefer"], capsys)
    lines = edgelist.splitlines()
    listed = [parse_tree_text("\n".join(lines[i : i + 7])) for i in range(0, len(lines), 7)]
    decoded = [from_pruefer(list(map(int, line.split())), 7) for line in pruefer.splitlines()]
    assert len(decoded) == 11
    assert decoded == listed


def test_enumerate_rejects_n_past_cap(capsys):
    code, out, err = run(["enumerate", "--n", "17"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: n must be in 1..16, got 17\n"


def test_enumerate_past_twelve(capsys):
    code, out, err = run(["enumerate", "--n", "13", "--format", "pruefer"], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == len(set(lines)) == 1301


@pytest.mark.parametrize("kind,length,digest", GOLDEN_COUNTS)
def test_golden_count(kind, length, digest, fixed_tree, capsys):
    code, out, err = run(["count", "--kind", kind, "--len", length, fixed_tree], capsys)
    assert (code, err) == (0, "")
    assert sha256(out) == digest


@pytest.mark.parametrize("extra,digest", GOLDEN_KC, ids=[" ".join(a) for a, _ in GOLDEN_KC])
def test_golden_kc(extra, digest, fixed_tree, capsys):
    code, out, err = run(["kc", "--tree", fixed_tree, *extra], capsys)
    assert (code, err) == (0, "")
    assert sha256(out) == digest


@pytest.mark.parametrize(
    "extra,message",
    [
        ([], "kc needs --x and --y (or --list-moves)"),
        (["--x", "0", "--y", "4"], "(0, 4) does not span a bare path"),
    ],
)
def test_kc_rejects_missing_or_non_bare_pair(extra, message, fixed_tree, capsys):
    code, out, err = run(["kc", "--tree", fixed_tree, *extra], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("x,y", [("9", "9"), ("0", "9")])
def test_kc_reports_an_end_out_of_range_before_a_repeated_end(x, y, tmp_path, capsys):
    # the range is checked first, so (9, 9) on a 5-vertex path names vertex
    # 9 as (0, 9) does, not the pair as one that spans no bare path
    path = tmp_path / "p5.tree"
    path.write_text("5\n0 1\n1 2\n2 3\n3 4\n")
    code, out, err = run(["kc", "--tree", str(path), "--x", x, "--y", y], capsys)
    assert (code, out) == (2, "")
    assert err == "error: vertex 9 out of range for n=5\n"


def test_count_rejects_repeated_edge(tmp_path, capsys):
    path = tmp_path / "repeated.tree"
    path.write_text("3\n0 1\n1 0\n1 2\n")
    code, out, err = run(["count", "--kind", "wiener", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: line 3: edge '1 0' repeats line 2\n"


def test_count_several_files(fixed_tree, capsys):
    code, out, _ = run(["count", "--kind", "wiener", fixed_tree, fixed_tree], capsys)
    value = wiener(parse_tree_text(FIXED_TREE))
    assert code == 0
    assert out == f"file,value\n{fixed_tree},{value}\n{fixed_tree},{value}\n"


def test_missing_file_prints_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.tree")
    code, out, err = run(["count", "--kind", "all", "--len", "2", missing], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {missing}: ")


def test_missing_file_process_exit_code(tmp_path):
    missing = str(tmp_path / "missing.tree")
    proc = subprocess.run(
        [sys.executable, "-m", "treewalks.cli", "kc", "--tree", missing, "--x", "0", "--y", "1"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot read {missing}: ")


def test_non_utf8_file_names_the_file(tmp_path, capsys):
    binary = tmp_path / "binary.tree"
    binary.write_bytes(b"3\n0 1\n1 2\n\xd0\x00\xff")
    code, out, err = run(["count", "--kind", "all", "--len", "2", str(binary)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {binary}: not UTF-8 text (")


def test_python_m_treewalks_matches_cli_module():
    results = []
    for module in ("treewalks", "treewalks.cli"):
        for argv in (["enumerate", "--n", "6"], ["enumerate", "--n", "17"]):
            proc = subprocess.run(
                [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=_child_env()
            )
            results.append((proc.returncode, proc.stdout, proc.stderr))
    assert results[:2] == results[2:]
    assert [code for code, _, _ in results[:2]] == [0, 2]


@pytest.mark.parametrize(
    "kind,code,err",
    [("wiener", 0, ""), ("paths", 2, "error: --len is required and must be >= 1\n")],
)
def test_python_m_treewalks_count_matches_cli_module(fixed_tree, kind, code, err):
    # __main__.py hands sys.exit main's code, so the exit-2 usage error
    # must come through as the cli module gives it
    results = [
        subprocess.run(
            [sys.executable, "-m", module, "count", "--kind", kind, fixed_tree],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        for module in ("treewalks", "treewalks.cli")
    ]
    package, cli = ((p.returncode, p.stdout, p.stderr) for p in results)
    assert package == cli
    assert (package[0], package[2]) == (code, err)
    assert package[1] == ("" if code else f"{wiener(parse_tree_text(FIXED_TREE))}\n")


@pytest.mark.parametrize(
    "argv", [["verify", "injections", "--max-n", "5"]], ids=["verify injections"]
)
@pytest.mark.parametrize("max_len", ["0", "-1"])
def test_injections_reject_max_len_below_one(argv, max_len, capsys):
    code, out, err = run(argv + ["--max-len", max_len], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: max_len must be >= 1, got {max_len}\n"


def test_count_rejects_length_zero(fixed_tree, capsys):
    code, out, err = run(["count", "--kind", "paths", "--len", "0", fixed_tree], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --len is required and must be >= 1\n"


def test_broom_profile_rejects_odd_length(capsys):
    code, out, err = run(["broom-profile", "--n", "20", "--len", "5"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: broom profile needs even ell >= 4\n"


def test_counterexample_rejects_non_integral_scope(capsys):
    code, out, err = run(["counterexample", "--c", "1/3", "--k", "20", "--len", "10"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: c=1/3 and k=20 must make ck, (2-c)k and k/2 all integral\n"


def test_counterexample_rejects_non_rational_c(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "--c", "abc", "--k", "2", "--len", "3"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith("error: argument --c: not a rational: 'abc'\n")


def test_counterexample_false_verdict_exits_one(capsys):
    code, out, _ = run(["counterexample", "--c", "1/2", "--k", "20", "--len", "10"], capsys)
    assert code == 1
    assert '"verdict": false' in out


@pytest.mark.parametrize("length,fmt,digest", GOLDEN_DC_REDUCE)
def test_golden_dc_reduce(length, fmt, digest, fixed_tree, capsys):
    argv = ["dc-reduce", "--tree", fixed_tree, "--len", length, "--format", fmt]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert sha256(out) == digest


def test_dc_reduce_rejects_length_two(fixed_tree, capsys):
    code, out, err = run(["dc-reduce", "--tree", fixed_tree, "--len", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: reduction needs ell >= 3\n"


def test_words_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["words", "verify", "--max-n", "4", "--max-len", "2"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "invalid choice: 'words'" in err


@pytest.mark.parametrize("command", ["closed-extremal", "kc-monotone"])
def test_summary_format_is_injections_only(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", command, "--max-n", "4", "--max-len", "2", "--format", "summary"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "invalid choice: 'summary'" in err


@pytest.mark.parametrize(
    "command,scope",
    [("closed-extremal", "--max-len"), ("kc-monotone", "--max-len"), ("path-extremal", "--len")],
    ids=["closed-extremal", "kc-monotone", "path-extremal"],
)
def test_no_workers_flag_outside_injections(command, scope, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", command, "--max-n", "4", scope, "4", "--workers", "2"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "unrecognized arguments: --workers 2" in err


EMPTY_SCOPES = [
    (
        ["verify", "kc-monotone", "--max-n", "-5", "--max-len", "2", "--format", "json"],
        "max_n must be >= 2, got -5",
    ),
    (["verify", "kc-monotone", "--max-n", "4", "--max-len", "0"], "max_len must be >= 1, got 0"),
    (["verify", "closed-extremal", "--max-n", "0", "--max-len", "4"], "max_n must be >= 1, got 0"),
    (["verify", "closed-extremal", "--max-n", "4", "--max-len", "1"], "max_len must be >= 2, got 1"),
    (["verify", "path-extremal", "--max-n", "0", "--len", "4"], "max_n must be >= 1, got 0"),
    (["verify", "path-extremal", "--max-n", "4", "--len", "1"], "ell must be >= 2, got 1"),
    (["verify", "injections", "--max-n", "1", "--max-len", "3"], "max_n must be >= 2, got 1"),
    (
        ["verify", "injections", "--max-n", "4", "--max-len", "2", "--workers", "-1"],
        "workers must be >= 1, got -1",
    ),
]


@pytest.mark.parametrize("argv,message", EMPTY_SCOPES, ids=[" ".join(a) for a, _ in EMPTY_SCOPES])
def test_empty_scope_exits_two(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


OVER_CAP = [
    ["verify", "closed-extremal", "--max-n", "17", "--max-len", "2"],
    ["verify", "kc-monotone", "--max-n", "17", "--max-len", "2"],
    ["verify", "injections", "--max-n", "17", "--max-len", "1"],
    ["verify", "path-extremal", "--max-n", "17", "--len", "2"],
]


@pytest.mark.parametrize("argv", OVER_CAP, ids=" ".join)
def test_scope_past_enumeration_cap_exits_two(argv, capsys):
    # rejected when the sweep starts, before it writes any block
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: max_n must be <= 16, got 17\n"


# ---------------------------------------------------------------------------
# Violation goldens: no golden scope above contains a failing check, so these
# break the library on purpose and pin how failures are written (the JSON
# violations list, the CSV passed=0 rows and the summary's violations column).
# Recorded before check records carried typed fields; the summary digest was
# recorded as the output of `words verify`, which `--format summary` replaced.


def _path_profiles_bumped(monkeypatch):
    from treewalks import walks

    real = walks.closed_walk_profile

    def profile(t, max_len):
        values = real(t, max_len)
        if t.n >= 4 and all(t.degree(v) <= 2 for v in range(t.n)):
            return [v + 2 for v in values]
        return values

    monkeypatch.setattr(walks, "closed_walk_profile", profile)


def _g_total_broken(monkeypatch):
    from treewalks import injections

    monkeypatch.setattr(injections, "g_total", lambda ctx, word: (("b", 1),) * len(word))


GOLDEN_VIOLATIONS = [
    (
        _path_profiles_bumped,
        ["verify", "closed-extremal", "--max-n", "6", "--max-len", "6"],
        "b20e3b8da99c54f7ce023fd728b9ddaad4c2f60c54bd77e67d79fadf655e1c13",
    ),
    (
        _path_profiles_bumped,
        ["verify", "closed-extremal", "--max-n", "6", "--max-len", "6", "--format", "json"],
        "21dad64249ad48ea000c4988901678976eb92a21d851cf52e46de0bef0d9d504",
    ),
    (
        _g_total_broken,
        ["verify", "injections", "--max-n", "5", "--max-len", "3"],
        "83f7343e4da27b5e810806a7c10b256ae3381e5f706705e47a1da889d3b879fe",
    ),
    (
        _g_total_broken,
        ["verify", "injections", "--max-n", "5", "--max-len", "3", "--format", "json"],
        "772d1c50fd3f0de5d0ac200b7165a60b31c7de65f993283bb54b474a331559d0",
    ),
    (
        _g_total_broken,
        ["verify", "injections", "--max-n", "5", "--max-len", "3", "--format", "summary"],
        "77c9e94a856d12a48fd2064f0a9ebdb28ac6f103e2e95cf9cbeff6d5f93d545c",
    ),
    # recorded before the per-tree sweeps streamed their checks tree by tree
    (
        _path_profiles_bumped,
        ["verify", "kc-monotone", "--max-n", "6", "--max-len", "6", "--kind", "both"],
        "02fd884caaec0f4e53b42283075e671f0ce5b95ab7f0a1bbc16bfd95121fa23b",
    ),
    (
        _path_profiles_bumped,
        ["verify", "kc-monotone", "--max-n", "6", "--max-len", "6", "--kind", "both", "--format", "json"],
        "a37f5411c6959cf6e21166ca8a65b86a03a1d608d6cb2091f41cd6ffe7253a75",
    ),
]


@pytest.mark.parametrize(
    "patch,argv,digest", GOLDEN_VIOLATIONS, ids=[" ".join(a) for _, a, _ in GOLDEN_VIOLATIONS]
)
def test_golden_violations(patch, argv, digest, monkeypatch, capsys):
    patch(monkeypatch)
    code, out, err = run(argv, capsys)
    assert (code, err) == (1, "")
    assert sha256(out) == digest


# ---------------------------------------------------------------------------
# Streaming: every sweep hands its checks over in sorted blocks (one per tree
# or per order), and the CLI writes each block as it comes.  The oracle is
# the collected report of the same sweep run through the format's writer.

# (CLI arguments, the same sweep as a library call, its formats)
STREAMS = [
    (
        ["verify", "kc-monotone", "--max-n", "7", "--max-len", "6"],
        partial(verify_kc_monotone, 7, 6, kind="both"),
        ("csv", "json"),
    ),
    (
        ["verify", "injections", "--max-n", "5", "--max-len", "3"],
        partial(verify_injections, 5, 3),
        ("csv", "json", "summary"),
    ),
    (
        ["verify", "closed-extremal", "--max-n", "8", "--max-len", "8"],
        partial(verify_closed_extremal, 8, 8),
        ("csv", "json"),
    ),
    (["verify", "path-extremal", "--max-n", "10", "--len", "2"], partial(verify_path_extremal, 10, 2), ("csv", "json")),
    (["verify", "path-extremal", "--max-n", "8", "--len", "3"], partial(verify_path_extremal, 8, 3), ("csv", "json")),
    (["verify", "path-extremal", "--max-n", "8", "--len", "6"], partial(verify_path_extremal, 8, 6), ("csv", "json")),
]
WRITERS = {"csv": report_to_csv, "json": report_to_json, "summary": report_to_summary}
STREAM_FORMATS = [(argv, sweep, fmt) for argv, sweep, formats in STREAMS for fmt in formats]


@pytest.mark.parametrize(
    "argv,sweep,fmt", STREAM_FORMATS, ids=[" ".join(a) + f" {f}" for a, _, f in STREAM_FORMATS]
)
def test_streamed_stdout_matches_collected_report(argv, sweep, fmt, capsys):
    code, out, err = run(argv + ["--format", fmt], capsys)
    report = sweep()
    assert (code, err) == (0 if report.ok else 1, "")
    assert out == WRITERS[fmt](report)


@pytest.mark.parametrize("argv,sweep", [s[:2] for s in STREAMS], ids=[" ".join(s[0]) for s in STREAMS])
def test_sweep_streams_sorted_blocks(argv, sweep):
    blocks = []
    streamed = sweep(emit=blocks.append)
    assert streamed.checks == []
    firsts = [block[0].instance for block in blocks]
    assert all(a < b for a, b in zip(firsts, firsts[1:]))
    for block in blocks:
        instances = [c.instance for c in block]
        assert instances == sorted(instances)
    assert [c for block in blocks for c in block] == sweep().checks


# A streamed sweep's report holds the verdict whichever consumer takes its
# blocks: the same ok, check count and violations as the collected run.
BROKEN_STREAMS = [
    (_path_profiles_bumped, partial(verify_closed_extremal, 6, 6)),
    (_path_profiles_bumped, partial(verify_kc_monotone, 6, 6, "both")),
    (_g_total_broken, partial(verify_injections, 5, 3)),
    (_f_map_undecodable, partial(verify_injections, 5, 3)),
]


@pytest.mark.parametrize(
    "patch,sweep", BROKEN_STREAMS, ids=["closed-extremal", "kc-monotone", "injections", "injections-f-map"]
)
def test_streamed_report_holds_the_verdict(patch, sweep, monkeypatch):
    patch(monkeypatch)
    collected = sweep()
    streamed = sweep(emit=lambda block: None)
    assert collected.violations and not collected.ok
    assert collected.count == len(collected.checks)
    assert (streamed.ok, streamed.count, streamed.violations) == (
        collected.ok,
        collected.count,
        collected.violations,
    )


# Runs the command in its arguments as a child with stdout to the null device
# and prints the child's exit code and peak RSS in KiB (from os.wait4).  The
# test process does not wait4 its own children for this: Linux carries the
# peak of the address space a child replaces at exec into the child's
# ru_maxrss, and the test process is larger than any command measured here.
_PEAK_RSS = """\
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mib(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *argv], capture_output=True, text=True, env=_child_env()
    )
    code, kib = map(int, proc.stdout.split())
    assert (proc.returncode, code) == (0, 0)
    return kib / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_kc_monotone_peak_memory_stays_near_import_baseline():
    # the sweep writes each tree's checks as they come, so its peak stays
    # within a few MiB of a child that only imports the CLI (the collected
    # report of this scope took about 19 MiB more)
    baseline = _peak_rss_mib(["-c", "import treewalks.cli"])
    sweep = _peak_rss_mib(["-m", "treewalks.cli", "verify", "kc-monotone", "--max-n", "10", "--max-len", "8"])
    assert sweep - baseline <= 8
