"""Tests of the benchmark's own logic: span arithmetic, output checks and
seeded inputs."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import networkx as nx
import pytest

import oracles
import run
import spantrace
import workloads
from workloads import Command


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_nested_spans():
    # a [0, 10] holds b [1, 5] and d [6, 9]; b holds c [2, 4]
    tracer = spantrace.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 9, 10]))
    tracer.open("a")
    tracer.open("b")
    tracer.open("c")
    tracer.close()
    tracer.close()
    tracer.open("d")
    tracer.close()
    tracer.close()
    assert tracer.rows == {
        ("c", "b"): [1, 2, 2],
        ("b", "a"): [1, 4, 2],
        ("d", "a"): [1, 3, 3],
        ("a", None): [1, 10, 3],
    }
    assert sum(row[2] for row in tracer.rows.values()) == 10


def test_repeated_spans_fold_by_parent():
    tracer = spantrace.Tracer(clock=FakeClock([0, 1, 3, 4, 7, 8]))
    tracer.open("outer")
    for _ in range(2):
        tracer.open("inner")
        tracer.close()
    tracer.close()
    assert tracer.rows[("inner", "outer")] == [2, 5, 5]
    assert tracer.rows[("outer", None)] == [1, 8, 3]


def test_self_times_and_unattributed_add_up_to_wall():
    dump = {
        "rows": [["cli.main", None, 1, 3.0, 0.5], ["walks.wiener", "cli.main", 4, 2.5, 2.5]],
        "counts": {},
        "cache": {"hits": 3, "misses": 1},
    }
    merged = spantrace.merge([dump, dump])
    metrics = spantrace.layer_metrics(merged, stdout_bytes=10, traced_wall=7.5, untraced_wall=6.0)
    self_sum = sum(metrics[f"{name}.self_s"] for name in spantrace.SPAN_NAMES)
    assert self_sum + metrics["trace.unattributed_s"] == pytest.approx(7.5)
    assert metrics["walks.wiener.calls"] == 8
    assert metrics["trace.overhead_s"] == pytest.approx(1.5)
    assert metrics["trees.canonical_code.hit_ratio"] == 0.75
    assert set(metrics) == set(spantrace.metric_names())


def test_traced_cli_patches_names_bound_by_import(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    argv = ["verify", "path-extremal", "--max-n", "6", "--len", "4"]
    traced = subprocess.run([sys.executable, os.path.join(run.HERE, "spantrace.py"), str(spans), *argv],
                            env=env, capture_output=True, check=True)
    plain = subprocess.run([sys.executable, "-m", "treewalks.cli", *argv],
                           env=env, capture_output=True, check=True)
    assert traced.stdout == plain.stdout
    rows = {(name, parent): calls for name, parent, calls, _, _ in json.loads(spans.read_text())["rows"]}
    assert rows[("verify.verify_path_extremal", "cli.main")] == 1
    assert rows[("walks.count_ell_paths", "verify.verify_path_extremal")] > 0
    assert rows[("generate.enumerate_free_trees", "verify.verify_path_extremal")] == 6


def test_same_seed_gives_identical_inputs(tmp_path):
    def files(seed, sub):
        paths = workloads.write_inputs("big-trees", seed, str(tmp_path), str(tmp_path / sub))
        return [(tmp_path / p).read_bytes() for p in paths]

    first = files(7, "a")
    assert first == files(7, "b")
    assert first != files(8, "c")
    assert len(first) == len(workloads.BIG_TREE_ORDERS) + workloads.DC_TREE_COUNT
    sizes = [int(data.split(b"\n", 1)[0]) for data in first]
    assert sizes == list(workloads.BIG_TREE_ORDERS) + [workloads.DC_TREE_ORDER] * workloads.DC_TREE_COUNT
    assert all(nx.is_tree(oracles._parse_graph(data.decode())) for data in first)


def _small_trees(tmp_path, count=3):
    rng = random.Random(5)
    names = []
    for i in range(count):
        name = f"t{i}.tree"
        (tmp_path / name).write_text(workloads.random_tree_text(rng, 20 + 5 * i))
        names.append(name)
    return names


def test_oracles_reject_corrupted_counts(tmp_path):
    names = _small_trees(tmp_path)
    graphs = [oracles._parse_graph((tmp_path / n).read_text()) for n in names]
    wiener = [int(nx.wiener_index(g)) for g in graphs]
    cmd = Command("wiener", ("count", "--kind", "wiener", *names), "wiener")

    def check(values):
        text = "file,value\n" + "".join(f"{n},{v}\n" for n, v in zip(names, values))
        return oracles.check_output({"any_seed": {}, "default_seed": {}}, "big-trees", cmd, 99,
                                    text.encode(), str(tmp_path))

    assert check(wiener) is None
    assert check([wiener[0], wiener[1] + 1, wiener[2]]) is not None
    assert check(wiener[:2]) is not None

    odd = Command("closed-3", ("count", "--kind", "closed", "--len", "3", *names), "closed", 3)
    good = "file,value\n" + "".join(f"{n},0\n" for n in names)
    args = ({"any_seed": {}, "default_seed": {}}, "big-trees", odd, 99)
    assert oracles.check_output(*args, good.encode(), str(tmp_path)) is None
    assert oracles.check_output(*args, good.replace(",0\n", ",2\n", 1).encode(), str(tmp_path)) is not None


def test_closed_walk_oracle_matches_exact_trace(tmp_path):
    (name,) = _small_trees(tmp_path, count=1)
    g = oracles._parse_graph((tmp_path / name).read_text())
    a = [[int(g.has_edge(i, j)) for j in range(g.number_of_nodes())] for i in range(g.number_of_nodes())]
    power = [row[:] for row in a]
    for _ in range(5):
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in power]
    exact = sum(power[i][i] for i in range(len(a)))
    assert all(oracles._closed_walks_mod(g, 6, p) == exact % p for p in oracles.PRIMES)


def test_corrupted_stdout_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKDIR", str(tmp_path))
    bench = run.Bench("sweep", 3)
    bench.commands = [c for c in workloads.commands("sweep", []) if c.key == "path-extremal-6"]
    (good,) = bench.rep(traced=False)
    assert bench.failures() == 0

    stdout = bench.first_stdout[good.cmd.key]
    corrupted = stdout.replace(b",1\n", b",0\n", 1)
    assert corrupted != stdout
    bench.results.append(run.Result(good.cmd, 0, oracles.digest(corrupted), 0.0, 0.0, len(corrupted)))
    bench.results.append(run.Result(good.cmd, 1, good.digest, 0.0, 0.0, len(stdout)))
    assert bench.failures() == 2

    bench.first_stdout[good.cmd.key] = corrupted
    assert bench.failures() == 3


def test_benchmark_spec_lists_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == {name: spantrace.metric_spec(name) for name in spantrace.metric_names()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mib"}
