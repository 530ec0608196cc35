"""Benchmark of the treewalks command-line tool.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs are generated from ``--seed`` into ``.perfbench_work/``.

With ``--trace 0`` every command of the workload runs as its own
``python -m treewalks.cli`` child process, as a user would run it: cold
caches, argparse and full output included.  The whole command list is
repeated until ``--seconds`` are used up:

* ``setup_s``: writing the seeded inputs plus one child that only imports
  ``treewalks.cli``; repeated ``SETUP_REPS`` times, median;
* ``wall_s``: wall time of all the workload's commands, median over reps;
* ``peak_rss_mib``: largest ``ru_maxrss`` of the rep's children (from
  ``os.wait4``), median over reps.

With ``--trace 1`` each rep is an untraced run followed by a run of the
same commands through ``spantrace.py``; the per-layer metrics are those of
the rep with the median traced wall time.

Every output is checked (see oracles.py) outside the timed region; the
failed share of attempted commands is the error rate.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import oracles
import spantrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 7


@dataclass
class Result:
    cmd: workloads.Command
    returncode: int
    digest: str
    wall_s: float
    rss_mib: float
    stdout_bytes: int
    spans_path: str | None = None


def run_child(argv: list[str], env: dict, stderr_path: str) -> tuple[int, bytes, float, float]:
    """Run one child to completion: (exit code, stdout, wall s, peak RSS MiB)."""
    start = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.workdir = os.path.join(WORKDIR, workload)
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.stderr_path = os.path.join(self.workdir, "stderr.txt")
        self.first_stdout: dict[str, bytes] = {}
        self.results: list[Result] = []

    def setup(self) -> float:
        times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            self.inputs = workloads.write_inputs(self.workload, self.seed, ROOT, self.workdir)
            rc, _, _, _ = run_child([sys.executable, "-c", "import treewalks.cli"], self.env, self.stderr_path)
            times.append(time.perf_counter() - start)
            if rc != 0:
                with open(self.stderr_path, encoding="utf-8", errors="replace") as fh:
                    sys.stderr.write(fh.read())
                raise SystemExit("error: cannot import treewalks.cli from src/")
        self.commands = workloads.commands(self.workload, self.inputs)
        return statistics.median(times)

    def rep(self, traced: bool) -> list[Result]:
        out = []
        for i, cmd in enumerate(self.commands):
            spans_path = None
            if traced:
                spans_path = os.path.join(self.workdir, f"spans{i}.json")
                argv = [sys.executable, os.path.join(HERE, "spantrace.py"), spans_path, *cmd.argv]
            else:
                argv = [sys.executable, "-m", "treewalks.cli", *cmd.argv]
            rc, stdout, wall, rss = run_child(argv, self.env, self.stderr_path)
            if rc != 0:
                with open(self.stderr_path, encoding="utf-8", errors="replace") as fh:
                    sys.stderr.write(f"{cmd.key}: exit {rc}: {fh.read()[-2000:]}")
            self.first_stdout.setdefault(cmd.key, stdout)
            out.append(Result(cmd, rc, oracles.digest(stdout), wall, rss, len(stdout), spans_path))
        self.results.extend(out)
        return out

    def failures(self) -> int:
        """Check every result: the first output of each command by the
        oracles, every later one by equality with it."""
        expected = oracles.load_expected()
        first: dict[str, tuple[str, str | None]] = {}
        for key, stdout in self.first_stdout.items():
            cmd = next(c for c in self.commands if c.key == key)
            verdict = oracles.check_output(expected, self.workload, cmd, self.seed, stdout, ROOT)
            first[key] = (oracles.digest(stdout), verdict)
        failed = 0
        for r in self.results:
            good_digest, verdict = first[r.cmd.key]
            reason = verdict
            if r.returncode != 0:
                reason = f"exit code {r.returncode}"
            elif r.digest != good_digest:
                reason = "stdout differs between repetitions"
            if reason is not None:
                failed += 1
                sys.stderr.write(f"FAIL {self.workload}/{r.cmd.key}: {reason}\n")
        return failed


def rep_wall(results: list[Result]) -> float:
    return sum(r.wall_s for r in results)


def traced_metrics(untraced: list[Result], traced: list[Result]) -> dict:
    dumps = []
    for r in traced:
        with open(r.spans_path, encoding="utf-8") as fh:
            dumps.append(json.load(fh))
    return spantrace.layer_metrics(
        spantrace.merge(dumps),
        stdout_bytes=sum(r.stdout_bytes for r in traced),
        traced_wall=rep_wall(traced),
        untraced_wall=rep_wall(untraced),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "treewalks", "cli.py")):
        raise SystemExit(f"error: no treewalks sources under {ROOT}/src")

    bench = Bench(args.workload, args.seed)
    setup_s = bench.setup()
    deadline = time.perf_counter() + args.seconds
    walls, rsses, layer_reps = [], [], []
    while True:
        start = time.perf_counter()
        untraced = bench.rep(traced=False)
        walls.append(rep_wall(untraced))
        rsses.append(max(r.rss_mib for r in untraced))
        if args.trace:
            layer_reps.append(traced_metrics(untraced, bench.rep(traced=True)))
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break

    failed = bench.failures()
    attempted = len(bench.results)
    if args.trace:
        # One whole rep, the median by traced wall time, so that its self
        # times and unattributed time still add up to its wall time.
        layer_reps.sort(key=lambda rep: rep["trace.traced_wall_s"])
        median_rep = layer_reps[(len(layer_reps) - 1) // 2]
        metrics = {name: {"value": median_rep[name], "unit": spantrace.metric_spec(name)[0]}
                   for name in spantrace.metric_names()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(rsses), "unit": "MiB"},
        }
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} reps={len(walls)} "
          f"wall_s={[round(w, 3) for w in walls]} error_rate={failed / attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
