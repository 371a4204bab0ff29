"""maglab benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Workloads (see BENCHMARK.json and
``workloads.ABOUT``):
``census``, ``lattice``, ``sweep``, ``finite``; ``all`` runs each in turn.

Each timed pass of the workload's operations runs in a fresh worker
process, one after another, as many as fit in ``--seconds`` (at least
one pass).  Processes that only set up follow, so that a run sets up
at least ``MIN_SETUPS`` times.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``:

- ``--trace 0``: the end-to-end metrics of BENCHMARK.json -- ``wall_s``
  (median pass time), ``setup_s`` (median over probes and passes),
  ``peak_rss_mb`` (median peak resident set of the pass processes).
- ``--trace 1``: the same untraced passes, then one traced pass; the metrics
  are BENCHMARK.json's per-layer ones from the traced pass, including
  ``trace.overhead_s`` = traced wall_s - untraced wall_s.

``fail_rate`` is ``failed / attempted``: operations that raised or failed
their output check.  CPU time and load averages are diagnostics.  The full
run record (versions, BLAS, nproc, load per process, failure messages) goes
to ``perfbench/out/run-<workload>-<size>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("census", "lattice", "sweep", "finite")

#: set-ups per run: the passes' own plus processes that only set up
MIN_SETUPS = 4
#: a whole run, every process included, ends within ``--seconds`` plus this
#: many seconds: they cover a first pass longer than ``--seconds``, the
#: set-up probes and the traced pass
MARGIN_S = 150.0
#: environment variables that set BLAS/OpenMP threading, recorded as found
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    """A worker process failed, so the run has no result."""


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts the worker processes of one run, one at a time, and records them."""

    def __init__(self, workload, seed, size, deadline):
        self.workload, self.seed, self.size, self.deadline = workload, seed, size, deadline
        self.nproc = os.cpu_count() or 1
        self._count = itertools.count()
        # the CLI must use its default thread count
        self.env = {k: v for k, v in os.environ.items() if k != "MAGLAB_THREADS"}

    def child(self, mode: str, trace: int = 0) -> dict:
        result_path = OUT / f"result-{os.getpid()}-{next(self._count)}.json"
        load_before = os.getloadavg()
        t0 = time.monotonic()
        cmd = [
            sys.executable, str(WORKER), "--workload", self.workload, "--seed", str(self.seed),
            "--size", self.size, "--mode", mode, "--trace", str(trace),
            "--t0", repr(t0), "--result", str(result_path),
        ]
        try:
            # worker output goes to stderr: stdout ends with the result line
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr, timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process of {self.workload} passed the run's deadline") from exc
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"{mode} process of {self.workload} exited with code {proc.returncode}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        result["process_s"] = time.monotonic() - t0
        result["load_before"] = load_before
        result["load_after"] = os.getloadavg()
        # the 1-minute load includes this benchmark's own previous process
        result["busy_start"] = load_before[0] >= self.nproc
        return result


def run_workload(workload, seed, seconds, trace, size, spec) -> dict:
    runner = Runner(workload, seed, size, time.monotonic() + seconds + MARGIN_S)
    passes = [runner.child("pass")]
    # a pass starts only if, taking as long as the median one, it ends within
    # the run: a long workload gets one pass, whatever its speed on the day
    while sum(p["wall_s"] for p in passes) + statistics.median(p["wall_s"] for p in passes) <= seconds:
        passes.append(runner.child("pass"))
    probes = [runner.child("setup") for _ in range(max(1, MIN_SETUPS - len(passes)))]
    traced = runner.child("pass", trace=1) if trace else None
    measured = passes + ([traced] if traced else [])

    wall = statistics.median(p["wall_s"] for p in passes)
    if trace:
        values = dict(traced["layers"])
        values["cli.csv_identical"] = traced["csv_identical"]
        values["trace.overhead_s"] = traced["wall_s"] - wall
        values["trace.spans"] = traced["spans"]
        names = spec["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(p["setup_s"] for p in probes + passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        names = spec["end_to_end"]
    attempted = sum(p["attempted"] for p in measured)
    failed = sum(p["failed"] for p in measured)
    record = {
        "workload": workload,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "nproc": runner.nproc,
        "affinity": len(os.sched_getaffinity(0)),
        "maglab_threads": os.environ.get("MAGLAB_THREADS"),  # removed from the workers' environment
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "versions": {k: probes[0][k] for k in ("python", "numpy", "scipy", "mpmath", "blas")},
        "probes": probes,
        "passes": passes,
        "traced": traced,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"run-{workload}-{size}-seed{seed}-trace{trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"{workload} ({size}, seed {seed}): {len(passes)} timed pass(es) of {passes[0]['attempted']} operations"
          + (", 1 traced pass" if traced else ""))
    for m in names:
        print(f"  {m['name']:<28} {values[m['name']]!r:>24} {m['unit']}")
    print(f"  {'fail_rate':<28} {failed / attempted!r:>24} ratio ({failed} of {attempted} operations)")
    for p in measured:
        print(f"  pass: wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s (diagnostic), "
              f"load1 {p['load_before'][0]:.2f} -> {p['load_after'][0]:.2f}" + (" BUSY" if p["busy_start"] else ""))
        for op, problems in p["problems"].items():
            print(f"    FAILED {op}: {'; '.join(problems)}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "maglab" / "__init__.py").is_file():
        print(f"error: no maglab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace, args.size, spec)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
