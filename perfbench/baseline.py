"""Measure the benchmark's run-to-run spread and write its baseline.

    python3 perfbench/baseline.py

Runs ``run.py`` once per workload of BENCHMARK.json and seed in ``SEEDS``
with ``--trace 0``, then once per workload with ``--trace 1``.  For each
end-to-end metric it reports the median and quartiles of the values, as
``statistics.quantiles(n=4)`` gives them, and the spread (q3 - q1) / median,
which should stay below a third of the metric's bound; the exit code is 1
if any spread does not.  ``baseline.json`` beside this file gets those
numbers, the traced per-layer values, each workload's operations, seed
semantics and reason, and the run record of the last run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))
from workloads import ABOUT  # noqa: E402

SEEDS = list(range(1, 11))


def run(workload, seed, trace, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    baseline = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    steady = True
    for about in spec["workloads"]:
        workload = about["name"]
        runs = [run(workload, seed, 0, seconds) for seed in SEEDS]
        entry = {**ABOUT[workload], "why": about["why"]}
        entry["attempted"] = sum(r["attempted"] for r in runs)
        entry["failed"] = sum(r["failed"] for r in runs)
        entry["end_to_end"] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": values,
            }
            ok = spread < metric["bound"] / 3
            steady &= ok
            print(f"{workload:<8} {name:<12} median {median:.4f} {metric['unit']:<3} spread {spread:.4f}"
                  f" (bound/3 {metric['bound'] / 3:.4f}) {'ok' if ok else 'WIDE'}", flush=True)
        traced = run(workload, SEEDS[0], 1, seconds)
        entry["per_layer_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
        record = json.loads((HERE / "out" / f"run-{workload}-full-seed{SEEDS[0]}-trace1.json").read_text())
        baseline["record"] = {k: record[k] for k in ("commit", "nproc", "affinity", "maglab_threads", "thread_env", "versions")}
    out = HERE / "baseline.json"
    out.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {out}; {'every' if steady else 'NOT every'} spread is below a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
