"""Write the reference outputs that the workload checks compare with.

    python3 perfbench/make_refs.py [census lattice sweep finite]

References belong to a commit whose outputs are trusted; the committed ones
were taken at the commit that introduced the benchmark.  A change meant to
alter outputs regenerates them in a commit of its own and says why.

``refs/<workload>-<size>.json`` holds each operation's output (CLI
operations: their CSVs).  ``finite`` draws its inputs from the seed, so its
file holds only the CSV digests of its CLI operations, for ``FINITE_SEEDS``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402

FINITE_SEEDS = (*range(32), 2024)


def _csvs_only(output):
    if isinstance(output, dict) and "files" in output:
        return {**output, "files": {k: v for k, v in output["files"].items() if k.endswith(".csv")}}
    return output


def main(names) -> int:
    work = ROOT / "perfbench" / "out" / "refs-work"
    for size in ("full", "tiny"):
        for name in names:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            if name == "finite":
                ref = {}
                for seed in FINITE_SEEDS:
                    wl = workloads.build(name, seed, size, work)
                    outputs = {op.name: op.run() for op in wl.ops if op.name.startswith("cli-")}
                    ref[str(seed)] = {
                        f"{op}/{fname}": workloads.csv_digest(text)
                        for op, out in outputs.items()
                        for fname, text in out["files"].items()
                        if fname.endswith(".csv")
                    }
            else:
                wl = workloads.build(name, 0, size, work)
                ref = {op.name: _csvs_only(op.run()) for op in wl.ops}
            path = workloads.REFS / f"{name}-{size}.json"
            path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:] or list(workloads.BUILDERS)))
