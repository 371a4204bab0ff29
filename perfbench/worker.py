"""One benchmark process: set up a workload, then time and check one pass.

Started by ``run.py``, once per timed pass and once per set-up probe, so the
peak resident set and maglab's ``lru_cache``s belong to that pass alone, as
they do for one ``maglab`` CLI run.  Writes its findings as JSON to
``--result``.

``setup_s`` runs from ``--t0``, the parent's ``time.monotonic()`` just
before it started this process (the clock is system-wide), to the moment the
inputs are ready: interpreter start, importing maglab, numpy, scipy and
mpmath, and making the inputs.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"

sys.path.insert(0, str(ROOT / "src"))
import maglab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: failure messages kept per operation in the result
KEEP_PROBLEMS = 3


def _versions() -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def timed_pass(wl, trace: bool, spans_path: Path) -> dict:
    tracer = tracing.install(tracing.Tracer()) if trace else None
    outputs, errors, op_s = {}, {}, {}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        if tracer:
            tracer.op = i
        begin = time.perf_counter()
        try:
            outputs[op.name] = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        op_s[op.name] = time.perf_counter() - begin
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    if tracer:
        tracer.uninstall()

    problems = {}
    for op in wl.ops:
        if op.name in errors:
            found = [errors[op.name]]
        else:
            try:
                found = op.check(outputs[op.name])
            except Exception as exc:  # a malformed output fails its check
                found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems[op.name] = found[:KEEP_PROBLEMS]
    result = {
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime) - (usage.ru_utime + usage.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024,
        "attempted": len(wl.ops),
        "failed": len(problems),
        "problems": problems,
        "csv_identical": workloads.identical_csvs(wl, outputs),
        "op_s": op_s,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["spans"] = len(tracer.spans)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        names = sorted({s.name for s in tracer.spans})
        index = {name: i for i, name in enumerate(names)}
        with gzip.open(spans_path, "wt") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start_ns", "end_ns", "parent", "op", "attr"],
                    "names": names,
                    "ops": [op.name for op in wl.ops],
                    "spans": [[s.id, index[s.name], *s[2:]] for s in tracer.spans],
                },
                fh,
            )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    if Path(maglab.__file__).resolve().parent != (ROOT / "src" / "maglab").resolve():
        raise SystemExit(f"maglab was imported from {maglab.__file__}, not from this checkout")

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, args.size, work)
        result = {"setup_s": time.monotonic() - args.t0}
        if args.mode == "setup":
            result.update(_versions())
        else:
            spans_path = OUT / f"spans-{args.workload}-{args.size}-seed{args.seed}.json.gz"
            result.update(timed_pass(wl, bool(args.trace), spans_path))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
