"""Tests of the benchmark itself: tiny workloads, checks, span arithmetic, wrappers."""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest

import maglab
import run as bench
import tracing
import worker
import workloads
from maglab import cli, cloud, metric, radial, roots

HERE = worker.ROOT / "perfbench"
SPEC = json.loads((worker.ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


# -- tiny workloads -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_tiny_workload_passes_every_check(name, tmp_path):
    wl = workloads.build(name, 7, "tiny", tmp_path)
    outputs = {op.name: op.run() for op in wl.ops}
    for op in wl.ops:
        assert op.check(outputs[op.name]) == [], op.name
    if name == "sweep":
        # ball, shell, compare, deviation, two asymptote and the poles CSV
        assert workloads.identical_csvs(wl, outputs) == 7


def _corrupt_census(out):
    pole = out["poles"][0]
    return {**out, "poles": [[pole[0] * (1 + 1e-6), pole[1]], *out["poles"][1:]]}


def _corrupt_lattice(out):
    return {**out, "magnitudes": out["magnitudes"][::-1]}


def _corrupt_sweep(out):
    csv = out["files"]["ball.csv"].splitlines()
    r, m = csv[1].split(",")  # the first row is always among those checked
    csv[1] = f"{r},{float(m) * (1 + 1e-6)!r}"
    return {**out, "files": {**out["files"], "ball.csv": "\n".join(csv) + "\n"}}


def _corrupt_finite(out):
    return {**out, "permuted": out["permuted"] * (1 + 1e-9)}


def _corrupt_finite_csv(out):
    csv = out["files"]["finite.csv"].splitlines()
    r, m = csv[8].split(",")  # one row of 50, not on a regular subsample
    csv[8] = f"{r},{float(m) * (1 + 1e-8)!r}"
    return {**out, "files": {**out["files"], "finite.csv": "\n".join(csv) + "\n"}}


@pytest.mark.parametrize(
    "name, op, corrupt",
    [
        ("census", "census-5", _corrupt_census),
        ("lattice", "shell-R1.0", _corrupt_lattice),
        ("sweep", "ball", _corrupt_sweep),
        ("finite", "trial-0", _corrupt_finite),
        ("finite", "cli-points", _corrupt_finite_csv),
    ],
)
def test_corrupted_output_counts_in_fail_rate(name, op, corrupt, tmp_path):
    wl = workloads.build(name, 7, "tiny", tmp_path)
    first = next(o for o in wl.ops if o.name == op)

    def broken():
        raise ArithmeticError("injected")

    wl.ops = [
        first,
        workloads.Op("corrupted", lambda: corrupt(first.run()), first.check),
        workloads.Op("raising", broken, first.check),
    ]
    result = worker.timed_pass(wl, False, tmp_path / "unused")
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert set(result["problems"]) == {"corrupted", "raising"}
    assert result["problems"]["raising"] == ["ArithmeticError: injected"]


# -- span arithmetic ------------------------------------------------------------


def _span(i, name, start, end, parent):
    return tracing.Span(i, name, start, end, parent, 0, None)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, "cli.main", 0, 100, 0),
        # two pool threads whose calls overlap in time
        _span(2, "radial.ball", 10, 60, 1),
        _span(3, "radial.ball", 20, 90, 1),
        _span(4, "expopoly.evaluate", 30, 40, 2),
        _span(5, "expopoly.evaluate", 30, 40, 4),  # nested call of the same layer
        # ends after its parent (another thread's clock read): clipped
        _span(6, "cli.emit", 95, 120, 1),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 100 - 80 - 5, 2: 50 - 10, 3: 70, 4: 0, 5: 10, 6: 25}
    assert all(v >= 0 for v in own.values())
    layers = tracing.layer_metrics(spans)
    assert layers["cli.calls"] == 1
    assert layers["cli.self_s"] == pytest.approx(15e-9)
    assert layers["radial.ball_calls"] == 2
    assert layers["radial.ball_s"] == pytest.approx(80e-9)  # union, not 50 + 70
    assert layers["expopoly.evaluate_s"] == pytest.approx(10e-9)


def test_self_time_never_negative_when_children_cover_everything():
    spans = [_span(1, "metric.solve", 0, 10, 0)] + [_span(i, "metric.z", 0, 10, 1) for i in range(2, 6)]
    assert tracing.self_times(spans)[1] == 0


def test_layer_metrics_report_every_named_layer():
    layers = tracing.layer_metrics([])
    extra = {"cli.csv_identical", "trace.overhead_s", "trace.spans"}
    assert set(layers) | extra == _names("per_layer")
    assert all(v == 0 for v in layers.values())


# -- wrappers -------------------------------------------------------------------


def test_wrappers_replace_every_binding_and_restore(tmp_path):
    originals = {
        "ball": radial.ball_magnitude,
        "reconstruct": radial.rational_reconstruct,
        "polyroots": mpmath.polyroots,
        "from_coordinates": vars(metric.FiniteMetricSpace)["from_coordinates"],
        "init": vars(metric.FiniteMetricSpace)["__init__"],
    }
    tracer = tracing.install(tracing.Tracer())
    try:
        assert cli.ball_magnitude is radial.ball_magnitude is maglab.ball_magnitude
        assert cli.ball_magnitude is not originals["ball"]
        assert roots.rational_reconstruct is radial.rational_reconstruct is not originals["reconstruct"]
        assert mpmath.polyroots is not originals["polyroots"]
        assert cloud.FiniteMetricSpace is metric.FiniteMetricSpace
        assert vars(metric.FiniteMetricSpace)["__init__"] is not originals["init"]

        tracer.op = 0
        cloud.sample_domain(cloud.DomainShape.ball(3, 1.0), 0.5)
        tracer.op = 1
        assert cli.main(["ball", "--n", "3", "--r-grid", "1:2:4", "--out", str(tmp_path)]) == 0
        tracer.op = 2
        cli.ball_magnitude(5, 2.0, dps=30)
    finally:
        tracer.uninstall()

    assert radial.ball_magnitude is cli.ball_magnitude is maglab.ball_magnitude is originals["ball"]
    assert roots.rational_reconstruct is originals["reconstruct"]
    assert mpmath.polyroots is originals["polyroots"]
    assert vars(metric.FiniteMetricSpace)["from_coordinates"] is originals["from_coordinates"]
    assert vars(metric.FiniteMetricSpace)["__init__"] is originals["init"]

    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    names = [s.name for s in spans]
    assert names.count("cloud.sample") == 1
    assert names.count("metric.build") == names.count("metric.validate") == 1
    assert by_id[next(s for s in spans if s.name == "metric.validate").parent].name == "metric.build"
    main = next(s for s in spans if s.name == "cli.main")
    pool = [s for s in spans if s.name == "radial.ball" and s.op == 1]
    assert len(pool) == 4 and all(s.parent == main.id for s in pool)
    assert [s.op for s in spans if s.name == "radial.ball_mp"] == [2]
    assert all(v >= 0 for v in tracing.self_times(spans).values())
    layers = tracing.layer_metrics(spans)
    assert layers["cloud.sample_calls"] == 1 and layers["cloud.distinct_sample_ratio"] == 1.0
    assert layers["cloud.points"] == 33  # lattice points of the unit 3-ball at spacing 0.5


# -- the command ----------------------------------------------------------------


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_its_kind(trace, kind):
    proc = _run(worker.ROOT, "--workload", "lattice", "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _names(kind)
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    if trace:
        assert result["metrics"]["cloud.sample_calls"]["value"] == 3
        assert result["metrics"]["metric.solve_n_max"]["value"] == 1858


def test_deadline_grows_with_seconds(monkeypatch):
    """Passes that fill a long --seconds are not cut by the deadline."""
    clock = [1000.0]
    took = {"pass": 60.0, "setup": 1.0}
    fields = {"wall_s": took["pass"], "setup_s": 0.5, "peak_rss_mb": 1.0, "cpu_s": 1.0, "attempted": 2,
              "failed": 0, "problems": {}, "csv_identical": 0, "python": "", "numpy": "", "scipy": "",
              "mpmath": "", "blas": {}}

    def child(cmd, env, stdout, timeout):
        mode = cmd[cmd.index("--mode") + 1]
        if took[mode] > timeout:
            raise subprocess.TimeoutExpired(cmd, timeout)
        clock[0] += took[mode]
        Path(cmd[cmd.index("--result") + 1]).write_text(json.dumps(fields))
        return subprocess.CompletedProcess(cmd, 0)

    monkeypatch.setattr(bench, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(run=child, TimeoutExpired=subprocess.TimeoutExpired))
    bench.OUT.mkdir(parents=True, exist_ok=True)
    seconds = 4 * bench.MARGIN_S
    result = bench.run_workload("finite", 0, seconds, 0, "tiny", SPEC)
    passes = int(seconds // took["pass"])
    assert result["attempted"] == 2 * passes
    assert clock[0] - 1000.0 > seconds


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(worker.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "census", "--seed", "1", "--seconds", "10", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
