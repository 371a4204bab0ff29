import json
import math

import pytest

from maglab.cli import main
from maglab.radial import ball_magnitude


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


def test_finite_two_point(tmp_path):
    pts = tmp_path / "two.txt"
    pts.write_text(f"0 0\n{math.log(3)} 0\n")
    assert run(tmp_path, "finite", "--points", str(pts)) == 0
    lines = (tmp_path / "finite.csv").read_text().splitlines()
    assert lines[0] == "R,magnitude"
    R, M = lines[1].split(",")
    assert float(M) == pytest.approx(1.5, abs=1e-12)
    sidecar = json.loads((tmp_path / "finite_config.json").read_text())
    assert sidecar["command"] == "finite" and "version" in sidecar


def test_ball_csv_matches_closed_form(tmp_path):
    assert run(tmp_path, "ball", "--n", "3", "--r-grid", "0.1:10:10") == 0
    rows = (tmp_path / "ball.csv").read_text().splitlines()[1:]
    assert len(rows) == 10
    for row in rows:
        R, M = (float(v) for v in row.split(","))
        assert M == pytest.approx(R**3 / 6 + R**2 + 2 * R + 1, rel=1e-10)


def test_ball_and_compare_at_high_dimension(tmp_path):
    for argv, table, n in (
        (["ball", "--n", "13", "--r-grid", "0.1:20:50"], "ball.csv", 13),
        (["compare", "--n", "11", "--r-grid", "1:20:20"], "compare.csv", 11),
    ):
        assert run(tmp_path, *argv) == 0, argv
        rows = (tmp_path / table).read_text().splitlines()[1:]
        for row in rows[::5]:
            R, M = (float(v) for v in row.split(",")[:2])
            ref = complex(ball_magnitude(n, R, dps=50)).real
            assert M == pytest.approx(ref, rel=1e-12), (table, R)


def test_ball_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["ball", "--r-grid", "0.5:5:7", "--out", str(a)]) == 0
    assert main(["ball", "--r-grid", "0.5:5:7", "--out", str(b)]) == 0
    assert (a / "ball.csv").read_bytes() == (b / "ball.csv").read_bytes()


def test_poles_ball5_single_pole_row(tmp_path):
    assert run(tmp_path, "poles", "--model", "ball", "--n", "5", "--rect", "-10:1:-5:5") == 0
    rows = (tmp_path / "poles.csv").read_text().splitlines()[1:]
    pole_rows = [r for r in rows if r.startswith("pole,")]
    assert len(pole_rows) == 1
    _, re_part, im_part, _, _ = pole_rows[0].split(",")
    assert float(re_part) == pytest.approx(-3.0, abs=1e-8)
    assert float(im_part) == pytest.approx(0.0, abs=1e-8)


def test_poles_shell_survey(tmp_path):
    assert run(tmp_path, "poles", "--model", "shell") == 0
    rows = (tmp_path / "poles.csv").read_text().splitlines()[1:]
    assert len(rows) >= 10
    sidecar = json.loads((tmp_path / "poles_config.json").read_text())
    assert 0.4 <= sidecar["slope"] <= 0.6
    # defaults are resolved before the sidecar is written; --n is the ball's
    assert sidecar["config"]["ymax"] == 40.0 and sidecar["config"]["n"] is None


def test_shell_subcommand(tmp_path):
    assert run(tmp_path, "shell", "--r-grid", "1:1:1") == 0
    rows = (tmp_path / "shell.csv").read_text().splitlines()[1:]
    _, M = rows[0].split(",")
    assert float(M) == pytest.approx(10.333042690797358, rel=1e-10)


def test_cloud_subcommand(tmp_path):
    assert run(tmp_path, "cloud", "--levels", "3") == 0
    rows = (tmp_path / "cloud.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    sidecar = json.loads((tmp_path / "cloud_config.json").read_text())
    assert sidecar["extrapolated"] > 0
    assert sidecar["config"]["radius"] == 1.0 and sidecar["config"]["inner"] is sidecar["config"]["outer"] is None


def test_asymptote_subcommand(tmp_path):
    assert run(tmp_path, "asymptote", "--shape", "shell") == 0
    rows = (tmp_path / "asymptote.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    analytic = [float(r.split(",")[1]) for r in rows]
    assert analytic == pytest.approx([7 / 6, 5.0, 2.0])
    errors = [float(r.split(",")[3]) for r in rows]
    assert max(errors) <= 1e-6


def test_asymptote_ball_fits_its_radius(tmp_path):
    # the fitted values are the radius-2 ball's, M_{2B}(R) = M_B(2R)
    assert run(tmp_path, "asymptote", "--shape", "ball", "--n", "3", "--radius", "2") == 0
    rows = (tmp_path / "asymptote.csv").read_text().splitlines()[1:]
    analytic = [float(r.split(",")[1]) for r in rows]
    assert analytic == pytest.approx([4 / 3, 4.0, 4.0])
    errors = [float(r.split(",")[3]) for r in rows]
    assert len(errors) == 3 and max(errors) <= 1e-6


def test_compare_subcommand(tmp_path):
    assert run(tmp_path, "compare", "--n", "3", "--r-grid", "1:5:3") == 0
    rows = (tmp_path / "compare.csv").read_text().splitlines()[1:]
    for row in rows:
        R, exact, asym, conj = (float(v) for v in row.split(","))
        # for B3 the conjectured polynomial is exact
        assert conj == pytest.approx(exact, rel=1e-10)
    assert (tmp_path / "deviation.csv").exists()


def test_json_format(tmp_path):
    assert run(tmp_path, "ball", "--r-grid", "1:2:2", "--format", "json") == 0
    payload = json.loads((tmp_path / "ball.csv").read_text())
    assert len(payload) == 2 and "M" in payload[0]


def test_usage_errors_exit_2(tmp_path):
    assert run(tmp_path, "ball", "--r-grid", "nope") == 2
    assert run(tmp_path, "ball", "--r-grid", "1:2:0") == 2
    assert main(["no-such-command"]) == 2
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("0 0\n1 0 0\n")
    assert run(tmp_path, "finite", "--points", str(ragged)) == 2
    assert run(tmp_path, "cloud", "--shape", "ball", "--n", "3", "--levels", "2") == 2
    for argv in (
        ["ball", "--r-grid", "a:1:3"],
        ["ball", "--r-grid", "0.1:1:x"],
        ["ball", "--r-grid", "1:inf:3"],
        ["poles", "--rect", "a:b:c:d"],
        ["poles", "--model", "shell", "--rect", "0:1:0:1"],
        ["poles", "--model", "ball", "--ymax", "20"],
        ["poles", "--model", "shell", "--n", "9"],
        ["cloud", "--shape", "ball", "--inner", "5"],
        ["cloud", "--shape", "ball", "--outer", "5"],
        ["cloud", "--shape", "shell", "--radius", "2"],
        ["asymptote", "--shape", "ball", "--inner", "5"],
        ["asymptote", "--shape", "shell", "--radius", "2"],
        ["asymptote", "--shape", "ball", "--n", "1"],
        ["finite", "--points", str(tmp_path / "missing.txt")],
        ["finite", "--points", str(tmp_path)],
    ):
        assert run(tmp_path, *argv) == 2, argv


def test_invalid_shape_is_usage_error(tmp_path):
    assert run(tmp_path, "shell", "--inner", "3", "--outer", "1") == 2


def test_computation_errors_exit_1(tmp_path):
    # resource cap exceeded mid-computation is a diagnostic, not a usage error
    assert run(tmp_path, "cloud", "--levels", "4", "--cap", "100") == 1
