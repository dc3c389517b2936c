"""End-to-end tests of the command-line experiment runner."""

import csv
import json
import math

import pytest

from nugamma.cli import main
from nugamma.bvmodel import single_jump
from nugamma.functional1d import ExceedanceQuery, F_value


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def eval_config(tmp_path, out, **overrides):
    payload = {
        "mode": "eval",
        "gamma": 1.0,
        "lambda": 10.0,
        "function": {"pieces": [{"kind": "jump", "location": 0.0, "height": 1.0}]},
        "out": str(out),
    }
    payload.update(overrides)
    return write_config(tmp_path, payload)


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_eval_exits_zero(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["--config", eval_config(tmp_path, out)])
    assert rc == 0
    assert (out / "report.json").exists()
    assert "F in [" in capsys.readouterr().out


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "absent.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_invalid_json_reports_line_number(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "mode": "eval",,\n}\n')
    rc = main(["--config", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_negative_gamma_message_cites_constraint(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = eval_config(tmp_path, out, gamma=-1.0)
    rc = main(["--config", cfg])
    assert rc == 1
    err = capsys.readouterr().err
    assert "gamma > 0" in err
    assert "-1" in err


def test_missing_key_names_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mode": "eval", "gamma": 1.0, "lambda": 1.0})
    rc = main(["--config", cfg])
    assert rc == 1
    assert "function" in capsys.readouterr().err


def test_bad_piece_kind_names_path(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = eval_config(
        tmp_path, out, function={"pieces": [{"kind": "step", "location": 0.0}]}
    )
    rc = main(["--config", cfg])
    assert rc == 1
    assert "pieces[0]" in capsys.readouterr().err


def test_unknown_mode_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mode": "trapezoid"})
    rc = main(["--config", cfg])
    assert rc == 1
    assert "mode" in capsys.readouterr().err


def test_verify_shortfall_exits_two(tmp_path, capsys):
    # Sweep stops far below the limit, so the two-sided check must fail
    # and the runner must say so with exit status 2.
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path,
        {
            "mode": "verify",
            "gamma": 1.0,
            "function": {"pieces": [{"kind": "affine", "support": [0.0, 1.0], "slope": 1.0}]},
            "sweep": {"lambda_min": 2.0, "lambda_max": 10.0, "points": 4},
            "verify": {"slack": 0.01},
            "out": str(out),
        },
    )
    rc = main(["--config", cfg])
    assert rc == 2
    assert "FAILED" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["verdict"]["pass_sbv"] is False


# ---------------------------------------------------------------------------
# Report contents
# ---------------------------------------------------------------------------


def test_eval_report_matches_library_bitwise(tmp_path):
    out = tmp_path / "run"
    rc = main(["--config", eval_config(tmp_path, out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    enc = F_value(single_jump(1.0), ExceedanceQuery(1.0, 10.0))
    assert report["results"]["F_lo"] == enc.lo
    assert report["results"]["F_hi"] == enc.hi
    assert report["results"]["tol_met"] is True
    assert report["mode"] == "eval"
    assert report["generator"] == "Philox"
    assert "numpy" in report["versions"] and "nugamma" in report["versions"]
    assert report["timings"]["total_s"] > 0.0
    assert "report.json" in report["outputs"]


def test_flag_overrides_recorded(tmp_path):
    out = tmp_path / "flagged"
    cfg = eval_config(tmp_path, tmp_path / "ignored")
    rc = main(["--config", cfg, "--out", str(out), "--seed", "99"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 99


def test_sweep_outputs(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path,
        {
            "mode": "sweep",
            "gamma": 1.0,
            "function": {"pieces": [{"kind": "jump", "location": 0.0, "height": 1.0}]},
            "sweep": {"lambda_min": 10.0, "lambda_max": 1000.0, "points": 5},
            "out": str(out),
        },
    )
    rc = main(["--config", cfg])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())

    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "F_lo", "F_hi", "rhs_liminf", "sbv_target"]
    assert len(rows) == 6
    # CSV floats round-trip bit-exactly against the JSON report.
    for row, lam, lo, hi in zip(
        rows[1:],
        report["results"]["lambdas"],
        report["results"]["F_lo"],
        report["results"]["F_hi"],
    ):
        assert float(row[0]) == lam
        assert float(row[1]) == lo
        assert float(row[2]) == hi

    for name in ("plot_F_lo.dat", "plot_F_hi.dat", "plot_F_mid.dat"):
        lines = (out / name).read_text().strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            parts = line.split()
            assert len(parts) == 2
            float(parts[0]), float(parts[1])

    assert report["results"]["rhs_liminf"] == 1.0
    assert report["results"]["sbv_target"] == 1.0


def test_verify_pass_on_single_jump(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path,
        {
            "mode": "verify",
            "gamma": 1.0,
            "function": {"pieces": [{"kind": "jump", "location": 0.0, "height": 1.0}]},
            "sweep": {"lambda_min": 1e3, "lambda_max": 1e5, "points": 5},
            "out": str(out),
        },
    )
    rc = main(["--config", cfg])
    assert rc == 0
    verdict = json.loads((out / "report.json").read_text())["results"]["verdict"]
    assert verdict["pass_liminf"] is True
    assert verdict["pass_sbv"] is True
    assert "verdict" in capsys.readouterr().out


def test_cantor_sweep_reports_sixth(tmp_path):
    # At unit kernel exponent a pure staircase has limit floor 1/6 and no
    # two-sided target, so the CSV's last column stays blank.
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path,
        {
            "mode": "sweep",
            "gamma": 1.0,
            "tol": 0.05,
            "function": {"pieces": [{"kind": "cantor", "support": [0.0, 1.0], "rise": 1.0}]},
            "sweep": {"lambda_min": 10.0, "lambda_max": 100.0, "points": 3},
            "out": str(out),
        },
    )
    rc = main(["--config", cfg])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["rhs_liminf"] == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert report["results"]["sbv_target"] is None

    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "F_lo", "F_hi", "rhs_liminf", "sbv_target"]
    for row in rows[1:]:
        assert float(row[3]) == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert row[4] == ""


def test_rerun_from_echoed_config_is_bit_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_a = write_config(
        tmp_path,
        {
            "mode": "section-nd",
            "gamma": 1.0,
            "lambda": 1000.0,
            "field": {
                "kind": "ball_indicator",
                "dimension": 2,
                "center": [0.0, 0.0],
                "radius": 1.0,
                "height": 1.0,
            },
            "samples": 64,
            "seed": 5,
            "tol_1d": 0.01,
            "out": str(out_a),
        },
        name="a.json",
    )
    assert main(["--config", cfg_a]) == 0
    ra = json.loads((out_a / "report.json").read_text())
    assert ra["results"]["failure_reasons"] == []

    # The report echoes the config; feeding that echo back must
    # reproduce every numeric output bit for bit.
    echoed = dict(ra["config"], out=str(out_b))
    cfg_b = write_config(tmp_path, echoed, name="b.json")
    assert main(["--config", cfg_b]) == 0
    rb = json.loads((out_b / "report.json").read_text())
    assert ra["results"] == rb["results"]


def test_section_nd_variation_check(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path,
        {
            "mode": "section-nd",
            "gamma": 1.0,
            "lambda": 1000.0,
            "field": {
                "kind": "ball_indicator",
                "dimension": 2,
                "center": [0.0, 0.0],
                "radius": 1.0,
                "height": 1.0,
            },
            "samples": 256,
            "seed": 1,
            "variation_check": "j",
            "out": str(out),
        },
    )
    rc = main(["--config", cfg])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    res = report["results"]
    assert res["pass"] is True
    assert res["target"] == pytest.approx(8.0 * math.pi, rel=1e-12)
    assert res["failures"] == 0


@pytest.mark.parametrize("form", [{"lambda": 100.0, "tol_1d": 0.5}, {"variation_check": "a"}])
def test_section_nd_radial_writes_report(tmp_path, form):
    # The radial field's variation masses come from polynomial root
    # finding; the report must still hold plain JSON numbers and flags.
    out = tmp_path / "run"
    payload = {
        "mode": "section-nd",
        "gamma": 1.0,
        "field": {
            "kind": "radial_smooth",
            "dimension": 2,
            "radius": 1.0,
            "coeffs": [1.0, -2.0, 1.0],
        },
        "samples": 8,
        "seed": 3,
        "out": str(out),
    }
    payload.update(form)
    rc = main(["--config", write_config(tmp_path, payload)])
    res = json.loads((out / "report.json").read_text())["results"]
    assert isinstance(res["pass"], bool)
    assert rc == (0 if res["pass"] else 2)
    assert isinstance(res["target"], float) and res["target"] > 0.0


def test_gadgets_mode(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path,
        {
            "mode": "gadgets",
            "gamma": 1.0,
            "gadgets": {
                "jump_deltas": [0.5, 1.0],
                "cantor_radii": [1.0],
                "smooth": {"slope": 1.0, "length": 1.0, "eps": 0.1, "lambda": 100.0},
            },
            "out": str(out),
        },
    )
    rc = main(["--config", cfg])
    assert rc == 0
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["jump"]["pass_jump"] is True
    assert res["cantor"]["pass_cantor"] is True
    assert res["smooth"]["pass_smooth"] is True
    # Each gadget value sits inside its quadrature bracket, except the
    # smooth one which is a certified underestimate.
    assert res["jump"]["oracle_lo"] <= res["jump"]["value"] <= res["jump"]["oracle_hi"]
    assert res["smooth"]["value"] <= res["smooth"]["oracle_hi"]


def test_mode_flag_overrides_config(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path,
        {
            "mode": "eval",
            "gamma": 1.0,
            "lambda": 10.0,
            "function": {"pieces": [{"kind": "jump", "location": 0.0, "height": 1.0}]},
            "sweep": {"lambda_min": 10.0, "lambda_max": 100.0, "points": 3},
            "out": str(out),
        },
    )
    rc = main(["--config", cfg, "--mode", "sweep"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "sweep"
    assert (out / "sweep.csv").exists()


def test_all_piece_kinds_build(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path,
        {
            "mode": "eval",
            "gamma": 1.0,
            "lambda": 50.0,
            "tol": 0.05,
            "function": {
                "base": 1.0,
                "pieces": [
                    {"kind": "jump", "location": -1.0, "height": 0.5},
                    {"kind": "affine", "support": [0.0, 1.0], "slope": 1.0},
                    {"kind": "smoothstep", "support": [2.0, 3.0], "rise": -0.25},
                    {"kind": "sine", "support": [4.0, 5.0], "rise": 0.25},
                    {"kind": "polynomial", "support": [6.0, 7.0], "coeffs": [0.0, 1.0, -0.5]},
                    {"kind": "cantor", "support": [8.0, 9.0], "rise": 0.5},
                ],
            },
            "out": str(out),
        },
    )
    rc = main(["--config", cfg])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["F_lo"] > 0.0
