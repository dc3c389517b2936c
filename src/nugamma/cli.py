"""Batch front-end: JSON experiment configs in, reports and plot data out.

One run executes one mode:

* ``eval``       one enclosure of the functional at fixed gamma, lambda;
* ``sweep``      enclosures along a geometric lambda grid, with CSV and
                 two-column plot-data files;
* ``verify``     a sweep followed by the limit verdict (exit code 2 when
                 a pass flag comes back false);
* ``section-nd`` Monte Carlo functional estimate of an N-dimensional
                 catalog field, or one of the variation identities;
* ``gadgets``    closed-form calibration masses checked against the
                 independent quadrature oracle.

Every run writes ``report.json`` into the output directory with the
effective config echoed back; re-running on that echo reproduces all
numeric outputs bit-exactly (everything is serial and seeded, and all
floats are printed with 17 significant digits).  Exit codes: 0 success,
1 usage or config problem, 2 when any verification flag fails.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (
    gadget_cantor_measure,
    gadget_jump_measure,
    gadget_smooth_mass,
    lambda_sweep,
    liminf_rhs,
    sbv_target,
    verify_sweep,
    write_sweep_csv,
)
from .bvmodel import (
    BVFunction1D,
    JumpPiece,
    affine_ramp,
    cantor_piece,
    polynomial_piece,
    sine_ramp,
    smoothstep_piece,
)
from .functional1d import ExceedanceQuery, F_value
from .numeasure import PlaneBox, curved_indicator, nu_quadrature_oracle, triangle_indicator
from .sectionnd import (
    AffineClampField,
    BallIndicatorField,
    F_nd_estimate,
    RadialPolynomialField,
    sectioning_variation_check,
    variation_check_target,
)

__all__ = ["ConfigError", "load_config", "build_function", "build_field", "main"]

_MODES = ("eval", "sweep", "verify", "section-nd", "gadgets")


class ConfigError(Exception):
    """Config problem with enough path context to fix it by hand."""


# ---------------------------------------------------------------------------
# Typed config access
# ---------------------------------------------------------------------------


def load_config(path) -> dict:
    """Parse a JSON config file; syntax errors carry line and column."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def _require(node: dict, key: str, path: str):
    if key not in node:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return node[key]


def _obj(v, where: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"{where}: expected an object")
    return v


def _num(v, where: str, positive: bool = False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {type(v).__name__}")
    out = float(v)
    if not math.isfinite(out):
        raise ConfigError(f"{where}: must be finite")
    if positive and out <= 0.0:
        raise ConfigError(f"{where}: must be positive, got {out:g}")
    return out


def _int(v, where: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: expected an integer, got {type(v).__name__}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}: must be at least {minimum}, got {v}")
    return v


def _str(v, where: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{where}: expected a string, got {type(v).__name__}")
    return v


def _numlist(v, where: str, length: int | None = None) -> list[float]:
    if not isinstance(v, list):
        raise ConfigError(f"{where}: expected a list of numbers")
    out = [_num(c, f"{where}[{k}]") for k, c in enumerate(v)]
    if length is not None and len(out) != length:
        raise ConfigError(f"{where}: expected exactly {length} numbers, got {len(out)}")
    return out


def _gamma_from(cfg: dict) -> float:
    g = _num(_require(cfg, "gamma", ""), "gamma")
    if g <= 0.0:
        raise ConfigError(
            f"gamma: the kernel exponent is restricted to gamma > 0, got {g:g}"
        )
    return g


def _tol_args(cfg: dict, key: str = "tol") -> tuple[float | None, int]:
    tol = None
    if cfg.get(key) is not None:
        tol = _num(cfg[key], key, positive=True)
    max_depth = _int(cfg.get("max_depth", 40), "max_depth", minimum=1)
    return tol, max_depth


# ---------------------------------------------------------------------------
# Function and field construction
# ---------------------------------------------------------------------------


def build_function(node, path: str = "function") -> BVFunction1D:
    """Assemble a 1D catalog function from its config description."""
    node = _obj(node, path)
    base = _num(node.get("base", 0.0), f"{path}.base")
    raw = _require(node, "pieces", path)
    if not isinstance(raw, list):
        raise ConfigError(f"{path}.pieces: expected a list")
    pieces = []
    for k, pn in enumerate(raw):
        pp = f"{path}.pieces[{k}]"
        pn = _obj(pn, pp)
        kind = _str(_require(pn, "kind", pp), f"{pp}.kind")
        try:
            if kind == "jump":
                pieces.append(
                    JumpPiece(
                        _num(_require(pn, "location", pp), f"{pp}.location"),
                        _num(_require(pn, "height", pp), f"{pp}.height"),
                    )
                )
            elif kind in ("affine", "smoothstep", "sine", "polynomial", "cantor"):
                a, b = _numlist(_require(pn, "support", pp), f"{pp}.support", 2)
                if kind == "affine":
                    slope = _num(_require(pn, "slope", pp), f"{pp}.slope")
                    pieces.append(affine_ramp(a, b, slope))
                elif kind == "smoothstep":
                    pieces.append(
                        smoothstep_piece(a, b, _num(_require(pn, "rise", pp), f"{pp}.rise"))
                    )
                elif kind == "sine":
                    pieces.append(
                        sine_ramp(a, b, _num(_require(pn, "rise", pp), f"{pp}.rise"))
                    )
                elif kind == "polynomial":
                    cs = _numlist(_require(pn, "coeffs", pp), f"{pp}.coeffs")
                    pieces.append(polynomial_piece(a, b, cs))
                else:
                    rise = _num(_require(pn, "rise", pp), f"{pp}.rise")
                    orient = pn.get("orientation")
                    if orient is not None:
                        orient = _int(orient, f"{pp}.orientation")
                    pieces.append(cantor_piece(a, b, rise, orient))
            else:
                raise ConfigError(
                    f"{pp}.kind: unknown piece kind {kind!r}; expected one of "
                    "jump, affine, smoothstep, sine, polynomial, cantor"
                )
        except ValueError as exc:
            raise ConfigError(f"{pp}: {exc}") from None
    try:
        return BVFunction1D(tuple(pieces), base)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build_field(node, path: str = "field"):
    """Assemble an N-dimensional catalog field from its config description."""
    node = _obj(node, path)
    kind = _str(_require(node, "kind", path), f"{path}.kind")
    dim = _int(_require(node, "dimension", path), f"{path}.dimension", minimum=2)
    try:
        if kind == "ball_indicator":
            return BallIndicatorField(
                dim,
                tuple(_numlist(_require(node, "center", path), f"{path}.center", dim)),
                _num(_require(node, "radius", path), f"{path}.radius", positive=True),
                _num(_require(node, "height", path), f"{path}.height"),
            )
        if kind == "radial_smooth":
            center = node.get("center")
            if center is not None:
                center = tuple(_numlist(center, f"{path}.center", dim))
            return RadialPolynomialField(
                dim,
                _num(_require(node, "radius", path), f"{path}.radius", positive=True),
                tuple(_numlist(_require(node, "coeffs", path), f"{path}.coeffs")),
                center,
            )
        if kind == "affine_clamp":
            c0, c1 = _numlist(_require(node, "clamp", path), f"{path}.clamp", 2)
            return AffineClampField(
                dim,
                tuple(_numlist(_require(node, "direction", path), f"{path}.direction", dim)),
                _num(_require(node, "slope", path), f"{path}.slope", positive=True),
                (c0, c1),
                _num(_require(node, "clamp_length", path), f"{path}.clamp_length", positive=True),
            )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(
        f"{path}.kind: unknown field kind {kind!r}; expected one of "
        "ball_indicator, radial_smooth, affine_clamp"
    )


# ---------------------------------------------------------------------------
# Mode runners
# ---------------------------------------------------------------------------


def _run_eval(cfg: dict, out_dir: Path):
    g = _gamma_from(cfg)
    lam = _num(_require(cfg, "lambda", ""), "lambda", positive=True)
    u = build_function(_require(cfg, "function", ""))
    tol, max_depth = _tol_args(cfg)
    try:
        enc = F_value(u, ExceedanceQuery(g, lam, tol, max_depth))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    results = {
        "gamma": g,
        "lambda": lam,
        "F_lo": enc.lo,
        "F_hi": enc.hi,
        "width": enc.width,
        "tol_met": enc.tol_met,
    }
    return results, []


def _write_series(path: Path, pairs) -> None:
    with open(path, "w") as fh:
        for x, y in pairs:
            fh.write(f"{x:.17g} {y:.17g}\n")


def _run_sweep_common(cfg: dict, out_dir: Path):
    g = _gamma_from(cfg)
    u = build_function(_require(cfg, "function", ""))
    sn = _obj(_require(cfg, "sweep", ""), "sweep")
    lam_min = _num(_require(sn, "lambda_min", "sweep"), "sweep.lambda_min", positive=True)
    lam_max = _num(_require(sn, "lambda_max", "sweep"), "sweep.lambda_max", positive=True)
    if lam_max < lam_min:
        raise ConfigError("sweep.lambda_max: grid must increase (lambda_max >= lambda_min)")
    points = _int(sn.get("points", 13), "sweep.points", minimum=1)
    if points == 1 and lam_min != lam_max:
        raise ConfigError("sweep.points: a single-point sweep needs lambda_min == lambda_max")
    tol, max_depth = _tol_args(cfg)
    label = _str(cfg.get("label", ""), "label")
    sweep = lambda_sweep(u, g, lam_min, lam_max, points, tol, max_depth, label)
    parts = u.variation_decomposition()

    write_sweep_csv(out_dir / "sweep.csv", sweep, parts)
    valid = sweep.valid_points
    _write_series(out_dir / "plot_F_lo.dat", [(lam, e.lo) for lam, e in valid])
    _write_series(out_dir / "plot_F_hi.dat", [(lam, e.hi) for lam, e in valid])
    _write_series(out_dir / "plot_F_mid.dat", [(lam, e.mid) for lam, e in valid])
    written = ["sweep.csv", "plot_F_lo.dat", "plot_F_hi.dat", "plot_F_mid.dat"]

    results = {
        "gamma": g,
        "lambdas": list(sweep.lambdas),
        "F_lo": [None if e is None else e.lo for e in sweep.enclosures],
        "F_hi": [None if e is None else e.hi for e in sweep.enclosures],
        "tol_met": [None if e is None else e.tol_met for e in sweep.enclosures],
        "failures": [[lam, msg] for lam, msg in sweep.failures],
        "rhs_liminf": liminf_rhs(parts, g),
        "sbv_target": None if parts.c != 0.0 else sbv_target(parts, g),
    }
    return sweep, parts, results, written


def _run_sweep(cfg: dict, out_dir: Path):
    _, _, results, written = _run_sweep_common(cfg, out_dir)
    return results, written


def _run_verify(cfg: dict, out_dir: Path):
    sweep, parts, results, written = _run_sweep_common(cfg, out_dir)
    vn = _obj(cfg.get("verify", {}), "verify")
    slack = _num(vn.get("slack", 0.01), "verify.slack")
    tail_fraction = _num(vn.get("tail_fraction", 0.25), "verify.tail_fraction")
    try:
        verdict = verify_sweep(sweep, parts, 1, slack, tail_fraction)
    except ValueError as exc:
        raise ConfigError(f"verify: {exc}") from None
    results["verdict"] = {
        "rhs_liminf": verdict.rhs_liminf,
        "rhs_sbv": verdict.rhs_sbv,
        "tail_lo": verdict.tail_lo,
        "tail_hi": verdict.tail_hi,
        "estimate": verdict.estimate,
        "spread": verdict.spread,
        "slack": verdict.slack,
        "pass_liminf": verdict.pass_liminf,
        "pass_sbv": verdict.pass_sbv,
    }
    return results, written


def _run_section_nd(cfg: dict, out_dir: Path):
    g = _gamma_from(cfg)
    field = build_field(_require(cfg, "field", ""))
    samples = _int(_require(cfg, "samples", ""), "samples", minimum=2)
    cfg.setdefault("seed", 0)
    seed = _int(cfg["seed"], "seed", minimum=0)
    which = cfg.get("variation_check")
    if which is not None:
        which = _str(which, "variation_check")
        if which not in ("a", "j", "c"):
            raise ConfigError("variation_check: expected one of 'a', 'j', 'c'")
        est = sectioning_variation_check(field, which, samples, seed)
        target = variation_check_target(field, which)
        lam = None
    else:
        lam = _num(_require(cfg, "lambda", ""), "lambda", positive=True)
        tol_1d, max_depth = _tol_args(cfg, "tol_1d")
        est = F_nd_estimate(field, g, lam, samples, seed, tol_1d, max_depth)
        target = sbv_target(field.variation_parts, g, field.dimension)
    gate = 3.0 * est.stderr + est.systematic + 1e-12 * max(1.0, abs(target))
    results = {
        "field": field.kind,
        "gamma": g,
        "lambda": lam,
        "samples": est.samples,
        "seed": seed,
        "mean": est.mean,
        "stderr": est.stderr,
        "systematic": est.systematic,
        "target": target,
        "pass": abs(est.mean - target) <= gate,
        "failures": est.failures,
        "flagged": est.flagged,
        "failure_reasons": list(est.failure_reasons),
    }
    if which is not None:
        results["variation_check"] = which
    return results, []


def _run_gadgets(cfg: dict, out_dir: Path):
    g = _gamma_from(cfg)
    gn = _obj(_require(cfg, "gadgets", ""), "gadgets")
    oracle_n = _int(gn.get("oracle_n", 512), "gadgets.oracle_n", minimum=8)
    results: dict = {"gamma": g}
    ran_any = False

    if gn.get("jump_deltas") is not None:
        deltas = _numlist(gn["jump_deltas"], "gadgets.jump_deltas")
        if not deltas or any(d <= 0 for d in deltas):
            raise ConfigError("gadgets.jump_deltas: needs positive widths")
        value = gadget_jump_measure(deltas, g)
        lo = hi = 0.0
        for d in deltas:
            enc = nu_quadrature_oracle(
                triangle_indicator(d), PlaneBox((-d, 0.0), (0.0, d)), g, oracle_n
            )
            lo += enc.lo
            hi += enc.hi
        pad = 1e-12 * max(1.0, value)
        results["jump"] = {
            "deltas": deltas,
            "value": value,
            "oracle_lo": lo,
            "oracle_hi": hi,
            "pass_jump": lo - pad <= value <= hi + pad,
        }
        ran_any = True

    if gn.get("cantor_radii") is not None:
        radii = _numlist(gn["cantor_radii"], "gadgets.cantor_radii")
        if not radii or any(r <= 0 for r in radii):
            raise ConfigError("gadgets.cantor_radii: needs positive radii")
        value = gadget_cantor_measure(radii, g)
        lo = hi = 0.0
        for r in radii:
            enc = nu_quadrature_oracle(
                curved_indicator(r, g), PlaneBox((-r, 0.0), (0.0, 2.0 * r)), g, oracle_n
            )
            lo += enc.lo
            hi += enc.hi
        pad = 1e-12 * max(1.0, value)
        results["cantor"] = {
            "radii": radii,
            "value": value,
            "oracle_lo": lo,
            "oracle_hi": hi,
            "pass_cantor": lo - pad <= value <= hi + pad,
        }
        ran_any = True

    if gn.get("smooth") is not None:
        sn = _obj(gn["smooth"], "gadgets.smooth")
        m = _num(_require(sn, "slope", "gadgets.smooth"), "gadgets.smooth.slope", positive=True)
        L = _num(_require(sn, "length", "gadgets.smooth"), "gadgets.smooth.length", positive=True)
        eps = _num(_require(sn, "eps", "gadgets.smooth"), "gadgets.smooth.eps")
        lam = _num(_require(sn, "lambda", "gadgets.smooth"), "gadgets.smooth.lambda", positive=True)
        if not 0.0 <= eps < 1.0:
            raise ConfigError("gadgets.smooth.eps: must lie in [0, 1)")
        value = gadget_smooth_mass(m * L, eps, g, lam)
        h_cut = (m / lam) ** (1.0 / g)

        def ind(x, h):
            return (x > 0.0) & (x + h < L) & (m * h > lam * h ** (1.0 + g))

        box = PlaneBox((0.0, L), (0.0, min(L, h_cut * (1.0 + 1e-9))))
        enc = nu_quadrature_oracle(ind, box, g, oracle_n)
        pad = 1e-12 * max(1.0, value)
        results["smooth"] = {
            "slope": m,
            "length": L,
            "eps": eps,
            "lambda": lam,
            "value": value,
            "oracle_lo": enc.lo,
            "oracle_hi": enc.hi,
            # The trimmed closed form must stay below the true band mass.
            "pass_smooth": value <= enc.lo + pad,
        }
        ran_any = True

    if not ran_any:
        raise ConfigError(
            "gadgets: nothing to run; provide jump_deltas, cantor_radii or smooth"
        )
    return results, []


_RUNNERS = {
    "eval": _run_eval,
    "sweep": _run_sweep,
    "verify": _run_verify,
    "section-nd": _run_section_nd,
    "gadgets": _run_gadgets,
}


# ---------------------------------------------------------------------------
# Report serialisation (floats at 17 significant digits)
# ---------------------------------------------------------------------------


def _json_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {_json_dumps(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{_json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialise {type(obj).__name__} into a report")


def _failed_passes(node, prefix: str = "") -> list[str]:
    out: list[str] = []
    if isinstance(node, dict):
        for k, v in node.items():
            loc = f"{prefix}.{k}" if prefix else str(k)
            if isinstance(k, str) and k.startswith("pass") and v is False:
                out.append(loc)
            out.extend(_failed_passes(v, loc))
    elif isinstance(node, (list, tuple)):
        for i, v in enumerate(node):
            out.extend(_failed_passes(v, f"{prefix}[{i}]"))
    return out


def _summary_lines(mode: str, results: dict) -> list[str]:
    if mode == "eval":
        return [
            "F in [{:.6g}, {:.6g}] at gamma={:g}, lambda={:g} (tol_met={})".format(
                results["F_lo"], results["F_hi"], results["gamma"],
                results["lambda"], results["tol_met"],
            )
        ]
    if mode in ("sweep", "verify"):
        n_ok = sum(1 for v in results["F_lo"] if v is not None)
        lines = [f"swept {n_ok}/{len(results['lambdas'])} lambda points"]
        if mode == "verify":
            v = results["verdict"]
            lines.append(
                "verdict: estimate={:.6g} spread={:.3g} pass_liminf={} pass_sbv={}".format(
                    v["estimate"], v["spread"], v["pass_liminf"], v["pass_sbv"]
                )
            )
        return lines
    if mode == "section-nd":
        return [
            "mean={:.6g} stderr={:.3g} systematic={:.3g} target={:.6g} pass={}".format(
                results["mean"], results["stderr"], results["systematic"],
                results["target"], results["pass"],
            )
        ]
    lines = []
    for name in ("jump", "cantor", "smooth"):
        if name in results:
            r = results[name]
            lines.append(
                "{}: value={:.9g} oracle=[{:.9g}, {:.9g}] pass={}".format(
                    name, r["value"], r["oracle_lo"], r["oracle_hi"],
                    r[f"pass_{name}"],
                )
            )
    return lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; argparse's default of 2 is reserved for
    # verification failures here.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="nugamma", description="Threshold-functional experiment runner.")
    p.add_argument("--config", required=True, metavar="PATH", help="JSON config file")
    p.add_argument("--mode", choices=_MODES, help="override the config's mode")
    p.add_argument("--out", metavar="DIR", help="output directory (default: config 'out' or '.')")
    p.add_argument("--seed", type=int, metavar="N", help="override the config's sampling seed")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = load_config(args.config)
        if args.mode:
            cfg["mode"] = args.mode
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out:
            cfg["out"] = args.out
        mode = cfg.get("mode")
        if mode not in _MODES:
            raise ConfigError(f"mode: expected one of {', '.join(_MODES)}, got {mode!r}")
        out_dir = Path(_str(cfg.get("out", "."), "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
        results, written = _RUNNERS[mode](cfg, out_dir)
        report = {
            "mode": mode,
            "config": cfg,
            "versions": {
                "nugamma": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "generator": "Philox",
            "timings": {"total_s": time.perf_counter() - started},
            "outputs": [*written, "report.json"],
            "results": results,
        }
        (out_dir / "report.json").write_text(_json_dumps(report) + "\n")
    except ConfigError as exc:
        print(f"nugamma: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"nugamma: i/o error: {exc}", file=sys.stderr)
        return 1
    for line in _summary_lines(mode, results):
        print(line)
    failed = _failed_passes(results)
    if failed:
        print("verification FAILED: " + ", ".join(failed))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
