"""The benchmark's four workloads: inputs, requests and correctness checks.

A workload is a fixed list of requests, each one call into the package's
public API that a user would make and wait for.  ``build`` makes the
requests from the seed; a pass runs them one after another, and each
request's ``check`` turns its result into an ``Outcome``.  Every check
compares against a value known independently of the engine.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from nugamma import asymptotics, bvmodel, cli, functional1d, sectionnd

import spans

#: Independent values of F for the smooth catalog ramps at gamma 0.5 and
#: lam 1e3, from ``bench/reference.py``; REF_ERR bounds their error.
SMOOTH_REFERENCE = {
    "smoothstep": 3.999999743108,
    "sine": 3.999999550705,
    "cubic": 1.539596754330,
}
REF_ERR = 1e-5

CANTOR_FLOOR = 1.0 / 6.0 - 1e-3


@dataclass
class Outcome:
    """Checked answer of one request.

    ``enclosures`` lists (lo, hi, tol_met, tol) for every certified
    enclosure the answer holds; ``systematic`` is the answer's certified
    error term when it is a Monte Carlo estimate.
    """

    ok: bool
    detail: str = ""
    enclosures: list[tuple[float, float, bool, float]] = field(default_factory=list)
    systematic: float | None = None


@dataclass
class Request:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    #: Spans the workload must reach; a zero count there means the call
    #: site moved, and the span is reported absent.
    reaches: tuple[str, ...]
    build: Callable[[int, Path], list[Request]]


def _pad(value: float) -> float:
    return 1e-12 * max(1.0, abs(value))


def _contains(enc, value: float, err: float = 0.0) -> bool:
    slack = err + _pad(value)
    return enc.lo - slack <= value <= enc.hi + slack


def _symmetry(rng: random.Random) -> tuple[float, float]:
    """A translation in [-1, 1] and a sign: exact symmetries of F."""
    return rng.uniform(-1.0, 1.0), rng.choice((1.0, -1.0))


# ---------------------------------------------------------------------------
# catalog-deep
# ---------------------------------------------------------------------------


def _two_jump_value(d: float, gamma: float, lam: float) -> float:
    """F of two opposite unit jumps a distance d apart, for H > d."""
    H = (1.0 / lam) ** (1.0 / (1.0 + gamma))
    if H <= d:
        raise ValueError("closed form needs the cutoff H above the gap d")
    g = gamma
    return 2.0 * lam * 2.0 * (d ** (1.0 + g) / (1.0 + g) + d * (H**g - d**g) / g)


def _catalog_deep(seed: int, out_dir: Path) -> list[Request]:
    BV = bvmodel.BVFunction1D
    cases = [
        # name, function, gamma, lam, tol, max_depth, known value, its error
        ("jump", bvmodel.single_jump(1.0), 0.5, 1e3, 1e-3, 40,
         functional1d.closed_form_jump_F(1.0, 0.5), 0.0),
        ("smoothstep", BV((bvmodel.smoothstep_piece(0.0, 1.0, 1.0),), 0.0),
         0.5, 1e3, 1e-3, 40, SMOOTH_REFERENCE["smoothstep"], REF_ERR),
        ("sine", BV((bvmodel.sine_ramp(0.0, 1.0, 1.0),), 0.0),
         0.5, 1e3, 1e-3, 40, SMOOTH_REFERENCE["sine"], REF_ERR),
        ("cubic", BV((bvmodel.polynomial_piece(0.0, 1.0, (0.0, 1.0, -3.0, 2.0)),), 0.0),
         0.5, 1e3, 1e-3, 40, SMOOTH_REFERENCE["cubic"], REF_ERR),
        ("two-jumps", BV((bvmodel.JumpPiece(0.0, 1.0), bvmodel.JumpPiece(0.05, -1.0)), 0.0),
         1.0, 1e2, 1e-2, 24, _two_jump_value(0.05, 1.0, 1e2), 0.0),
        ("far-jump", bvmodel.single_jump(1.0, 1e10), 1.0, 1e12, 1e-3, 24,
         functional1d.closed_form_jump_F(1.0, 1.0), 0.0),
    ]
    rng = random.Random(seed)
    requests = []
    for name, u, gamma, lam, tol, depth, known, err in cases:
        dx, sign = _symmetry(rng)
        v = u.translated(dx).scaled(sign)
        query = functional1d.ExceedanceQuery(gamma, lam, tol, depth)

        def check(enc, known=known, err=err, tol=tol):
            ok = _contains(enc, known, err)
            return Outcome(ok, f"[{enc.lo:.6g}, {enc.hi:.6g}] vs {known:.6g}",
                           [(enc.lo, enc.hi, enc.tol_met, tol)])

        requests.append(
            Request(name, lambda v=v, q=query: functional1d.F_value(v, q), check)
        )
    return requests


# ---------------------------------------------------------------------------
# cantor-sweep
# ---------------------------------------------------------------------------


def _cantor_sweep(seed: int, out_dir: Path) -> list[Request]:
    u = bvmodel.cantor_staircase(0.0, 1.0, 1.0)
    tol = 0.04

    def call():
        return asymptotics.lambda_sweep(u, 1.0, 1e3, 1e4, points=3, tol=tol, max_depth=60)

    def check(sweep):
        encs = [e for e in sweep.enclosures if e is not None]
        ok = len(encs) == 3 and all(e.lo >= CANTOR_FLOOR for e in encs)
        lows = ", ".join(f"{e.lo:.4f}" for e in encs)
        return Outcome(ok, f"lows {lows} vs floor {CANTOR_FLOOR:.6f}",
                       [(e.lo, e.hi, e.tol_met, tol) for e in encs])

    return [Request("cantor-sweep", call, check)]


# ---------------------------------------------------------------------------
# disk-sections
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _observe_engine(seen: list):
    """Keep the per-section enclosures F_nd_estimate gets from the engine."""
    inner = getattr(sectionnd, "f_enclosures_batch", None)
    if inner is None:
        yield
        return

    def observed(*args, **kwargs):
        encs = inner(*args, **kwargs)
        seen.extend(encs)
        return encs

    sectionnd.f_enclosures_batch = observed
    try:
        yield
    finally:
        sectionnd.f_enclosures_batch = inner


def _disk_sections(seed: int, out_dir: Path) -> list[Request]:
    field_ = sectionnd.BallIndicatorField(2, (0.0, 0.0), 1.0, 1.0)
    tol_1d = 4e-3
    target = asymptotics.sbv_target(field_.variation_parts, 1.0, field_.dimension)

    def call():
        seen: list = []
        with _observe_engine(seen):
            est = sectionnd.F_nd_estimate(field_, 1.0, 1e4, samples=200, seed=seed, tol_1d=tol_1d)
        return est, seen

    def check(result):
        est, seen = result
        gate = 3.0 * est.stderr + est.systematic + _pad(target)
        ok = abs(est.mean - target) <= gate and est.failures == 0 and est.samples == 200
        return Outcome(
            ok,
            f"mean {est.mean:.6f} vs 4pi {target:.6f}, gate {gate:.4f}",
            [(e.lo, e.hi, e.tol_met, tol_1d) for e in seen if e is not None],
            est.systematic,
        )

    return [Request("disk-sections", call, check)]


# ---------------------------------------------------------------------------
# verify-sweeps
# ---------------------------------------------------------------------------

_VERIFY_FUNCTIONS = {
    "jump-ramp": [
        {"kind": "affine", "support": [0.0, 1.0], "slope": 1.0},
        {"kind": "jump", "location": 2.0, "height": 1.0},
    ],
    "smoothstep-jump": [
        {"kind": "smoothstep", "support": [0.0, 1.0], "rise": 1.0},
        {"kind": "jump", "location": 2.0, "height": 1.0},
    ],
    "sine": [{"kind": "sine", "support": [0.0, 1.0], "rise": 1.0}],
    "quadratic-jump": [
        {"kind": "polynomial", "support": [0.0, 1.0], "coeffs": [0.0, 1.0, -0.5]},
        {"kind": "jump", "location": 2.0, "height": 1.0},
    ],
}

_GADGETS = {
    "mode": "gadgets",
    "gamma": 1.0,
    "gadgets": {
        "oracle_n": 1024,
        "jump_deltas": [0.5, 1.0, 2.0],
        "cantor_radii": [0.25, 0.5, 1.0],
        "smooth": {"slope": 1.0, "length": 1.0, "eps": 0.05, "lambda": 100.0},
    },
}


def _moved(pieces: list[dict], dx: float, sign: float) -> list[dict]:
    """Config pieces of x -> sign * u(x - dx)."""
    out = []
    for p in pieces:
        q = dict(p)
        if "location" in q:
            q["location"] += dx
        if "support" in q:
            q["support"] = [q["support"][0] + dx, q["support"][1] + dx]
        for key in ("height", "slope", "rise"):
            if key in q:
                q[key] *= sign
        if "coeffs" in q:
            q["coeffs"] = [sign * c for c in q["coeffs"]]
        out.append(q)
    return out


def _failed_flags(node) -> list[str]:
    """Names of pass flags that are not true (None means not applicable)."""
    bad = []
    if isinstance(node, dict):
        for k, v in node.items():
            if k.startswith("pass") and v is not None and v is not True:
                bad.append(k)
            bad.extend(_failed_flags(v))
    return bad


def _cli_request(name: str, config: Path, out: Path, tol: float | None) -> Request:
    argv = ["--config", str(config), "--out", str(out)]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(rc):
        if rc != 0:
            return Outcome(False, f"exit code {rc}")
        results = json.loads((out / "report.json").read_text())["results"]
        bad = _failed_flags(results)
        encs = []
        if tol is not None:
            encs = [
                (lo, hi, met, tol)
                for lo, hi, met in zip(results["F_lo"], results["F_hi"], results["tol_met"])
                if lo is not None
            ]
            if len(encs) != len(results["F_lo"]):
                bad.append("missing sweep points")
        return Outcome(not bad, ", ".join(bad) or "all pass flags true", encs)

    return Request(name, call, check)


def _verify_sweeps(seed: int, out_dir: Path) -> list[Request]:
    rng = random.Random(seed)
    tol = 0.02
    requests = []
    for fname, pieces in _VERIFY_FUNCTIONS.items():
        for gamma in (0.5, 1.0, 2.0):
            dx, sign = _symmetry(rng)
            cfg = {
                "mode": "verify",
                "gamma": gamma,
                "function": {"base": 0.0, "pieces": _moved(pieces, dx, sign)},
                "sweep": {"lambda_min": 1e3, "lambda_max": 1e6, "points": 13},
                "tol": tol,
                "max_depth": 60,
            }
            name = f"verify-{fname}-g{gamma:g}"
            path = out_dir / f"{name}.json"
            path.write_text(json.dumps(cfg))
            requests.append(_cli_request(name, path, out_dir / name, tol))
    path = out_dir / "gadgets.json"
    path.write_text(json.dumps(_GADGETS))
    requests.append(_cli_request("gadgets", path, out_dir / "gadgets", None))
    return requests


WORKLOADS = {
    w.name: w
    for w in (
        Workload("catalog-deep", (spans.ENGINE,), _catalog_deep),
        Workload("cantor-sweep", (spans.ENGINE, spans.CANTOR, spans.SWEEP), _cantor_sweep),
        Workload(
            "disk-sections", (spans.ENGINE, spans.ESTIMATE, spans.SECTION), _disk_sections
        ),
        Workload(
            "verify-sweeps",
            (spans.ENGINE, spans.SWEEP, spans.VERDICT, spans.ORACLE, spans.CLI),
            _verify_sweeps,
        ),
    )
}
