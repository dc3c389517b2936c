"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` there and writes scratch files under ``.bench_out/``.  The load is
a closed loop with one caller: requests run one after another, each waiting
for the previous one.  A pass runs every request of the workload once; the
run repeats whole passes while the next one is expected to end within
``--seconds`` (at least one pass always runs).

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics, taken from passes run under span
wrappers (``bench/spans.py``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it summarise each request and the checks.

``--setup-probe`` is internal: it builds the workload's inputs, prints
``ready`` and exits, so the parent can time set-up in a fresh process.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is imported here or in probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 5


def _import_package():
    """Import nugamma from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    try:
        import nugamma
    except ImportError as exc:
        sys.exit(f"bench: cannot import nugamma from {src}: {exc}")
    if not Path(nugamma.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"bench: nugamma resolved to {nugamma.__file__}, outside {src}")


def _out_dir(workload: str, seed: int, tag: str) -> Path:
    out = ROOT / ".bench_out" / f"{workload}-{seed}-{tag}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _setup_probe(workload: str, seed: int) -> None:
    from workloads import WORKLOADS

    out = _out_dir(workload, seed, "probe")
    try:
        WORKLOADS[workload].build(seed, out)
        print("ready", flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _measure_setup(workload: str, seed: int, probe) -> float:
    """Median time from process start to inputs built, over fresh processes.

    Each probe process is bracketed by calibration kernels, which set the
    host speed its time is normalised with.
    """
    times = []
    for _ in range(SETUP_PROBES):
        for _ in range(3):
            probe.kernel()
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait()
        if line.strip() != "ready" or rc != 0:
            sys.exit(f"bench: set-up probe failed with exit code {rc}")
        for _ in range(3):
            probe.kernel()
        times.append(probe.normalise(t0, t1))
    return statistics.median(times)


class Pass:
    """One run of every request of the workload, timed from outside."""

    def __init__(self, requests, tracer=None):
        self.spans: list[tuple[float, float]] = []
        self.outcomes = []
        results = []
        for req in requests:
            t0 = time.perf_counter()
            try:
                results.append(tracer.request(req.call) if tracer else req.call())
            except Exception as exc:  # a raising request is a failed operation
                results.append(exc)
            self.spans.append((t0, time.perf_counter()))
        self.wall = self.spans[-1][1] - self.spans[0][0]
        # Checks read results after the clock stops.
        from workloads import Outcome

        for req, res in zip(requests, results):
            if isinstance(res, Exception):
                self.outcomes.append(Outcome(False, f"raised {type(res).__name__}: {res}"))
            else:
                try:
                    self.outcomes.append(req.check(res))
                except Exception as exc:
                    self.outcomes.append(Outcome(False, f"check raised {exc!r}"))


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _accuracy(outcomes) -> dict[str, float]:
    encs = [e for o in outcomes for e in o.enclosures]
    out: dict[str, float] = {}
    if encs:
        out["tol_met_frac"] = sum(bool(met) for _, _, met, _ in encs) / len(encs)
        # Ratios below 1e-6 count as 1e-6, so an exact answer cannot zero the mean.
        logs = [math.log(max((hi - lo) / tol, 1e-6)) for lo, hi, _, tol in encs]
        out["width_over_tol_gmean"] = math.exp(sum(logs) / len(logs))
    systematic = [o.systematic for o in outcomes if o.systematic is not None]
    if systematic:
        out["mc_systematic"] = statistics.median(systematic)
    elif encs:
        out["mc_systematic"] = sum(0.5 * (hi - lo) for lo, hi, _, _ in encs) / len(encs)
    return out


def _run(args) -> int:
    from clock import SpeedProbe
    from workloads import WORKLOADS
    import spans as tracing

    deadline = time.perf_counter() + args.seconds
    workload = WORKLOADS[args.workload]
    probe = None if args.trace else SpeedProbe()
    setup_s = None if args.trace else _measure_setup(args.workload, args.seed, probe)
    out = _out_dir(args.workload, args.seed, "run")
    passes: list[Pass] = []
    tracer = tracing.Tracer() if args.trace else None
    try:
        requests = workload.build(args.seed, out)
        # Traced passes run without the speed probe: its handler would land
        # inside spans.  Their times are raw seconds.
        with probe or contextlib.nullcontext():
            while True:
                t_pass = time.perf_counter()
                if tracer:
                    tracer.install()
                    try:
                        passes.append(Pass(requests, tracer))
                    finally:
                        tracer.uninstall()
                else:
                    passes.append(Pass(requests))
                # Stop when another pass as long as this one would overrun.
                if 2 * time.perf_counter() - t_pass > deadline:
                    break
    finally:
        shutil.rmtree(out, ignore_errors=True)

    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(not o.ok for o in outcomes)
    for req, o in zip(requests, passes[0].outcomes):
        print(f"{args.workload} {req.name}: {'ok' if o.ok else 'FAILED'} {o.detail}")
    for p in passes[1:]:
        for req, o in zip(requests, p.outcomes):
            if not o.ok:
                print(f"{args.workload} {req.name}: FAILED {o.detail}")
    encs = [e for o in passes[0].outcomes for e in o.enclosures]
    print(
        f"{args.workload}: {len(passes)} {'traced' if args.trace else 'untraced'} passes "
        f"of {len(requests)} requests; {len(encs)} enclosures per pass, tol_unmet "
        f"{sum(not met for _, _, met, _ in encs)}; fail_frac {failed}/{len(outcomes)}"
    )

    if tracer:
        metrics = _layer_metrics(workload, tracer, passes, tracing)
        units = _units("per_layer")
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json")
    else:
        per_pass = [[probe.normalise(*span) for span in p.spans] for p in passes]
        walls = [sum(lat) for lat in per_pass]
        # One latency per request of the workload, the median over passes,
        # so the percentiles see the same mix whatever the pass count.
        latencies = [statistics.median(lat) for lat in zip(*per_pass)]
        print(
            f"{args.workload}: pass wall raw "
            + ", ".join(f"{p.wall:.3f}" for p in passes)
            + " s; normalised "
            + ", ".join(f"{w:.3f}" for w in walls)
            + f" s; {len(probe.starts)} speed samples"
        )
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "request_p50_ms": 1e3 * statistics.median(latencies),
            "request_p90_ms": 1e3 * _quantile(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **_accuracy(passes[0].outcomes),
        }
        for req, t in zip(requests, latencies):
            print(f"{args.workload} {req.name}: {1e3 * t:.1f} ms")
        units = _units("end_to_end")
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"{args.workload}: absent metrics: {', '.join(missing)}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


def _layer_metrics(workload, tracer, passes, tracing) -> dict[str, float]:
    totals = tracing.layer_totals(tracer.spans)
    if tracer.absent:
        print(f"{workload.name}: absent call sites: {', '.join(sorted(tracer.absent))}",
              file=sys.stderr)
    # A span with no call site left, or one the workload must reach but
    # never did (a call site moved), is absent.
    absent = {name for name, _, _ in tracing.SITES} - tracer.installed
    absent |= {name for name in workload.reaches if totals.get(name, {}).get("calls", 0) == 0}
    if absent:
        print(f"{workload.name}: absent spans: {', '.join(sorted(absent))}", file=sys.stderr)
    metrics = tracing.per_layer_metrics(totals, len(passes), absent)
    wall = statistics.mean(p.wall for p in passes)
    overhead = sum(v["overhead_s"] for v in totals.values()) / len(passes)
    self_sum = sum(v["self_s"] for v in totals.values()) / len(passes)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = overhead
    print(
        f"{workload.name}: traced pass {wall:.4f} s = layer self times {self_sum:.4f} s"
        f" + tracing {overhead:.4f} s + outside spans {wall - self_sum - overhead:.4f} s"
    )
    return metrics


def _units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
