"""Collect sets of benchmark runs, and judge their spread or a comparison.

    python3 bench/runs.py collect --out runs.jsonl [--root DIR ...] [--label NAME]
                                  [--workloads a,b] [--seeds 1-10] [--trace 0]
    python3 bench/runs.py spread runs.jsonl [...]
    python3 bench/runs.py compare runs.jsonl [...] --base LABEL --new LABEL

``collect`` runs ``bench/run.py`` of each root (default: this checkout) once
per seed and workload and appends one JSON line per run, labelled with the
root's path or, for a single root, with ``--label``.  With two roots it
alternates which runs first from seed to seed.  Each root must hold the
same benchmark files, so copy ``bench/`` and ``BENCHMARK.json`` into a
parent checkout before comparing against it.

``spread`` prints, per root, workload and end-to-end metric, the median,
the quartiles and their distance as a share of the median, against the
metric's bound.

``compare`` pairs the runs of two labels by workload and seed and applies
the gain rule: the new side wins at least nine tenths of the pairs (ties
count for neither) and the medians differ by more than the base's
interquartile range.  It applies each metric's regression bound per
workload, and prints "unresolved" where either side's spread exceeds the
bound, unless every new run is better than every base run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(args) -> int:
    spec = _spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    roots = args.root or [str(ROOT)]
    if args.label and len(roots) > 1:
        sys.exit("runs: --label names the runs of a single root")
    with open(args.out, "a") as fh:
        for i, seed in enumerate(_seeds(args.seeds)):
            for workload in workloads:
                for root in roots if i % 2 == 0 else roots[::-1]:
                    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                          timeout=900)
                    lines = proc.stdout.strip().splitlines()
                    if proc.returncode != 0 or not lines:
                        print(f"{root} {workload} seed {seed}: exit {proc.returncode}\n"
                              f"{proc.stderr}", file=sys.stderr)
                        return 1
                    row = {"label": args.label or root, "workload": workload, "seed": seed,
                           "trace": args.trace, "result": json.loads(lines[-1]),
                           "log": lines[:-1]}
                    fh.write(json.dumps(row) + "\n")
                    fh.flush()
                    print(f"{row['label']} {workload} seed {seed}: correct "
                          f"{row['result']['correct']}", file=sys.stderr)
    return 0


def _load(paths) -> list[dict]:
    rows = []
    for path in paths:
        with open(path) as fh:
            rows.extend(json.loads(line) for line in fh if line.strip())
    return rows


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rel_iqr(values: list[float]) -> float:
    q1, q2, q3 = _quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def _values(rows, label, workload, metric) -> dict[int, float]:
    return {
        r["seed"]: r["result"]["metrics"][metric]["value"]
        for r in rows
        if r["label"] == label and r["workload"] == workload and metric in r["result"]["metrics"]
    }


def spread(args) -> int:
    rows = _load(args.files)
    spec = _spec()
    worst = 0.0
    for label in dict.fromkeys(r["label"] for r in rows):
        mine = [r for r in rows if r["label"] == label]
        for w in dict.fromkeys(r["workload"] for r in mine):
            ran = [r["result"] for r in mine if r["workload"] == w]
            print(f"{label} {w}: {len(ran)} runs, failed operations "
                  f"{sum(r['failed'] for r in ran)} of {sum(r['attempted'] for r in ran)}")
            for m in spec["end_to_end"]:
                vals = list(_values(rows, label, w, m["name"]).values())
                if not vals:
                    continue
                q1, q2, q3 = _quartiles(vals)
                rel = _rel_iqr(vals)
                flag = "over bound" if rel > m["bound"] else (
                    "over bound/3" if rel > m["bound"] / 3 else "ok")
                if m["name"] != "setup_s":
                    worst = max(worst, rel / m["bound"])
                print(f"  {m['name']:<22} n={len(vals):<3} median {q2:<12.6g} "
                      f"q1 {q1:<12.6g} q3 {q3:<12.6g} iqr/median {rel:.4f} "
                      f"(bound {m['bound']}) {flag}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    return 0


def _better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def compare(args) -> int:
    rows = _load(args.files)
    spec = _spec()
    metrics = [(m, True) for m in spec["end_to_end"]] + [(m, False) for m in spec["per_layer"]]
    for w in dict.fromkeys(r["workload"] for r in rows):
        print(f"{w}:")
        for m, bounded in metrics:
            base = _values(rows, args.base, w, m["name"])
            new = _values(rows, args.new, w, m["name"])
            seeds = sorted(set(base) & set(new))
            if not seeds:
                if base or new:
                    print(f"  {m['name']}: absent on one side")
                continue
            b = [base[s] for s in seeds]
            n = [new[s] for s in seeds]
            wins = sum(_better(n[i], b[i], m["better"]) for i in range(len(seeds)))
            q1, bmed, q3 = _quartiles(b)
            nmed = statistics.median(n)
            line = (f"  {m['name']:<40} base {bmed:<12.6g} new {nmed:<12.6g} "
                    f"wins {wins}/{len(seeds)}")
            gain = wins >= 0.9 * len(seeds) and abs(nmed - bmed) > (q3 - q1) and _better(
                nmed, bmed, m["better"])
            if not bounded:
                print(line + (" gain" if gain else ""))
                continue
            bound = m["bound"]
            worse = (nmed - bmed if m["better"] == "lower" else bmed - nmed) / abs(bmed)
            all_better = all(_better(x, y, m["better"]) for x in n for y in b)
            all_worse = all(_better(y, x, m["better"]) for x in n for y in b)
            if gain:
                verdict = "gain"
            elif max(_rel_iqr(b), _rel_iqr(n)) > bound and not (all_better or all_worse):
                verdict = "unresolved"
            elif worse > bound:
                verdict = f"REGRESSION ({worse:+.1%} > bound {bound:.0%})"
            else:
                verdict = f"within bound ({worse:+.1%} worse, bound {bound:.0%})"
            print(f"{line} {verdict}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--root", action="append")
    c.add_argument("--label")
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("spread")
    s.add_argument("files", nargs="+")
    k = sub.add_parser("compare")
    k.add_argument("files", nargs="+")
    k.add_argument("--base", required=True)
    k.add_argument("--new", required=True)
    args = p.parse_args(argv)
    return {"collect": collect, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
