"""Run every workload from each given seed and summarise the results.

    python3 perfbench/baseline.py --seeds 1 2 3 --seconds 25 --out perfbench/baseline.json

Each workload runs once per seed untraced (end-to-end metrics) and once
traced from the first seed (per-layer metrics), each in its own process
through run.py. The summary prints, per workload and metric, the median
over the seeds with its unit and the spread (distance between the first
and third quartile as a share of the median), plus failed_frac. With --out
the summary is written as JSON together with the machine note, so numbers
from different machines are never compared silently.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(result, note) of one run.py process: its last two output lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} printed no result:\n{proc.stderr}")
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
    return json.loads(lines[-1]), json.loads(lines[-2])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(workload: str, seeds, seconds: float) -> tuple:
    runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
    traced, note = run_once(workload, seeds[0], seconds, 1)
    attempted = sum(r["attempted"] for r, _ in runs) + traced["attempted"]
    failed = sum(r["failed"] for r, _ in runs) + traced["failed"]
    end_to_end = {}
    for name, metric in runs[0][0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r, _ in runs]
        end_to_end[name] = {"unit": metric["unit"], "median": statistics.median(values),
                            "spread": spread(values) if len(values) > 1 else None,
                            "values": values}
    summary = {
        "correct": all(r["correct"] for r, _ in runs) and traced["correct"],
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "end_to_end": end_to_end,
        "per_layer": traced["metrics"],
        "notes": [n for _, n in runs] + [note],
    }
    return summary, note["machine"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    results = {}
    machine = None
    for workload in WORKLOADS:
        results[workload], machine = summarise(workload, args.seeds, args.seconds)
        summary = results[workload]
        print(f"{workload}: correct {summary['correct']}, failed_frac "
              f"{summary['failed_frac']:.6g} of {summary['attempted']} runs", flush=True)
        for name, m in summary["end_to_end"].items():
            spread_text = "" if m["spread"] is None else f"  spread {m['spread']:.3f}"
            print(f"  {name:14s} {m['median']:.6g} {m['unit']}{spread_text}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({
            "machine": machine, "seeds": args.seeds, "seconds": args.seconds,
            "workloads": results}, indent=1) + "\n")
    return 0 if all(s["correct"] for s in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
