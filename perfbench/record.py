"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/record.py [--write]

For each workload this runs ``perfbench/run.py`` once per seed 1..10 with
tracing off, then twice on the first seed with tracing on.  It prints,
per end-to-end metric, the median of the runs and the distance between
the first and third quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``; and it checks that the traced
work counts repeat exactly.  With ``--write`` the summary is stored under
``baseline`` in ``perfbench/baseline.json``.  Runs are sequential, one
process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE = HERE / "baseline.json"
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def record(workload: str, seeds: list[int]) -> tuple[dict, bool]:
    ok = True
    results = [run(workload, seed, 0) for seed in seeds]
    summary: dict = {"seeds": seeds, "end_to_end": {}}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        median, q1, q3, share = spread(values)
        steady = share <= metric["bound"] / 3
        ok &= share <= metric["bound"]
        print(f"{workload:15s} {name:12s} median {median:.4f} {metric['unit']:4s} "
              f"IQR/median {share:.3f} (bound {metric['bound']}, target {metric['bound'] / 3:.3f})"
              f"{'' if steady else '  NOT STEADY'}  [{' '.join(f'{v:.3f}' for v in values)}]")
        summary["end_to_end"][name] = {
            "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
            "iqr_share": share, "values": values,
        }
    correct = all(r["correct"] and r["failed"] == 0 for r in results)
    ok &= correct
    summary["attempted"] = sum(r["attempted"] for r in results)
    summary["failed"] = sum(r["failed"] for r in results)
    summary["correct"] = correct
    summary["traced"], traced_ok = record_traced(workload, seeds[0])
    return summary, ok and traced_ok


def record_traced(workload: str, seed: int) -> tuple[dict, bool]:
    """Two traced runs on one seed: their counts must repeat exactly."""
    traced = [run(workload, seed, 1) for _ in range(2)]
    counts = [
        {k: m["value"] for k, m in t["metrics"].items() if m["unit"] == "count"} for t in traced
    ]
    repeat = counts[0] == counts[1]
    ok = repeat and all(t["correct"] for t in traced)
    metrics = traced[0]["metrics"]
    pass_s = metrics["trace.pass_s"]["value"]
    shares = {
        k[: -len(".self_s")]: m["value"] / pass_s
        for k, m in metrics.items()
        if k.endswith(".self_s") and k != "harness.self_s"
    }
    top = max(shares, key=shares.get)
    print(f"{workload:15s} traced: counts repeat {repeat}, largest self-time share "
          f"{top} {shares[top]:.2f}, overhead "
          f"{metrics['trace.overhead_s']['value']:+.4f} s of {pass_s:.4f} s, "
          f"{metrics['trace.overhead_share']['value']:+.1%} of pass_rel")
    summary = {
        "seed": seed,
        "counts": counts[0],
        "counts_repeat": repeat,
        "self_time_share": shares,
        "pass_s": pass_s,
        "overhead_s": metrics["trace.overhead_s"]["value"],
        "overhead_share": metrics["trace.overhead_share"]["value"],
    }
    return summary, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    summaries = {}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        summaries[workload], within = record(workload, SEEDS)
        ok &= within
    if args.write:
        document = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        baseline = document.setdefault("baseline", {})
        baseline["machine"] = (
            f"Python {platform.python_version()}, {os.cpu_count()} cores, {platform.machine()}"
        )
        baseline["run_seconds"] = SPEC["run_seconds"]
        baseline["workloads"] = summaries
        BASELINE.write_text(json.dumps(document, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
