"""Steadiness check: run workloads over several seeds and report spreads.

    python3 perfbench/steady.py --workload service_solve --seeds 1-5

For every end-to-end metric this prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to a third of the metric's
bound.  For flow_paper it also counts the netlists that produced more
than one layout digest across runs (information only; a phase that
stops on its time limit can land on a different incumbent).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(
        json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("perfbench-detail ")
    )
    return json.loads(lines[-1]), detail


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = parser.parse_args()
    bounds = {name: bound for name, _, _, bound in spec.END_TO_END}
    report = {}
    for workload in args.workload:
        values = defaultdict(list)
        digests = defaultdict(set)
        failures = 0
        for seed in parse_seeds(args.seeds):
            result, detail = run_once(workload, seed, args.seconds)
            failures += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            for row in detail.get("layouts", []):
                if "digest" in row:
                    digests[row["label"]].add(row["digest"])
                print(f"  {row['label']:28s} {row['seconds']:7.2f}s bends={row.get('bends')} "
                      f"ok={row['ok']} {row.get('digest', '')[:10]}", flush=True)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        rows = {}
        for name, series in values.items():
            middle = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / middle if middle else float("inf")
            rows[name] = {"median": middle, "spread": spread, "values": series}
            third = bounds[name] / 3
            mark = "ok" if spread < third else "WIDE"
            print(f"  {name:24s} median={middle:<12.6g} spread={spread:.3f} bound/3={third:.3f} {mark}")
        multi = sum(len(found) > 1 for found in digests.values())
        if digests:
            print(f"  netlists with more than one digest: {multi} of {len(digests)}")
        print(f"  failed outputs over all runs: {failures}")
        report[workload] = {"metrics": rows, "multi_digest_netlists": multi, "failed": failures}
    out = ROOT / ".perfbench-run" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
