"""Run one benchmark workload against the source tree of this checkout.

    python3 perfbench/run.py --workload flow_paper --seed 1 --seconds 40 --trace 0

Prints each metric with its unit, the output check and the host it ran
on, then, as the last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  A traced run also writes its spans
to ``.perfbench-run/traces/``.  ``--write-manifest`` regenerates
``BENCHMARK.json`` from ``spec.py`` instead of running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"

import spec  # noqa: E402  (perfbench/ is on sys.path as the script's directory)


def host() -> dict:
    """Provenance recorded with every result."""
    import scipy

    try:
        from scipy.optimize._highspy import _core as highs

        highs_version = (
            f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}.{highs.HIGHS_VERSION_PATCH}"
        )
    except (ImportError, AttributeError):
        highs_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": [round(value, 2) for value in os.getloadavg()],
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "highs": highs_version,
    }


def cpu_ticks():
    """``(steal, total)`` jiffies of the whole host, or ``None`` off Linux."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    if name == "flow_paper":
        import flow

        # a fixed set of six layouts; ``seconds`` is service_solve's window
        return flow.run(ROOT, seed, trace)
    import service

    return service.run_solve(workdir, seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    if args.write_manifest:
        text = json.dumps(spec.manifest(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2

    # The program under test is this checkout's source tree, also in the
    # daemon and probe processes this run starts.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    workdir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)

    # A SIGTERM unwinds like an exception, so the daemon is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    provenance = host()
    ticks = cpu_ticks()
    started = time.perf_counter()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = result["detail"]
    tracer = detail.pop("tracer", None)
    if tracer is not None:
        trace_path = RUN_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        detail["self_s"] = {k: round(v, 6) for k, v in sorted(tracer.self_times().items())}

    measured = result["metrics"]
    if args.trace:
        metrics = {name: measured.get(name, 0.0) for name, _, _ in spec.PER_LAYER}
    else:
        metrics = {name: measured[name] for name, *_ in spec.END_TO_END}
    for name, value in metrics.items():
        print(f"{name:24s} {value:14.6g} {spec.UNITS[name]}")
    for name, (value, unit) in detail.pop("aliases", {}).items():
        print(f"{name:24s} {value:14.6g} {unit}  (info)")
    verdict = "PASS" if result["correct"] and not result["failed"] else "FAIL"
    print(
        f"output check: {verdict}  correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    after = cpu_ticks()
    if ticks and after and after[1] > ticks[1]:
        # time the hypervisor gave to other guests: a noisy-neighbour flag
        provenance["steal_frac"] = round((after[0] - ticks[0]) / (after[1] - ticks[1]), 4)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  wall_s=round(time.perf_counter() - started, 3), host=provenance)
    print("perfbench-detail " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": spec.UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
