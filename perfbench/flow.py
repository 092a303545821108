"""flow_paper: cold in-process P-ILP layouts of the three paper circuits.

A run lays out the six netlists of its plan once each, in order.  The
work is fixed by the plan and the per-phase budgets, not by ``--seconds``,
so a parent and a change always lay out the same netlists.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import plan as plans
import stats
from tracer import Tracer


def setup_once(seed: int) -> None:
    """What a run needs before its first layout: imports and netlists."""
    from repro.core import PILPLayoutGenerator

    config = plans.flow_config()
    for item in plans.flow_plan(seed):
        item.netlist()
    PILPLayoutGenerator(config)


def measure_setup(root, seed: int, repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter doing :func:`setup_once`."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(root / "perfbench" / "flow.py"), "--setup", str(seed)],
            cwd=root, check=True, timeout=120,
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def layout_digest(layout) -> str:
    """Digest of the exported layout document, minus its wall-clock field."""
    from repro.layout.export_json import layout_to_dict

    document = layout_to_dict(layout)
    document.get("metadata", {}).pop("runtime_s", None)
    return plans.digest(document)


def _install(tracer: Tracer) -> None:
    import repro.core.phase1 as phase1
    import repro.core.phase2 as phase2
    import repro.core.phase3 as phase3
    import repro.core.pilp as pilp
    from repro.core.model_builder import RficModelBuilder
    from repro.ilp.model import Model

    def solve_attrs(span, args, solution) -> None:
        model = args[0]
        span["attrs"] = {
            "rows": model.num_constraints,
            "cols": model.num_variables,
            "binaries": model.statistics()["binary_variables"],
            "nodes": int(getattr(solution, "iterations", None) or 0),
        }

    for owner, attr, name in (
        (pilp, "run_phase1", "phase1"),
        (pilp, "run_phase2", "phase2"),
        (pilp, "run_phase3", "phase3"),
        (pilp, "run_drc", "drc"),
        (pilp, "compute_metrics", "metrics"),
        (phase1, "seed_placement", "seed"),
        (phase1, "spread_boundary_pads", "seed"),
        (phase1, "warm_start_from_seeds", "warm_start"),
        (phase2, "relax_seed_overlaps", "seed"),
        (phase2, "warm_start_from_geometry", "warm_start"),
        (phase3, "run_phase3_iteration", "phase3.iteration"),
        (phase3, "warm_start_from_geometry", "warm_start"),
        (phase3, "run_drc", "drc"),
        (RficModelBuilder, "build", "model_build"),
    ):
        tracer.wrap(owner, attr, name)
    tracer.wrap(Model, "solve", "solve", on_exit=solve_attrs)


def _layer_metrics(tracer: Tracer, layouts: int, profiled_solver_s: float) -> Dict[str, float]:
    by_id = {span["id"]: span for span in tracer.spans}
    kids = tracer.children()
    selfs = tracer.self_times()
    solves = [s for s in tracer.spans if s["name"] == "solve"]
    iterations = [s for s in tracer.spans if s["name"] == "phase3.iteration"]

    def owner(span):
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] not in ("phase1", "phase2", "phase3.iteration"):
            parent = by_id.get(parent["parent"])
        return parent

    def kept(solve) -> bool:
        # Wasted: a solve whose phase raised (Phase 2 before widening, a
        # Phase-3 iteration without an incumbent) or whose exact-length
        # iteration fell back to the soft model.
        phase = owner(solve)
        if phase is None:
            return True
        if phase["error"]:
            return False
        return not any(c["name"] == "phase3.iteration" for c in kids.get(phase["id"], ()))

    per = float(layouts)
    solve_s = sum(s["end"] - s["start"] for s in solves)
    return {
        "seed.s": selfs.get("seed", 0.0) / per,
        "model_build.s": selfs.get("model_build", 0.0) / per,
        "model.rows": stats.mean([s["attrs"]["rows"] for s in solves]),
        "model.cols": stats.mean([s["attrs"]["cols"] for s in solves]),
        "model.binaries": stats.mean([s["attrs"]["binaries"] for s in solves]),
        "warm_start.s": selfs.get("warm_start", 0.0) / per,
        "solve.s": selfs.get("solve", 0.0) / per,
        "solve.calls": len(solves) / per,
        "solve.nodes": sum(s["attrs"]["nodes"] for s in solves) / per,
        "solve.useful_ratio": sum(kept(s) for s in solves) / len(solves) if solves else 0.0,
        "phase1.s": selfs.get("phase1", 0.0) / per,
        "phase2.s": selfs.get("phase2", 0.0) / per,
        "phase2.retries": (sum(s["name"] == "phase2" for s in tracer.spans) - layouts) / per,
        "phase3.s": (selfs.get("phase3", 0.0) + selfs.get("phase3.iteration", 0.0)) / per,
        "phase3.iterations": sum(by_id[s["parent"]]["name"] == "phase3" for s in iterations) / per,
        "phase3.fallbacks": sum(
            by_id[s["parent"]]["name"] == "phase3.iteration" for s in iterations
        ) / per,
        "drc.s": selfs.get("drc", 0.0) / per,
        "metrics.s": selfs.get("metrics", 0.0) / per,
        "unattributed.s": selfs.get("generate", 0.0) / per,
        "profile_gap.s": (solve_s - profiled_solver_s) / per,
        "trace.spans": len(tracer.spans) / per,
        "trace.overhead_s": tracer.overhead_s() / per,
    }


def run(root, seed: int, trace: bool) -> Dict[str, object]:
    from repro.core import PILPLayoutGenerator
    from repro.errors import ReproError
    from repro.layout.drc import run_drc
    from repro.layout.export_json import layout_from_dict, layout_to_dict

    setup_s = measure_setup(root, seed)
    config = plans.flow_config()
    items = plans.flow_plan(seed)
    netlists = [item.netlist() for item in items]
    tracer = Tracer() if trace else None
    if tracer is not None:
        _install(tracer)

    rows: List[Dict[str, object]] = []
    profiled_solver_s = 0.0
    try:
        for item, netlist in zip(items, netlists):
            scope = tracer.span("generate", item.label) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with scope:
                    result = PILPLayoutGenerator(config).generate(netlist)
            except ReproError as exc:
                rows.append({"label": item.label, "published": item.jitter_seed is None,
                             "seconds": time.perf_counter() - t0,
                             "ok": False, "error": str(exc)})
                continue
            seconds_taken = time.perf_counter() - t0
            profiled_solver_s += sum(
                phase["solver_s"] for phase in result.profile()["phases"]
            )
            layout = result.layout
            ok = (
                result.is_clean
                and layout.is_complete
                and result.metrics.max_abs_length_error <= config.length_tolerance
            )
            # The exported document must be the layout the flow reports on.
            exported = layout_from_dict(layout_to_dict(layout))
            consistent = run_drc(exported).count() == result.drc.count()
            rows.append({
                "label": item.label,
                "published": item.jitter_seed is None,
                "seconds": seconds_taken,
                "ok": ok,
                "consistent": consistent,
                "bends": result.metrics.total_bend_count,
                "max_length_error_um": result.metrics.max_abs_length_error,
                "drc_violations": result.drc.count(),
                "digest": layout_digest(layout),
            })
    finally:
        if tracer is not None:
            tracer.restore()

    done = [row for row in rows if "bends" in row]
    times = [row["seconds"] for row in rows]
    # The end-to-end time and quality are those of the published-length
    # layouts (Table 1's columns).  The jittered layouts vary in difficulty
    # from seed to seed by more than any bound could absorb, so they are
    # checked (ok_frac), traced (per-layer) and printed, not averaged in.
    published = [row for row in rows if row["published"]]
    published_s = [row["seconds"] for row in published]
    failed = sum(not row["ok"] for row in rows)
    metrics: Dict[str, float] = {
        "setup_s": setup_s,
        "ok_frac": (len(rows) - failed) / len(rows),
        "latency_s": statistics.fmean(published_s),
        # The flow is sequential, so this is 60 / latency_s by construction;
        # it is reported because every workload reports every metric.
        "throughput_per_min": 60.0 * len(published) / sum(published_s),
        "bends_per_layout": stats.mean(
            [row["bends"] for row in published if "bends" in row], empty=math.nan
        ),
    }
    detail = {
        "layouts": rows,
        "aliases": {
            "layout_s_p50": (statistics.median(times), "s"),
            # six samples leave no percentile with ten beyond it: the slowest
            "layout_s_max": (max(times), "s"),
            "bends_total": (sum(row["bends"] for row in done), "count"),
            "failed_frac": (failed / len(rows), "frac"),
        },
    }
    if tracer is not None:
        metrics.update(_layer_metrics(tracer, len(rows), profiled_solver_s))
        detail["tracer"] = tracer
    return {
        "correct": all(row.get("consistent", True) for row in rows),
        "attempted": len(rows),
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


if __name__ == "__main__":
    if sys.argv[1:2] == ["--setup"]:
        setup_once(int(sys.argv[2]))
