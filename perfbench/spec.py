"""What the benchmark measures: workloads, metric names, units and bounds.

This table is the single source of ``BENCHMARK.json`` (``run.py
--write-manifest`` regenerates it) and of the metric names every run
prints, so the manifest and the output cannot drift apart.

Every workload reports every metric.  The end-to-end metrics are defined
per workload (see ``README.md``); a per-layer metric that a workload does
not exercise reads 0 there, which is itself the prediction the layer map
makes (for example, the service layers on ``flow_paper``).
"""

from __future__ import annotations

from typing import Dict, List

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
#: service_solve's measured window; also about the length of one flow_paper
#: set of six layouts at its fixed budgets
RUN_SECONDS = 40

WORKLOADS: List[Dict[str, str]] = [
    {
        "name": "flow_paper",
        "why": "Table-1 job: cold in-process P-ILP on buffer60/lna60/lna94 at "
        "published and seeded-jitter lengths; solver and phase layers do the "
        "work, the service does none",
    },
    {
        "name": "service_solve",
        "why": "service: 2 closed-loop clients submit distinct tiny P-ILP jobs to a "
        "separate serve process, wait on SSE, then read each layout back via a "
        "cache hit; solver and phases barely matter",
    },
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ok_frac", "frac", "higher", 0.25),
    ("latency_s", "s", "lower", 0.25),
    ("throughput_per_min", "1/min", "higher", 0.25),
    ("bends_per_layout", "count", "lower", 0.25),
]

# (name, unit, better)
PER_LAYER = [
    # flow layers, per layout (times are self seconds: a span's duration
    # minus the time its traced children cover)
    ("seed.s", "s", "lower"),
    ("model_build.s", "s", "lower"),
    ("model.rows", "count", "lower"),
    ("model.cols", "count", "lower"),
    ("model.binaries", "count", "lower"),
    ("warm_start.s", "s", "lower"),
    ("solve.s", "s", "lower"),
    ("solve.calls", "count", "lower"),
    ("solve.nodes", "count", "lower"),
    ("solve.useful_ratio", "ratio", "higher"),
    ("phase1.s", "s", "lower"),
    ("phase2.s", "s", "lower"),
    ("phase2.retries", "count", "lower"),
    ("phase3.s", "s", "lower"),
    ("phase3.iterations", "count", "lower"),
    ("phase3.fallbacks", "count", "lower"),
    ("drc.s", "s", "lower"),
    ("metrics.s", "s", "lower"),
    ("unattributed.s", "s", "lower"),
    ("profile_gap.s", "s", "lower"),
    # service write path, per job
    ("admit.s", "s", "lower"),
    ("queue_wait.s", "s", "lower"),
    ("solve_stage.s", "s", "lower"),
    ("settle_overhead.s", "s", "lower"),
    ("checkpoint_writes", "count", "lower"),
    ("journal.bytes_per_job", "bytes", "lower"),
    ("sse.lag_s", "s", "lower"),
    # service read path, per job
    ("cache_serve.s", "s", "lower"),
    ("layout_get.s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.quarantined", "count", "lower"),
    # the tracer itself
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
