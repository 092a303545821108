"""service_solve: load from this process against a daemon that runs in
its own process.

The generator is this one process with two client threads; each has at
most one connection open at a time.  Service-side numbers are deltas of
the daemon's ``/metrics`` over the measured window; client-side numbers
are spans around the generator's own calls.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import plan as plans
import stats
from daemon import Connection, Daemon, delta, file_size, scrape, stage_mean
from tracer import Tracer

TERMINAL = ("done", "failed", "timeout", "cancelled", "shutdown")
BOOTS = 5


def _boot_series(daemon: Daemon) -> float:
    """Boot the daemon :data:`BOOTS` times over one data directory and
    return the median boot time, leaving the last boot running."""
    boots = []
    for index in range(BOOTS):
        boots.append(daemon.start())
        if index < BOOTS - 1:
            daemon.stop()
    return statistics.median(boots)


def _in_threads(target: Callable[[], None], count: int = 2) -> None:
    """Run ``target`` in ``count`` threads and re-raise the first failure."""
    errors: List[BaseException] = []

    def guarded() -> None:
        try:
            target()
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _span(tracer: Optional[Tracer], name: str, request: Optional[str] = None):
    return tracer.span(name, request) if tracer else contextlib.nullcontext()


def _wait_terminal(conn: Connection, key: str) -> Dict[str, object]:
    for event in conn.events(f"/jobs/{key}/events"):
        if event["_kind"] in TERMINAL:
            return event
    raise RuntimeError(f"event stream of {key[:12]} ended without a terminal event")


def _read_back(conn: Connection, document, key: str, row: Dict[str, object]) -> None:
    """The read path, once per settled job and outside its settle time:
    fetch the layout, resubmit the job (it must be served from the cache),
    and fetch the layout again, which must be byte-identical."""
    status, first = conn.request("GET", f"/jobs/{key}/layout.json")
    if status != 200:
        row["error"] = f"layout GET: HTTP {status}"
        return
    status, body = conn.post_json("/jobs", document)
    if status != 200 or body.get("disposition") != "cached":
        row["error"] = f"resubmit: HTTP {status} {body.get('disposition')}"
        return
    t0 = time.perf_counter()
    status, again = conn.request("GET", f"/jobs/{key}/layout.json")
    row["layout_get_s"] = time.perf_counter() - t0
    row["wrong"] = status != 200 or again != first
    row["ok"] = not row["wrong"]


def run_solve(workdir: Path, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    daemon = Daemon(workdir / "data", 1, workdir / "daemon.log")
    journal = workdir / "data" / "journal.jsonl"
    tracer = Tracer() if trace else None
    documents = plans.solve_documents(seed)
    documents_lock = threading.Lock()
    rows: List[Dict[str, object]] = []
    try:
        setup_s = _boot_series(daemon)
        control = Connection(daemon.port)

        def client() -> None:
            conn = Connection(daemon.port)
            while time.perf_counter() < stop_at:
                with documents_lock:
                    document = next(documents)
                row: Dict[str, object] = {"tag": document["tag"], "ok": False}
                with _span(tracer, "job", document["tag"]):
                    t0 = time.perf_counter()
                    with _span(tracer, "admit"):
                        status, body = conn.post_json("/jobs", document)
                    row["admit_s"] = time.perf_counter() - t0
                    if status == 202 and body.get("disposition") == "queued":
                        with _span(tracer, "sse_wait"):
                            event = _wait_terminal(conn, body["key"])
                        settled_at = time.perf_counter()
                        row["sse_lag_s"] = event["_received"] - float(event["ts"])
                        row["key"] = body["key"]
                        if event["_kind"] == "done":
                            row["settle_s"] = settled_at - t0
                            with _span(tracer, "read"):
                                _read_back(conn, document, body["key"], row)
                        else:
                            row["error"] = f"settled {event['_kind']}"
                    else:
                        row["error"] = f"HTTP {status} {body.get('disposition')}"
                rows.append(row)

        before = scrape(control)
        journal_before = file_size(journal)
        started = time.perf_counter()
        stop_at = started + seconds
        _in_threads(client)
        window = time.perf_counter() - started
        after = scrape(control)
        journal_bytes = file_size(journal) - journal_before

        # The stream's verdict must be what the journal settled.
        disagreements = 0
        bends = []
        for row in rows:
            if not row["ok"]:
                continue
            status, data = control.request("GET", f"/jobs/{row['key']}")
            record = json.loads(data.decode("utf-8")) if status == 200 else {}
            if record.get("state") != "done":
                disagreements += 1
            bends.append(float((record.get("summary") or {}).get("total_bends", 0)))
    finally:
        daemon.stop()

    done = [row for row in rows if row["ok"]]
    # Settle times of the jobs that ended ``done``.  When none did, the
    # latency is NaN and the tail is left out: ok_frac and the FAIL verdict
    # report the outage.
    settles = [row["settle_s"] for row in rows if "settle_s" in row]
    settled = delta(before, after, "rfic_job_latency_seconds_count")
    stage = '{stage="%s"}'
    read = [row for row in rows if "layout_get_s" in row]
    quarantined = delta(before, after, "rfic_cache_quarantined")
    metrics: Dict[str, float] = {
        "setup_s": setup_s,
        "ok_frac": len(done) / len(rows),
        "latency_s": statistics.median(settles) if settles else math.nan,
        "throughput_per_min": 60.0 * len(done) / window,
        "bends_per_layout": stats.mean(bends, empty=math.nan),
    }
    if tracer is not None:
        metrics.update({
            "admit.s": stats.mean([row["admit_s"] for row in rows]),
            "queue_wait.s": stage_mean(before, after, "rfic_job_stage_seconds", stage % "queue_wait"),
            "solve_stage.s": stage_mean(before, after, "rfic_job_stage_seconds", stage % "solve"),
            "settle_overhead.s": stage_mean(before, after, "rfic_job_stage_seconds", stage % "overhead"),
            "checkpoint_writes": delta(before, after, "rfic_checkpoint_writes_total") / max(settled, 1),
            "journal.bytes_per_job": journal_bytes / len(rows),
            "sse.lag_s": stats.mean([row["sse_lag_s"] for row in rows if "sse_lag_s" in row]),
            "cache_serve.s": stage_mean(before, after, "rfic_cache_serve_seconds"),
            "layout_get.s": stats.mean([row["layout_get_s"] for row in read]),
            "cache.hits": delta(before, after, "rfic_cache_hits") / len(rows),
            "cache.quarantined": quarantined,
            "trace.spans": len(tracer.spans) / len(rows),
            "trace.overhead_s": tracer.overhead_s() / len(rows),
        })
    aliases = {
        "settle_s_p50": (metrics["latency_s"], "s"),
        "solves_per_min": (metrics["throughput_per_min"], "1/min"),
        "failed_frac": ((len(rows) - len(done)) / len(rows), "frac"),
    }
    pct = None
    if settles:
        pct, tail = stats.tail(settles)
        aliases[f"settle_s_tail.p{pct:g}"] = (tail, "s")
    return {
        "correct": disagreements == 0
        and quarantined == 0
        and not any(row.get("wrong") for row in rows),
        "attempted": len(rows),
        "failed": len(rows) - len(done),
        "metrics": metrics,
        "detail": {
            "tail_pct": pct,
            "window_s": round(window, 3),
            "tracer": tracer,
            "aliases": aliases,
        },
    }
