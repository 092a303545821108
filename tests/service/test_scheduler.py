"""Scheduler policy: dispatch, dedup, cache short-circuit, priority, fairness."""

import time

import pytest

from repro.faults import FAULTS, FaultSpec
from repro.runner import LayoutJob
from repro.runner.cache import ResultCache
from repro.service import (
    JobQueue,
    LayoutScheduler,
    job_from_document,
    job_to_document,
)
from tests.conftest import build_tiny_netlist


def tiny_document(tag=""):
    return job_to_document(
        LayoutJob(flow="manual", netlist=build_tiny_netlist(), tag=tag)
    )


def make_scheduler(tmp_path, name="svc", concurrency=1):
    queue = JobQueue(tmp_path / name, fsync=False)
    cache = ResultCache(tmp_path / f"{name}-cache")
    return LayoutScheduler(
        queue=queue, cache=cache, concurrency=concurrency, pool_workers=0
    )


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


@pytest.fixture
def scheduler(tmp_path):
    instance = make_scheduler(tmp_path)
    yield instance
    instance.stop()


class TestDispatch:
    def test_job_runs_to_done_with_full_event_stream(self, scheduler):
        subscription = scheduler.bus.subscribe(None, replay=False)
        scheduler.start()
        record, disposition = scheduler.submit(tiny_document())
        assert disposition == "queued"
        assert wait_until(lambda: scheduler.queue.get(record.key).terminal)
        settled = scheduler.queue.get(record.key)
        assert settled.state == "done"
        assert settled.summary["served"] == "solve"
        kinds = []
        while True:
            event = subscription.get(timeout=0.2)
            if event is None:
                break
            kinds.append(event["kind"])
        assert [k for k in kinds if k != "progress"] == ["queued", "running", "done"]

    def test_sse_history_replays_after_settlement(self, scheduler):
        scheduler.start()
        record, _ = scheduler.submit(tiny_document())
        assert wait_until(lambda: scheduler.queue.get(record.key).terminal)
        late = scheduler.bus.subscribe(record.key, replay=True)
        kinds = []
        while True:
            event = late.get(timeout=0.2)
            if event is None:
                break
            kinds.append(event["kind"])
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"

    def test_unresolvable_job_rejected_at_admission(self, scheduler):
        from repro.errors import ReproError

        document = tiny_document()
        document["generator"] = {"circuit": "no-such-circuit"}
        document.pop("netlist")
        with pytest.raises(ReproError):
            scheduler.submit(document)  # hash resolution fails => HTTP 400

    def test_dispatch_error_settles_as_failed(self, scheduler):
        record, _ = scheduler.submit(tiny_document())
        record.document["flow"] = "magic"  # poison the stored job document
        scheduler.start()
        assert wait_until(lambda: scheduler.queue.get(record.key).terminal)
        assert scheduler.queue.get(record.key).state == "failed"
        assert scheduler.stats()["failures"] == 1


class TestDedupAndCache:
    def test_identical_submission_attaches_while_pending(self, scheduler):
        # Scheduler not started: the first submission stays queued.
        first, _ = scheduler.submit(tiny_document())
        second, disposition = scheduler.submit(tiny_document())
        assert disposition == "attached"
        assert second.key == first.key
        assert scheduler.stats()["attached"] == 1
        scheduler.start()
        assert wait_until(lambda: scheduler.queue.get(first.key).state == "done")
        assert scheduler.stats()["solved"] == 1  # one solve despite two submissions

    def test_settled_job_resubmission_serves_from_cache(self, scheduler):
        scheduler.start()
        record, _ = scheduler.submit(tiny_document())
        assert wait_until(lambda: scheduler.queue.get(record.key).terminal)
        hits_before = scheduler.cache.stats.hits
        again, disposition = scheduler.submit(tiny_document())
        assert disposition == "cached"
        assert again.state == "done"
        assert scheduler.cache.stats.hits == hits_before + 1
        assert scheduler.stats()["solved"] == 1  # never re-solved

    def test_vanished_cache_entry_forces_requeue(self, scheduler):
        import shutil

        scheduler.start()
        record, _ = scheduler.submit(tiny_document())
        assert wait_until(lambda: scheduler.queue.get(record.key).terminal)
        scheduler.stop()
        shutil.rmtree(scheduler.cache.root)  # the layout is gone for good

        requeued, disposition = scheduler.submit(tiny_document())
        assert disposition == "requeued"
        assert requeued.state == "queued"
        scheduler.start()
        assert wait_until(lambda: scheduler.queue.get(record.key).state == "done")
        assert scheduler.stats()["solved"] == 2  # genuinely re-solved
        assert scheduler.cache.peek_key(record.key) is not None  # layout restored

    def test_cache_short_circuit_across_epochs(self, tmp_path):
        # First epoch solves and fills the cache.
        first = make_scheduler(tmp_path, "first")
        first.start()
        record, _ = first.submit(tiny_document())
        assert wait_until(lambda: first.queue.get(record.key).terminal)
        first.stop()

        # Second epoch: fresh journal, same cache => settle without running.
        queue = JobQueue(tmp_path / "second", fsync=False)
        second = LayoutScheduler(
            queue=queue, cache=first.cache, concurrency=1, pool_workers=0
        )
        try:
            revived, disposition = second.submit(tiny_document())
            assert disposition == "cached"
            assert revived.state == "done"
            assert revived.summary["served"] == "cache"
            assert second.stats()["solved"] == 0
            assert second.stats()["served_from_cache"] == 1
        finally:
            second.stop()


class TestOrdering:
    def test_priority_classes_dispatch_best_first(self, scheduler):
        # Submit before starting so ordering is purely the scheduler's choice.
        scheduler.submit(tiny_document("bg"), priority="background")
        scheduler.submit(tiny_document("ia"), priority="interactive")
        scheduler.submit(tiny_document("bt"), priority="batch")
        scheduler.start()
        assert wait_until(lambda: all(r.terminal for r in scheduler.queue.records()))
        records = {r.document["tag"]: r for r in scheduler.queue.records()}
        assert (
            records["ia"].started_unix
            <= records["bt"].started_unix
            <= records["bg"].started_unix
        )

    def test_per_client_fairness_round_robins(self, scheduler):
        scheduler.submit(tiny_document("a1"), client="alice")
        scheduler.submit(tiny_document("a2"), client="alice")
        scheduler.submit(tiny_document("b1"), client="bob")
        scheduler.start()
        assert wait_until(lambda: all(r.terminal for r in scheduler.queue.records()))
        records = {r.document["tag"]: r for r in scheduler.queue.records()}
        # alice went first (FIFO), then bob (least recently served), then alice.
        assert (
            records["a1"].started_unix
            <= records["b1"].started_unix
            <= records["a2"].started_unix
        )


class TestStats:
    def test_stats_document_shape(self, scheduler):
        stats = scheduler.stats()
        for field in (
            "uptime_s",
            "queue_depth",
            "jobs",
            "solved",
            "served_from_cache",
            "attached",
            "failures",
            "replayed_from_journal",
            "cache",
            "journal_dropped_lines",
        ):
            assert field in stats
        assert stats["cache"]["lookups"] == 0
        assert set(stats["jobs"]) == {
            "queued",
            "running",
            "done",
            "failed",
            "timeout",
            "cancelled",
        }


#: Counters a settlement may move (admission counters are not settlement).
SETTLEMENT_COUNTERS = {
    "_solved": "rfic_jobs_solved_total",
    "_served_from_cache": "rfic_jobs_served_from_cache_total",
    "_failed": "rfic_jobs_failed_total",
    "_poisoned": "rfic_jobs_poisoned_total",
    "_crash_retries": "rfic_crash_retries_total",
    "_attached": "rfic_jobs_attached_total",
}


def settlement_view(scheduler):
    """Settlement counters, latency count/sum and stage sums, from one snapshot."""
    snapshot = scheduler.metrics_snapshot()

    def histogram(name, labels=None):
        for sample in snapshot[name]["samples"]:
            if sample["labels"] == (labels or {}):
                return sample
        raise AssertionError(f"no {name} series with labels {labels}")

    latency = histogram("rfic_job_latency_seconds")
    return {
        "counters": {
            attr: snapshot[name]["samples"][0]["value"]
            for attr, name in SETTLEMENT_COUNTERS.items()
        },
        "latency_count": latency["count"],
        "latency_sum": latency["sum"],
        "stages": {
            stage: histogram("rfic_job_stage_seconds", {"stage": stage})["sum"]
            for stage in ("queue_wait", "solve", "overhead")
        },
    }


def second_epoch(tmp_path, tag):
    """A fresh-journal scheduler over a cache already holding ``tag``'s layout."""
    first = make_scheduler(tmp_path, "first")
    first.start()
    record, _ = first.submit(tiny_document(tag))
    assert wait_until(lambda: first.queue.get(record.key).terminal)
    first.stop()
    queue = JobQueue(tmp_path / "second", fsync=False)
    return LayoutScheduler(queue=queue, cache=first.cache, pool_workers=0)


def poisoned_scheduler(tmp_path):
    """A forked-worker scheduler whose every worker crashes (budget 2)."""
    FAULTS.install(
        [FaultSpec(point="worker.run", action="crash", times=0)],
        state_dir=tmp_path / "faults",
    )
    queue = JobQueue(tmp_path / "svc", fsync=False)
    cache = ResultCache(tmp_path / "svc-cache")
    return LayoutScheduler(
        queue=queue, cache=cache, concurrency=1, pool_workers=1,
        poison_threshold=2,
    )


def settle_solved(tmp_path):
    return make_scheduler(tmp_path), tiny_document("solved"), None


def settle_cache_serve(tmp_path):
    return second_epoch(tmp_path, "served"), tiny_document("served"), None


def settle_raising(tmp_path):
    FAULTS.install([FaultSpec(point="worker.run", action="raise", times=1)])
    return make_scheduler(tmp_path), tiny_document("raising"), None


def settle_dispatch_error(tmp_path):
    scheduler = make_scheduler(tmp_path)

    def poison(record):
        record.document["flow"] = "magic"  # the stored document no longer parses

    return scheduler, tiny_document("bad-document"), poison


def settle_crash_poison(tmp_path):
    return poisoned_scheduler(tmp_path), tiny_document("crasher"), None


def settle_requarantine(tmp_path):
    scheduler = poisoned_scheduler(tmp_path)
    scheduler.start()
    record, _ = scheduler.submit(tiny_document("repeat"))
    assert wait_until(lambda: scheduler.queue.get(record.key).terminal, 60)
    assert wait_until(lambda: settlement_view(scheduler)["latency_count"] == 1)
    return scheduler, tiny_document("repeat"), None


def expected_split(record, split):
    """The (queue_wait, solve, overhead) split each settlement path promises."""
    total = max(0.0, record.settled_unix - record.submitted_unix)
    if split == "overhead":  # settled at admission, never queued
        return 0.0, 0.0, total
    if split == "queue_wait":  # re-quarantined before any worker ran
        return total, 0.0, 0.0
    queue_wait = min(max(0.0, record.started_unix - record.submitted_unix), total)
    solve = min(record.runtime, total - queue_wait) if split == "solve" else 0.0
    return queue_wait, solve, total - queue_wait - solve


class TestSettlementPaths:
    """Every terminal path settles exactly once, observed exactly once."""

    @pytest.fixture(autouse=True)
    def clean_faults(self):
        FAULTS.clear()
        yield
        FAULTS.clear()

    @pytest.mark.parametrize(
        "setup, disposition, counters, kind, state, split, error_prefix",
        [
            (settle_solved, "queued", {"_solved": 1}, "done", "done",
             "solve", None),
            (settle_cache_serve, "cached", {"_served_from_cache": 1}, "done",
             "done", "overhead", None),
            (settle_raising, "queued", {"_failed": 1}, "failed", "failed",
             "dispatched", "RuntimeError"),
            (settle_dispatch_error, "queued", {"_failed": 1}, "failed",
             "failed", "dispatched", "ConfigurationError"),
            (settle_crash_poison, "queued",
             {"_crash_retries": 1, "_poisoned": 1, "_failed": 1}, "failed",
             "failed", "dispatched", "poisoned:"),
            (settle_requarantine, "requeued", {"_poisoned": 1, "_failed": 1},
             "failed", "failed", "queue_wait", "poisoned:"),
        ],
        ids=["solved", "cache-serve", "raising-job", "dispatch-error",
             "crash-retry-poison", "requarantine"],
    )
    def test_settlement_is_observed_once(
        self, tmp_path, setup, disposition, counters, kind, state, split,
        error_prefix,
    ):
        scheduler, document, tamper = setup(tmp_path)
        try:
            key = job_from_document(document).content_hash
            before = settlement_view(scheduler)
            watcher = scheduler.bus.subscribe(key, replay=False)
            record, answered = scheduler.submit(document)
            assert answered == disposition
            if tamper is not None:
                tamper(record)
            scheduler.start()
            assert wait_until(lambda: scheduler.queue.get(key).terminal, 60)
            assert wait_until(
                lambda: settlement_view(scheduler)["latency_count"]
                > before["latency_count"]
            )
            events = []
            while True:  # drain until the stream has been quiet a while
                event = watcher.get(timeout=0.3)
                if event is None:
                    break
                events.append(event)
            after = settlement_view(scheduler)
            settled = scheduler.queue.get(key)

            assert after["latency_count"] - before["latency_count"] == 1
            moved = {
                attr: after["counters"][attr] - before["counters"][attr]
                for attr in SETTLEMENT_COUNTERS
            }
            assert moved == {
                attr: counters.get(attr, 0) for attr in SETTLEMENT_COUNTERS
            }
            observed = tuple(
                after["stages"][stage] - before["stages"][stage]
                for stage in ("queue_wait", "solve", "overhead")
            )
            assert observed == pytest.approx(
                expected_split(settled, split), abs=1e-6
            )
            assert after["latency_sum"] - before["latency_sum"] == pytest.approx(
                sum(observed), abs=1e-6
            )
            terminal = [
                event["kind"] for event in events
                if event["kind"] in ("done", "failed", "timeout", "cancelled")
            ]
            assert terminal == [kind]
            assert events[-1]["kind"] == kind

            journaled = JobQueue(scheduler.queue.data_dir, fsync=False).get(key)
            assert journaled.state == settled.state == state
            if error_prefix is None:
                assert journaled.error is None
            else:
                assert journaled.error.startswith(error_prefix)
        finally:
            scheduler.stop()


class TestAdmissionVerifiesOnce:
    """An admission reads a cache entry once: one digest check, one hit."""

    @pytest.fixture
    def verifications(self, monkeypatch):
        calls = []
        verify = ResultCache._verify_artifacts

        def counting(directory, manifest):
            calls.append(directory)
            return verify(directory, manifest)

        monkeypatch.setattr(ResultCache, "_verify_artifacts", staticmethod(counting))
        return calls

    def assert_one_counted_lookup(self, scheduler, verifications, document):
        hits, misses = scheduler.cache.stats.hits, scheduler.cache.stats.misses
        del verifications[:]
        record, disposition = scheduler.submit(document)
        assert disposition == "cached"
        assert record.state == "done"
        assert len(verifications) == 1
        assert scheduler.cache.stats.hits == hits + 1
        assert scheduler.cache.stats.misses == misses

    def test_resubmitted_done_job(self, scheduler, verifications):
        scheduler.start()
        record, _ = scheduler.submit(tiny_document("again"))
        assert wait_until(lambda: scheduler.queue.get(record.key).terminal)
        self.assert_one_counted_lookup(
            scheduler, verifications, tiny_document("again")
        )

    def test_cache_resident_fresh_submission(self, tmp_path, verifications):
        second = second_epoch(tmp_path, "resident")
        try:
            self.assert_one_counted_lookup(
                second, verifications, tiny_document("resident")
            )
        finally:
            second.stop()
