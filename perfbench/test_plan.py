"""The benchmark's own checks: seeded plans and the manifest.

    python3 -m pytest perfbench/test_plan.py -q
"""

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import plan as plans  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402


def fingerprint(seed: int) -> dict:
    return {
        "flow": [(item.label, plans.netlist_digest(item.netlist())) for item in plans.flow_plan(seed)],
        "tags": list(itertools.islice(plans.solve_tags(seed), 50)),
        "solve": [plans.digest(doc) for doc in itertools.islice(plans.solve_documents(seed), 3)],
        "budgets": (plans.FLOW_PHASE_LIMIT_S, plans.TINY_PHASE_LIMIT_S),
    }


def test_same_seed_gives_identical_plan():
    assert fingerprint(7) == fingerprint(7)


def test_other_seed_changes_jitter_and_tags():
    first, second = fingerprint(7), fingerprint(8)
    # published lengths are seed-independent; every jittered netlist moves
    assert first["flow"][:3] == second["flow"][:3]
    assert all(a[1] != b[1] for a, b in zip(first["flow"][3:], second["flow"][3:]))
    assert len({digest for _, digest in first["flow"]}) == 6
    assert set(first["tags"]).isdisjoint(second["tags"])
    assert len(set(first["tags"])) == 50
    assert first["solve"] != second["solve"]
    assert first["budgets"] == second["budgets"]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    pct, value = stats.tail(values)
    assert pct == 90.0
    assert sum(v > value for v in values) >= 10
    assert stats.tail([1.0, 3.0, 2.0]) == (100.0, 3.0)


def test_manifest_matches_spec():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == spec.manifest()
