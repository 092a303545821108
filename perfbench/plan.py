"""Seeded, deterministic input plans for the workloads.

The program under test only ever sees what these functions generate: the
same workload seed gives the same netlists and tags; another seed changes
the length jitter and the job tags.  The solver budgets are fixed here,
never chosen per run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

PAPER_CIRCUITS = ("buffer60", "lna60", "lna94")

#: flow_paper per-phase budget: ``benchmarks/_bench_utils.bench_config()``
#: at a 3 s limit (Phase 3 keeps that helper's 10 s floor).
FLOW_PHASE_LIMIT_S = 3.0

#: service_solve job budget: a tiny P-ILP solve, so queue wait and settle
#: overhead are a visible share of a job's time.
TINY_PHASE_LIMIT_S = 0.25


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def flow_config():
    from repro.core import PILPConfig
    from repro.core.config import PhaseSettings

    limit = FLOW_PHASE_LIMIT_S
    return PILPConfig.fast().with_updates(
        phase1=PhaseSettings(time_limit=limit, mip_gap=0.1),
        phase2=PhaseSettings(time_limit=limit, mip_gap=0.1),
        phase3=PhaseSettings(time_limit=max(10.0, 0.75 * limit), mip_gap=0.1),
        max_refinement_iterations=3,
    )


def tiny_config():
    from repro.core import PILPConfig
    from repro.core.config import PhaseSettings

    limit = TINY_PHASE_LIMIT_S
    return PILPConfig.fast().with_updates(
        phase1=PhaseSettings(time_limit=limit, mip_gap=0.1),
        phase2=PhaseSettings(time_limit=limit, mip_gap=0.1),
        phase3=PhaseSettings(time_limit=limit, mip_gap=0.1),
        max_refinement_iterations=1,
    )


@dataclass(frozen=True)
class FlowItem:
    circuit: str
    jitter_seed: Optional[int]  #: ``None``: the published lengths

    @property
    def label(self) -> str:
        suffix = "published" if self.jitter_seed is None else f"jitter{self.jitter_seed}"
        return f"{self.circuit}:{suffix}"

    def netlist(self):
        from repro.circuits import get_circuit

        return get_circuit(self.circuit, "reduced", seed=self.jitter_seed).netlist


def flow_plan(seed: int) -> List[FlowItem]:
    """Each paper circuit at its published lengths, then with seeded jitter."""
    rng = _rng("flow_paper", seed)
    jitter = {name: rng.randrange(1, 2**31) for name in PAPER_CIRCUITS}
    return [FlowItem(name, None) for name in PAPER_CIRCUITS] + [
        FlowItem(name, jitter[name]) for name in PAPER_CIRCUITS
    ]


def tiny_netlist():
    """Two pads, one transistor, two microstrips: the smallest real job.

    Defined here rather than imported from ``repro.loadgen`` so that a
    change to the program cannot silently change the benchmark's input.
    """
    from repro.circuit import LayoutArea, MicrostripNet, Netlist, Terminal
    from repro.circuit import make_rf_pad, make_transistor
    from repro.tech import CMOS90

    devices = [make_rf_pad("P_IN"), make_rf_pad("P_OUT"), make_transistor("M1")]
    nets = [
        MicrostripNet("ms_in", Terminal("P_IN", "SIG"), Terminal("M1", "G"), target_length=250.0),
        MicrostripNet("ms_out", Terminal("M1", "D"), Terminal("P_OUT", "SIG"), target_length=300.0),
    ]
    return Netlist(
        "perfbench-tiny", devices, nets, LayoutArea(400.0, 300.0),
        technology=CMOS90, operating_frequency_ghz=94.0,
    )


def job_document(netlist, config, label: str, tag: str) -> Dict[str, object]:
    """A P-ILP submission document with the netlist inline."""
    from repro.runner.jobs import LayoutJob
    from repro.service.documents import job_to_document

    job = LayoutJob(flow="pilp", netlist=netlist, config=config, label=label, tag=tag)
    return job_to_document(job)


def solve_tags(seed: int) -> Iterator[str]:
    """Distinct job tags for service_solve (each tag mints a new job)."""
    rng = _rng("service_solve", seed)
    for index in itertools.count():
        yield f"{rng.getrandbits(48):012x}-{index}"


def solve_documents(seed: int) -> Iterator[Dict[str, object]]:
    """The endless, seeded stream of service_solve submissions."""
    netlist = tiny_netlist()
    config = tiny_config()
    for tag in solve_tags(seed):
        yield job_document(netlist, config, f"tiny:{tag}", tag)


def digest(document) -> str:
    """SHA-256 of a JSON document in canonical (sorted-key) form."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def netlist_digest(netlist) -> str:
    from repro.circuit.loader import netlist_to_dict

    return digest(netlist_to_dict(netlist))
