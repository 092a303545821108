"""One-shot exact concurrent placement and routing (Section 4).

This flow builds the *complete* ILP model — hard exact-length constraints,
full device geometry, hard non-overlap — and hands it to the MILP solver in a
single call.  The paper introduces this model first and then observes that
"the runtime is not acceptable" for realistic circuits, which motivates the
progressive flow of Section 5.  We keep the exact flow because

* it is the ground truth for small circuits (the progressive flow should
  reach the same bend counts),
* it is the baseline of the exact-vs-progressive ablation benchmark.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

from repro.circuit.netlist import Netlist
from repro.core.config import PILPConfig
from repro.core.model_builder import BuildOptions
from repro.core.result import FlowResult
from repro.core.warm_start import solve_phase
from repro.layout.drc import run_drc
from repro.layout.metrics import compute_metrics


class ExactLayoutGenerator:
    """Generate a layout by solving the full Section-4 model once."""

    flow_name = "exact-ilp"

    def __init__(self, config: Optional[PILPConfig] = None) -> None:
        self.config = config or PILPConfig()

    def generate(self, netlist: Netlist) -> FlowResult:
        """Run the exact flow on a netlist.

        Raises
        ------
        InfeasibleModelError
            If the solver proves the instance infeasible or finds no feasible
            solution within the configured time limit.
        """
        start = time.perf_counter()
        options = BuildOptions(
            blurred_devices=False,
            exact_lengths=True,
            allow_overlap=False,
            include_device_blocks=True,
            same_net_spacing=self.config.same_net_spacing,
        )
        # Section 4 is one cold solve, whatever the phase settings ask for.
        phase = solve_phase(
            "exact",
            netlist,
            self.config,
            options,
            replace(self.config.exact, warm_start=False, progressive=False),
            start,
            metadata={"flow": self.flow_name},
        )
        layout = phase.layout
        layout.metadata["solver_backend"] = phase.solution.backend
        layout.metadata["runtime_s"] = phase.runtime
        return FlowResult(
            flow=self.flow_name,
            circuit=netlist.name,
            layout=layout,
            metrics=compute_metrics(layout),
            drc=run_drc(layout),
            runtime=phase.runtime,
            phases=[phase],
        )


def generate_exact_layout(
    netlist: Netlist, config: Optional[PILPConfig] = None
) -> FlowResult:
    """Convenience function wrapping :class:`ExactLayoutGenerator`."""
    return ExactLayoutGenerator(config).generate(netlist)
