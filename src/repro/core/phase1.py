"""Phase 1 — planar microstrip routing with blurred devices (Section 5.1).

Devices are removed from the model: each becomes a dimensionless point to
which its microstrips attach directly.  To make room for the devices that
will reappear in Phase 2, every segment's bounding box is expanded by an
extra reservation margin (Figure 8), and every net's length target is grown
by the centre-to-boundary runs that the blurred devices swallow
(equation (23)).  Exact length matching and strict non-overlap are both
relaxed: unmatched length and residual overlap are penalised in the
objective (equation (26)) instead of being enforced, which keeps this first,
globally-unconstrained model solvable.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.circuit.netlist import Netlist
from repro.core.config import PILPConfig
from repro.core.model_builder import BuildOptions
from repro.core.result import PhaseResult
from repro.core.seed import seed_placement, spread_boundary_pads
from repro.core.warm_start import solve_phase, warm_start_from_seeds
from repro.core.windows import mean_device_extent, window_around
from repro.geometry.rect import Rect


def run_phase1(
    netlist: Netlist,
    config: Optional[PILPConfig] = None,
) -> PhaseResult:
    """Run Phase 1 and return its result (layout snapshot + diagnostics).

    The returned layout places every device at its blurred point location
    (orientation R0) and routes every microstrip through the configured
    number of chain points.  Residual overlap and length mismatch are
    expected at this stage; Phases 2 and 3 remove them.

    Raises
    ------
    InfeasibleModelError
        If the solver cannot find any feasible Phase-1 solution (this only
        happens when the area is far too small for the netlist).
    """
    config = config or PILPConfig()
    start = time.perf_counter()

    reservation = config.blur_margin_factor * mean_device_extent(netlist)
    # The force-directed seed placement feeds both the guided windows and
    # the warm start; compute it once.
    seeds = None
    if config.guided_phase1 or config.phase1.warm_start:
        seeds = spread_boundary_pads(
            seed_placement(netlist, config.random_seed), netlist
        )
    device_windows, chain_windows = _phase1_windows(netlist, config, seeds)
    options = BuildOptions(
        blurred_devices=True,
        exact_lengths=False,
        allow_overlap=True,
        include_device_blocks=False,
        extra_segment_margin=reservation,
        chain_point_counts={
            net.name: config.chain_points_per_microstrip for net in netlist.microstrips
        },
        device_windows=device_windows,
        chain_windows=chain_windows,
        same_net_spacing=config.same_net_spacing,
    )
    return solve_phase(
        "phase1",
        netlist,
        config,
        options,
        config.phase1,
        start,
        metadata={
            "flow": "p-ilp",
            "phase": "phase1",
            "reservation_margin_um": reservation,
        },
        warm=lambda build: warm_start_from_seeds(build, seeds),
    )


def _phase1_windows(
    netlist: Netlist, config: PILPConfig, seeds: Optional[Dict]
) -> Tuple[Dict[str, Rect], Dict[Tuple[str, int], Rect]]:
    """Confinement corridors for the guided Phase-1 model.

    With ``guided_phase1`` disabled both mappings are empty and Phase 1 runs
    over the whole layout area, as in the paper.  Otherwise every device is
    confined to a ``phase1_window`` box around its seed position, and every
    chain point of a net to the bounding corridor spanned by its two terminal
    seeds (so detours remain possible anywhere between the terminals).
    ``seeds`` is the caller's seed placement (``None`` when unguided).
    """
    if not config.guided_phase1:
        return {}, {}
    tau = config.phase1_window
    device_windows: Dict[str, Rect] = {
        name: window_around(point, tau) for name, point in seeds.items()
    }
    chain_windows: Dict[Tuple[str, int], Rect] = {}
    for net in netlist.microstrips:
        start_seed = seeds[net.start.device]
        end_seed = seeds[net.end.device]
        corridor = Rect.bounding(
            [window_around(start_seed, tau), window_around(end_seed, tau)]
        )
        count = config.chain_points_per_microstrip
        for index in range(count):
            chain_windows[(net.name, index)] = corridor
    return device_windows, chain_windows
