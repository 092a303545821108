"""Phase 2 — device visualisation and overlap fixing (Section 5.2).

The blurred devices of Phase 1 are given their real geometry back: device
centres start from the Phase-1 points, microstrip ends snap from the device
point to the actual pin (equation (14) re-enters the model), the reservation
margin around segments is dropped, and device outlines join the non-overlap
constraints.  To keep the model tractable the routing topology found in
Phase 1 is preserved: every chain point and every device centre may move at
most τ_d away from its Phase-1 location, which both bounds the search space
and lets the builder prune non-overlap pairs whose windows can never meet.

Length matching and overlap removal are still handled through the soft
objective (26); Phase 3 iterates until both are exact.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.circuit.netlist import Netlist
from repro.core.config import PILPConfig
from repro.core.model_builder import BuildOptions
from repro.core.result import PhaseResult
from repro.core.seed import relax_seed_overlaps
from repro.core.warm_start import solve_phase, warm_start_from_geometry
from repro.core.windows import (
    chain_point_counts,
    chain_positions_from_layout,
    window_around,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.layout import Layout


def run_phase2(
    netlist: Netlist,
    phase1_layout: Layout,
    config: Optional[PILPConfig] = None,
) -> PhaseResult:
    """Run Phase 2 starting from a Phase-1 layout snapshot.

    Raises
    ------
    InfeasibleModelError
        If no feasible solution exists within the confinement windows (the
        orchestrator retries with a widened window before giving up).
    """
    config = config or PILPConfig()
    start = time.perf_counter()

    tau = config.confinement_window
    positions = chain_positions_from_layout(phase1_layout)
    device_windows, chain_windows, relaxed_points = _phase2_windows(
        netlist, phase1_layout, positions, tau
    )
    options = BuildOptions(
        blurred_devices=False,
        exact_lengths=False,
        allow_overlap=True,
        include_device_blocks=True,
        chain_point_counts=chain_point_counts(positions),
        device_windows=device_windows,
        chain_windows=chain_windows,
        same_net_spacing=config.same_net_spacing,
    )
    # Seed from the legalised Phase-1 geometry: device points pushed apart
    # until their real outlines clear, chain points as routed.
    return solve_phase(
        "phase2",
        netlist,
        config,
        options,
        config.phase2,
        start,
        metadata={"flow": "p-ilp", "phase": "phase2", "confinement_window_um": tau},
        warm=lambda build: warm_start_from_geometry(
            build,
            relaxed_points,
            {name: list(points) for name, points in positions.items()},
        ),
    )


def _phase2_windows(
    netlist: Netlist,
    phase1_layout: Layout,
    positions: Dict[str, list],
    tau: float,
) -> Tuple[Dict[str, Rect], Dict[Tuple[str, int], Rect], Dict[str, Point]]:
    """Confinement windows for Phase 2, centred on legalised device points.

    Phase 1 treats devices as points, so several of them routinely end up
    closer together than their real outlines allow.  Before the windows are
    drawn the device points are therefore pushed apart until their outlines
    clear each other (the same relaxation used for the seed placement); the
    τ_d windows around these legalised centres are then guaranteed to contain
    an overlap-free arrangement, which is exactly what Phase 2 is asked to
    find.  Chain-point windows grow by however far "their" devices moved so
    the Phase-1 routing topology stays reachable.
    """
    phase1_points = {
        placement.device_name: placement.center
        for placement in phase1_layout.placements
    }
    relaxed = relax_seed_overlaps(phase1_points, netlist)

    device_windows: Dict[str, Rect] = {}
    shift_by_device: Dict[str, float] = {}
    for name, original in phase1_points.items():
        moved = relaxed[name]
        shift_by_device[name] = original.euclidean_distance(moved)
        device_windows[name] = window_around(moved, tau)

    chain_windows: Dict[Tuple[str, int], Rect] = {}
    for net_name, points in positions.items():
        net = netlist.microstrip(net_name)
        slack = max(
            shift_by_device.get(net.start.device, 0.0),
            shift_by_device.get(net.end.device, 0.0),
        )
        for index, point in enumerate(points):
            chain_windows[(net_name, index)] = window_around(
                Point(point.x, point.y), tau + slack
            )
    return device_windows, chain_windows, relaxed
