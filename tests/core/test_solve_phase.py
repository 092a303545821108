"""Tests of the one phase-solve path (:func:`repro.core.warm_start.solve_phase`)
and of the flow behaviour that rides on it: the Phase-3 hard-length fallback
and the exact flow's single cold solve."""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

import repro.core.phase3 as phase3
from repro.core import ExactLayoutGenerator, plan_refinement
from repro.core.config import PhaseSettings, PILPConfig
from repro.core.model_builder import BuildOptions, RficModelBuilder
from repro.core.warm_start import solve_phase
from repro.errors import InfeasibleModelError
from repro.ilp.model import Model
from repro.ilp.solution import Solution, SolveStatus
from tests.conftest import build_test_config

_SETTINGS = PhaseSettings(time_limit=10.0, mip_gap=0.1)


@pytest.fixture
def solves(monkeypatch):
    """Record every ``Model.solve`` call's keyword arguments."""
    calls = []
    original = Model.solve

    def spy(self, *args, **kwargs):
        calls.append(kwargs)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Model, "solve", spy)
    return calls


@pytest.fixture
def infeasible(monkeypatch):
    """Make the chosen models report INFEASIBLE without solving.

    ``infeasible("hard")`` fails only exact-length models, ``"all"`` every
    model.  Returns the list of exact-length flags of the failed models.
    """
    failed = []
    original_build = RficModelBuilder.build
    original_solve = Model.solve
    exact_models = []

    def build(self):
        result = original_build(self)
        if self.options.exact_lengths:
            exact_models.append(result.model)
        return result

    def install(which):
        def solve(self, *args, **kwargs):
            hard = any(self is model for model in exact_models)
            if which == "all" or hard:
                failed.append(hard)
                return Solution(SolveStatus.INFEASIBLE, backend="highs")
            return original_solve(self, *args, **kwargs)

        monkeypatch.setattr(RficModelBuilder, "build", build)
        monkeypatch.setattr(Model, "solve", solve)
        return failed

    return install


@pytest.fixture
def iterations(monkeypatch):
    """Record the plan of every call that goes through the module global
    ``phase3.run_phase3_iteration`` (the name perfbench's tracer wraps)."""
    plans = []
    original = phase3.run_phase3_iteration

    def counting(netlist, layout, config, iteration, plan=None):
        plans.append(plan)
        return original(netlist, layout, config, iteration, plan)

    monkeypatch.setattr(phase3, "run_phase3_iteration", counting)
    return plans


def _phase1_options():
    return BuildOptions(
        blurred_devices=True,
        exact_lengths=False,
        allow_overlap=True,
        include_device_blocks=False,
    )


class TestSolvePhase:
    def test_result_carries_metadata_status_and_build_time(self, tiny_netlist, solves):
        result = solve_phase(
            "phase1",
            tiny_netlist,
            PILPConfig.fast(),
            _phase1_options(),
            _SETTINGS,
            time.perf_counter(),
            metadata={"flow": "test", "phase": "phase1"},
        )
        assert result.phase == "phase1"
        assert result.layout.metadata == {
            "flow": "test",
            "phase": "phase1",
            "solver_status": result.solution.status.value,
        }
        assert 0.0 < result.model_build_time < result.runtime
        assert result.model_statistics["variables"] > 0
        assert isinstance(result.total_overlap, float)
        assert solves == [
            {"backend": "highs", "time_limit": 10.0, "mip_gap": 0.1, "progressive": True}
        ]

    def test_warm_start_is_asked_for_only_when_enabled(self, tiny_netlist, solves):
        def refuse(build):
            raise AssertionError("warm start requested with warm_start=False")

        solve_phase(
            "phase1",
            tiny_netlist,
            PILPConfig.fast(),
            _phase1_options(),
            replace(_SETTINGS, warm_start=False, progressive=False),
            time.perf_counter(),
            metadata={},
            warm=refuse,
        )
        assert "warm_start" not in solves[0] and "progressive" not in solves[0]

    def test_infeasible_model_raises_with_statistics(self, tiny_netlist, infeasible):
        infeasible("all")
        expected = "phase2 for 'tiny' returned infeasible"
        with pytest.raises(InfeasibleModelError, match=expected) as err:
            solve_phase(
                "phase2",
                tiny_netlist,
                PILPConfig.fast(),
                _phase1_options(),
                _SETTINGS,
                time.perf_counter(),
                metadata={},
            )
        assert "'variables':" in str(err.value)


class TestPhase3HardLengthFallback:
    def _config(self):
        return PILPConfig.fast().with_updates(phase3=_SETTINGS)

    def test_infeasible_hard_lengths_fall_back_to_the_soft_model(
        self, tiny_netlist, hand_layout, infeasible, iterations
    ):
        failed = infeasible("hard")
        config = self._config()
        plan = replace(
            plan_refinement(tiny_netlist, hand_layout, config), use_exact_lengths=True
        )
        result = phase3.run_phase3_iteration(tiny_netlist, hand_layout, config, 1, plan)

        assert failed == [True]
        assert result.phase == "phase3[1]"
        assert result.layout.metadata["exact_lengths"] is False
        # The fallback recursed through the module global with the same plan
        # minus the hard lengths.
        assert [p.use_exact_lengths for p in iterations] == [True, False]
        assert replace(iterations[1], use_exact_lengths=True) == plan

    def test_infeasible_soft_plan_raises(
        self, tiny_netlist, hand_layout, infeasible, iterations
    ):
        failed = infeasible("all")
        config = self._config()
        plan = replace(
            plan_refinement(tiny_netlist, hand_layout, config), use_exact_lengths=False
        )
        with pytest.raises(InfeasibleModelError):
            phase3.run_phase3_iteration(tiny_netlist, hand_layout, config, 0, plan)
        assert failed == [False]
        assert len(iterations) == 1


@pytest.mark.slow
def test_exact_flow_is_one_cold_solve_with_an_honest_profile(tiny_netlist, solves):
    config = build_test_config()
    assert config.exact.warm_start and config.exact.progressive
    result = ExactLayoutGenerator(config).generate(tiny_netlist)

    assert len(solves) == 1
    assert "warm_start" not in solves[0] and "progressive" not in solves[0]
    (entry,) = result.profile()["phases"]
    assert entry["model_build_s"] > 0
    overlap = result.phase_table()[0]["total_overlap_um"]
    assert overlap == 0.0 and isinstance(overlap, float)
    assert set(result.layout.metadata) == {
        "flow", "solver_status", "solver_backend", "runtime_s",
    }
