"""HiGHS MILP backend built on SciPy's bundled HiGHS binding.

This is the default backend.  SciPy ships the open-source HiGHS solver, which
plays the role that Gurobi played in the original paper: an exact
branch-and-cut MILP solver.  Every solve — cold MIP, pure LP, warm-started or
progressive — drives HiGHS through the binding ``scipy.optimize._highspy``,
the same binding SciPy's public ``milp`` wrapper drives.  There is no other
path and no fallback: a SciPy without the binding fails at import.  A cold
solve is one run with no incumbent; two features go beyond it for MIPs:

* **warm starts** — a (possibly partial) incumbent from a previous, related
  solve is injected with ``Highs.setSolution`` so the MIP search starts from
  a good primal bound instead of hunting for a first feasible point, and
* **progressive solves** — the time budget is split into slices; after each
  slice the incumbent is carried into the next as a warm start, and the solve
  stops early once an additional slice no longer improves the incumbent
  meaningfully.  The soft phase models of the progressive flow have a
  structurally weak LP bound (their big-M relaxation bounds the objective by
  zero), so the MIP gap criterion never fires and the stall criterion is what
  actually ends the solve.

A pure LP has no incumbent to seed or to stall on, so it is always one run.
"""

from __future__ import annotations

import time
from typing import Mapping, Optional, Tuple, Union

import numpy as np
import scipy.optimize._highspy._core as core
from scipy import sparse

from repro.errors import SolverError
from repro.ilp.backends.base import SolverBackend
from repro.ilp.expr import Variable
from repro.ilp.solution import Solution, SolveStatus

#: Number of budget slices of a progressive solve.
DEFAULT_PROGRESSIVE_SLICES = 4

#: A slice must improve the incumbent by this relative amount for the
#: progressive solve to keep going.
DEFAULT_MIN_IMPROVEMENT = 0.01

#: Budget limits: a MIP stopped by one of these may still hold an incumbent.
_LIMITS = (
    core.HighsModelStatus.kTimeLimit,
    core.HighsModelStatus.kIterationLimit,
    core.HighsModelStatus.kSolutionLimit,
)


class HighsBackend(SolverBackend):
    """Solve models with SciPy's HiGHS mixed-integer solver."""

    name = "highs"

    def solve(
        self,
        model,
        time_limit: float | None = None,
        mip_gap: float | None = None,
        warm_start: Mapping[Union[Variable, str], float] | None = None,
        **options,
    ) -> Solution:
        form = model.to_standard_form()
        start = time.perf_counter()

        if form.num_variables == 0:
            # An empty model is trivially optimal with objective == constant.
            return Solution(
                status=SolveStatus.OPTIMAL,
                objective=form.objective_constant,
                values={},
                solve_time=0.0,
                backend=self.name,
            )

        progressive = bool(options.pop("progressive", False))
        if options:
            raise SolverError(
                f"unknown options for the HiGHS backend: {sorted(options)}"
            )

        warm_vector = None
        if warm_start is not None:
            warm_vector = self.warm_start_vector(form, warm_start)
        return self._solve_direct(
            form,
            start,
            time_limit=time_limit,
            mip_gap=mip_gap,
            warm_vector=warm_vector,
            progressive=progressive,
        )

    def _build_lp(self, form):
        """Lower a StandardForm to a ``HighsLp`` (built once, reused)."""
        num_ub = form.a_ub.shape[0]
        num_eq = form.a_eq.shape[0]
        if num_ub and num_eq:
            a = sparse.vstack([form.a_ub, form.a_eq], format="csc")
        elif num_ub:
            a = form.a_ub.tocsc()
        else:
            a = form.a_eq.tocsc()
        row_lower = np.concatenate(
            [np.full(num_ub, -core.kHighsInf), form.b_eq]
        )
        row_upper = np.concatenate([form.b_ub, form.b_eq])

        objective = form.objective.copy()
        if form.maximize:
            objective = -objective

        lp = core.HighsLp()
        lp.num_col_ = form.num_variables
        lp.num_row_ = num_ub + num_eq
        lp.col_cost_ = objective
        lp.col_lower_ = form.lower
        lp.col_upper_ = form.upper
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        lp.a_matrix_.format_ = core.MatrixFormat.kColwise
        lp.a_matrix_.num_col_ = form.num_variables
        lp.a_matrix_.num_row_ = num_ub + num_eq
        lp.a_matrix_.start_ = a.indptr
        lp.a_matrix_.index_ = a.indices
        lp.a_matrix_.value_ = a.data
        lp.integrality_ = [
            core.HighsVarType.kInteger if flag else core.HighsVarType.kContinuous
            for flag in form.integrality
        ]
        return lp

    def _run_direct_once(
        self, lp, is_mip: bool, time_limit, mip_gap, warm_vector
    ) -> Tuple[object, Optional[np.ndarray], Optional[float], Optional[int]]:
        """One HiGHS run; returns ``(model_status, x, gap, nodes)``.

        ``x`` is read only when the status carries a solution (SciPy's
        ``milp`` rule): an LP only when optimal, a MIP when optimal or when
        a budget limit stopped it with a finite incumbent objective.
        """
        highs = core._Highs()
        opts = core.HighsOptions()
        opts.output_flag = False
        if time_limit is not None:
            opts.time_limit = float(time_limit)
        if mip_gap is not None:
            opts.mip_rel_gap = float(mip_gap)
        if highs.passOptions(opts) == core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the solver options")
        if highs.passModel(lp) == core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the model")
        if warm_vector is not None:
            sol = core.HighsSolution()
            sol.col_value = np.asarray(warm_vector, dtype=float)
            highs.setSolution(sol)
        if highs.run() == core.HighsStatus.kError:
            return highs.getModelStatus(), None, None, None

        status = highs.getModelStatus()
        info = highs.getInfo()
        has_solution = status == core.HighsModelStatus.kOptimal or (
            is_mip
            and status in _LIMITS
            and np.isfinite(info.objective_function_value)
        )
        x = None
        if has_solution:
            x = np.asarray(highs.getSolution().col_value, dtype=float)
            if x.size == 0 or not np.all(np.isfinite(x)):
                x = None
        gap = getattr(info, "mip_gap", None)
        gap = float(gap) if gap is not None and np.isfinite(gap) else None
        nodes = getattr(info, "mip_node_count", None)
        nodes = int(nodes) if nodes is not None and nodes >= 0 else None
        return status, x, gap, nodes

    def _solve_direct(
        self,
        form,
        start: float,
        time_limit,
        mip_gap,
        warm_vector,
        progressive: bool,
    ) -> Solution:
        lp = self._build_lp(form)
        is_mip = bool(form.integrality.any())
        if not is_mip:
            warm_vector, progressive = None, False
        sign = -1.0 if form.maximize else 1.0

        if not progressive or time_limit is None:
            status, x, gap, nodes = self._run_direct_once(
                lp, is_mip, time_limit, mip_gap, warm_vector
            )
            return self._interpret_direct(
                form, status, x, gap, time.perf_counter() - start,
                iterations=nodes,
            )

        # Progressive: spend the budget in slices, warm-starting each from
        # the best incumbent so far, and stop once a slice stalls.  The
        # caller-provided warm start is only ever a *seed* — it may be
        # infeasible, so it never becomes the returned incumbent itself.
        deadline = start + float(time_limit)
        slice_budget = float(time_limit) / DEFAULT_PROGRESSIVE_SLICES
        best_x: Optional[np.ndarray] = None
        best_signed = np.inf
        last_status, last_gap = None, None
        total_nodes: Optional[int] = None
        used_slices = 0
        stalled = False
        while True:
            remaining = deadline - time.perf_counter()
            if used_slices > 0 and remaining <= 0.05:
                break
            # The first slice always runs, even on a microscopic budget, so
            # an exhausted clock reports TIME_LIMIT rather than ERROR.
            budget = min(slice_budget, max(remaining, 0.05))
            seed = best_x if best_x is not None else warm_vector
            status, x, gap, nodes = self._run_direct_once(
                lp, is_mip, budget, mip_gap, seed
            )
            used_slices += 1
            last_status, last_gap = status, gap
            if nodes is not None:
                total_nodes = (total_nodes or 0) + nodes
            if status == core.HighsModelStatus.kInfeasible:
                # Infeasibility is terminal.
                return self._interpret_direct(
                    form, status, None, gap, time.perf_counter() - start,
                    iterations=total_nodes,
                )
            if x is None and status not in _LIMITS:
                # A solver error (not a budget limit) would repeat identically
                # on every retry — fail now instead of hot-looping until the
                # deadline.
                break
            if x is not None:
                signed = sign * float(form.objective @ x)
                improvement = best_signed - signed
                threshold = DEFAULT_MIN_IMPROVEMENT * max(1.0, abs(best_signed))
                improved_enough = (
                    not np.isfinite(best_signed) or improvement > threshold
                )
                if signed < best_signed:
                    best_x, best_signed = x, signed
                if status == core.HighsModelStatus.kOptimal:
                    break
                if not improved_enough:
                    stalled = True
                    break
            elif best_x is not None:
                # The slice found nothing new; keep the previous incumbent.
                stalled = True
                break

        elapsed = time.perf_counter() - start
        solution = self._interpret_direct(
            form, last_status, best_x, last_gap, elapsed,
            iterations=total_nodes,
        )
        if stalled and solution.is_feasible:
            solution = Solution(
                status=SolveStatus.FEASIBLE,
                objective=solution.objective,
                values=solution.values,
                solve_time=elapsed,
                backend=self.name,
                gap=solution.gap,
                message=(
                    f"progressive solve stalled after {used_slices} slice(s); "
                    f"{solution.message}"
                ).strip("; "),
                iterations=total_nodes,
            )
        return solution

    def _interpret_direct(
        self, form, status, x, gap, elapsed: float,
        iterations: Optional[int] = None,
    ) -> Solution:
        """Map a HiGHS run to a :class:`Solution`.

        ``kUnboundedOrInfeasible`` is an ``ERROR``: HiGHS has not decided
        which of the two it is, and the message names the HiGHS status.
        """
        has_solution = x is not None
        hs = core.HighsModelStatus
        if status == hs.kOptimal and has_solution:
            our_status = SolveStatus.OPTIMAL
        elif status in _LIMITS and has_solution:
            our_status = SolveStatus.FEASIBLE
        elif status in _LIMITS:
            our_status = SolveStatus.TIME_LIMIT
        elif status == hs.kInfeasible:
            our_status = SolveStatus.INFEASIBLE
        elif status == hs.kUnbounded:
            our_status = SolveStatus.UNBOUNDED
        elif has_solution:
            our_status = SolveStatus.FEASIBLE
        else:
            our_status = SolveStatus.ERROR

        message = f"HiGHS status: {status}" if status is not None else ""
        if not has_solution:
            return Solution(
                status=our_status,
                solve_time=elapsed,
                backend=self.name,
                message=message,
                gap=gap,
                iterations=iterations,
            )
        values = self.assignment_from_vector(form, x)
        vector = np.array([values[var] for var in form.variables])
        objective = self.objective_value(form, vector)
        return Solution(
            status=our_status,
            objective=objective,
            values=values,
            solve_time=elapsed,
            backend=self.name,
            message=message,
            gap=gap,
            iterations=iterations,
        )
