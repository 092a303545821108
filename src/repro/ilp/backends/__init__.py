"""Solver backend registry.

Two backends are provided:

* ``"highs"`` — SciPy's HiGHS branch-and-cut MILP solver (default), driven
  through SciPy's bundled HiGHS binding for every solve,
* ``"branch-and-bound"`` — a pure-Python reference implementation.

``get_backend`` accepts either the canonical name or a few common aliases.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import SolverError
from repro.ilp.backends.base import SolverBackend
from repro.ilp.backends.branch_bound import BranchAndBoundBackend
from repro.ilp.backends.highs import HighsBackend

_FACTORIES: Dict[str, Callable[[], SolverBackend]] = {
    "highs": HighsBackend,
    "scipy": HighsBackend,
    "milp": HighsBackend,
    "branch-and-bound": BranchAndBoundBackend,
    "bnb": BranchAndBoundBackend,
    "branch_and_bound": BranchAndBoundBackend,
}


def get_backend(name: str) -> SolverBackend:
    """Instantiate a solver backend by name.

    Raises :class:`~repro.errors.SolverError` for unknown names.
    """
    key = name.strip().lower()
    try:
        factory = _FACTORIES[key]
    except KeyError as exc:
        raise SolverError(
            f"unknown solver backend {name!r}; available: {sorted(set(_FACTORIES))}"
        ) from exc
    return factory()


def available_backends() -> list[str]:
    """Return the canonical backend names."""
    return ["highs", "branch-and-bound"]


__all__ = [
    "SolverBackend",
    "HighsBackend",
    "BranchAndBoundBackend",
    "get_backend",
    "available_backends",
]
