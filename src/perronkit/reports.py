"""Run reports shared by every iterative routine."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CONVERGED = "converged"
ITERATION_CAP = "iteration_cap"
NON_FINITE = "non_finite"


@dataclass
class PhaseLog:
    """Per-phase record of one level of the alpha-halving scaling loop.

    ``window_right``/``window_left`` hold ``(min, max)`` of ``M_alpha @ r``
    and ``M_alpha.T @ l`` at phase exit; ``min_right``/``min_left`` the
    smallest scaling entries.  The exit vectors themselves are kept so tests
    can re-verify conditioning claims phase by phase.
    """

    alpha: float
    iterations: int
    window_right: tuple[float, float]
    window_left: tuple[float, float]
    min_right: float
    min_left: float
    left: np.ndarray
    right: np.ndarray


@dataclass
class SolveReport:
    """Iteration counts, residual norms, and status flags for one run."""

    status: str = CONVERGED
    iterations: int = 0
    residuals: list[float] = field(default_factory=list)
    alpha0: float | None = None
    phases: list[PhaseLog] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    def phase_iterations(self) -> list[int]:
        return [p.iterations for p in self.phases]
