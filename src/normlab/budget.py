"""Optimization budgets and the result record returned by every maximizer."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecValidationError

EXACT_CLOSED_FORM = "exact_closed_form"
EXACT_VERTEX = "exact_vertex"
LOWER_BOUND = "lower_bound"


@dataclass(frozen=True)
class OptBudget:
    """Effort knobs for sphere maximization.

    multistarts: ascent restarts kept from the seed pool
    max_iters:   candidate evaluations per ascent start
    samples:     random seed points drawn before the ascent
    step_init:   initial relative perturbation size
    tol:         ascent stops once the step decays below this
    seed:        root of every random draw the maximizer makes, an integer
                 >= 0

    The step shrinks 0.7x per sweep without improvement, so from
    ``step_init`` 0.5 it needs at least 44 sweeps to fall below ``tol`` 1e-7.
    At the default budgets ``max_iters`` allows only 20-33 sweeps (12 to 20
    candidates each at n = 2..4), so every ascent start stops on
    ``max_iters``.

    The nonlinear power method that ``gind_eval`` runs for smooth l_p
    domains reads the fields differently: ``multistarts`` is the number of
    best seeds it iterates, ``max_iters`` caps the power steps per start (one
    scored point each), ``samples`` and ``seed`` give the same seed pool as
    the ascent, and ``step_init`` and ``tol`` are not used.  The polydisc
    search for polyhedral domains uses no budget at all.
    """

    multistarts: int = 8
    max_iters: int = 400
    samples: int = 64
    step_init: float = 0.5
    tol: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        for name in ("multistarts", "max_iters", "samples"):
            if int(getattr(self, name)) <= 0:
                raise SpecValidationError(f"budget field {name} must be positive")
            object.__setattr__(self, name, int(getattr(self, name)))
        if not 0.0 < self.step_init < math.inf:
            raise SpecValidationError("budget step_init must be positive and finite")
        if not 0.0 < self.tol < 1e-2:
            raise SpecValidationError("budget tol must lie in (0, 1e-2)")
        object.__setattr__(self, "step_init", float(self.step_init))
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            raise SpecValidationError("budget seed must be non-negative")


def default_budget(n: int, seed: int = 0) -> OptBudget:
    """Default effort for dimension n, sized for n <= 4 desk problems.

    Every ascent start at this budget stops on ``max_iters`` (400
    evaluations, 20-33 sweeps), never on ``tol``.  The power method for
    smooth l_p domains iterates the 8n best seeds for at most 400 steps
    each; most starts stop far earlier, when a step no longer gains.
    """
    return OptBudget(
        multistarts=8 * n,
        max_iters=400,
        samples=64 * n,
        step_init=0.5,
        tol=1e-7,
        seed=seed,
    )


@dataclass
class ComputationResult:
    """Value of a sphere maximization plus the point attaining it.

    ``exactness`` is one of ``exact_closed_form``, ``exact_vertex`` or
    ``lower_bound``; only the first two claim global optimality.  The witness
    always sits on the unit sphere of the domain norm, and the value is the
    objective evaluated there.
    """

    value: float
    witness: np.ndarray
    exactness: str
    evaluations: int
