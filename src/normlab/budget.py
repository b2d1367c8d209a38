"""Optimization budgets and the result record returned by every maximizer."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import SpecValidationError

EXACT_CLOSED_FORM = "exact_closed_form"
EXACT_VERTEX = "exact_vertex"
LOWER_BOUND = "lower_bound"


@dataclass(frozen=True)
class OptBudget:
    """Effort knobs for sphere maximization, each a Python or numpy integer.

    multistarts: ascent restarts kept from the seed pool
    max_iters:   candidate evaluations per ascent start
    samples:     random seed points drawn before the ascent
    seed:        root of every random draw the maximizer makes, >= 0

    Only the sphere climbs read a budget: the polydisc search for
    polyhedral domains and the power method for smooth l_p domains use none.
    """

    multistarts: int = 8
    max_iters: int = 400
    samples: int = 64
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise SpecValidationError(
                    f"budget field {f.name} must be an integer, got {value!r}"
                )
            object.__setattr__(self, f.name, int(value))
        for name in ("multistarts", "max_iters", "samples"):
            if getattr(self, name) <= 0:
                raise SpecValidationError(f"budget field {name} must be positive")
        if self.seed < 0:
            raise SpecValidationError("budget seed must be non-negative")


def default_budget(n: int, seed: int = 0) -> OptBudget:
    """Default effort for dimension n, sized for n <= 4 desk problems.

    An ascent start stops on ``max_iters`` (400 evaluations, 20-33 sweeps
    at n = 2..4) unless it fails every sweep, as at n = 1, where its step
    decays below the climb's floor first.
    """
    return OptBudget(multistarts=8 * n, max_iters=400, samples=64 * n, seed=seed)


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
