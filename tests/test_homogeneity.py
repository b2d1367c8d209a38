"""The objectives built by ``gind_eval`` and by the role-1 climb
``extraction._role1_ascent`` are absolutely homogeneous.

Both callers assert homogeneity to the sphere maximizers, which then skip
their runtime probe; ``gind_eval``'s polydisc search relies on it too.
These tests run that probe, at its own 1e-8 tolerance, on every objective
the two callers build for the descriptors below, at n = 2 and n = 3.  The
climb is driven directly, because ``eval_role1`` answers these catalog
sources in closed form.
"""

import math

import pytest

from normlab import (
    EntrywiseMax,
    EntrywiseSum,
    GIndPair,
    Lp,
    MaxColSum,
    MaxOf,
    MaxRowSum,
    OptBudget,
    RandomStream,
    Scaled,
    Spectral,
    WeightedLp,
    extract_norm1,
    extract_norm2,
    extraction,
    gind,
    sample_matrix,
    sample_vector,
)
from normlab.sphere_opt import _check_homogeneity

INNER = OptBudget(multistarts=1, max_iters=12, samples=2, seed=31)
OUTER = OptBudget(multistarts=1, max_iters=30, samples=2, seed=32)


def _probe_objectives(monkeypatch, module, name, draw) -> list[int]:
    """Rebind ``module.name`` so that each objective it receives is probed
    for homogeneity before the real maximizer runs; returns the list the
    probes' evaluation counts are appended to."""
    real = getattr(module, name)
    probed: list[int] = []

    def probing(objective, domain_norm, n, *args, **kwargs):
        g = RandomStream(777, (len(probed),)).generator()
        probed.append(_check_homogeneity(objective, lambda gen: draw(gen, n), g))
        return real(objective, domain_norm, n, *args, **kwargs)

    monkeypatch.setattr(module, name, probing)
    return probed


def _codomains(n: int):
    """Codomains with a batch form (extracted catalog norms among them, via
    ``concrete``), then two extracted norms of a source off the catalog."""
    weights = (2.0, 1.0, 0.5)[:n]
    role_source = MaxOf((MaxColSum(), MaxRowSum()))
    off_catalog = MaxOf((EntrywiseMax(), MaxColSum()))
    return [
        Lp(1),
        Lp(3),
        Lp(math.inf),
        WeightedLp(weights, 1.5),
        Scaled(2.0, Lp(2)),
        MaxOf((Lp(1), Scaled(2.0, Lp(math.inf)))),
        extract_norm1(role_source, INNER),
        extract_norm2(role_source, INNER),
        extract_norm1(off_catalog, INNER),
        extract_norm2(off_catalog, INNER),
    ]


def _probe_polydisc_objectives(monkeypatch) -> list[int]:
    """Rebind ``gind.maximize_on_polydisc`` so that the batch objective it
    receives is probed, one row at a time, like ``_probe_objectives``."""
    real = gind.maximize_on_polydisc
    probed: list[int] = []

    def probing(objective_many, radii, *args):
        g = RandomStream(778, (len(probed),)).generator()
        objective = lambda x: float(objective_many(x[None, :])[0])
        probed.append(_check_homogeneity(objective, lambda gen: sample_vector(gen, len(radii)), g))
        return real(objective_many, radii, *args)

    monkeypatch.setattr(gind, "maximize_on_polydisc", probing)
    return probed


@pytest.mark.parametrize("n", [2, 3])
def test_gind_objectives_are_homogeneous(monkeypatch, n):
    # on the l-inf domain, codomains with a batch form go to the polydisc
    # search, the two off-catalog extracted ones to the sphere climb; at
    # n = 2, 2 l2 takes the two-column closed form, which calls no objective
    monkeypatch.setattr(extraction, "_ROLE1_CACHE", {})
    on_sphere = _probe_objectives(monkeypatch, gind, "maximize_on_sphere", sample_vector)
    on_polydisc = _probe_polydisc_objectives(monkeypatch)
    g = RandomStream(33, (n,)).generator()
    codomains = _codomains(n)
    for codomain in codomains:
        gind.gind_eval(GIndPair(Lp(math.inf), codomain), sample_matrix(g, n), OUTER)
    assert on_polydisc == [20] * (len(codomains) - 2 - (n == 2))
    assert on_sphere == [20] * 2


@pytest.mark.parametrize("n", [2, 3])
def test_role1_objectives_are_homogeneous(monkeypatch, n):
    monkeypatch.setattr(extraction, "_ROLE1_CACHE", {})
    probed = _probe_objectives(
        monkeypatch, extraction, "maximize_on_matrix_sphere", sample_matrix
    )
    sources = [
        EntrywiseSum(),
        EntrywiseMax(),
        MaxColSum(),
        MaxRowSum(),
        Spectral(),
        MaxOf((MaxColSum(), MaxRowSum())),
        Scaled(2.0, Spectral()),
    ]
    g = RandomStream(34, (n,)).generator()
    for source in sources:
        extraction._role1_ascent(source, INNER, sample_vector(g, n))
    assert probed == [20] * len(sources)
