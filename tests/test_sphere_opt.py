import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from normlab import (
    EXACT_CLOSED_FORM,
    EXACT_VERTEX,
    LOWER_BOUND,
    EntrywiseMax,
    EntrywiseSum,
    GIndPair,
    Lp,
    MaxColSum,
    MaxOf,
    OptBudget,
    Scaled,
    Spectral,
    WeightedLp,
    gind_eval,
    maximize_on_matrix_sphere,
    maximize_on_sphere,
    mnorm_eval,
    vnorm_eval,
)
from normlab.errors import HomogeneityError
from _oracles import dense_gind_oracle

B = OptBudget(multistarts=6, max_iters=700, samples=24, seed=3)


def _l2_of(a):
    m = np.asarray(a, dtype=np.complex128)
    return lambda x: float(np.linalg.norm(m @ x))


def test_l1_vertex_dispatch():
    a = np.array([[1, 2], [3, 4]], dtype=np.complex128)
    res = maximize_on_sphere(_l2_of(a), Lp(1), 2, B)
    assert res.exactness == EXACT_VERTEX
    assert res.value == pytest.approx(math.sqrt(20.0), rel=1e-12)
    assert np.allclose(res.witness, [0, 1])  # second column wins


def test_l2_closed_form_dispatch():
    res = gind_eval(GIndPair(Lp(2), Lp(2)), np.eye(2), B)
    assert res.exactness == EXACT_CLOSED_FORM
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_linf_ascent_matches_phase_oracle():
    # max of l1(Ax) over the linf sphere for A=[[1,1],[1,-1]] is 2*sqrt(2)
    a = np.array([[1, 1], [1, -1]], dtype=np.complex128)
    objective = lambda x: float(np.abs(a @ x).sum())
    res = maximize_on_sphere(objective, Lp(math.inf), 2, B)
    assert res.exactness == LOWER_BOUND
    oracle = dense_gind_oracle(a, math.inf, 1.0)
    assert oracle == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-6)
    assert res.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-7)


def test_homogeneity_probe_rejects():
    with pytest.raises(HomogeneityError):
        maximize_on_sphere(lambda x: float(np.abs(x[0])) + 1.0, Lp(2), 2, B)


def test_matrix_homogeneity_probe_rejects():
    with pytest.raises(HomogeneityError):
        maximize_on_matrix_sphere(
            lambda b: float(np.abs(b).sum()) + 1.0, EntrywiseSum(), 2, B
        )


def test_homogeneity_assertion_skips_only_the_probe():
    # the probe draws from its own stream, so skipping it changes nothing
    # but the 20 probe evaluations
    a = np.array([[1.0, 2.0j], [0.5, -1.0]], dtype=np.complex128)
    x = np.array([1.0, 2.0j], dtype=np.complex128)
    cases = [
        (maximize_on_sphere, _l2_of(a), Lp(1)),
        (maximize_on_sphere, _l2_of(a), Lp(math.inf)),
        (maximize_on_matrix_sphere, lambda b: float(np.abs(b @ x).sum()), EntrywiseSum()),
        (maximize_on_matrix_sphere, lambda b: float(np.abs(b @ x).sum()), EntrywiseMax()),
        (maximize_on_matrix_sphere, lambda b: float(np.linalg.norm(b @ x)), MaxColSum()),
    ]
    for maximize, objective, domain in cases:
        probed = maximize(objective, domain, 2, B)
        asserted = maximize(objective, domain, 2, B, objective_homogeneous=True)
        assert asserted.value == probed.value
        assert asserted.exactness == probed.exactness
        assert np.array_equal(asserted.witness, probed.witness)
        assert asserted.evaluations == probed.evaluations - 20


def test_monotone_improvement_over_seeds():
    a = np.array([[0.3, 1.7], [2.1, -0.4]], dtype=np.complex128)
    objective = _l2_of(a)
    res = maximize_on_sphere(objective, Lp(math.inf), 2, B)
    eye = np.eye(2, dtype=np.complex128)
    for seed in (eye[0], eye[1], np.ones(2)):
        unit = seed / vnorm_eval(Lp(math.inf), seed)
        assert res.value >= objective(unit) - 1e-12


def test_lower_bound_soundness():
    a = np.array([[1.0, 2.0j], [0.5, -1.0]], dtype=np.complex128)
    objective = _l2_of(a)
    for domain in (Lp(1), Lp(2), Lp(math.inf), Scaled(3.0, Lp(2))):
        res = maximize_on_sphere(objective, domain, 2, B)
        assert vnorm_eval(domain, res.witness) == pytest.approx(1.0, rel=1e-12)
        assert objective(res.witness) == pytest.approx(res.value, rel=1e-12)
    # the matrix climb: l1(Bx) at x = (1, 1) is at most 4/gamma on the
    # entrywise-max sphere {gamma max|b_ij| = 1}, and at most l1(x) = 2 on
    # the max-column-sum sphere, inside the gamma = 1 bound
    x = np.ones(2, dtype=np.complex128)
    objective = lambda b: float(np.abs(b @ x).sum())
    for gamma, domain in (
        (1.0, EntrywiseMax()),
        (2.0, Scaled(2.0, EntrywiseMax())),
        (0.5, Scaled(0.5, EntrywiseMax())),
        (1.0, MaxColSum()),
    ):
        res = maximize_on_matrix_sphere(objective, domain, 2, B)
        assert res.exactness == LOWER_BOUND
        assert mnorm_eval(domain, res.witness) == pytest.approx(1.0, abs=1e-12)
        assert objective(res.witness) == res.value
        assert res.value <= 4.0 / gamma * (1.0 + 1e-12)


def test_scaled_domain_vertex():
    a = np.array([[1, 2], [3, 4]], dtype=np.complex128)
    res = maximize_on_sphere(_l2_of(a), Scaled(2.0, Lp(1)), 2, B)
    assert res.exactness == EXACT_VERTEX
    assert res.value == pytest.approx(math.sqrt(20.0) / 2.0, rel=1e-12)


def test_oracle_agreement_random_instances():
    rng = np.random.default_rng(2024)
    for k in range(6):
        a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        for domain_p in (1.0, 2.0, math.inf):
            for cod_p in (1.0, 2.0):
                budget = OptBudget(multistarts=6, max_iters=400, samples=24, seed=k)
                if domain_p == cod_p == 2.0:  # the closed form lives in gind_eval
                    res = gind_eval(GIndPair(Lp(2), Lp(2)), a, budget)
                else:
                    objective = lambda x: vnorm_eval(Lp(cod_p), a @ x)
                    res = maximize_on_sphere(objective, Lp(domain_p), 2, budget)
                oracle = dense_gind_oracle(a, domain_p, cod_p)
                assert res.value == pytest.approx(oracle, rel=1e-4)


def test_determinism():
    a = np.array([[1.0, 2.0j], [0.5j, -1.0]], dtype=np.complex128)
    objective = _l2_of(a)
    r1 = maximize_on_sphere(objective, Lp(math.inf), 2, B)
    r2 = maximize_on_sphere(objective, Lp(math.inf), 2, B)
    assert r1.value == r2.value
    assert r1.evaluations == r2.evaluations
    assert np.array_equal(r1.witness, r2.witness)


def test_matrix_vertex_dispatch():
    # max of l1(Ax) over the entrywise-sum sphere is linf(x), at E_12
    x = np.array([1.0, 2.0], dtype=np.complex128)
    objective = lambda b: float(np.abs(b @ x).sum())
    res = maximize_on_matrix_sphere(objective, EntrywiseSum(), 2, B)
    assert res.exactness == EXACT_VERTEX
    assert res.value == pytest.approx(2.0, rel=1e-12)
    assert abs(res.witness[0, 1]) == pytest.approx(1.0)


def test_matrix_spectral_domain():
    # max of spectral(C_{Ax}) over the spectral sphere at x=e_1 is sqrt(2)
    x = np.array([1.0, 0.0], dtype=np.complex128)
    objective = lambda b: mnorm_eval(Spectral(), np.repeat((b @ x)[:, None], 2, axis=1))
    res = maximize_on_matrix_sphere(objective, Spectral(), 2, B)
    assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-6)


def test_matrix_phase_domain():
    # max of l1(A(1,1)) over the entrywise-max sphere is 4, at the ones matrix
    x = np.ones(2, dtype=np.complex128)
    objective = lambda b: float(np.abs(b @ x).sum())
    res = maximize_on_matrix_sphere(objective, EntrywiseMax(), 2, B)
    assert res.exactness == LOWER_BOUND
    assert res.value == pytest.approx(4.0, rel=1e-9)


def test_degenerate_budget_returns_best_seed():
    from normlab.sphere_opt import seed_pool

    a = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    objective = _l2_of(a)
    tiny = OptBudget(multistarts=2, max_iters=1, samples=1, seed=0)
    res = maximize_on_sphere(objective, Lp(math.inf), 2, tiny)
    # the homogeneity probe, every seed, then one candidate per start
    assert res.evaluations == 20 + len(seed_pool(2, tiny)) + 2
    # no worse than the best seed, the all-ones probe: l2(A(1,1)) = sqrt(5)
    assert res.value >= math.sqrt(5.0) * (1.0 - 1e-12)


def test_evaluations_counted():
    res = maximize_on_sphere(_l2_of(np.eye(2)), Lp(math.inf), 2, B)
    assert res.evaluations > 20


def test_weighted_l1_vertex_dispatch():
    from normlab import WeightedLp

    a = np.array([[1, 2], [3, 4]], dtype=np.complex128)
    res = maximize_on_sphere(_l2_of(a), WeightedLp((2.0, 1.0), 1.0), 2, B)
    assert res.exactness == EXACT_VERTEX
    # candidates are e_1/2 and e_2: max(sqrt(10)/2, sqrt(20))
    assert res.value == pytest.approx(math.sqrt(20.0), rel=1e-12)


def test_nonconvex_objective_skips_vertex_dispatch():
    # homogeneous but not convex: the l1-sphere maximum sits mid-face, so
    # vertex dispatch would be wrong; the caller must say so
    objective = lambda x: 2.0 * math.sqrt(abs(x[0]) * abs(x[1]))
    res = maximize_on_sphere(
        objective, Lp(1), 2, B, objective_convex=False
    )
    assert res.exactness == LOWER_BOUND
    assert res.value == pytest.approx(1.0, rel=1e-6)  # at |x1| = |x2| = 1/2


def test_vertex_tie_goes_to_lowest_index():
    # l2 is 1 at every l1 vertex: the tie resolves to e_1
    res = maximize_on_sphere(lambda x: float(np.linalg.norm(x)), Lp(1), 3, B)
    assert res.exactness == EXACT_VERTEX
    assert res.value == 1.0
    assert np.array_equal(res.witness, [1, 0, 0])


@pytest.mark.parametrize("gamma, x", [(2.0, [1.0, 1.0])])
def test_scaled_entrywise_max_domain_phase_climb(gamma, x):
    # on {gamma max|b_ij| = 1} l1(Bx) peaks at 4/gamma, at the all-ones
    # matrix over gamma; the sphere climb must reach it and renormalize its
    # witness by the scaled domain norm
    x = np.asarray(x, dtype=np.complex128)
    objective = lambda b: float(np.abs(b @ x).sum())
    res = maximize_on_matrix_sphere(objective, Scaled(gamma, EntrywiseMax()), 2, B)
    assert res.exactness == LOWER_BOUND
    assert res.value == pytest.approx(4.0 / gamma, rel=1e-7)
    assert np.allclose(np.abs(res.witness), 1.0 / gamma)


def test_weighted_l1_length_mismatch_raises():
    from normlab import WeightedLp
    from normlab.errors import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        maximize_on_sphere(_l2_of(np.eye(2)), WeightedLp((1.0, 2.0, 3.0), 1.0), 2, B)


@pytest.mark.parametrize("field", ["multistarts", "max_iters", "samples", "seed"])
@pytest.mark.parametrize("value", [2.7, 2.0, True, math.nan, math.inf, "3", None])
def test_budget_rejects_a_non_integer(field, value):
    from normlab.errors import SpecValidationError

    with pytest.raises(SpecValidationError, match=f"budget field {field} must be an integer"):
        OptBudget(**{field: value})


def test_budget_takes_numpy_integers_as_python_ints():
    budget = OptBudget(
        multistarts=np.int64(3), max_iters=np.int32(9), samples=np.uint8(4), seed=np.int16(1)
    )
    assert budget == OptBudget(multistarts=3, max_iters=9, samples=4, seed=1)
    assert {type(v) for v in vars(budget).values()} == {int}


MAXIMIZERS = Path(__file__).resolve().parent / "data" / "sphere_maximizers.json"
_L1_TYPE = {"l1", "wl1", "2 l1", "entrywise-sum", "2 entrywise-sum"}


def _maximizer_cases():
    """(label, call) for every recorded maximizer call: both entry points at
    n = 2 and 3 (the max domains at n = 2 only), each domain once probed and once asserted homogeneous with
    extra seeds, the l1-type domains also with ``objective_convex=False``,
    and two climbs at n = 2 also on the default budget."""
    for n in (2, 3):
        g = np.random.default_rng([2903, n])
        a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        x = g.standard_normal(n) + 1j * g.standard_normal(n)
        w = (2.0, 1.0, 0.5)[:n]
        shapes = (
            (maximize_on_sphere, _l2_of(a), [a[0], a[:, 1]], {
                "l1": Lp(1),
                "wl1": WeightedLp(w, 1),
                "2 l1": Scaled(2.0, Lp(1)),
                "linf": Lp(math.inf),
                "l2": Lp(2),
                "max(l3,l1/2)": MaxOf((Lp(3), Scaled(0.5, Lp(1)))),
            }),
            (maximize_on_matrix_sphere, lambda b, x=x: float(np.abs(b @ x).sum()), [a], {
                "entrywise-sum": EntrywiseSum(),
                "2 entrywise-sum": Scaled(2.0, EntrywiseSum()),
                "entrywise-max": EntrywiseMax(),
                "spectral": Spectral(),
                "max(spectral,entrywise-sum)": MaxOf((Spectral(), EntrywiseSum())),
            }),
        )
        for maximize, objective, seeds, domains in shapes:
            for name, domain in domains.items():
                if n == 3 and name.startswith("max("):
                    continue  # the slowest climbs; n = 2 covers their route
                variants = {
                    "probed": {},
                    "seeded": {"objective_homogeneous": True, "extra_seeds": seeds},
                }
                if name in _L1_TYPE:
                    variants["nonconvex"] = {"objective_convex": False}
                if n == 2 and name in ("linf", "entrywise-max"):
                    variants["default budget"] = {"budget": None}
                for variant, kwargs in variants.items():
                    call = functools.partial(maximize, objective, domain, n, **{"budget": B, **kwargs})
                    yield f"{maximize.__name__} {name} n={n} {variant}", call


def _hex_entries(arr) -> list:
    return [[float(z.real).hex(), float(z.imag).hex()] for z in np.asarray(arr).ravel()]


def test_maximizers_replay_recorded_bits():
    # value, witness, label and evaluation count of every call, bit for bit
    golden = json.loads(MAXIMIZERS.read_text(encoding="utf-8"))
    cases = list(_maximizer_cases())
    assert sorted(golden) == sorted(label for label, _ in cases)
    for label, call in cases:
        res, want = call(), golden[label]
        assert res.value.hex() == want["value"], label
        assert _hex_entries(res.witness) == want["witness"], label
        assert res.exactness == want["exactness"], label
        assert res.evaluations == want["evaluations"], label
