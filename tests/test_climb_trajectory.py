"""The batched sphere climb replays the one-candidate-at-a-time climb exactly.

``gind_eval`` on pairs of plain descriptors scores each sweep's candidates in
batches; an objective given as a bare callable is scored one candidate at a
time.  Both walk the same sweep in the same order, so both return the same
bits.  ``data/gind_ascent_golden.json`` pins value, witness and evaluation
count of the four ascent pairs of the benchmark's ``gind-mix`` workload at
n = 2, 3, 4, as the one-candidate-at-a-time climb computed them.  The two
l-inf-domain pairs are no longer climbed (``gind_eval`` sends them to the
polydisc branch-and-bound), so their entries serve as floors the new values
must reach.  Regenerate the climbed entries (only on purpose) with
``PYTHONPATH=src python tests/test_climb_trajectory.py``.
"""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from normlab import GIndPair, Lp, MaxOf, Scaled, default_budget, gind_eval
from normlab.gind import _quality_seeds
from normlab.sphere_opt import _on_sphere, _on_sphere_many, maximize_on_sphere
from normlab.vector_norms import vnorm_eval, vnorm_eval_many

GOLDEN = Path(__file__).resolve().parent / "data" / "gind_ascent_golden.json"

PAIRS = {
    "linf->l1": GIndPair(Lp(math.inf), Lp(1)),
    "l3->l1.5": GIndPair(Lp(3), Lp(1.5)),
    "linf->linf": GIndPair(Lp(math.inf), Lp(math.inf)),
    "max(l1,2linf)->l2": GIndPair(MaxOf((Lp(1), Scaled(2.0, Lp(math.inf)))), Lp(2)),
}
CLIMBED = ("l3->l1.5", "max(l1,2linf)->l2")


def _hex_array(a: np.ndarray) -> list:
    return [[float(z.real).hex(), float(z.imag).hex()] for z in np.asarray(a).ravel()]


def _from_hex(entries: list, shape) -> np.ndarray:
    flat = [complex(float.fromhex(re), float.fromhex(im)) for re, im in entries]
    return np.array(flat, dtype=np.complex128).reshape(shape)


def _cases():
    """(label, pair, matrix, budget) for every golden call."""
    for n in (2, 3, 4):
        g = np.random.default_rng([3901, n])
        budget = default_budget(n, int(g.integers(0, 2**31)))
        for label, pair in PAIRS.items():
            a = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2.0)
            yield f"{label} n={n}", pair, a, budget


def _compute() -> dict:
    """The golden document with the climbed entries recomputed."""
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for label, pair, a, budget in _cases():
        if label.split()[0] not in CLIMBED:
            continue
        res = gind_eval(pair, a, budget)
        doc[label] = {
            "seed": budget.seed,
            "matrix": _hex_array(a),
            "value": float(res.value).hex(),
            "witness": _hex_array(res.witness),
            "exactness": res.exactness,
            "evaluations": res.evaluations,
        }
    return doc


def test_gind_ascents_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = list(_cases())
    assert sorted(golden) == sorted(label for label, *_ in cases)
    for label, pair, a, budget in cases:
        want = golden[label]
        n = a.shape[0]
        assert want["seed"] == budget.seed
        matrix = _from_hex(want["matrix"], (n, n))
        res = gind_eval(pair, matrix, budget)
        if label.split()[0] not in CLIMBED:
            # the branch-and-bound reaches at least what the climb found
            assert res.value >= float.fromhex(want["value"]) * (1 - 1e-9), label
            assert res.exactness == "lower_bound", label
            assert vnorm_eval(pair.norm1, res.witness) == pytest.approx(1.0, rel=1e-12), label
            assert vnorm_eval(pair.norm2, matrix @ res.witness) == pytest.approx(
                res.value, rel=1e-12
            ), label
            continue
        assert float(res.value).hex() == want["value"], label
        assert res.witness.tobytes() == _from_hex(want["witness"], (n,)).tobytes(), label
        assert res.exactness == want["exactness"] == "lower_bound", label
        assert res.evaluations == want["evaluations"], label


def test_batched_and_scalar_climbs_agree_bit_for_bit():
    # gind_eval's descriptors have batch forms; the same objective handed over
    # as a bare callable takes the one-candidate-at-a-time path
    n = 3
    pair = GIndPair(Lp(3), Lp(1.5))
    a = np.random.default_rng(11).standard_normal((n, n)) + 0.5j
    budget = default_budget(n, 29)
    batched = gind_eval(pair, a, budget)
    scalar = maximize_on_sphere(
        lambda x: vnorm_eval(pair.norm2, a @ x),
        pair.norm1,
        n,
        budget,
        objective_homogeneous=True,
        extra_seeds=_quality_seeds(a),
    )
    assert float(batched.value).hex() == float(scalar.value).hex()
    assert batched.witness.tobytes() == scalar.witness.tobytes()
    assert batched.evaluations == scalar.evaluations
    assert batched.exactness == scalar.exactness == "lower_bound"


def test_batched_scorer_matches_the_scalar_one_on_rejected_rows():
    # rows with no point on the sphere (zero, below 1e-300, non-finite) are
    # None in both scorers; the others agree bit for bit
    domain = MaxOf((Lp(3), Scaled(0.5, Lp(1))))
    a = np.array([[1.0, 2.0j, 0.5], [0.0, -1.0, 1.0 + 1.0j], [2.0, 0.0, -0.5j]])
    raws = [
        np.array([1.0, -2.0j, 0.5 + 0.5j]),
        np.zeros(3, dtype=np.complex128),
        np.array([0.3, 1e-305, -1e-305j]),
        np.full(3, 1e-310 + 0j),
        np.array([1.0, complex(np.inf, 0.0), 0.0]),
        np.array([complex(np.nan, 1.0), 1.0, 1.0]),
        np.array([-0.5j, 2.0, 1.0]),
    ]
    scalar = _on_sphere(
        lambda x: vnorm_eval(Lp(1.5), a @ x), functools.partial(vnorm_eval, domain)
    )
    batched = _on_sphere_many(
        lambda xs: vnorm_eval_many(Lp(1.5), (a @ xs[..., None])[..., 0]), domain
    )
    with np.errstate(all="ignore"):
        want = [scalar(raw) for raw in raws]
        got = batched(raws)
    assert [w is None for w in want] == [False, True, False, True, True, True, False]
    for w, g in zip(want, got):
        if w is None:
            assert g is None
        else:
            assert float(w[0]).hex() == float(g[0]).hex()
            assert w[1].tobytes() == g[1].tobytes()


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_compute(), indent=1) + "\n", encoding="utf-8")
