"""The lockstep sphere climb replays the one-candidate-at-a-time climb exactly.

``gind_eval`` on a batch pair that still climbs (a MaxOf domain with a smooth
part) runs its starts in lockstep and scores the rest of each sweep of every
start in one call per round; an objective given as a bare callable is scored
one candidate at a time.  Both walk each start's sweeps in the same order, so
both return the same bits.

``data/gind_ascent_golden.json`` holds value, witness and evaluation count of
the four shapes of the benchmark's ``gind-mix`` workload that used to climb,
at n = 2, 3, 4, as the one-candidate-at-a-time climb computed them.  None of
them climbs any more: the l-inf and max(l1, 2 l-inf) domains get polydisc
branch-and-bound searches and the l3 domain the nonlinear power method.  So
every entry is a floor the new value must reach.
"""

import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from normlab import GIndPair, Lp, MaxOf, OptBudget, Scaled, default_budget, gind_eval
from normlab.gind import _quality_seeds
from normlab.sphere_opt import (
    _entry_moves_many,
    _on_sphere,
    _on_sphere_many,
    _sphere_moves,
    maximize_on_sphere,
)
from normlab.vector_norms import vnorm_eval, vnorm_eval_many

GOLDEN = Path(__file__).resolve().parent / "data" / "gind_ascent_golden.json"

PAIRS = {
    "linf->l1": GIndPair(Lp(math.inf), Lp(1)),
    "l3->l1.5": GIndPair(Lp(3), Lp(1.5)),
    "linf->linf": GIndPair(Lp(math.inf), Lp(math.inf)),
    "max(l1,2linf)->l2": GIndPair(MaxOf((Lp(1), Scaled(2.0, Lp(math.inf)))), Lp(2)),
}
# the pair the bit-for-bit guard climbs both ways; the MaxOf domain holds an
# l3 part, so it is neither polyhedral nor a plain l_p domain and still climbs
LOCKSTEP = {
    "max(l3,l1/2)->l1.5": GIndPair(MaxOf((Lp(3), Scaled(0.5, Lp(1)))), Lp(1.5)),
}


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
        # the searches reach at least what the climb found
        assert res.value >= float.fromhex(want["value"]) * (1 - 1e-9), label
        assert res.exactness == want["exactness"] == "lower_bound", label
        assert vnorm_eval(pair.norm1, res.witness) == pytest.approx(1.0, rel=1e-12), label
        assert vnorm_eval(pair.norm2, matrix @ res.witness) == pytest.approx(
            res.value, rel=1e-12
        ), label


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("cut", ["default", "one start", "mid-sweep"])
@pytest.mark.parametrize("zero_row", [False, True])
def test_batched_and_scalar_climbs_agree_bit_for_bit(n, cut, zero_row):
    # gind_eval's descriptors have batch forms, so its starts climb in
    # lockstep; the same objective handed over as a bare callable takes the
    # one-candidate-at-a-time path.  max_iters = 7 stops every start inside
    # its first sweep
    default = default_budget(n, 29)
    budget = {
        "default": default,
        "one start": dataclasses.replace(default, multistarts=1),
        "mid-sweep": OptBudget(multistarts=3, max_iters=7, samples=8, seed=5),
    }[cut]
    a = np.random.default_rng(11).standard_normal((n, n)) + 0.5j
    if zero_row:
        a[n // 2] = 0.0
    for label, pair in LOCKSTEP.items():
        batched = gind_eval(pair, a, budget)
        scalar = maximize_on_sphere(
            lambda x: vnorm_eval(pair.norm2, a @ x),
            pair.norm1,
            n,
            budget,
            objective_homogeneous=True,
            extra_seeds=_quality_seeds(a),
        )
        assert float(batched.value).hex() == float(scalar.value).hex(), label
        assert batched.witness.tobytes() == scalar.witness.tobytes(), label
        assert batched.evaluations == scalar.evaluations, label
        assert batched.exactness == scalar.exactness == "lower_bound", label


def test_batched_scorer_matches_the_scalar_one_on_rejected_rows():
    # rows with no point on the sphere (zero, below 1e-300, non-finite) are
    # None for the scalar scorer and not ok for the array one; on the other
    # rows values and points agree bit for bit
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
        ok, values, points = batched(np.array(raws))
    assert [w is not None for w in want] == ok.tolist() == [
        True, False, True, False, False, False, True
    ]
    for w, good, value, point in zip(want, ok, values, points):
        if good:
            assert float(w[0]).hex() == float(value).hex()
            assert w[1].tobytes() == point.tobytes()


_EDGE_PARTS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-300, 1e-300, 0.75, -1.3, 1e300, -3e300)


@pytest.mark.parametrize("step", [0.5, 0.35, 0.5 * 1.3**4, 3e-7])
def test_array_entry_moves_match_the_scalar_ones(step):
    # the lockstep climb rotates entries in explicit real arithmetic, since
    # numpy's array complex multiply may fuse (FMA) and differ in the last
    # bit from the scalar np.complex128 * complex of _sphere_moves; signed
    # zeros, subnormals and magnitudes near 1e+-300 included
    parts = list(_EDGE_PARTS) + np.random.default_rng(7).standard_normal(40).tolist()
    entries = np.array([complex(re, im) for re in parts for im in parts])
    entry_moves, _ = _sphere_moves(np.ones(1, dtype=np.complex128), step)
    want = np.array([entry_moves(e) for e in entries], dtype=np.complex128)
    got = _entry_moves_many(entries[None, :], np.array([step]), np.array([step]))[0]
    assert got.tobytes() == want.tobytes()
