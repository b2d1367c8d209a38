import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from normlab import (
    EigResult,
    RandomStream,
    hermitian_top_eig,
    mat_apply,
    sample_matrices,
    sample_matrix,
    sample_vector,
    sample_vectors,
)
from normlab.core import _start_vector, conj_phases, hermitian_top_eigenvectors
from normlab.errors import DimensionMismatchError, NonConvergenceError, NonFiniteInputError


def test_mat_apply_identity():
    assert np.allclose(mat_apply(np.eye(2), [3, 4]), [3, 4])


def test_mat_apply_column_selection():
    assert np.allclose(mat_apply([[1, 2], [3, 4]], [1, 0]), [1, 3])


def test_mat_apply_all_ones():
    assert np.allclose(mat_apply([[1, 1], [1, 1]], [1, 1]), [2, 2])


def test_mat_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        mat_apply([[1, 2], [3, 4]], [1, 0, 0])
    with pytest.raises(DimensionMismatchError):
        mat_apply([[1, 2, 3], [4, 5, 6]], [1, 0])


def test_mat_apply_linearity():
    g = RandomStream(11).generator()
    for n in (2, 3, 4):
        for _ in range(50):
            a = sample_matrix(g, n)
            x, y = sample_vector(g, n), sample_vector(g, n)
            al = complex(g.standard_normal(), g.standard_normal())
            be = complex(g.standard_normal(), g.standard_normal())
            lhs = mat_apply(a, al * x + be * y)
            rhs = al * mat_apply(a, x) + be * mat_apply(a, y)
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_samplers_are_the_two_call_forms():
    # one draw of the real parts, then the imaginary ones: the bits and the
    # stream state of drawing each part in its own call
    for n in (1, 2, 3, 4, 7):
        for sampler, shape in ((sample_vector, (n,)), (sample_matrix, (n, n))):
            g, h = np.random.default_rng([1915, n]), np.random.default_rng([1915, n])
            for _ in range(300):
                want = (h.standard_normal(shape) + 1j * h.standard_normal(shape)) / np.sqrt(2.0)
                assert sampler(g, n).tobytes() == want.tobytes(), (sampler.__name__, n)
            assert g.bit_generator.state == h.bit_generator.state, (sampler.__name__, n)



def test_stacked_samplers_are_the_two_call_forms():
    # count samples shaped from one draw: the bits and the stream state of
    # drawing each part of each sample in its own call
    for n in (1, 2, 3, 4, 7):
        for count in (0, 1, 2, 5, 400):
            for sampler, shape in ((sample_vectors, (n,)), (sample_matrices, (n, n))):
                g = np.random.default_rng([1916, n, count])
                h = np.random.default_rng([1916, n, count])
                got = sampler(g, n, count)
                want = [
                    (h.standard_normal(shape) + 1j * h.standard_normal(shape)) / np.sqrt(2.0)
                    for _ in range(count)
                ]
                assert got.shape == (count, *shape)
                assert [m.tobytes() for m in got] == [w.tobytes() for w in want], (n, count)
                assert g.bit_generator.state == h.bit_generator.state, (sampler.__name__, n)


def test_samplers_reject_bad_sizes_before_drawing():
    g = np.random.default_rng(0)
    state = g.bit_generator.state
    for draw in (
        lambda: sample_vector(g, 0),
        lambda: sample_vector(g, -1),
        lambda: sample_matrix(g, 0),
        lambda: sample_vectors(g, 0, 3),
        lambda: sample_vectors(g, 2, -1),
        lambda: sample_matrices(g, 2, -1),
    ):
        with pytest.raises(DimensionMismatchError):
            draw()
    assert g.bit_generator.state == state

def test_top_eig_identity():
    res = hermitian_top_eig(np.eye(2))
    assert res.eigenvalue == pytest.approx(1.0, abs=1e-10)
    assert res.residual <= 1e-10 * max(1.0, res.eigenvalue)


def test_top_eig_diagonal():
    res = hermitian_top_eig(np.diag([1.0, 4.0]))
    assert res.eigenvalue == pytest.approx(4.0, abs=1e-9)


def test_top_eig_characteristic_polynomial_oracle():
    # char. polynomial of [[10,14],[14,20]] is l^2 - 30 l + 4; the larger
    # root by the quadratic formula is the independent oracle
    expected = (30.0 + math.sqrt(30.0**2 - 4.0 * 4.0)) / 2.0
    res = hermitian_top_eig([[10, 14], [14, 20]])
    assert res.eigenvalue == pytest.approx(expected, rel=1e-10)
    assert res.eigenvalue == pytest.approx(29.8661, abs=5e-5)


def test_top_eig_rayleigh_lower_bound():
    g = RandomStream(7).generator()
    for n in (2, 3, 4):
        for _ in range(20):
            a = sample_matrix(g, n)
            h = a.conj().T @ a
            res = hermitian_top_eig(h)
            v = sample_vector(g, n)
            rayleigh = float(np.vdot(v, h @ v).real / np.vdot(v, v).real)
            assert res.eigenvalue >= rayleigh - 1e-8 * max(1.0, abs(rayleigh))


def test_top_eig_clustered_spectrum():
    # gaps on both sides of the 1e-12 tolerance that merges top eigenvalues
    for eps in (0.0, 1e-12, 1e-8, 1e-5, 1e-3):
        res = hermitian_top_eig(np.diag([1.0, 1.0 - eps, 0.5]))
        assert res.eigenvalue == pytest.approx(1.0, abs=1e-9)


def test_top_eig_zero_matrix():
    res = hermitian_top_eig(np.zeros((3, 3)))
    assert res.eigenvalue == 0.0
    assert res.residual == 0.0


def test_top_eig_determinism():
    h = np.array([[3.0, 1.0 + 2.0j], [1.0 - 2.0j, 5.0]])
    a = hermitian_top_eig(h, rng=RandomStream(42))
    b = hermitian_top_eig(h, rng=RandomStream(42))
    assert a.eigenvalue == b.eigenvalue
    assert a.iterations == b.iterations
    assert a.residual == b.residual
    assert np.array_equal(a.eigenvector, b.eigenvector)


def test_top_eig_rejects_non_hermitian():
    with pytest.raises(DimensionMismatchError):
        hermitian_top_eig([[1, 2], [3, 4]])


def test_top_eig_non_finite_raises_at_once():
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.inf)):
        h = np.array([[2, 1], [1, 2]], dtype=np.complex128)
        h[0, 0] = bad
        with pytest.raises(NonFiniteInputError, match="finite"):
            hermitian_top_eig(h)


def test_top_eig_solver_failure_is_non_convergence(monkeypatch):
    def failing(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NonConvergenceError, match="eigen solve failed"):
        hermitian_top_eig([[2, 1], [1, 2]])


def test_top_eig_agrees_with_lapack_eigenvalues():
    g = RandomStream(19).generator()
    for n in (1, 2, 3, 4):
        for _ in range(50):
            a = sample_matrix(g, n)
            h = a.conj().T @ a
            res = hermitian_top_eig(h, rng=RandomStream(n))
            top = float(np.linalg.eigvalsh(h)[-1])
            assert abs(res.eigenvalue - top) <= 1e-14 * top
            assert res.residual <= 1e-12 * max(1.0, res.eigenvalue)
            assert res.iterations == 1
            # the phase convention: the start vector has a real positive
            # component along the returned eigenvector
            overlap = np.vdot(_start_vector(RandomStream(n), n), res.eigenvector)
            assert overlap.real > 0
            assert abs(overlap.imag) <= 1e-14


def test_top_eig_identity_returns_start_vector():
    for n in (1, 2, 3, 4):
        res = hermitian_top_eig(np.eye(n), rng=RandomStream(3))
        start = _start_vector(RandomStream(3), n)
        assert res.eigenvalue == 1.0
        assert np.allclose(res.eigenvector, start, rtol=0.0, atol=1e-15)


def test_top_eig_repeated_top_projects_start_vector():
    res = hermitian_top_eig(np.diag([1.0, 1.0, 0.5]), rng=RandomStream(4))
    expected = _start_vector(RandomStream(4), 3).copy()
    expected[2] = 0.0
    expected /= np.linalg.norm(expected)
    assert res.eigenvalue == 1.0
    assert np.allclose(res.eigenvector, expected, rtol=0.0, atol=1e-15)
    assert res.residual <= 1e-15


def test_top_eigenvectors_of_a_stack_are_the_scalar_ones(monkeypatch):
    # one stacked solve, and every row is hermitian_top_eig's eigenvector bit
    # for bit: zero matrices and repeated top eigenvalues included
    g = RandomStream(23).generator()
    rng = RandomStream(5)
    for n in (1, 2, 3, 4):
        mats = [sample_matrix(g, n) for _ in range(6)]
        u = np.linalg.qr(sample_matrix(g, n))[0]
        mats += [np.zeros((n, n)), np.eye(n), u @ np.diag([2.0] * (n - 1) + [1.0]) @ u.conj().T]
        hs = np.array([m.conj().T @ m for m in mats])
        for h, v in zip(hs, hermitian_top_eigenvectors(hs, rng)):
            assert v.tobytes() == hermitian_top_eig(h, rng=rng).eigenvector.tobytes()
    assert hermitian_top_eigenvectors(np.zeros((0, 2, 2), dtype=np.complex128)).shape == (0, 2)
    bad = np.array([np.eye(2), [[1, 0], [0, np.nan]]], dtype=np.complex128)
    with pytest.raises(NonFiniteInputError, match="finite"):
        hermitian_top_eigenvectors(bad)

    def failing(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NonConvergenceError, match="eigen solve failed"):
        hermitian_top_eigenvectors(np.eye(2, dtype=np.complex128)[None])


def test_conj_phases_of_entries_without_a_finite_reciprocal():
    # |z| <= 2^-1024 has no finite reciprocal: such an entry is scaled by
    # 2^600 first; every other entry is divided as it stands, bit for bit
    z = np.array(
        [3 + 4j, 0, -2.5e-308 + 1e-320j, 1e-300j, 1e-310, -1e-310j, 3e-320 - 4e-320j, 5e-324],
        dtype=np.complex128,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = conj_phases(z)
    assert w[1] == 1.0
    plain = [0, 2, 3]
    assert np.array_equal(w[plain], np.conj(z[plain]) / np.abs(z[plain]))
    assert np.allclose(np.abs(w), 1.0, rtol=0, atol=1e-15)
    assert np.allclose(w[4:], [1.0, 1j, 0.6 + 0.8j, 1.0], rtol=0, atol=1e-15)


def test_conj_phases_of_tiny_entries_beside_huge_ones():
    # only the tiny entries are scaled, so a huge one beside them does not
    # overflow, in one matrix or across a stack
    z = np.array([[[1e-310, 2e200j], [0, 0]], [[0, -1.7e308], [-1e-310j, 0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = conj_phases(z)
    assert np.allclose(w, [[[1, -1j], [1, 1]], [[1, -1], [1j, 1]]], rtol=0, atol=1e-15)


def test_randomstream_identical_draws():
    a = RandomStream(123).generator().standard_normal(5)
    b = RandomStream(123).generator().standard_normal(5)
    assert np.array_equal(a, b)


def test_randomstream_children_differ():
    root = RandomStream(5)
    a = root.child(0).generator().standard_normal(4)
    b = root.child(1).generator().standard_normal(4)
    assert not np.array_equal(a, b)
    again = root.child(0).generator().standard_normal(4)
    assert np.array_equal(a, again)


def test_randomstream_derive_seed_stable():
    s = RandomStream(9, (1, 2))
    assert s.derive_seed() == s.derive_seed()
    assert s.derive_seed() != RandomStream(9, (1, 3)).derive_seed()


def test_eigresult_fields():
    res = hermitian_top_eig(np.diag([2.0, 1.0]))
    assert isinstance(res, EigResult)
    assert res.iterations >= 1
    assert res.eigenvector.shape == (2,)


def test_top_eig_hermitian_tolerance_boundary():
    h = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=np.complex128)
    bumped = h.copy()
    bumped[0, 1] += 1e-14  # inside the 1e-12 relative band
    res = hermitian_top_eig(bumped)
    assert res.eigenvalue == pytest.approx(3.0, abs=1e-9)
    bumped[0, 1] += 1e-9  # well outside
    with pytest.raises(DimensionMismatchError):
        hermitian_top_eig(bumped)


# the imports normlab defers into function bodies to break an import cycle,
# as (module, function, imported module); a new one is a new cycle.  The two
# left are the mutual recursion of evaluating descriptors: an Extracted norm's
# vnorm_eval_many calls eval_role1/eval_role2_many, which evaluate its matrix
# source, and a GInd's mnorm_eval_many calls gind_eval_many, which evaluates
# its vector norms
DEFERRED_IMPORTS = {
    ("matrix_norms", "mnorm_eval_many", "gind"),
    ("vector_norms", "vnorm_eval_many", "extraction"),
}


def _deferred_imports(node, module: str, function: str | None = None):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _deferred_imports(child, module, child.name)
            continue
        if function is not None and isinstance(child, (ast.Import, ast.ImportFrom)):
            for alias in child.names:
                yield module, function, getattr(child, "module", None) or alias.name
        yield from _deferred_imports(child, module, function)


def test_no_new_deferred_imports():
    package = Path(__file__).resolve().parents[1] / "src" / "normlab"
    found = {
        imported
        for path in sorted(package.glob("*.py"))
        for imported in _deferred_imports(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert found == DEFERRED_IMPORTS


def _call_sites(names) -> dict:
    """How many calls to each of the named functions the package makes."""
    package = Path(__file__).resolve().parents[1] / "src" / "normlab"
    calls = {name: 0 for name in names}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in calls:
                    calls[name] += 1
    return calls


def test_one_sphere_maximizer_body():
    # the probe, the scorer and the climb are each called from one place, the
    # body both sphere maximizers share, so the two shapes cannot fork again
    steps = ("_climb", "_check_homogeneity", "_on_sphere")
    assert _call_sites(steps) == {name: 1 for name in steps}


def test_one_body_per_induced_norm_route():
    # the closed form, the polyhedral search and the power method are each
    # called from one place, the route choice of gind_eval_many, so no scalar
    # route body can come back beside the one that serves a stack
    routes = ("_l2_closed_form", "_polyhedral_search", "_power_search")
    assert _call_sites(routes) == {name: 1 for name in routes}


def _isinstance_calls(module: str, function: str) -> list:
    """The isinstance calls in the body of one function of the package."""
    path = Path(__file__).resolve().parents[1] / "src" / "normlab" / f"{module}.py"
    (body,) = [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    return [
        node
        for node in ast.walk(body)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
    ]


def test_one_body_per_matrix_norm_kernel():
    # the eigen solve has one call site, which the eigenvalues of a stack,
    # its eigenvectors and a lone eigenpair share, and mnorm_eval dispatches
    # on no descriptor class: it is the stack of one of mnorm_eval_many
    assert _call_sites(("eigh",)) == {"eigh": 1}
    assert not _isinstance_calls("matrix_norms", "mnorm_eval")


def test_one_body_per_vector_norm_kernel():
    # vnorm_eval dispatches on no descriptor class: it is the one-row case of
    # vnorm_eval_many, which evaluates every descriptor
    assert not _isinstance_calls("vector_norms", "vnorm_eval")


# the private names one normlab module imports from another, as (importing
# module, source module, name); the list may only shrink
PRIVATE_IMPORTS = {
    ("verification", "extraction", "_WITNESS_TIE"),
    ("verification", "extraction", "_fixed_probes"),
    ("verification", "extraction", "_probe_ratios"),
    ("verification", "extraction", "_probe_report"),
    ("verification", "extraction", "_random_probes"),
}


def test_no_new_private_imports():
    package = Path(__file__).resolve().parents[1] / "src" / "normlab"
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found.update(
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert found <= PRIVATE_IMPORTS, sorted(found - PRIVATE_IMPORTS)
    assert found == PRIVATE_IMPORTS, f"drop {sorted(PRIVATE_IMPORTS - found)} from the list"
