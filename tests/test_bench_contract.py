"""The names the benchmark in ``perfbench/`` reaches into still exist and work.

``perfbench`` wraps public functions by module and name, clears caches by
name and builds its workloads from the public API.  A rename in ``normlab``
would otherwise surface only when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _normlab_bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "normlab" or name.startswith("normlab."))
        for attr, value in vars(module).items()
    }


def test_traced_functions_exist():
    for module_name, fn_name in tracer.KERNELS + tracer.SPANS:
        module = importlib.import_module(f"normlab.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"normlab.{module_name}.{fn_name}"


def test_workload_build_and_cache_clearing(tmp_path):
    workloads.clear_caches()
    built = workloads.build("gind-mix", 3001, str(tmp_path))
    assert set(built.kinds) == {"exact", "ascent", "eval"}


def test_tracer_install_uninstall_restores_bindings():
    before = _normlab_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        rebound = {key for key, value in _normlab_bindings().items() if value is not before.get(key)}
        for module_name, fn_name in tracer.KERNELS + tracer.SPANS:
            assert (f"normlab.{module_name}", fn_name) in rebound
    finally:
        t.uninstall()
    after = _normlab_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_verify_reports_through_the_traced_names(monkeypatch, tmp_path, capsys):
    # demo-suite and t23-catalog count these two spans; verify must call them
    # through the ``formats`` module, once each per report
    from normlab import cli
    from normlab.verification import CaseResult, SuiteReport

    tiny = SuiteReport("paper-demos", 0, [CaseResult("stub", "pass", {"x": 1.0})], 0.0)
    monkeypatch.setattr(cli, "paper_demo_suite", lambda seed: tiny)
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.run_command(["verify", "--suite", "paper-demos", "--report", str(tmp_path / "r.json")])
    finally:
        t.uninstall()
    assert code == 0
    assert t.totals["formats.suite_report_to_doc"][0] == 1
    assert t.totals["formats.dumps_report"][0] == 1


def test_role1_climbs_only_off_the_catalog():
    # a catalog source is answered in closed form, so its traced role-1 call
    # has no matrix-sphere child span; the tracer counts such a call as a hit
    from normlab import extraction
    from normlab.matrix_norms import EntrywiseMax, MaxColSum, Spectral
    from normlab.vector_norms import MaxOf

    x = np.array([1.0 + 0.5j, -2.0])
    extraction.clear_role1_cache()
    t = tracer.Tracer()
    t.install()
    try:
        extraction.eval_role1(Spectral(), extraction.DEFAULT_INNER_BUDGET, x)
        extraction.eval_role1(MaxOf((EntrywiseMax(), MaxColSum())), extraction.DEFAULT_INNER_BUDGET, x)
    finally:
        t.uninstall()
    role1 = [index for index, span in enumerate(t.spans) if span.name == "extraction.eval_role1"]
    climbs = [span.parent for span in t.spans if span.name == "sphere_opt.maximize_on_matrix_sphere"]
    assert len(role1) == 2
    assert climbs == [role1[1]]
    assert t.deterministic_counts()["extraction.eval_role1.hits"] == 1


def test_batched_ascent_bypasses_the_scalar_kernel():
    # the power method scores its seeds through vnorm_eval_many and its
    # steps through norming_functionals_many, neither of which the tracer
    # wraps; only the final witness is scored through vnorm_eval
    from normlab import GIndPair, Lp, default_budget, gind_eval

    a = np.array([[1.0 + 0.5j, -2.0], [0.25j, 1.5]])
    t = tracer.Tracer()
    t.install()
    try:
        res = gind_eval(GIndPair(Lp(3), Lp(1.5)), a, default_budget(2))
    finally:
        t.uninstall()
    assert res.exactness == "lower_bound"
    assert t.totals["vector_norms.vnorm_eval"][0] < 100


def test_gind_mix_ascent_shapes_keep_their_label_and_witness_checks(tmp_path):
    # gind-mix pins "lower_bound" on its four ascent shapes, the two l-inf
    # domain ones (linf->l1, linf->linf) included, which the polydisc search
    # now answers; a stronger label there has to land with a benchmark change
    mix = workloads.build("gind-mix", 3001, str(tmp_path))
    ascents = [call for call in mix.calls if call.kind == "ascent"]
    shapes = {call.label.split()[0] for call in ascents}
    assert shapes == {"linf->l1", "l3->l1.5", "linf->linf", "max(l1,2linf)->l2"}
    checks = workloads.Checks()
    for call in ascents:
        result = call.run()
        assert result.exactness == "lower_bound", call.label
        call.check(result, checks)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.messages


def test_traced_l2_closed_form_counts_eigen_solves():
    # the tracer reads ``EigResult.iterations`` after every eigen solve; a
    # missing field would break only traced benchmark runs.  A spectral norm
    # value and the l2 -> l2 induced norm solve over stacks, past the traced
    # name; the power method's spectral seed solves through it, once
    from normlab import GIndPair, Lp, gind_eval

    a = np.array([[1.0 + 0.5j, -2.0], [0.25j, 1.5]])
    t = tracer.Tracer()
    t.install()
    try:
        value = gind_eval(GIndPair(Lp(2), Lp(2)), a).value
        assert "core.hermitian_top_eig" not in t.totals
        gind_eval(GIndPair(Lp(3), Lp(1.5)), a)
    finally:
        t.uninstall()
    assert abs(value - np.linalg.norm(a, 2)) <= 1e-14 * value
    assert t.totals["core.hermitian_top_eig"][0] == 1
    assert t.deterministic_counts()["core.hermitian_top_eig.iters"] == 1
