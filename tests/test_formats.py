import json
import math
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import (
    EntrywiseMax,
    EntrywiseSum,
    GInd,
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
    chain_compare,
    dominance_check,
    extract_norm1,
)
from normlab import Extracted, formats
from normlab.errors import DocumentParseError
from normlab.matrix_norms import MatrixNormSpec
from normlab.vector_norms import VectorNormSpec
from normlab.verification import paper_demo_suite


SPECS = [
    Lp(1),
    Lp(2.5),
    Lp(math.inf),
    WeightedLp((1.0, 2.0), 3.0),
    Scaled(2.0, Lp(2)),
    MaxOf((Lp(1), Scaled(0.5, Lp(math.inf)))),
    EntrywiseSum(),
    EntrywiseMax(),
    MaxColSum(),
    MaxRowSum(),
    Spectral(),
    Scaled(3.0, Spectral()),
    MaxOf((MaxColSum(), MaxRowSum())),
    GInd(Lp(math.inf), Scaled(2.0, Lp(2))),
    extract_norm1(Spectral(), OptBudget(seed=3)),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
def test_spec_documents_round_trip(spec):
    doc = formats.norm_spec_to_doc(spec)
    assert formats.norm_spec_from_doc(doc) == spec
    # and through actual JSON text
    assert formats.parse_norm_spec(formats.print_norm_spec(spec)) == spec


_BUDGETS = st.builds(
    OptBudget,
    multistarts=st.integers(1, 64),
    max_iters=st.integers(1, 1000),
    samples=st.integers(1, 256),
    seed=st.integers(0, 2**63),
)
_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
_P = st.one_of(st.just(math.inf), st.floats(min_value=1.0, max_value=1e6))


def _descriptors(depth: int, matrix: bool):
    """Descriptor trees of one family: its leaves under Scaled and MaxOf,
    with GInd (matrix) or Extracted (vector) leaves nesting ``depth`` deep."""
    if matrix:
        leaves = st.sampled_from([EntrywiseSum(), EntrywiseMax(), MaxColSum(), MaxRowSum(), Spectral()])
        if depth:
            leaves |= st.builds(GInd, _descriptors(depth - 1, False), _descriptors(depth - 1, False))
    else:
        leaves = st.builds(Lp, _P) | st.builds(
            WeightedLp, st.lists(_POSITIVE, min_size=1, max_size=4).map(tuple), _P
        )
        if depth:
            leaves |= st.builds(
                Extracted, st.sampled_from([1, 2]), _descriptors(depth - 1, True), _BUDGETS
            )
    return st.recursive(
        leaves,
        lambda inner: st.builds(Scaled, _POSITIVE, inner)
        | st.lists(inner, min_size=1, max_size=3).map(lambda parts: MaxOf(tuple(parts))),
        max_leaves=4,
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_descriptors(2, False) | _descriptors(2, True))
def test_random_descriptor_trees_round_trip(spec):
    assert formats.norm_spec_from_doc(formats.norm_spec_to_doc(spec)) == spec
    assert formats.parse_norm_spec(formats.print_norm_spec(spec)) == spec


def test_every_descriptor_class_has_one_kind_row():
    classes = [cls for cls, _ in formats._KINDS.values()]
    assert len(classes) == len(set(classes))
    assert set(classes) == set(get_args(VectorNormSpec) + get_args(MatrixNormSpec))


def test_a_field_of_the_wrong_type_fails_at_its_locus():
    # every field of every kind, at the top of a document and nested in one
    budget = OptBudget(multistarts=2, max_iters=40, samples=6, seed=0)
    one_per_kind = [
        Lp(2), WeightedLp((1.0, 2.0), 3), Scaled(2.0, Lp(1)), MaxOf((Lp(1), Lp(2))),
        EntrywiseSum(), EntrywiseMax(), MaxColSum(), MaxRowSum(), Spectral(),
        GInd(Lp(1), Lp(2)), Extracted(1, Spectral(), budget),
    ]
    assert {formats.norm_spec_to_doc(s)["kind"] for s in one_per_kind} == set(formats._KINDS)
    for spec in one_per_kind:
        doc = formats.norm_spec_to_doc(spec)
        for field in set(doc) - {"kind"}:
            for wrong in ("x", None, True):
                bad = dict(doc, **{field: wrong})
                for text, locus in (
                    (bad, f"$.{field}"),
                    ({"kind": "scaled", "gamma": 1.0, "inner": bad}, f"$.inner.{field}"),
                ):
                    with pytest.raises(DocumentParseError) as info:
                        formats.norm_spec_from_doc(text)
                    assert info.value.locus == locus, (spec, field, wrong)
    # with every field wrong, the format's first field reports, whatever the
    # order of the document's own keys (here the format's order reversed)
    for kind, fields in (
        ("weighted-lp", ("p", "weights")),
        ("scaled", ("inner", "gamma")),
        ("gind", ("norm2", "norm1")),
        ("extracted", ("budget", "source", "role")),
    ):
        with pytest.raises(DocumentParseError) as info:
            formats.norm_spec_from_doc(dict(dict.fromkeys(fields, "x"), kind=kind))
        assert info.value.locus == f"$.{fields[-1]}"
    # a kind tag that is not a string is an unknown kind, as is an unknown string
    for kind in ([1], 3, None, {"kind": "lp"}, "frobenius"):
        with pytest.raises(DocumentParseError, match="unknown norm kind") as info:
            formats.norm_spec_from_doc({"kind": kind, "p": 2})
        assert info.value.locus == "$"


def test_parse_norm_spec_examples():
    assert formats.parse_norm_spec('{"kind":"lp","p":1}') == Lp(1)
    spec = formats.parse_norm_spec(
        '{"kind":"scaled","gamma":2.0,"inner":{"kind":"lp","p":2}}'
    )
    assert spec == Scaled(2.0, Lp(2))
    assert formats.parse_norm_spec('{"kind":"lp","p":"inf"}') == Lp(math.inf)


def test_parse_errors_carry_locus():
    with pytest.raises(DocumentParseError, match=r"p >= 1"):
        formats.parse_norm_spec('{"kind":"lp","p":0.5}')
    with pytest.raises(DocumentParseError, match=r"unknown norm kind"):
        formats.parse_norm_spec('{"kind":"frobenius"}')
    with pytest.raises(DocumentParseError, match=r"\$\.inner\[1\]"):
        formats.parse_norm_spec(
            '{"kind":"maxof","inner":[{"kind":"lp","p":2},{"kind":"nope"}]}'
        )
    with pytest.raises(DocumentParseError, match=r"gamma"):
        formats.parse_norm_spec('{"kind":"scaled","gamma":-1,"inner":{"kind":"lp","p":2}}')
    with pytest.raises(DocumentParseError):
        formats.parse_norm_spec('{"kind":"maxof","inner":[]}')
    # a field of the wrong type fails at its own locus; booleans are not numbers
    budget = '{"multistarts":2,"max_iters":40,"samples":6,"step_init":0.5,"tol":1e-8,"seed":0}'
    for text, locus in (
        ('{"kind":"scaled","gamma":"abc","inner":{"kind":"lp","p":2}}', "$.gamma"),
        ('{"kind":"scaled","gamma":null,"inner":{"kind":"lp","p":2}}', "$.gamma"),
        ('{"kind":"scaled","gamma":1%s,"inner":{"kind":"lp","p":2}}' % ("0" * 400), "$.gamma"),
        ('{"kind":"weighted-lp","weights":["a",1],"p":2}', "$.weights[0]"),
        ('{"kind":"lp","p":true}', "$.p"),
        ('{"kind":"extracted","role":"x","source":{"kind":"sigma"},"budget":%s}' % budget, "$.role"),
        (
            '{"kind":"extracted","role":1,"source":{"kind":"sigma"},"budget":%s}'
            % budget.replace('"multistarts":2', '"multistarts":"x"'),
            "$.budget.multistarts",
        ),
        (
            '{"kind":"extracted","role":1,"source":{"kind":"sigma"},"budget":%s}'
            % budget.replace('"seed":0', '"seed":-1'),
            "$.budget",
        ),
    ):
        with pytest.raises(DocumentParseError) as info:
            formats.parse_norm_spec(text)
        assert info.value.locus == locus
    for cell, locus in (("true", "$.rows[0][0]"), ('{"re": 1, "im": false}', "$.rows[0][0].im")):
        with pytest.raises(DocumentParseError) as info:
            formats.load_matrix_text('{"rows": [[%s, 1], [0, 1]]}' % cell)
        assert info.value.locus == locus


def test_old_budget_document_reads_as_four_fields():
    # reports written while the climb's step schedule was a budget field
    # carry step_init and tol; they are read, and ignored
    old = {"multistarts": 2, "max_iters": 40, "samples": 6, "step_init": 0.5, "tol": 1e-8, "seed": 7}
    doc = {"kind": "extracted", "role": 1, "source": {"kind": "sigma"}, "budget": old}
    spec = formats.norm_spec_from_doc(doc)
    budget = OptBudget(multistarts=2, max_iters=40, samples=6, seed=7)
    assert spec == extract_norm1(EntrywiseSum(), budget)
    assert formats.norm_spec_to_doc(spec)["budget"] == {
        "multistarts": 2, "max_iters": 40, "samples": 6, "seed": 7
    }


def test_csv_parsing_examples():
    m = formats.matrix_from_csv("1,2\n3,4\n")
    assert np.allclose(m, [[1, 2], [3, 4]])
    m = formats.matrix_from_csv("1+1i,1-1i\n0,0\n")
    assert m[0, 0] == 1 + 1j
    assert m[0, 1] == 1 - 1j
    with pytest.raises(DocumentParseError, match="ragged"):
        formats.matrix_from_csv("1,2\n3\n")
    with pytest.raises(DocumentParseError, match="square"):
        formats.matrix_from_csv("1,2,3\n4,5,6\n")
    with pytest.raises(DocumentParseError, match="malformed"):
        formats.matrix_from_csv("1,2\n3,4x\n")


@pytest.mark.parametrize(
    "text, message, locus",
    [
        # CSV: every cell is read before the shape is checked, and a ragged
        # row is numbered among the rows that are not blank
        ("1,2\n3\n4,x\n", "malformed complex literal 'x'", "row 3, column 2"),
        ("1,x\n3\n", "malformed complex literal 'x'", "row 1, column 2"),
        ("1,2\n\n3\n", "ragged row: expected 2 cells, got 1", "row 2"),
        ("1,2,3\n4\n", "ragged row: expected 3 cells, got 1", "row 2"),
        ("1,2,3\n4,5,x\n", "malformed complex literal 'x'", "row 2, column 3"),
        ("\n\n", "matrix document is empty", None),
        # JSON: a row's type and width are checked before its cells are read
        ('{"rows": [[1, "x"], [1]]}', "expected a number, got 'x'", "$.rows[0][1]"),
        ('{"rows": [[1, 2], [1, "x", 3]]}', "ragged row: expected 2 cells, got 3", "$.rows[1]"),
        ('{"rows": [[1, 2], 5, [1, "x"]]}', "row must be a list", "$.rows[1]"),
        ('{"rows": [[1, 2], [1, 2], [1]]}', "ragged row: expected 2 cells, got 1", "$.rows[2]"),
        ('{"rows": [[1, 2, 3], [1, "x", 3]]}', "expected a number, got 'x'", "$.rows[1][1]"),
        ('{"rows": [[1, 2], [1, NaN, 3]]}', "ragged row: expected 2 cells, got 3", "$.rows[1]"),
        ('{"rows": [[], [1]]}', "ragged row: expected 0 cells, got 1", "$.rows[1]"),
        ('{"rows": [[]]}', "matrix must be square, got 1x0", "$"),
    ],
)
def test_matrix_documents_with_two_faults_report_the_first(text, message, locus):
    with pytest.raises(DocumentParseError) as info:
        formats.load_matrix_text(text)
    assert str(info.value) == (f"{message} (at {locus})" if locus else message)
    assert info.value.locus == locus


def test_complex_literal_grammar():
    cases = {
        "1": 1 + 0j,
        "-2.5e3": -2500 + 0j,
        "3i": 3j,
        "-i": -1j,
        "+i": 1j,
        "1+i": 1 + 1j,
        "1.5-2i": 1.5 - 2j,
        " .5+.25i ": 0.5 + 0.25j,
        "1e-3+1e-4i": 1e-3 + 1e-4j,
    }
    for text, expected in cases.items():
        assert formats.parse_complex_literal(text) == expected
    for bad in ("", "i1", "1+", "1i+2", "2j", "1 + 2i"):
        with pytest.raises(DocumentParseError):
            formats.parse_complex_literal(bad)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
def test_complex_literal_ieee_round_trip(re_part, im_part):
    sign = "+" if (im_part >= 0 or math.copysign(1, im_part) > 0) else ""
    text = f"{re_part!r}{sign}{im_part!r}i".replace("e+", "e")
    z = formats.parse_complex_literal(text)
    assert z.real == re_part
    assert z.imag == im_part


def test_matrix_json_document():
    doc = {"rows": [[{"re": 1, "im": 0}, {"re": 0, "im": 1}], [2, {"re": 0}]]}
    m = formats.matrix_from_doc(doc)
    assert m[0, 1] == 1j
    assert m[1, 0] == 2
    with pytest.raises(DocumentParseError, match="square"):
        formats.matrix_from_doc({"rows": [[1, 2]]})
    with pytest.raises(DocumentParseError, match="rows"):
        formats.matrix_from_doc({"cols": []})


def test_load_matrix_text_sniffs_format():
    csv = formats.load_matrix_text("1,2\n3,4")
    doc = formats.load_matrix_text('{"rows": [[1, 2], [3, 4]]}')
    assert np.array_equal(csv, doc)


def test_load_matrix_text_rejects_non_finite_entries():
    for text, locus in (
        ('{"rows": [[1, NaN], [0, 1]]}', "row 1, column 2"),
        ('{"rows": [[1, 0], [{"re": 0, "im": -Infinity}, 1]]}', "row 2, column 1"),
        ('{"rows": [[1, 0], [0, 1e400]]}', "row 2, column 2"),
        ("1,2\n1e400i,4\n", "row 2, column 1"),
        ("-1e999,2\n3,4\n", "row 1, column 1"),
    ):
        with pytest.raises(DocumentParseError, match="finite") as info:
            formats.load_matrix_text(text)
        assert info.value.locus == locus


def test_report_documents_are_schema_tagged():
    rep = dominance_check(Lp(1), Lp(math.inf), 2, samples=32, rng=RandomStream(1))
    doc = formats.report_to_doc("dominance-report", rep)
    assert doc["schema_version"] == 1
    chain = chain_compare(GIndPair(Lp(math.inf), Lp(1)), np.eye(2))
    assert formats.report_to_doc("chain-report", chain)["schema_version"] == 1


def test_suite_report_document_matches_golden_structure(tmp_path):
    report = paper_demo_suite(42)
    doc = formats.suite_report_to_doc(report, {"dim": 2})
    with open("tests/data/paper_demos_structure.json", "r", encoding="utf-8") as fh:
        golden = json.load(fh)

    def shape_of(node):
        if isinstance(node, dict):
            return {k: shape_of(v) for k, v in sorted(node.items())}
        if isinstance(node, list):
            return [shape_of(node[0])] if node else []
        return type(node).__name__

    assert shape_of(doc) == shape_of(golden)
    # field names of every case are pinned
    for case in doc["cases"]:
        assert set(case) == {"description", "status", "values", "witness"}


def test_dumps_report_is_stable():
    rep = chain_compare(GIndPair(Lp(math.inf), Lp(1)), np.eye(2))
    a = formats.dumps_report(formats.report_to_doc("chain-report", rep))
    b = formats.dumps_report(formats.report_to_doc("chain-report", rep))
    assert a == b
    assert json.loads(a)["kind"] == "chain-report"
