import json
import math

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
from normlab import formats
from normlab.errors import DocumentParseError
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
