"""Norm-spec documents, matrix files, and report serialization.

Norm descriptors round-trip through a tagged JSON tree; matrices load from
CSV with complex literals like ``1+2i`` or from a tagged tree of
``{"re": ..., "im": ...}`` cells.  All reports serialize to JSON with sorted
keys under ``"schema_version": 1`` so identical runs produce identical bytes
apart from elapsed-time fields.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np

from .budget import OptBudget
from .errors import DocumentParseError, SpecValidationError
from .matrix_norms import (
    EntrywiseMax,
    EntrywiseSum,
    GInd,
    MaxColSum,
    MaxRowSum,
    Spectral,
)
from .vector_norms import (
    Extracted,
    Lp,
    MaxOf,
    Scaled,
    WeightedLp,
)
from .verification import SuiteReport

SCHEMA_VERSION = 1


# --- norm-spec documents ---------------------------------------------------

def _number(value, locus: str) -> float:
    """A JSON number as a float; booleans, strings, null and integers too
    large for a float are rejected at ``locus``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise DocumentParseError(f"expected a number, got {value!r}", locus)


def _integer(value, locus: str) -> int:
    """A JSON integer; booleans and fractional numbers are rejected at ``locus``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DocumentParseError(f"expected an integer, got {value!r}", locus)


def _p_from_doc(value, locus: str) -> float:
    if isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    return _number(value, locus)


def _require(doc: dict, field: str, locus: str, read=None):
    """``doc[field]``, passed through ``read(value, locus of the field)``
    when given."""
    if field not in doc:
        raise DocumentParseError(f"missing field {field!r}", locus)
    return doc[field] if read is None else read(doc[field], f"{locus}.{field}")


def norm_spec_to_doc(spec) -> dict:
    """Encode a vector or matrix norm descriptor as a tagged tree."""
    kind = _KIND_OF.get(type(spec))
    if kind is None:
        raise DocumentParseError(f"cannot encode norm descriptor {spec!r}")
    doc = {"kind": kind}
    for field, attr, (encode, _) in _KINDS[kind][1]:
        doc[field] = encode(getattr(spec, attr))
    return doc


def norm_spec_from_doc(doc, locus: str = "$"):
    """Decode a tagged tree into a norm descriptor, validating as it goes:
    each field in table order at its own locus, then the descriptor's own
    invariants at ``locus``."""
    if not isinstance(doc, dict):
        raise DocumentParseError(f"expected an object, got {type(doc).__name__}", locus)
    kind = _require(doc, "kind", locus)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise DocumentParseError(f"unknown norm kind {kind!r}", locus)
    cls, fields = _KINDS[kind]
    values = {attr: _require(doc, field, locus, decode) for field, attr, (_, decode) in fields}
    try:
        return cls(**values)
    except SpecValidationError as exc:
        raise DocumentParseError(str(exc), locus) from exc


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(f"invalid JSON: {exc}") from exc


def parse_norm_spec(text: str):
    """Parse a JSON norm-spec document."""
    return norm_spec_from_doc(_json(text))


def print_norm_spec(spec) -> str:
    return json.dumps(norm_spec_to_doc(spec), sort_keys=True)


def budget_from_doc(doc, locus: str = "$") -> OptBudget:
    """The ``OptBudget`` of a budget object.  Other fields are ignored, such
    as the ``step_init`` and ``tol`` that older documents carry."""
    if not isinstance(doc, dict):
        raise DocumentParseError("budget must be an object", locus)
    try:
        return OptBudget(**{
            f.name: _require(doc, f.name, locus, _integer) for f in dataclasses.fields(OptBudget)
        })
    except SpecValidationError as exc:
        raise DocumentParseError(str(exc), locus) from exc


def _items(read, message: str, least: int):
    """The decoder of a list field of at least ``least`` items, each item
    read by ``read(item, its locus)``; ``message`` reports any other value."""
    def decode(value, locus: str) -> tuple:
        if not isinstance(value, list) or len(value) < least:
            raise DocumentParseError(message, locus)
        return tuple(read(item, f"{locus}[{i}]") for i, item in enumerate(value))
    return decode


_P = (lambda p: "inf" if p == math.inf else p, _p_from_doc)
_SPEC = (norm_spec_to_doc, norm_spec_from_doc)
_WEIGHTS = (list, _items(_number, "weights must be a list", 0))
_PARTS = (
    lambda parts: [norm_spec_to_doc(part) for part in parts],
    _items(norm_spec_from_doc, "maxof needs a nonempty list", 1),
)

# The one definition of the norm-spec document: each ``kind`` tag, the
# descriptor class it names, and that class's (document field, attribute,
# codec) triples, where a codec is (encode an attribute, decode a field at
# its locus).  Fields are written and read in this order, so a document with
# several faults reports the first field's.
_KINDS = {
    "lp": (Lp, (("p", "p", _P),)),
    "weighted-lp": (WeightedLp, (("weights", "weights", _WEIGHTS), ("p", "p", _P))),
    "scaled": (Scaled, (("gamma", "gamma", (lambda g: g, _number)), ("inner", "inner", _SPEC))),
    "maxof": (MaxOf, (("inner", "parts", _PARTS),)),
    "sigma": (EntrywiseSum, ()),
    "entrywise-max": (EntrywiseMax, ()),
    "maxcolsum": (MaxColSum, ()),
    "maxrowsum": (MaxRowSum, ()),
    "spectral": (Spectral, ()),
    "gind": (GInd, (("norm1", "norm1", _SPEC), ("norm2", "norm2", _SPEC))),
    "extracted": (Extracted, (
        ("role", "role", (lambda role: role, _integer)),
        ("source", "source", _SPEC),
        ("budget", "budget", (dataclasses.asdict, budget_from_doc)),
    )),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _KINDS.items()}
_NORM_SPECS = tuple(_KIND_OF)


# --- matrix documents ------------------------------------------------------

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RE_REAL = re.compile(rf"^[+-]?{_NUM}$")
_RE_IMAG = re.compile(rf"^([+-]?)({_NUM})?i$")
_RE_BOTH = re.compile(rf"^([+-]?{_NUM})([+-])({_NUM})?i$")


def parse_complex_literal(text: str, locus: str = "literal") -> complex:
    """Parse ``a``, ``bi``, ``a+bi`` or ``a-bi`` with IEEE-exact floats."""
    s = text.strip()
    if not s:
        raise DocumentParseError("empty cell", locus)
    if _RE_REAL.match(s):
        return complex(float(s), 0.0)
    m = _RE_IMAG.match(s)
    if m:
        sign, mag = m.groups()
        value = float(mag) if mag is not None else 1.0
        return complex(0.0, -value if sign == "-" else value)
    m = _RE_BOTH.match(s)
    if m:
        real, sign, mag = m.groups()
        value = float(mag) if mag is not None else 1.0
        return complex(float(real), -value if sign == "-" else value)
    raise DocumentParseError(f"malformed complex literal {text!r}", locus)


def _square_matrix(rows, parse_row, row_locus, locus: str | None = None) -> np.ndarray:
    """The square matrix of a list of rows, each a list of as many cells as
    the first, checked before ``parse_row(i, row)`` reads its complex cells;
    a fault in row i is reported at ``row_locus(i)``, a nonsquare shape at
    ``locus``."""
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise DocumentParseError("row must be a list", row_locus(i))
        if parsed and len(row) != len(parsed[0]):
            raise DocumentParseError(
                f"ragged row: expected {len(parsed[0])} cells, got {len(row)}", row_locus(i)
            )
        parsed.append(parse_row(i, row))
    if not parsed:
        raise DocumentParseError("matrix document is empty")
    if len(parsed) != len(parsed[0]):
        raise DocumentParseError(
            f"matrix must be square, got {len(parsed)}x{len(parsed[0])}", locus
        )
    return np.asarray(parsed, dtype=np.complex128)


def matrix_from_csv(text: str) -> np.ndarray:
    """Parse a CSV of complex literals into a square matrix; every cell is
    read before the shape is checked."""
    rows = [
        [parse_complex_literal(cell, f"row {i + 1}, column {j + 1}")
         for j, cell in enumerate(line.split(","))]
        for i, line in enumerate(text.splitlines()) if line.strip()
    ]
    return _square_matrix(rows, lambda i, row: row, lambda i: f"row {i + 1}")


def _cell_from_doc(cell, locus: str) -> complex:
    if isinstance(cell, dict):
        return complex(
            _number(cell.get("re", 0.0), f"{locus}.re"), _number(cell.get("im", 0.0), f"{locus}.im")
        )
    return complex(_number(cell, locus), 0.0)


def matrix_from_doc(doc, locus: str = "$") -> np.ndarray:
    """The matrix of a ``{"rows": [[cell, ...], ...]}`` document; a row's
    cells are read after its type and width are checked."""
    if not isinstance(doc, dict) or "rows" not in doc:
        raise DocumentParseError("matrix document needs a 'rows' field", locus)
    rows = doc["rows"]
    if not isinstance(rows, list) or not rows:
        raise DocumentParseError("'rows' must be a nonempty list", f"{locus}.rows")

    def cells(i: int, row: list) -> list:
        return [_cell_from_doc(c, f"{locus}.rows[{i}][{j}]") for j, c in enumerate(row)]

    return _square_matrix(rows, cells, lambda i: f"{locus}.rows[{i}]", locus)


def load_matrix_text(text: str) -> np.ndarray:
    """Sniff JSON vs CSV and parse accordingly; every entry must be finite.

    The finiteness check sits here, at the input boundary, and not in
    ``core.as_matrix``, which every norm kernel call passes through.
    """
    m = matrix_from_doc(_json(text)) if text.lstrip().startswith("{") else matrix_from_csv(text)
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0]
        raise DocumentParseError("matrix entries must be finite", f"row {i + 1}, column {j + 1}")
    return m


def load_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return load_matrix_text(fh.read())


# --- report documents ------------------------------------------------------

def complex_to_doc(z: complex) -> dict:
    return {"im": float(np.imag(z)), "re": float(np.real(z))}


def array_to_doc(arr) -> dict:
    a = np.asarray(arr)
    if a.ndim == 1:
        return {"entries": [complex_to_doc(z) for z in a]}
    if a.ndim == 2:
        return {"rows": [[complex_to_doc(z) for z in row] for row in a]}
    raise DocumentParseError(f"cannot encode array of rank {a.ndim}")


def _encode(value):
    """A result value as JSON: arrays become complex cells, norm descriptors
    their tagged trees, other dataclasses their fields, lists drop ``None``
    entries and numpy scalars become Python scalars."""
    if isinstance(value, np.ndarray):
        return array_to_doc(value)
    if isinstance(value, _NORM_SPECS):
        return norm_spec_to_doc(value)
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_encode(item) for item in value if item is not None]
    if isinstance(value, np.generic):
        return value.item()
    return value


def report_to_doc(kind: str, result=None, settings: dict | None = None, **fields) -> dict:
    """The document of one report: the fields of the ``result`` dataclass and
    any keyword ``fields``, tagged with the schema version and ``kind``, plus
    ``settings`` when given."""
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind}
    if result is not None:
        doc.update(_encode(result))
    doc.update(_encode(fields))
    if settings:
        doc["settings"] = _encode(settings)
    return doc


def suite_report_to_doc(report: SuiteReport, header: dict | None = None) -> dict:
    return report_to_doc("suite-report", report, header, passed=report.passed)


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
