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
from typing import get_args

import numpy as np

from .budget import OptBudget
from .errors import DocumentParseError, SpecValidationError
from .matrix_norms import (
    EntrywiseMax,
    EntrywiseSum,
    GInd,
    MatrixNormSpec,
    MaxColSum,
    MaxRowSum,
    Spectral,
)
from .vector_norms import (
    Extracted,
    Lp,
    MaxOf,
    Scaled,
    VectorNormSpec,
    WeightedLp,
)
from .verification import SuiteReport

SCHEMA_VERSION = 1
_NORM_SPECS = get_args(VectorNormSpec) + get_args(MatrixNormSpec)


# --- norm-spec documents ---------------------------------------------------

def _p_to_doc(p: float):
    return "inf" if p == math.inf else p


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


def norm_spec_to_doc(spec) -> dict:
    """Encode a vector or matrix norm descriptor as a tagged tree."""
    if isinstance(spec, Lp):
        return {"kind": "lp", "p": _p_to_doc(spec.p)}
    if isinstance(spec, WeightedLp):
        return {"kind": "weighted-lp", "weights": list(spec.weights), "p": _p_to_doc(spec.p)}
    if isinstance(spec, Scaled):
        return {"kind": "scaled", "gamma": spec.gamma, "inner": norm_spec_to_doc(spec.inner)}
    if isinstance(spec, MaxOf):
        return {"kind": "maxof", "inner": [norm_spec_to_doc(p) for p in spec.parts]}
    if isinstance(spec, EntrywiseSum):
        return {"kind": "sigma"}
    if isinstance(spec, EntrywiseMax):
        return {"kind": "entrywise-max"}
    if isinstance(spec, MaxColSum):
        return {"kind": "maxcolsum"}
    if isinstance(spec, MaxRowSum):
        return {"kind": "maxrowsum"}
    if isinstance(spec, Spectral):
        return {"kind": "spectral"}
    if isinstance(spec, GInd):
        return {
            "kind": "gind",
            "norm1": norm_spec_to_doc(spec.norm1),
            "norm2": norm_spec_to_doc(spec.norm2),
        }
    if isinstance(spec, Extracted):
        return {
            "kind": "extracted",
            "role": spec.role,
            "source": norm_spec_to_doc(spec.source),
            "budget": _encode(spec.budget),
        }
    raise DocumentParseError(f"cannot encode norm descriptor {spec!r}")


def _require(doc: dict, field: str, locus: str, read=None):
    """``doc[field]``, passed through ``read(value, locus of the field)``
    when given."""
    if field not in doc:
        raise DocumentParseError(f"missing field {field!r}", locus)
    return doc[field] if read is None else read(doc[field], f"{locus}.{field}")


def norm_spec_from_doc(doc, locus: str = "$"):
    """Decode a tagged tree into a norm descriptor, validating as it goes."""
    if not isinstance(doc, dict):
        raise DocumentParseError(f"expected an object, got {type(doc).__name__}", locus)
    kind = _require(doc, "kind", locus)
    try:
        if kind == "lp":
            return Lp(_require(doc, "p", locus, _p_from_doc))
        if kind == "weighted-lp":
            weights = _require(doc, "weights", locus)
            if not isinstance(weights, list):
                raise DocumentParseError("weights must be a list", f"{locus}.weights")
            return WeightedLp(
                tuple(_number(w, f"{locus}.weights[{i}]") for i, w in enumerate(weights)),
                _require(doc, "p", locus, _p_from_doc),
            )
        if kind == "scaled":
            return Scaled(
                _require(doc, "gamma", locus, _number),
                norm_spec_from_doc(_require(doc, "inner", locus), f"{locus}.inner"),
            )
        if kind == "maxof":
            inner = _require(doc, "inner", locus)
            if not isinstance(inner, list) or not inner:
                raise DocumentParseError("maxof needs a nonempty list", f"{locus}.inner")
            return MaxOf(
                tuple(
                    norm_spec_from_doc(part, f"{locus}.inner[{i}]")
                    for i, part in enumerate(inner)
                )
            )
        if kind == "sigma":
            return EntrywiseSum()
        if kind == "entrywise-max":
            return EntrywiseMax()
        if kind == "maxcolsum":
            return MaxColSum()
        if kind == "maxrowsum":
            return MaxRowSum()
        if kind == "spectral":
            return Spectral()
        if kind == "gind":
            return GInd(
                norm_spec_from_doc(_require(doc, "norm1", locus), f"{locus}.norm1"),
                norm_spec_from_doc(_require(doc, "norm2", locus), f"{locus}.norm2"),
            )
        if kind == "extracted":
            return Extracted(
                _require(doc, "role", locus, _integer),
                norm_spec_from_doc(_require(doc, "source", locus), f"{locus}.source"),
                budget_from_doc(_require(doc, "budget", locus), f"{locus}.budget"),
            )
    except SpecValidationError as exc:
        raise DocumentParseError(str(exc), locus) from exc
    raise DocumentParseError(f"unknown norm kind {kind!r}", locus)


def parse_norm_spec(text: str):
    """Parse a JSON norm-spec document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(f"invalid JSON: {exc}") from exc
    return norm_spec_from_doc(doc)


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


def matrix_from_csv(text: str) -> np.ndarray:
    """Parse a CSV of complex literals into a square matrix."""
    rows: list[list[complex]] = []
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        cells = line.split(",")
        rows.append(
            [
                parse_complex_literal(cell, f"row {i + 1}, column {j + 1}")
                for j, cell in enumerate(cells)
            ]
        )
    if not rows:
        raise DocumentParseError("matrix document is empty")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DocumentParseError(
                f"ragged row: expected {width} cells, got {len(row)}", f"row {i + 1}"
            )
    if len(rows) != width:
        raise DocumentParseError(f"matrix must be square, got {len(rows)}x{width}")
    return np.asarray(rows, dtype=np.complex128)


def _cell_from_doc(cell, locus: str) -> complex:
    if isinstance(cell, dict):
        return complex(
            _number(cell.get("re", 0.0), f"{locus}.re"), _number(cell.get("im", 0.0), f"{locus}.im")
        )
    return complex(_number(cell, locus), 0.0)


def matrix_from_doc(doc, locus: str = "$") -> np.ndarray:
    if not isinstance(doc, dict) or "rows" not in doc:
        raise DocumentParseError("matrix document needs a 'rows' field", locus)
    rows = doc["rows"]
    if not isinstance(rows, list) or not rows:
        raise DocumentParseError("'rows' must be a nonempty list", f"{locus}.rows")
    parsed = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise DocumentParseError("row must be a list", f"{locus}.rows[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DocumentParseError(
                f"ragged row: expected {width} cells, got {len(row)}",
                f"{locus}.rows[{i}]",
            )
        parsed.append(
            [_cell_from_doc(c, f"{locus}.rows[{i}][{j}]") for j, c in enumerate(row)]
        )
    if len(parsed) != width:
        raise DocumentParseError(f"matrix must be square, got {len(parsed)}x{width}", locus)
    return np.asarray(parsed, dtype=np.complex128)


def load_matrix_text(text: str) -> np.ndarray:
    """Sniff JSON vs CSV and parse accordingly; every entry must be finite.

    The finiteness check sits here, at the input boundary, and not in
    ``core.as_matrix``, which every norm kernel call passes through.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentParseError(f"invalid JSON: {exc}") from exc
        m = matrix_from_doc(doc)
    else:
        m = matrix_from_csv(text)
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
