"""Canonical JSON documents: point files, traces, verification output.

Serialization is byte-deterministic: fixed key order, two-space indent,
a single trailing newline, and rationals in strict reduced text form.
Parsing is strict; any malformed content raises FormatError naming the
offending field, never a silently normalised value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .construction import InsertionRecord
from .errors import FormatError, RationalFormatError
from .geometry import Point
from .rational import format_rational, parse_rational
from .verifier import VerificationReport
from .visibility import BlbcVerdict, _coerce_point

FORMAT_VERSION = 1

# the keys each object must have, named once rather than built per entry
_POINT_KEYS = frozenset({"x", "y"})
_RECORD_KEYS = frozenset({"n", "i", "j", "excluded_count", "t", "point"})


@dataclass
class PointFile:
    """Parsed point file: ordered points plus free-form metadata."""

    points: list[Point]
    metadata: dict | None = None


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _load_json(text: str) -> object:
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except FormatError:  # a repeated key; FormatError is a ValueError too
        raise
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep
        raise FormatError("json", f"not valid JSON: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """An object's members, refusing a key given twice at any level."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError("json", f"repeated key {key!r}")
        obj[key] = value
    return obj


def _require_object(value: object, field_name: str) -> dict:
    if not isinstance(value, dict):
        raise FormatError(field_name, f"expected an object, got {type(value).__name__}")
    return value


def _require_list(value: object, field_name: str) -> list:
    if not isinstance(value, list):
        raise FormatError(field_name, f"expected a list, got {type(value).__name__}")
    return value


def _require_int(value: object, field_name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(field_name, f"expected an integer, got {value!r}")
    return value


def _require_keys(
    obj: dict, field_name: str, required: frozenset[str], optional: frozenset[str] = frozenset()
) -> None:
    missing = sorted(required - obj.keys())
    if missing:
        raise FormatError(field_name, f"missing key(s): {', '.join(missing)}")
    unknown = sorted(obj.keys() - required - optional)
    if unknown:
        raise FormatError(field_name, f"unknown key(s): {', '.join(unknown)}")


def _require_version(obj: dict, field_name: str) -> None:
    version = _require_int(obj.get("format_version"), f"{field_name}.format_version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{field_name}.format_version",
            f"unsupported version {version}, expected {FORMAT_VERSION}",
        )


def _parse_rational_field(value: object, field_name: str) -> Fraction:
    if not isinstance(value, str):
        raise FormatError(
            field_name,
            f"expected a rational string like '2/3', got {value!r}",
        )
    try:
        return parse_rational(value)
    except RationalFormatError as exc:
        raise FormatError(field_name, str(exc)) from None


def _parse_point(value: object, field_name: str) -> Point:
    obj = _require_object(value, field_name)
    _require_keys(obj, field_name, _POINT_KEYS)
    return Point(
        _parse_rational_field(obj["x"], f"{field_name}.x"),
        _parse_rational_field(obj["y"], f"{field_name}.y"),
    )


def _point_json(p: Point) -> dict:
    return {"x": format_rational(p.x), "y": format_rational(p.y)}


# ---------------------------------------------------------------------------
# point files


def parse_point_file(text: str) -> PointFile:
    """Strictly parse a point file document."""
    root = _require_object(_load_json(text), "root")
    _require_keys(
        root, "root", frozenset({"format_version", "points"}), frozenset({"metadata"})
    )
    _require_version(root, "root")
    raw_points = _require_list(root["points"], "points")
    points = [
        _parse_point(entry, f"points[{idx}]") for idx, entry in enumerate(raw_points)
    ]
    metadata = None
    if "metadata" in root:
        metadata = _require_object(root["metadata"], "metadata")
    return PointFile(points=points, metadata=metadata)


def serialize_point_file(pf: PointFile) -> str:
    """Canonical bytes for a point file; inverse of `parse_point_file`."""
    points = [_coerce_point(p, idx + 1) for idx, p in enumerate(pf.points)]
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "points": [_point_json(p) for p in points],
    }
    if pf.metadata is not None:
        doc["metadata"] = pf.metadata
    return _dumps(doc)


# ---------------------------------------------------------------------------
# trace files


def parse_trace_file(text: str) -> list[InsertionRecord]:
    """Strictly parse a construction trace document."""
    root = _require_object(_load_json(text), "root")
    _require_keys(root, "root", frozenset({"format_version", "records"}))
    _require_version(root, "root")
    raw_records = _require_list(root["records"], "records")
    records: list[InsertionRecord] = []
    for idx, raw in enumerate(raw_records):
        f = f"records[{idx}]"
        obj = _require_object(raw, f)
        _require_keys(obj, f, _RECORD_KEYS)
        n = _require_int(obj["n"], f"{f}.n")
        if n != idx + 4:
            raise FormatError(f"{f}.n", f"expected {idx + 4} (consecutive from 4), got {n}")
        i = _require_int(obj["i"], f"{f}.i")
        j = _require_int(obj["j"], f"{f}.j")
        if not (1 <= i < j < n):
            raise FormatError(f"{f}.j", f"pair ({i}, {j}) violates 1 <= i < j < {n}")
        excluded_count = _require_int(obj["excluded_count"], f"{f}.excluded_count")
        if excluded_count < 0:
            raise FormatError(f"{f}.excluded_count", f"negative count {excluded_count}")
        t = _parse_rational_field(obj["t"], f"{f}.t")
        if not 0 < t.numerator < t.denominator:  # 0 < t < 1
            raise FormatError(f"{f}.t", f"parameter {t} outside the open interval (0, 1)")
        point = _parse_point(obj["point"], f"{f}.point")
        records.append(
            InsertionRecord(
                n=n,
                pair=(i, j),
                excluded_count=excluded_count,
                chosen_t=t,
                point=point,
            )
        )
    return records


def serialize_trace_file(records: Sequence[InsertionRecord]) -> str:
    """Canonical bytes for a trace; inverse of `parse_trace_file`."""
    doc = {
        "format_version": FORMAT_VERSION,
        "records": [
            {
                "n": rec.n,
                "i": rec.pair.i,
                "j": rec.pair.j,
                "excluded_count": rec.excluded_count,
                "t": format_rational(rec.chosen_t),
                "point": _point_json(rec.point),
            }
            for rec in records
        ],
    }
    return _dumps(doc)


# ---------------------------------------------------------------------------
# verification and analysis output


def serialize_reports(reports: Sequence[VerificationReport]) -> str:
    """Canonical verification document over one or more check reports."""
    doc = {
        "format_version": FORMAT_VERSION,
        "all_passed": all(r.passed for r in reports),
        "checks": [r.to_json_dict() for r in reports],
    }
    return _dumps(doc)


def serialize_verdict(verdict: BlbcVerdict) -> str:
    """Canonical analysis document for one big-line-big-clique check."""
    doc = {"format_version": FORMAT_VERSION, **verdict.to_json_dict()}
    return _dumps(doc)
