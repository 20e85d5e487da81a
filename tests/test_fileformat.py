import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from blbc.construction import DEFAULT_SEED, InsertionRecord, OrdinaryPair, generate
from blbc.errors import FormatError
from blbc.fileformat import (
    FORMAT_VERSION,
    PointFile,
    parse_point_file,
    parse_trace_file,
    serialize_point_file,
    serialize_reports,
    serialize_trace_file,
    serialize_verdict,
)
from blbc.geometry import Point
from blbc.verifier import verify_no_k_collinear
from blbc.visibility import PointSet, check_blbc_instance

F = Fraction

POINT_FILE_GOLDEN = (
    "{\n"
    '  "format_version": 1,\n'
    '  "points": [\n'
    "    {\n"
    '      "x": "1/2",\n'
    '      "y": "-3"\n'
    "    }\n"
    "  ]\n"
    "}\n"
)

TRACE_GOLDEN = (
    "{\n"
    '  "format_version": 1,\n'
    '  "records": [\n'
    "    {\n"
    '      "n": 4,\n'
    '      "i": 1,\n'
    '      "j": 2,\n'
    '      "excluded_count": 0,\n'
    '      "t": "1/2",\n'
    '      "point": {\n'
    '        "x": "1/2",\n'
    '        "y": "0"\n'
    "      }\n"
    "    }\n"
    "  ]\n"
    "}\n"
)


def test_format_version_value():
    assert FORMAT_VERSION == 1


# point files


def test_point_file_golden_bytes():
    pf = PointFile(points=[Point(F(1, 2), F(-3))])
    assert serialize_point_file(pf) == POINT_FILE_GOLDEN


def test_point_file_parse_golden():
    pf = parse_point_file(POINT_FILE_GOLDEN)
    assert pf.points == [Point(F(1, 2), F(-3))]
    assert pf.metadata is None


def test_point_file_empty_points():
    text = serialize_point_file(PointFile(points=[]))
    assert parse_point_file(text).points == []
    assert '"points": []' in text


def test_point_file_metadata_round_trip():
    meta = {"generator": "blbc", "count": 2, "labels": ["a", "b"]}
    pf = PointFile(points=[Point(F(0), F(0)), Point(F(1), F(1))], metadata=meta)
    text = serialize_point_file(pf)
    back = parse_point_file(text)
    assert back.metadata == meta
    assert serialize_point_file(back) == text


def test_point_file_round_trips_randomized():
    rng = random.Random(20260814)
    for _ in range(200):
        points = [
            Point(
                F(rng.randint(-999, 999), rng.randint(1, 99)),
                F(rng.randint(-999, 999), rng.randint(1, 99)),
            )
            for _ in range(rng.randint(0, 8))
        ]
        meta = None if rng.random() < 0.5 else {"tag": rng.randint(0, 9)}
        text = serialize_point_file(PointFile(points=points, metadata=meta))
        back = parse_point_file(text)
        assert back.points == points
        assert back.metadata == meta
        assert serialize_point_file(back) == text


# wide (hundreds of bits) and fractional coordinates
_WIDE = st.builds(F, st.integers(-(2**400), 2**400), st.integers(1, 2**300))
_POINTS = st.builds(Point, _WIDE, _WIDE)
_METADATA = st.dictionaries(st.text(max_size=6), st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
), max_size=4)


@st.composite
def _traces(draw):
    records = []
    for n in range(4, 4 + draw(st.integers(0, 6))):
        j = draw(st.integers(2, n - 1))
        den = draw(st.integers(2, 2**200))
        records.append(InsertionRecord(
            n=n,
            pair=OrdinaryPair(draw(st.integers(1, j - 1)), j),
            excluded_count=draw(st.integers(min_value=0)),
            chosen_t=F(draw(st.integers(1, den - 1)), den),
            point=draw(_POINTS),
        ))
    return records


def test_record_of_a_tuple_pair_and_int_point_keeps_the_bytes():
    loose = InsertionRecord(n=4, pair=(1, 2), excluded_count=0, chosen_t=F(1, 2),
                            point=(1, 0))
    exact = InsertionRecord(n=4, pair=OrdinaryPair(1, 2), excluded_count=0,
                            chosen_t=F(1, 2), point=Point(F(1), F(0)))
    assert type(loose.pair) is OrdinaryPair and type(loose.point) is Point
    assert serialize_trace_file([loose]) == serialize_trace_file([exact])


@given(st.lists(_POINTS, max_size=6), st.none() | _METADATA)
def test_point_file_parse_inverts_serialize(points, metadata):
    text = serialize_point_file(PointFile(points=points, metadata=metadata))
    back = parse_point_file(text)
    assert (back.points, back.metadata) == (points, metadata)
    assert serialize_point_file(back) == text


@given(_traces())
def test_trace_parse_inverts_serialize(records):
    text = serialize_trace_file(records)
    assert parse_trace_file(text) == records
    assert serialize_trace_file(parse_trace_file(text)) == text


def test_serializer_rejects_inexact_points():
    with pytest.raises(Exception):
        serialize_point_file(PointFile(points=[(0.5, 1)]))


@pytest.mark.parametrize(
    "text, field",
    [
        ("not json", "json"),
        ("[]", "root"),
        ('{"format_version": 1}', "root"),
        ('{"points": []}', "root"),
        ('{"format_version": 1, "points": [], "extra": 0}', "root"),
        ('{"format_version": 2, "points": []}', "root.format_version"),
        ('{"format_version": "1", "points": []}', "root.format_version"),
        ('{"format_version": true, "points": []}', "root.format_version"),
        ('{"format_version": 1, "points": {}}', "points"),
        ('{"format_version": 1, "points": [5]}', "points[0]"),
        ('{"format_version": 1, "points": [{"x": "0"}]}', "points[0]"),
        (
            '{"format_version": 1, "points": [{"x": "0", "y": "0", "z": "0"}]}',
            "points[0]",
        ),
        ('{"format_version": 1, "points": [{"x": 3, "y": "0"}]}', "points[0].x"),
        ('{"format_version": 1, "points": [{"x": "2/4", "y": "0"}]}', "points[0].x"),
        ('{"format_version": 1, "points": [{"x": "0", "y": "1/-3"}]}', "points[0].y"),
        (
            '{"format_version": 1, "points": [{"x": "0", "y": "0"}, '
            '{"x": "1/0", "y": "0"}]}',
            "points[1].x",
        ),
        ('{"format_version": 1, "points": [], "metadata": 3}', "metadata"),
    ],
)
def test_point_file_rejects_malformed(text, field):
    with pytest.raises(FormatError) as exc:
        parse_point_file(text)
    assert exc.value.field == field
    assert str(exc.value).startswith(field + ": ")


def test_format_error_message_names_the_problem():
    with pytest.raises(FormatError) as exc:
        parse_point_file('{"format_version": 1, "points": [{"x": "2/4", "y": "0"}]}')
    assert "lowest terms" in exc.value.message


# trace files


def test_trace_golden_bytes():
    state = generate(DEFAULT_SEED, 4)
    assert serialize_trace_file(state.trace) == TRACE_GOLDEN


def test_trace_round_trip():
    state = generate(DEFAULT_SEED, 12)
    text = serialize_trace_file(state.trace)
    records = parse_trace_file(text)
    assert records == list(state.trace)
    assert serialize_trace_file(records) == text


def test_trace_empty_round_trip():
    text = serialize_trace_file([])
    assert parse_trace_file(text) == []


def valid_trace_doc():
    return {
        "format_version": 1,
        "records": [
            {
                "n": 4,
                "i": 1,
                "j": 2,
                "excluded_count": 0,
                "t": "1/2",
                "point": {"x": "1/2", "y": "0"},
            },
            {
                "n": 5,
                "i": 1,
                "j": 3,
                "excluded_count": 0,
                "t": "1/2",
                "point": {"x": "0", "y": "1/2"},
            },
        ],
    }


def test_trace_parse_accepts_valid_doc():
    records = parse_trace_file(json.dumps(valid_trace_doc()))
    assert [r.n for r in records] == [4, 5]


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.pop("records"), "root"),
        (lambda d: d.__setitem__("records", 3), "records"),
        (lambda d: d["records"][0].__setitem__("n", 5), "records[0].n"),
        (lambda d: d["records"][1].__setitem__("n", 6), "records[1].n"),
        (lambda d: d["records"][0].__setitem__("n", True), "records[0].n"),
        (lambda d: d["records"][0].__setitem__("i", 2), "records[0].j"),
        (lambda d: d["records"][0].__setitem__("j", 4), "records[0].j"),
        (lambda d: d["records"][0].__setitem__("i", 0), "records[0].j"),
        (lambda d: d["records"][0].__setitem__("excluded_count", -1),
         "records[0].excluded_count"),
        (lambda d: d["records"][0].__setitem__("t", "0"), "records[0].t"),
        (lambda d: d["records"][0].__setitem__("t", "1"), "records[0].t"),
        (lambda d: d["records"][0].__setitem__("t", "3/2"), "records[0].t"),
        (lambda d: d["records"][0].__setitem__("t", "2/4"), "records[0].t"),
        (lambda d: d["records"][0].__setitem__("t", 0.5), "records[0].t"),
        (lambda d: d["records"][0].__setitem__("point", [0, 0]), "records[0].point"),
        (lambda d: d["records"][0]["point"].pop("y"), "records[0].point"),
        (lambda d: d["records"][0]["point"].__setitem__("x", "00"),
         "records[0].point.x"),
        (lambda d: d["records"][0].__setitem__("note", "hi"), "records[0]"),
        (lambda d: d["records"][0].pop("t"), "records[0]"),
    ],
)
def test_trace_rejects_malformed(mutate, field):
    doc = valid_trace_doc()
    mutate(doc)
    with pytest.raises(FormatError) as exc:
        parse_trace_file(json.dumps(doc))
    assert exc.value.field == field


# input the strict parsers must refuse with FormatError, and only that

BIG_X = '{"format_version": 1, "points": [{"x": "1' + "0" * 5000 + '", "y": "0"}]}'
BIG_VERSION = '{"format_version": 1' + "0" * 5000 + ', "points": []}'
DEEP = "[" * 200000
REPEATED_POINTS = '{"format_version": 1, "points": [], "points": [{"x": "0", "y": "0"}]}'


@pytest.mark.parametrize("parse, text, field, words", [
    (parse_point_file, BIG_X, "points[0].x", "rational of 5001 characters"),
    (parse_point_file, BIG_VERSION, "json", "not valid JSON"),
    (parse_point_file, DEEP, "json", "recursion"),
    (parse_trace_file, json.dumps(valid_trace_doc()).replace('"t": "1/2"',
                                                            '"t": "1/2' + "0" * 5000 + '"', 1),
     "records[0].t", "rational of 5003 characters"),
    (parse_trace_file, BIG_VERSION, "json", "not valid JSON"),
    (parse_trace_file, DEEP, "json", "recursion"),
], ids=["point-x", "point-version", "point-deep", "trace-t", "trace-version", "trace-deep"])
def test_oversized_input_is_format_error(parse, text, field, words):
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert exc.value.field == field
    assert words in exc.value.message


@pytest.mark.parametrize("parse, text, key", [
    (parse_point_file, REPEATED_POINTS, "points"),
    (parse_point_file, '{"format_version": 1, "points": [], "format_version": 1}',
     "format_version"),
    (parse_point_file, '{"format_version": 1, "points": [{"x": "0", "x": "1", "y": "0"}]}',
     "x"),
    (parse_point_file,
     '{"format_version": 1, "points": [], "metadata": {"note": {"a": 1, "a": 2}}}', "a"),
    (parse_trace_file, json.dumps(valid_trace_doc()).replace('"t": "1/2"',
                                                            '"t": "1/2", "t": "1/3"', 1), "t"),
    (parse_trace_file, '{"records": [], "format_version": 1, "records": []}', "records"),
], ids=["root", "version", "point", "metadata", "record", "trace-root"])
def test_repeated_key_is_format_error(parse, text, key):
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert exc.value.field == "json"
    assert exc.value.message == f"repeated key {key!r}"


_KEYS = st.sampled_from(["format_version", "points", "metadata", "records", "x", "y",
                         "point", "n", "i", "j", "excluded_count", "t"])
_RATIONALS = (st.sampled_from(["0", "1/2", "-3", "7/5"])
              | st.sampled_from(["2/4", "1/0", "-0", "01", " 1", "1.5"]))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _RATIONALS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=6),
    max_leaves=20,
)
_POINT = st.fixed_dictionaries({"x": _RATIONALS, "y": _RATIONALS}) | _JSON
# a record whose "n" is drawn as None gets the consecutive value in _RECORDS
_RECORD = st.fixed_dictionaries(
    {"n": st.none() | st.integers(2, 6), "i": st.integers(0, 3), "j": st.integers(2, 4),
     "excluded_count": st.integers(-1, 3), "t": _RATIONALS, "point": _POINT})
_RECORDS = st.lists(_RECORD, max_size=3).map(
    lambda recs: [{**r, "n": k + 4} if r["n"] is None else r for k, r in enumerate(recs)])
_VERSION = st.just(1) | st.integers(0, 2) | _JSON
_DOCS = st.fixed_dictionaries(
    {"format_version": _VERSION, "points": st.lists(_POINT, max_size=3) | _JSON},
    optional={"metadata": st.dictionaries(_KEYS, _JSON, max_size=3) | _JSON},
) | st.fixed_dictionaries({"format_version": _VERSION, "records": _RECORDS | _JSON})


@given(st.text() | _JSON.map(json.dumps) | _DOCS.map(json.dumps))
@example(BIG_X)
@example(BIG_VERSION)
@example(DEEP)
@example(REPEATED_POINTS)
def test_parsers_raise_nothing_but_format_error(text):
    for parse in (parse_point_file, parse_trace_file):
        try:
            parse(text)
        except FormatError:
            pass


# verification and analysis documents


def test_serialize_reports_shape():
    ps = generate(DEFAULT_SEED, 6).point_set()
    passing = verify_no_k_collinear(ps, 4)
    text = serialize_reports([passing])
    doc = json.loads(text)
    assert doc == {
        "format_version": 1,
        "all_passed": True,
        "checks": [
            {
                "check": "no4collinear",
                "passed": True,
                "stats": {"points": 6, "lines": 9, "max_collinear": 3},
            }
        ],
    }
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_serialize_reports_all_passed_flag():
    ps = generate(DEFAULT_SEED, 6).point_set()
    passing = verify_no_k_collinear(ps, 4)
    failing = verify_no_k_collinear(PointSet([(0, 0), (1, 0), (2, 0), (3, 0)]), 4)
    doc = json.loads(serialize_reports([passing, failing]))
    assert doc["all_passed"] is False
    assert [c["passed"] for c in doc["checks"]] == [True, False]
    assert doc["checks"][1]["counterexample"]["indices"] == [1, 2, 3, 4]


def test_serialize_verdict_shape():
    grid = PointSet([(x, y) for y in range(3) for x in range(3)])
    doc = json.loads(serialize_verdict(check_blbc_instance(grid, 4, 4)))
    assert doc == {
        "format_version": 1,
        "k": 4,
        "l": 4,
        "outcome": "CliqueFound",
        "collinear_size": 3,
        "clique_size": 4,
        "collinear_witness": None,
        "clique_witness": [1, 2, 4, 5],
    }


def test_documents_are_byte_deterministic():
    state = generate(DEFAULT_SEED, 9)
    pf = PointFile(points=state.points, metadata={"n": 9})
    assert serialize_point_file(pf) == serialize_point_file(pf)
    assert serialize_trace_file(state.trace) == serialize_trace_file(state.trace)
