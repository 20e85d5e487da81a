import hashlib
import json
import subprocess
import sys
import tracemalloc

import pytest

from blbc.cli import main
from blbc.construction import DEFAULT_SEED, generate
from blbc.fileformat import PointFile, serialize_point_file
from blbc.svgrender import EDGE_MODES, render_svg
from blbc.verifier import CHECKS
from blbc.visibility import PointSet
from test_construction import WIDE_SEED

POINTS_6_GOLDEN = (
    "{\n"
    '  "format_version": 1,\n'
    '  "points": [\n'
    "    {\n"
    '      "x": "0",\n'
    '      "y": "0"\n'
    "    },\n"
    "    {\n"
    '      "x": "1",\n'
    '      "y": "0"\n'
    "    },\n"
    "    {\n"
    '      "x": "0",\n'
    '      "y": "1"\n'
    "    },\n"
    "    {\n"
    '      "x": "1/2",\n'
    '      "y": "0"\n'
    "    },\n"
    "    {\n"
    '      "x": "0",\n'
    '      "y": "1/2"\n'
    "    },\n"
    "    {\n"
    '      "x": "1/2",\n'
    '      "y": "1/2"\n'
    "    }\n"
    "  ],\n"
    '  "metadata": {\n'
    '    "generator": "blbc",\n'
    '    "count": 6,\n'
    '    "seed": [\n'
    "      {\n"
    '        "x": "0",\n'
    '        "y": "0"\n'
    "      },\n"
    "      {\n"
    '        "x": "1",\n'
    '        "y": "0"\n'
    "      },\n"
    "      {\n"
    '        "x": "0",\n'
    '        "y": "1"\n'
    "      }\n"
    "    ]\n"
    "  }\n"
    "}\n"
)


def write_points(path, points):
    path.write_text(serialize_point_file(PointFile(points=list(points))))
    return str(path)


def gen(tmp_path, count, trace=False):
    points = tmp_path / f"p{count}.json"
    argv = ["generate", "--count", str(count), "--out", str(points)]
    trace_path = None
    if trace:
        trace_path = tmp_path / f"t{count}.json"
        argv += ["--trace-out", str(trace_path)]
    assert main(argv) == 0
    return points, trace_path


# generate


def test_generate_golden_bytes(tmp_path):
    points, _ = gen(tmp_path, 6)
    assert points.read_text() == POINTS_6_GOLDEN


def test_generate_trace_matches_library(tmp_path):
    from blbc.fileformat import parse_trace_file

    _, trace = gen(tmp_path, 8, trace=True)
    assert parse_trace_file(trace.read_text()) == generate(DEFAULT_SEED, 8).trace


def test_generate_is_deterministic(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["generate", "--count", "15", "--out", str(first)]) == 0
    assert main(["generate", "--count", "15", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_generate_subprocess_matches_in_process(tmp_path):
    out = tmp_path / "sub.json"
    proc = subprocess.run(
        [sys.executable, "-m", "blbc", "generate", "--count", "6", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == POINTS_6_GOLDEN


def test_generate_count_validation(tmp_path):
    assert main(["generate", "--count", "2", "--out", str(tmp_path / "x.json")]) == 2


def test_generate_custom_seed(tmp_path):
    seed = write_points(tmp_path / "seed.json", [(0, 0), (2, 0), (1, 3)])
    out = tmp_path / "out.json"
    assert main(["generate", "--count", "9", "--out", str(out), "--seed-file", seed]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["points"]) == 9
    assert doc["metadata"]["seed"][1] == {"x": "2", "y": "0"}


def test_generate_rejects_bad_seed_files(tmp_path):
    out = str(tmp_path / "out.json")
    two = write_points(tmp_path / "two.json", [(0, 0), (1, 0)])
    assert main(["generate", "--count", "5", "--out", out, "--seed-file", two]) == 2
    collinear = write_points(tmp_path / "col.json", [(0, 0), (1, 0), (2, 0)])
    assert main(["generate", "--count", "5", "--out", out, "--seed-file", collinear]) == 2


# verify


def test_generate_verify_pipeline(tmp_path, capsys):
    for count in (3, 4, 7, 12, 20):
        points, trace = gen(tmp_path, count, trace=True)
        code = main(["verify", "--points", str(points), "--trace", str(trace)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["all_passed"] is True
        assert [c["check"] for c in doc["checks"]] == [
            "no4collinear",
            "uniquetriple",
            "visiblepairlemma",
            "trianglepending",
            "exclusionbound",
        ]


def test_verify_without_trace_runs_point_checks_only(tmp_path, capsys):
    points, _ = gen(tmp_path, 10)
    assert main(["verify", "--points", str(points)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["check"] for c in doc["checks"]] == [
        "no4collinear",
        "visiblepairlemma",
        "trianglepending",
    ]


def test_verify_ordinary_oracle_opt_in(tmp_path, capsys):
    points, trace = gen(tmp_path, 10, trace=True)
    code = main(
        ["verify", "--points", str(points), "--trace", str(trace),
         "--checks", "ordinaryoracle"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [c["check"] for c in doc["checks"]] == ["ordinaryoracle"]
    assert doc["checks"][0]["stats"] == {"steps": 7, "points": 10}


def test_verify_segmentparameter_catches_an_edited_t(tmp_path, capsys):
    # record 24 of a 30-point run, t edited from 1/5 to 1/7 with its point
    # kept: only the opt-in segmentparameter check re-derives t
    points, trace = gen(tmp_path, 30, trace=True)
    doc = json.loads(trace.read_text())
    record = doc["records"][20]
    assert (record["n"], record["t"]) == (24, "1/5")
    record["t"] = "1/7"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    every = ",".join(CHECKS)

    def verify(path, checks):
        code = main(["verify", "--points", str(points), "--trace", str(path),
                     "--checks", checks])
        return code, json.loads(capsys.readouterr().out)["checks"]

    assert main(["verify", "--points", str(points), "--trace", str(edited)]) == 0
    capsys.readouterr()
    code, only = verify(edited, "segmentparameter")
    assert code == 1
    assert only[0]["counterexample"]["t"] == "1/7"
    code, clean = verify(trace, every)
    assert code == 0
    code, reports = verify(edited, every)
    assert code == 1
    assert reports[:-1] == clean[:-1]
    assert reports[-1] == only[0]


def test_verify_checks_subset_keeps_canonical_order(tmp_path, capsys):
    points, _ = gen(tmp_path, 6)
    code = main(
        ["verify", "--points", str(points), "--checks", "trianglepending,no4collinear"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [c["check"] for c in doc["checks"]] == ["no4collinear", "trianglepending"]


def test_verify_fails_on_four_collinear(tmp_path, capsys):
    bad = write_points(tmp_path / "bad.json", [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
    code = main(["verify", "--points", bad])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["all_passed"] is False
    by_name = {c["check"]: c for c in doc["checks"]}
    assert by_name["no4collinear"]["passed"] is False
    assert by_name["no4collinear"]["counterexample"]["indices"] == [1, 2, 3, 4]


def test_verify_rejects_unknown_check(tmp_path, capsys):
    points, _ = gen(tmp_path, 4)
    assert main(["verify", "--points", str(points), "--checks", "bogus"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_trace_checks_require_trace(tmp_path, capsys):
    points, _ = gen(tmp_path, 4)
    assert main(["verify", "--points", str(points), "--checks", "uniquetriple"]) == 2
    assert "--trace" in capsys.readouterr().err


def test_verify_rejects_trace_from_another_run(tmp_path, capsys):
    # the trace is checked against the points whichever checks are named
    points, _ = gen(tmp_path, 10)
    _, trace = gen(tmp_path, 20, trace=True)
    argv = ["verify", "--points", str(points), "--trace", str(trace)]
    assert main(argv + ["--checks", "exclusionbound"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "10 points do not match 17 insertion records (expected 7)" in captured.err


def test_output_bytes_are_pinned(tmp_path, capsys):
    points, trace = gen(tmp_path, 120, trace=True)
    written = [
        (points, "41f6d16f4ad3dad49cb868b11017a4f5d3cae47da88a9492fc3ccf3ec7272eb3"),
        (trace, "5b835f2ec1361bd29aedc479f5ab372a2a99c0648e69a7777ade7f60c5067f94"),
    ]
    # a wide seed: the construction's bytes in raw coordinates, which no
    # default-seed digest can tell apart from its frame
    seed = write_points(tmp_path / "wide_seed.json", WIDE_SEED)
    wide, wide_trace = tmp_path / "w120.json", tmp_path / "wt120.json"
    assert main(["generate", "--count", "120", "--seed-file", seed,
                 "--out", str(wide), "--trace-out", str(wide_trace)]) == 0
    written += [
        (wide, "7acf9bf1b95f659e0eb3e7b5c79fa7eaeccbc987b89e7a714850b9d9057bbab0"),
        (wide_trace, "3bb7797c1e09d5e04dccc3080401eab819fcd323725ccd4a3c4612b90655650f"),
    ]
    for path, digest in written:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path
    bad = write_points(tmp_path / "bad.json", [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
    lattice = write_points(tmp_path / "lattice.json",
                           [(x, y) for y in range(6) for x in range(6)])
    cases = [
        (["verify", "--points", str(points), "--trace", str(trace)], 0,
         "4828677d728442c876c75711beb4a956d138b26e737cebd969e7f12e91bf74d5"),
        # the reports count lines and pairs, which an affine map keeps
        (["verify", "--points", str(wide), "--trace", str(wide_trace)], 0,
         "4828677d728442c876c75711beb4a956d138b26e737cebd969e7f12e91bf74d5"),
        (["verify", "--points", bad,
          "--checks", "no4collinear,visiblepairlemma,trianglepending"], 1,
         "13082d934600c30adc52a160457dfaab26b342012b067b40b046dc3acb922897"),
        (["analyze", "--points", lattice, "--k", "4", "--l", "4"], 0,
         "6458158df0d0a50adfcc3bd9ab9b949222d40a49cb377608dd8a09d23ae762bc"),
        (["analyze", "--points", str(points), "--k", "5", "--l", "13"], 0,
         "5ae6d113dfd89532eb9002f3b0921f67260f77584a6726494f444b0d74afdb2b"),
    ]
    for argv, code, digest in cases:
        assert main(argv) == code, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv
    # render writes its SVG to --out; the digest is of that file
    svg = tmp_path / "out.svg"
    renders = [
        (lattice, "visibility",
         "81993c4310ca038f96267b4b97f46ba5d6e7b479798dc6d02e4d42082dd0ea58"),
        (lattice, "collinear",
         "4ceaf8886e7cb874c500fb465cf39ee02a99479f06bd124604827b7f658ac8d7"),
        (str(points), "visibility",
         "2393ed72f6b27b806bf30b5a3e6c7ebe7a2c3fb6e8a7e49d4aacffc67fabb051"),
        (str(points), "collinear",
         "8d674ccdc38980ec3549c6485c332e7830271869852dcc5ec5670914d75a1f1b"),
        (lattice, "none",
         "e72aa15c6f80cefd72220fc55167206154358e4da7cf5eeee4808aa8838563d8"),
        (str(points), "none",
         "a95831ba4a3a9e1489c1b06b9b2f03e8ad9ddc276d825bbb70882e827c4db2c7"),
    ]
    for path, edges, digest in renders:
        argv = ["render", "--points", path, "--out", str(svg), "--edges", edges]
        assert main(argv) == 0, argv
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest, argv


def test_verify_rejects_malformed_rational(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"format_version": 1, "points": [{"x": "2/4", "y": "0"}]}'
    )
    assert main(["verify", "--points", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "points[0].x" in err
    assert "lowest terms" in err


def test_verify_rejects_duplicate_points(tmp_path, capsys):
    dup = write_points(tmp_path / "dup.json", [(0, 0), (1, 0), (0, 0)])
    assert main(["verify", "--points", dup]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["verify", "--points", str(tmp_path / "absent.json")]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--points", "BAD"],
    ["verify", "--points", "GOOD", "--trace", "BAD"],
    ["analyze", "--points", "BAD", "--k", "4", "--l", "4"],
    ["render", "--points", "BAD", "--out", "OUT"],
    ["generate", "--count", "5", "--out", "OUT", "--seed-file", "BAD"],
])
def test_non_utf8_file_is_format_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff")
    good = write_points(tmp_path / "good.json", DEFAULT_SEED)
    files = {"BAD": str(bad), "GOOD": good, "OUT": str(tmp_path / "out")}
    assert main([files.get(a, a) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8: invalid start byte at byte 0\n"
    assert not (tmp_path / "out").exists()


BIG_X = '{"format_version": 1, "points": [{"x": "1' + "0" * 5000 + '", "y": "0"}]}'
BIG_VERSION = '{"format_version": 1' + "0" * 5000 + ', "points": []}'
REPEATED = '{"format_version": 1, "points": [], "points": [{"x": "0", "y": "0"}]}'


@pytest.mark.parametrize("argv, text, message", [
    (["analyze", "--points", "BAD", "--k", "3", "--l", "3"], BIG_X,
     "error: points[0].x: rational of 5001 characters: Exceeds the limit"),
    (["verify", "--points", "BAD"], BIG_VERSION, "error: json: not valid JSON: Exceeds"),
    (["render", "--points", "BAD", "--out", "OUT"], "[" * 200000,
     "error: json: not valid JSON: maximum recursion depth"),
    (["verify", "--points", "GOOD", "--trace", "BAD"], BIG_VERSION,
     "error: json: not valid JSON: Exceeds"),
    (["verify", "--points", "GOOD", "--trace", "BAD"], "[" * 200000,
     "error: json: not valid JSON: maximum recursion depth"),
    (["analyze", "--points", "BAD", "--k", "3", "--l", "3"], REPEATED,
     "error: json: repeated key 'points'"),
    (["verify", "--points", "GOOD", "--trace", "BAD"],
     '{"format_version": 1, "records": [], "format_version": 1}',
     "error: json: repeated key 'format_version'"),
], ids=["big-x", "big-version", "deep", "trace-big-version", "trace-deep", "repeated-key",
        "trace-repeated-key"])
def test_unreadable_json_is_format_error(tmp_path, capsys, argv, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = write_points(tmp_path / "good.json", DEFAULT_SEED)
    files = {"BAD": str(bad), "GOOD": good, "OUT": str(tmp_path / "out")}
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert not (tmp_path / "out").exists()


# analyze


def test_analyze_grid(tmp_path, capsys):
    grid = write_points(
        tmp_path / "grid.json", [(x, y) for y in range(3) for x in range(3)]
    )
    code = main(["analyze", "--points", grid, "--k", "4", "--l", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["outcome"] == "CliqueFound"
    assert doc["clique_witness"] == [1, 2, 4, 5]
    assert doc["collinear_size"] == 3


def test_analyze_collinear_line(tmp_path, capsys):
    pts = write_points(tmp_path / "line.json", [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
    code = main(["analyze", "--points", pts, "--k", "4", "--l", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["outcome"] == "CollinearFound"
    assert doc["collinear_witness"] == [1, 2, 3, 4]


def test_analyze_threshold_validation(tmp_path, capsys):
    pts = write_points(tmp_path / "p.json", [(0, 0), (1, 0), (0, 1)])
    assert main(["analyze", "--points", pts, "--k", "1", "--l", "4"]) == 2
    capsys.readouterr()


# render


def test_render_writes_svg(tmp_path):
    points, _ = gen(tmp_path, 6)
    out = tmp_path / "out.svg"
    assert main(["render", "--points", str(points), "--out", str(out),
                 "--edges", "collinear"]) == 0
    svg = out.read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert svg.count("<circle") == 6


def test_render_to_missing_directory_is_io_error(tmp_path, capsys):
    points, _ = gen(tmp_path, 4)
    out = tmp_path / "no" / "such" / "dir" / "out.svg"
    assert main(["render", "--points", str(points), "--out", str(out)]) == 3
    capsys.readouterr()


def test_render_rejects_unknown_edge_mode(tmp_path, capsys):
    points, _ = gen(tmp_path, 4)
    out = tmp_path / "out.svg"
    assert main(["render", "--points", str(points), "--out", str(out),
                 "--edges", "wires"]) == 2
    capsys.readouterr()


@pytest.fixture(scope="module")
def run300(tmp_path_factory):
    ps = generate(DEFAULT_SEED, 300).point_set()
    return write_points(tmp_path_factory.mktemp("run300") / "p300.json", ps.points), ps


LATTICE6_VISIBILITY_SVG = "81993c4310ca038f96267b4b97f46ba5d6e7b479798dc6d02e4d42082dd0ea58"


@pytest.mark.parametrize("edges", EDGE_MODES)
def test_render_streams_the_bytes_of_render_svg(tmp_path, run300, edges):
    # the file is written piece by piece as the pieces are made; render_svg
    # joins the same pieces.  The 6x6 lattice has rows whose partners skip
    # the blocked points, so its visibility SVG is pinned as well.
    lattice = PointSet([(x, y) for y in range(6) for x in range(6)])
    sets = [PointSet([(0, 0)]), PointSet([(0, 0), (1, 0)]), lattice]
    files = [(write_points(tmp_path / f"p{ps.n}.json", ps.points), ps) for ps in sets]
    out = tmp_path / "out.svg"
    for path, ps in [*files, run300]:
        assert main(["render", "--points", path, "--out", str(out), "--edges", edges]) == 0
        assert out.read_bytes() == render_svg(ps, edges).encode()
    if edges == "visibility":
        svg = render_svg(lattice, edges).encode()
        assert hashlib.sha256(svg).hexdigest() == LATTICE6_VISIBILITY_SVG


@pytest.mark.parametrize(
    "points, edges, segments",
    [
        ([(0, 0)], "visibility", 0),
        ([(0, 0), (1, 0)], "collinear", 0),
        ([(0, 0), (1, 0), (0, 1)], "collinear", 0),
        ([(0, 0), (1, 0), (0, 1)], "none", 0),
        ([(0, 0), (1, 0)], "visibility", 1),
        ([(0, 0), (1, 0), (2, 0)], "collinear", 1),
    ],
)
def test_render_writes_the_edge_group_only_around_segments(tmp_path, points, edges, segments):
    path = write_points(tmp_path / "p.json", points)
    out = tmp_path / "out.svg"
    assert main(["render", "--points", path, "--out", str(out), "--edges", edges]) == 0
    svg = out.read_text()
    assert svg.count("<line") == segments
    assert svg.count('<g class="edges"') == min(segments, 1)


@pytest.mark.parametrize("edges", EDGE_MODES)
def test_render_refusal_leaves_the_output_untouched(tmp_path, capsys, edges):
    # the input is checked before --out is opened, so a refused render
    # neither empties nor rewrites an existing file
    empty = tmp_path / "empty.json"
    empty.write_text('{"format_version": 1, "points": []}')
    out = tmp_path / "out.svg"
    out.write_bytes(b"<svg>kept</svg>\n")
    assert main(["render", "--points", str(empty), "--out", str(out), "--edges", edges]) == 2
    assert "nothing to render" in capsys.readouterr().err
    assert out.read_bytes() == b"<svg>kept</svg>\n"


def test_render_holds_the_visible_pairs_one_at_a_time(tmp_path, run300):
    # 44,553 segments; sorting them, or joining the text before writing it,
    # peaks over 13 MiB
    out = tmp_path / "out.svg"
    tracemalloc.start()
    try:
        assert main(["render", "--points", run300[0], "--out", str(out),
                     "--edges", "visibility"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.read_text().count("<line") == 44553
    assert peak < 2 * 2**20


# usage


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "generate" in capsys.readouterr().out


def verify_help(capsys):
    assert main(["verify", "--help"]) == 0
    return " ".join(capsys.readouterr().out.split())


def test_verify_help_names_the_checks(capsys):
    assert (
        "comma-separated subset of: no4collinear, uniquetriple, visiblepairlemma, "
        "trianglepending, exclusionbound, ordinaryoracle, segmentparameter "
        "(default: all applicable except ordinaryoracle and segmentparameter)"
    ) in verify_help(capsys)


def test_verify_help_follows_the_registry(capsys, monkeypatch):
    monkeypatch.setitem(CHECKS, "extracheck", CHECKS["ordinaryoracle"])
    assert (
        "segmentparameter, extracheck (default: all applicable except "
        "ordinaryoracle and segmentparameter and extracheck)"
    ) in verify_help(capsys)
