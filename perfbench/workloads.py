"""The three benchmark workloads: inputs from a seed, ops, checks, traced ops.

Every call into blbc goes through its public surface: ``blbc.cli.main``
for CLI commands, names in ``blbc.__all__`` and
``blbc.clique.find_max_clique``.  The traced ops repeat the untraced ops
through those same public calls, one span around each call into a module,
and must produce the same bytes.

The construction is affine-equivariant: from a seed triple ``A(D)``, the
image of the default seed ``D`` under an affine map ``A``, it builds
exactly ``A`` of the default run, with the same pairs, parameters and
excluded counts.  The construct workloads therefore accept any seed: the
check maps the output points back through ``A``'s inverse and compares
digests recorded for the default frame.  The inspect workload renders an
SVG, whose bytes are not affine-invariant, so its seed picks one of
`INSPECT_VARIANTS` input sets, each with its own recorded digests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import random
import time
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Callable

import blbc
from blbc.cli import main as cli_main
from blbc.clique import find_max_clique

from tracing import Tracer

INSPECT_VARIANTS = 8

# Sizes per profile.  "full" is what the benchmark measures; "smoke" is
# the tiny configuration the smoke test runs.
SIZES = {
    "full": {
        "construct-small": {"points": 300, "warmup": 60},
        "construct-wide": {"points": 200, "warmup": 40},
        "inspect": {"points": 300, "oracle_points": 80, "lattice": 12, "k": 5, "l": 13},
    },
    "smoke": {
        "construct-small": {"points": 20, "warmup": 10},
        "construct-wide": {"points": 20, "warmup": 10},
        "inspect": {"points": 20, "oracle_points": 20, "lattice": 6, "k": 5, "l": 7},
    },
}

# Largest homogeneous coordinate, in bits, a seed family may produce:
# small seeds stay within machine words, wide seeds never fit one.
COORD_BITS = {"construct-small": (1, 12), "construct-wide": (30, 10_000)}

# Counters that depend on the seed's coordinates rather than on the
# combinatorics; every other counter must equal its recorded value.
SEED_DEPENDENT = ("construction.max_coord_bits", "fileformat.bytes_out")
# Inspect outputs and counters that differ between its input variants.
VARIANT_OUTPUTS = {"render": ("svg_sha256",)}
VARIANT_COUNTERS = ("fileformat.bytes_in", "svgrender.bytes")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# seeds


class Affine:
    """Map p -> o + M p taking the default seed (0,0), (1,0), (0,1) to
    ``triple``; the triple must not be collinear."""

    def __init__(self, triple):
        (ox, oy), (px, py), (qx, qy) = [(Fraction(x), Fraction(y)) for x, y in triple]
        self.o = (ox, oy)
        self.m = (px - ox, qx - ox, py - oy, qy - oy)
        a, b, c, d = self.m
        self.det = a * d - b * c
        if self.det == 0:
            raise ValueError("collinear seed triple")

    def __call__(self, x, y):
        a, b, c, d = self.m
        return self.o[0] + a * x + b * y, self.o[1] + c * x + d * y

    def inverse(self, x, y):
        a, b, c, d = self.m
        dx, dy = x - self.o[0], y - self.o[1]
        return (d * dx - b * dy) / self.det, (a * dy - c * dx) / self.det

    def triple(self):
        return [blbc.Point(*self(x, y)) for x, y in ((0, 0), (1, 0), (0, 1))]


_UNIMODULAR = [m for m in itertools.product((-1, 0, 1), repeat=4)
               if m[0] * m[3] - m[1] * m[2] in (1, -1)]


def small_seed(rng: random.Random) -> Affine:
    """Integer translation in [-2, 2]^2 and a unimodular matrix with
    entries in {-1, 0, 1}: coordinates keep about 10 bits."""
    ox, oy = rng.randint(-2, 2), rng.randint(-2, 2)
    a, b, c, d = rng.choice(_UNIMODULAR)
    return Affine([(ox, oy), (ox + a, oy + c), (ox + b, oy + d)])


def wide_seed(rng: random.Random) -> Affine:
    """(0, 0) and two points whose coordinates have 30- to 42-bit
    numerators or denominators, in the bit pattern of
    ((2^40+15)/(2^31-1), 3/(2^33+7)), (-5/(2^35+3), (2^41-9)/(2^29+11))."""

    def frac(num_bits: int, den_bits: int) -> Fraction:
        num = rng.getrandbits(num_bits) | 1 << (num_bits - 1)
        den = rng.getrandbits(den_bits) | 1 << (den_bits - 1) | 1
        return Fraction(rng.choice((-1, 1)) * num, den)

    while True:
        try:
            return Affine([(0, 0), (frac(41, 31), frac(2, 34)), (frac(3, 36), frac(42, 30))])
        except ValueError:
            continue


def lattice_map(rng: random.Random) -> Affine:
    """Rational affine map with small numerators and denominators."""
    while True:
        def q() -> Fraction:
            return Fraction(rng.randint(-9, 9), rng.randint(2, 9))
        o = (q(), q())
        try:
            return Affine([o, (o[0] + q(), o[1] + q()), (o[0] + q(), o[1] + q())])
        except ValueError:
            continue


def coord_bits(points) -> int:
    """Largest bit length among the homogeneous (X, Y, W) of the points."""
    best = 0
    for p in points:
        w = lcm(p.x.denominator, p.y.denominator)
        best = max(best, abs(p.x.numerator * (w // p.x.denominator)).bit_length(),
                   abs(p.y.numerator * (w // p.y.denominator)).bit_length(),
                   w.bit_length())
    return best


# ---------------------------------------------------------------------------
# workloads


@dataclasses.dataclass
class Timed:
    """One timed call: its label, wall seconds and output."""

    label: str
    seconds: float
    output: object


class Construct:
    """Generate and certify: ``verify_construction_run(generate_states(seed,
    n))``, then the canonical point and trace bytes of the final state."""

    def __init__(self, name: str, seed: int, profile: str):
        self.name = name
        make = small_seed if name == "construct-small" else wide_seed
        self.affine = make(random.Random(f"{name}:{seed}"))
        self.n = SIZES[profile][name]["points"]
        self.warmup = SIZES[profile][name]["warmup"]

    def setup(self):
        triple = self.affine.triple()
        self._run(triple, self.warmup)
        return triple

    def _run(self, triple, n):
        reports, final = blbc.verify_construction_run(blbc.generate_states(triple, n))
        points = blbc.serialize_point_file(blbc.PointFile(points=final.points))
        trace = blbc.serialize_trace_file(final.trace)
        return reports, points, trace

    def op(self, triple) -> list[Timed]:
        t0 = time.perf_counter()
        out = self._run(triple, self.n)
        return [Timed("construct", time.perf_counter() - t0, out)]

    def observe(self, timed: list[Timed]) -> dict:
        """Digests of the outputs, mapped back to the default frame."""
        reports, points_text, trace_text = timed[0].output
        inv = self.affine.inverse
        points = [blbc.Point(*inv(*p)) for p in blbc.parse_point_file(points_text).points]
        trace = [dataclasses.replace(r, point=blbc.Point(*inv(*r.point)))
                 for r in blbc.parse_trace_file(trace_text)]
        return {"construct": {
            "all_prefixes_passed": all(r.passed for _, rs in reports for r in rs),
            "reports_sha256": sha256(blbc.serialize_reports(reports[-1][1])),
            "points_sha256": sha256(blbc.serialize_point_file(blbc.PointFile(points=points))),
            "trace_sha256": sha256(blbc.serialize_trace_file(trace)),
        }}

    def expected(self, recorded: dict) -> dict:
        return recorded

    def traced_op(self, triple, tracer: Tracer) -> tuple[list[Timed], dict]:
        """`op` with the 4-line loop of `generate_states` spelled out."""
        counters = {"construction.steps": 0, "construction.lines_scanned": 0,
                    "construction.excluded_total": 0}
        chosen: list[Fraction] = []

        def states():
            with tracer.span("construction.init"):
                state = blbc.init_state(triple)
            yield state
            while len(state.points) < self.n:
                counters["construction.steps"] += 1
                counters["construction.lines_scanned"] += len(state.lines)
                with tracer.span("construction.select"):
                    pair = blbc.select_ordinary_pair(state)
                with tracer.span("construction.exclude"):
                    excluded = blbc.excluded_parameters(state, pair)
                with tracer.span("construction.choose"):
                    t = blbc.choose_parameter(excluded)
                with tracer.span("construction.insert"):
                    blbc.insert_point(state, pair, t, _excluded=excluded)
                counters["construction.excluded_total"] += len(excluded)
                chosen.append(t)
                yield state

        t0 = time.perf_counter()
        with tracer.span("verifier.sweep"):
            reports, final = blbc.verify_construction_run(states())
        with tracer.span("fileformat.serialize_points"):
            points = blbc.serialize_point_file(blbc.PointFile(points=final.points))
        with tracer.span("fileformat.serialize_trace"):
            trace = blbc.serialize_trace_file(final.trace)
        seconds = time.perf_counter() - t0

        counters["construction.exclude_hit_ratio"] = (
            counters["construction.excluded_total"]
            / counters["construction.lines_scanned"])
        counters["construction.farey_tried"] = sum(_farey_rank(t) for t in chosen)
        counters["construction.max_coord_bits"] = coord_bits(final.points)
        counters["fileformat.bytes_out"] = len(points) + len(trace)
        counters.update(_report_counters(reports[-1][1]))
        return [Timed("construct", seconds, (reports, points, trace))], counters

    def check_counters(self, counters: dict) -> list[str]:
        lo, hi = COORD_BITS[self.name]
        bits = counters["construction.max_coord_bits"]
        if lo <= bits <= hi:
            return []
        return [f"construction.max_coord_bits {bits} outside {lo}..{hi}"]


def _farey_rank(t: Fraction) -> int:
    """Farey candidates tried before and including ``t``."""
    for rank, candidate in enumerate(blbc.farey_order(), start=1):
        if candidate == t:
            return rank
    raise AssertionError("unreachable: Farey order is infinite")


def _report_counters(reports) -> dict:
    """Work counts from the stats of the five default checks' reports."""
    stats = {r.check: r.stats for r in reports}
    return {
        "verifier.lines": stats["no4collinear"]["lines"],
        "verifier.visible_edges": stats["trianglepending"]["visible_edges"],
        "verifier.candidate_edges": stats["trianglepending"]["candidate_edges"],
        "verifier.qualifying_pairs": stats["visiblepairlemma"]["qualifying_pairs"],
    }


class Inspect:
    """Read-only CLI commands on files made in set-up, each timed alone."""

    name = "inspect"

    def __init__(self, seed: int, profile: str, workdir: Path):
        self.variant = seed % INSPECT_VARIANTS
        rng = random.Random(f"inspect:{self.variant}")
        self.affine = small_seed(rng)
        self.lattice = lattice_map(rng)
        self.sizes = SIZES[profile]["inspect"]
        self.files = {name: str(workdir / name) for name in (
            "seed.json", "points.json", "trace.json", "oracle_points.json",
            "oracle_trace.json", "lattice.json", "render.svg")}
        s, f = self.sizes, self.files
        self.argv = {
            "verify": ["verify", "--points", f["points.json"], "--trace", f["trace.json"]],
            "oracle": ["verify", "--points", f["oracle_points.json"],
                       "--trace", f["oracle_trace.json"], "--checks", "ordinaryoracle"],
            "analyze": ["analyze", "--points", f["lattice.json"],
                        "--k", str(s["k"]), "--l", str(s["l"])],
            "render": ["render", "--points", f["points.json"], "--out", f["render.svg"],
                       "--edges", "visibility"],
        }

    def setup(self):
        f = self.files
        seed = blbc.serialize_point_file(blbc.PointFile(points=self.affine.triple()))
        Path(f["seed.json"]).write_text(seed, encoding="utf-8")
        for count, points, trace in ((self.sizes["points"], "points.json", "trace.json"),
                                     (self.sizes["oracle_points"], "oracle_points.json",
                                      "oracle_trace.json")):
            code, _ = _cli(["generate", "--count", str(count), "--seed-file", f["seed.json"],
                            "--out", f[points], "--trace-out", f[trace]])
            if code != 0:
                raise RuntimeError(f"generate --count {count} exited with {code}")
        side = range(self.sizes["lattice"])
        lattice = [blbc.Point(*self.lattice(x, y)) for y in side for x in side]
        Path(f["lattice.json"]).write_text(
            blbc.serialize_point_file(blbc.PointFile(points=lattice)), encoding="utf-8")
        return f

    def op(self, files) -> list[Timed]:
        out = []
        for label, argv in self.argv.items():
            t0 = time.perf_counter()
            result = _cli(argv)
            out.append(Timed(label, time.perf_counter() - t0, result))
        return out

    def observe(self, timed: list[Timed]) -> dict:
        out = {}
        for t in timed:
            code, stdout = t.output
            obs = {"exit_code": code}
            if t.label == "render":
                obs["svg_sha256"] = sha256(
                    Path(self.files["render.svg"]).read_text(encoding="utf-8"))
            else:
                obs["stdout_sha256"] = sha256(stdout)
                doc = json.loads(stdout)
                if t.label == "analyze":
                    obs["verdict"] = {k: doc[k] for k in
                                      ("outcome", "collinear_size", "clique_size")}
                else:
                    obs["all_passed"] = doc["all_passed"]
            out[t.label] = obs
        return out

    def expected(self, recorded: dict) -> dict:
        variant = recorded["variants"][self.variant]
        outputs = {label: {**obs, **variant["outputs"].get(label, {})}
                   for label, obs in recorded["outputs"].items()}
        return {"outputs": outputs,
                "counters": {**recorded["counters"], **variant["counters"]}}

    def traced_op(self, files, tracer: Tracer) -> tuple[list[Timed], dict]:
        """Each command spelled out as the public calls `blbc.cli` makes, with
        `check_blbc_instance` split into `max_collinear`,
        `build_visibility_graph` and `find_max_clique`.  Its witness
        assertions run only when a threshold is reached, which never
        happens on this workload's lattice."""
        counters = {"fileformat.bytes_in": 0, "fileformat.bytes_out": 0,
                    "visibility.lines": 0, "visibility.visible_edges": 0}
        span = tracer.span

        def read(path: str) -> str:
            text = Path(path).read_text(encoding="utf-8")
            counters["fileformat.bytes_in"] += len(text)
            return text

        def load_points(path: str):
            text = read(path)
            with span("fileformat.parse_points"):
                points = blbc.parse_point_file(text).points
            return blbc.PointSet(points)

        def load_trace(path: str):
            text = read(path)
            with span("fileformat.parse_trace"):
                return blbc.parse_trace_file(text)

        def reports_text(reports) -> str:
            with span("fileformat.serialize_reports"):
                text = blbc.serialize_reports(reports)
            counters["fileformat.bytes_out"] += len(text)
            return text

        def verify(points: str, trace: str) -> tuple[int, str]:
            ps, records = load_points(points), load_trace(trace)
            reports = []
            with span("verifier.no4collinear"):
                reports.append(blbc.verify_no_k_collinear(ps, 4))
            with span("verifier.uniquetriple"):
                reports.append(blbc.verify_unique_triple_at_insertion(records, ps))
            with span("verifier.visiblepairlemma"):
                reports.append(blbc.verify_visible_pair_lemma(ps))
            with span("visibility.incidence_build"):
                lmap = blbc.LineIncidenceMap.from_point_set(ps)
            counters["visibility.lines"] += len(lmap)
            with span("verifier.trianglepending"):
                reports.append(blbc.verify_triangle_pending(ps, lmap.two_point_pairs()))
            with span("verifier.exclusionbound"):
                reports.append(blbc.verify_exclusion_bound(records))
            counters.update(_report_counters(reports))
            return (0 if all(r.passed for r in reports) else 1), reports_text(reports)

        def oracle(points: str, trace: str) -> tuple[int, str]:
            ps, records = load_points(points), load_trace(trace)
            with span("verifier.ordinaryoracle"):
                report = blbc.verify_trace_selections(ps, records)
            return (0 if report.passed else 1), reports_text([report])

        def analyze(points: str, k: int, l: int) -> tuple[int, str]:
            ps = load_points(points)
            with span("visibility.max_collinear"):
                col_size, col_wit = blbc.max_collinear(ps)
            with span("visibility.graph_build"):
                graph = blbc.build_visibility_graph(ps)
            counters["visibility.visible_edges"] += graph.edge_count
            with span("clique.search"):
                clique = find_max_clique(range(1, ps.n + 1), graph.adjacency(), cap=k)
            counters["clique.size"] = len(clique)
            big_line, big_clique = col_size >= l, len(clique) >= k
            outcome = {(True, True): blbc.BlbcOutcome.BOTH_FOUND,
                       (True, False): blbc.BlbcOutcome.COLLINEAR_FOUND,
                       (False, True): blbc.BlbcOutcome.CLIQUE_FOUND,
                       (False, False): blbc.BlbcOutcome.NEITHER_FOUND}[big_line, big_clique]
            verdict = blbc.BlbcVerdict(
                k=k, l=l, outcome=outcome, collinear_size=col_size,
                clique_size=len(clique), collinear_witness=col_wit if big_line else None,
                clique_witness=clique if big_clique else None)
            with span("fileformat.serialize_verdict"):
                text = blbc.serialize_verdict(verdict)
            counters["fileformat.bytes_out"] += len(text)
            return 0, text

        def render(points: str, out: str) -> tuple[int, str]:
            ps = load_points(points)
            with span("svgrender.render"):
                svg = blbc.render_svg(ps, "visibility")
            Path(out).write_text(svg, encoding="utf-8")
            counters["svgrender.bytes"] = len(svg)
            counters["svgrender.segments"] = svg.count("<line ")
            return 0, ""

        s, f = self.sizes, files
        commands: list[tuple[str, Callable[[], tuple[int, str]]]] = [
            ("verify", lambda: verify(f["points.json"], f["trace.json"])),
            ("oracle", lambda: oracle(f["oracle_points.json"], f["oracle_trace.json"])),
            ("analyze", lambda: analyze(f["lattice.json"], s["k"], s["l"])),
            ("render", lambda: render(f["points.json"], f["render.svg"])),
        ]
        out = []
        for label, command in commands:
            t0 = time.perf_counter()
            with span("cli.command"):
                result = command()
            out.append(Timed(label, time.perf_counter() - t0, result))
        return out, counters

    def check_counters(self, counters: dict) -> list[str]:
        return []


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


WORKLOADS = ("construct-small", "construct-wide", "inspect")


def make(name: str, seed: int, profile: str, workdir: Path):
    if name == "inspect":
        return Inspect(seed, profile, workdir)
    return Construct(name, seed, profile)
