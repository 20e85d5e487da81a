"""The package's public surface, and the part of it the benchmark calls.

`perfbench/workloads.py` drives blbc only through public names; a removal
or rename there would otherwise surface only when the benchmark runs.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import blbc

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

PUBLIC = [
    "BlbcError",
    "BlbcOutcome",
    "BlbcVerdict",
    "CanonicalLine",
    "ConsistencyError",
    "ConstructionState",
    "DEFAULT_SEED",
    "DegenerateSegmentError",
    "DuplicatePointError",
    "FormatError",
    "ImpossibleStateError",
    "InputError",
    "InsertionRecord",
    "LineIncidenceMap",
    "OrdinaryPair",
    "Orientation",
    "ParameterRangeError",
    "PendingPairError",
    "PlacementError",
    "Point",
    "PointFile",
    "PointSet",
    "Rational",
    "RationalFormatError",
    "SeedError",
    "SeedTriple",
    "VerificationReport",
    "VisibilityGraph",
    "blocking_parameters",
    "build_visibility_graph",
    "build_visibility_graph_naive",
    "check_blbc_instance",
    "choose_parameter",
    "excluded_parameters",
    "farey_order",
    "format_rational",
    "generate",
    "generate_states",
    "init_state",
    "insert_point",
    "is_visible",
    "line_through",
    "max_collinear",
    "max_visible_clique",
    "on_open_segment",
    "orientation",
    "parse_point_file",
    "parse_rational",
    "parse_trace_file",
    "render_svg",
    "segment_param_point",
    "select_ordinary_pair",
    "serialize_point_file",
    "serialize_reports",
    "serialize_trace_file",
    "serialize_verdict",
    "state_from_points",
    "verify_construction_run",
    "verify_exclusion_bound",
    "verify_no_k_collinear",
    "verify_ordinary_oracle",
    "verify_trace_selections",
    "verify_triangle_pending",
    "verify_unique_triple_at_insertion",
    "verify_visible_pair_lemma",
]


def test_all_is_pinned():
    assert blbc.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(blbc, name), name


def _blbc_chain(node):
    """Dotted names after ``blbc`` in an attribute chain such as
    ``blbc.LineIncidenceMap.from_point_set``, or None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "blbc":
        return names[::-1]
    return None


def test_benchmark_uses_only_names_that_resolve():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _blbc_chain(node)
            if chain:
                chains.add(tuple(chain))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("blbc"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
    assert ("verify_construction_run",) in chains
    for chain in chains:
        obj = blbc
        for name in chain:
            assert hasattr(obj, name), "blbc." + ".".join(chain)
            obj = getattr(obj, name)
        assert chain[0] in blbc.__all__, chain[0]


def test_import_loads_no_numpy():
    # numpy alone costs over 10 MiB of peak RSS, far past the benchmark's
    # 0.1 bound on it, so nothing the package or its CLI imports may pull
    # it in
    src = str(Path(blbc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, blbc, blbc.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
