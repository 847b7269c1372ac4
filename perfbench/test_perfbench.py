"""Fast self-check of the benchmark harness.

    python3 -m pytest perfbench -q

One berge screen op at 128 bits through the reference check, the same op
traced, the seeded relabelling, the exact start-solution round trip, and
the runner's refusal to run without the cuspforge sources.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from mpmath import mp  # noqa: E402

import cuspforge.manifold as manifold  # noqa: E402
import cuspforge.numberlab as numberlab  # noqa: E402
from cuspforge.holonomy import ShapeAssignment  # noqa: E402
import cuspforge.screen as screen  # noqa: E402
from inputs import FIXTURES, dump_shapes, load_start, relabel, write_inputs  # noqa: E402
from tracing import Tracer, install, layer_metrics  # noqa: E402
from workloads import CheckState, _check_screen  # noqa: E402

FIXTURE_DIR = ROOT / "src" / "cuspforge" / "fixtures"


@pytest.fixture(scope="module")
def berge_path(tmp_path_factory):
    return write_inputs(FIXTURE_DIR, tmp_path_factory.mktemp("inputs"), ["berge"], 7)["berge"]


def _berge_screen_op(path):
    return screen.screen([path], screen.ScreenOptions(precision_bits=128))


@pytest.mark.parametrize("name", FIXTURES)
def test_relabel_keeps_the_equations(name):
    doc = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
    assert relabel(doc, 0) == doc
    assert relabel(doc, 5) == relabel(doc, 5)
    assert relabel(doc, 5) != doc
    original = manifold.parse_triangulation(json.dumps(doc))
    moved = manifold.parse_triangulation(json.dumps(relabel(doc, 5)))
    assert moved.edge_equations() == original.edge_equations()
    assert [e.label for e in moved.edges] != [e.label for e in original.edges]


def test_start_solution_round_trip_is_exact():
    with mp.workprec(200):
        shapes = ShapeAssignment((mp.mpc(-0.25, 1) / 3, mp.mpc(0.5, -2) / 7), 170)
    entry = {"precision_bits": 170, "shapes": dump_shapes(shapes), "residual": "0",
             "geometric": True, "iterations": 1, "success": True, "restarts_used": 0}
    loaded = load_start(json.loads(json.dumps(entry)))
    assert loaded.shapes.z == shapes.z


def test_berge_screen_op_passes_its_reference_at_128_bits(berge_path):
    reports = _berge_screen_op(berge_path)
    outcome = _check_screen("berge")(reports, CheckState())
    assert outcome.status == "passed", outcome.reason
    assert outcome.minpolys == [(1, -1, 1), (1, -1, 1)]


def test_screen_check_rejects_a_wrong_polynomial(berge_path):
    reports = _berge_screen_op(berge_path)
    rec = reports[0].cusps[1]
    rec.minpoly = numberlab.MinPoly((1, 1, 1), rec.minpoly.residual, 1)
    outcome = _check_screen("berge")(reports, CheckState())
    assert outcome.status == "wrong"


def test_traced_op_records_nested_spans(berge_path):
    tracer = Tracer()
    original = screen.algdep
    uninstall = install(tracer)
    try:
        assert screen.algdep is not original
        with tracer.record("0:berge"):
            reports = _berge_screen_op(berge_path)
    finally:
        uninstall()
    assert screen.algdep is original
    assert reports[0].verdict == screen.RIGID_NOT_ISOLATED

    spans = tracer.spans
    by_id = {s["id"]: s for s in spans}
    assert all(s["parent"] is None or s["parent"] in by_id for s in spans)
    assert all(s["op"] == "0:berge" and s["end"] >= s["start"] for s in spans)
    names = {s["name"] for s in spans}
    assert {"screen", "screen_triangulation", "parse_triangulation", "solve_complete",
            "algdep", "isolation_verdict", "tau_derivatives"} <= names
    # the doubled-precision re-solve nests under the isolation verdict
    resolves = [s for s in spans if s["name"] == "solve_complete"
                and by_id[s["parent"]]["name"] == "isolation_verdict"]
    assert len(resolves) == 2

    metrics = layer_metrics(spans, recognized=2, overhead_share=0.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(metrics) == [m["name"] for m in declared]
    assert [unit for _, unit in metrics.values()] == [m["unit"] for m in declared]
    assert metrics["isolation.resolve_2p_calls"][0] == 2
    assert metrics["numberlab.algdep_calls"][0] == 2
    assert metrics["numberlab.algdep_recognized"][0] == 1.0


def test_runner_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "screen", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
