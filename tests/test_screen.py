"""Screening reports, verdict rules, determinism, and the CLI surface."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

import cuspforge as cf
from cuspforge.numberlab import EISENSTEIN, GAUSSIAN, UNRECOGNIZED
from cuspforge.screen import (
    FAILS_RIGID,
    NON_VERIFIED_TAG,
    RIGID_NOT_ISOLATED,
    UNDETERMINED,
    ScreenOptions,
    fill_and_screen,
    fixture_dir,
    reports_to_csv,
    screen,
    screen_triangulation,
    write_reports,
)

from conftest import PRECISION

OPTIONS = ScreenOptions(precision_bits=PRECISION, max_degree=12, seed=0)


@pytest.fixture(scope="module")
def reports():
    paths = [fixture_dir() / f"{n}.json" for n in ("whitehead", "622", "berge")]
    return screen(paths, OPTIONS)


def test_whitehead_report(reports):
    rep = next(r for r in reports if r.manifold == "whitehead")
    assert rep.verdict == RIGID_NOT_ISOLATED
    by_name = {c.name: c for c in rep.cusps}
    c1 = by_name["c1"]
    assert c1.field.kind == GAUSSIAN and c1.rigid
    assert c1.shape["re"].startswith("-2.0") and c1.shape["im"].startswith("2.0")
    assert c1.isolation is not None and c1.isolation.not_isolated


def test_622_report(reports):
    rep = next(r for r in reports if r.manifold == "622")
    assert rep.verdict == RIGID_NOT_ISOLATED
    for rec in rep.cusps:
        assert rec.field.kind == EISENSTEIN
        assert rec.minpoly.coefficients == (4, -2, 1)
        assert rec.isolation.not_isolated


def test_berge_report(reports):
    rep = next(r for r in reports if r.manifold == "berge")
    assert rep.verdict == RIGID_NOT_ISOLATED
    rec = next(c for c in rep.cusps if c.name == "c")
    assert rec.field.kind == EISENSTEIN
    assert rec.isolation.order == 2


def test_provenance_tag(reports):
    for rep in reports:
        assert rep.provenance["tag"] == NON_VERIFIED_TAG
        assert rep.provenance["precision_bits"] == PRECISION


def test_verdict_rules_enforced(reports):
    for rep in reports:
        records = [c for c in rep.cusps if c.error is None]
        if rep.verdict == FAILS_RIGID:
            assert records and all(not c.rigid for c in records)
        if rep.verdict == RIGID_NOT_ISOLATED:
            assert any(c.rigid and c.isolation and c.isolation.not_isolated
                       for c in records)


def test_report_determinism(whitehead):
    a = screen_triangulation(whitehead, "whitehead", OPTIONS)
    b = screen_triangulation(whitehead, "whitehead", OPTIONS)
    assert a.to_json() == b.to_json()


def test_precision_doubling_stability(reports):
    # doubling the precision must not flip any rigid-compatible verdict
    hi = ScreenOptions(precision_bits=2 * PRECISION, max_degree=12, seed=0)
    for name in ("whitehead", "622", "berge"):
        tri = cf.load_fixture(name)
        rep_lo = next(r for r in reports if r.manifold == tri.name)
        rep_hi = screen_triangulation(tri, name, hi, run_isolation=False)
        lo = {c.name: c.rigid for c in rep_lo.cusps}
        hi_map = {c.name: c.rigid for c in rep_hi.cusps}
        for cusp_name, rigid in lo.items():
            if rigid:
                assert hi_map[cusp_name]


def test_csv_output(reports):
    text = reports_to_csv(reports)
    lines = text.strip().splitlines()
    assert lines[0] == "manifold,cusp,field,rigid_compatible,isolation,verdict,tag"
    assert len(lines) == 1 + sum(len(r.cusps) for r in reports)
    assert all(NON_VERIFIED_TAG in line for line in lines[1:])


def test_write_reports(tmp_path, reports):
    write_reports(reports, tmp_path)
    assert (tmp_path / "summary.csv").exists()
    blob = json.loads((tmp_path / "whitehead.report.json").read_text())
    assert blob["verdict"] == RIGID_NOT_ISOLATED
    assert blob["provenance"]["tag"] == NON_VERIFIED_TAG


def test_parse_failure_recorded(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    reports = screen([bad, tmp_path / "missing.json"], OPTIONS)
    for rep in reports:
        assert rep.error and "parse failed" in rep.error
        assert rep.verdict == UNDETERMINED
        assert rep.parse_failed and "parse_failed" not in rep.to_jsonable()


def test_fill_and_screen_whitehead(whitehead):
    reports = fill_and_screen(whitehead, 1, [1, -1, 2], OPTIONS)
    by_n = dict(zip([1, -1, 2], reports))
    kinds = {}
    for n, rep in by_n.items():
        rec = rep.cusps[0] if rep.cusps else None
        kinds[n] = None if rec is None or rec.field is None else rec.field.kind
    # exactly one of the two +-1 slopes carries the Eisenstein field; the
    # other is the flat exceptional slope
    assert sorted(k for k in (kinds[1], kinds[-1]) if k == EISENSTEIN) == [EISENSTEIN]
    assert by_n[2].verdict == FAILS_RIGID
    flat = by_n[-1] if kinds[1] == EISENSTEIN else by_n[1]
    assert flat.error or flat.solve["degenerate"] or not flat.solve["geometric"]


def test_fill_sweep_makes_no_complete_solve(whitehead, monkeypatch):
    # every filling ramps from the float root of its own start search: no
    # complete structure is polished, by the sweep or by the filled solver
    import cuspforge.screen as screen_module
    import cuspforge.solver as solver_module

    calls = []
    for module in (screen_module, solver_module):
        def counted(*args, _solve=module.solve_complete, **kwargs):
            calls.append(args)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(module, "solve_complete", counted)
    reports = fill_and_screen(whitehead, 1, [2, -3], OPTIONS)
    assert calls == []
    assert len(reports) == 2 and all(rep.solve["success"] for rep in reports)


FILL_NS = [n for n in range(-5, 6) if n]


def test_fill_precision_ladder(whitehead):
    # every (1, n) fill at 128, 256 and 512 bits gives the 512-bit minimal
    # polynomial or none; the misses are (1, 5) at 128 bits, whose degree-10
    # relation needs more digits, and (1, +-5) at max-degree 8, whose fields
    # have degree 9 and 10
    found = {}
    for bits in (128, 256, 512):
        for max_degree in (12, 8):
            options = ScreenOptions(precision_bits=bits, max_degree=max_degree, seed=0)
            reports = fill_and_screen(whitehead, 1, FILL_NS, options)
            assert all(rep.error is None and len(rep.cusps) == 1 for rep in reports)
            found[bits, max_degree] = [rep.cusps[0].minpoly for rep in reports]
    reference = [m.coefficients for m in found[512, 12]]
    assert [len(m) - 1 for m in reference] == [9, 7, 5, 3, 1, 2, 4, 6, 8, 10]
    misses = {}
    for key, minpolys in found.items():
        for n, m, want in zip(FILL_NS, minpolys, reference):
            assert m is None or m.coefficients == want, (key, n)
        misses[key] = [n for n, m in zip(FILL_NS, minpolys) if m is None]
    assert misses == {(128, 12): [5], (256, 12): [], (512, 12): [],
                      (128, 8): [-5, 5], (256, 8): [-5, 5], (512, 8): [-5, 5]}


def test_unrecognized_field_is_not_an_obstruction(whitehead):
    # at 128 bits algdep misses the degree-10 field of the (1, 5) filling;
    # the miss decides nothing, so the geometric filling is Undetermined
    report, = fill_and_screen(whitehead, 1, [5], ScreenOptions(precision_bits=128, seed=0))
    rec, = report.cusps
    assert rec.error is None and rec.field.kind == UNRECOGNIZED and not rec.rigid
    assert report.solve["geometric"] and not report.solve["degenerate"]
    assert report.verdict == UNDETERMINED


def _count_solves(monkeypatch, alter_doubled=None):
    """Record the precision of every complete solve made by the screen and
    the solver modules; `alter_doubled(result)`, when given, replaces
    each result solved at 2 * PRECISION."""
    import cuspforge.screen as screen_module
    import cuspforge.solver as solver_module

    calls = []
    for module in (screen_module, solver_module):
        def counted(tri, precision_bits, *args, _solve=module.solve_complete, **kwargs):
            calls.append(precision_bits)
            result = _solve(tri, precision_bits, *args, **kwargs)
            if alter_doubled and precision_bits == 2 * PRECISION:
                return alter_doubled(result)
            return result

        monkeypatch.setattr(module, "solve_complete", counted)
    return calls


def test_cli_isolate_solves_the_complete_structure_once(monkeypatch, capsys):
    # both cusps' isolation tests start from one complete solve at p and
    # share one doubled-precision polish
    import cuspforge.screen as screen_module

    calls = _count_solves(monkeypatch)
    assert screen_module.main(["isolate", "whitehead"]) == 0
    assert capsys.readouterr().out.count("NotIsolated") == 2
    assert sorted(calls) == [PRECISION, 2 * PRECISION]


def test_field_and_fill_make_one_doubled_polish_each(monkeypatch, capsys):
    # field and fill run no isolation; algdep confirms at 2p, so field polishes
    # each complete structure once at 2p, and fill polishes each filled one
    # at 2p on its own rows, with no complete solve at any precision
    import cuspforge.screen as screen_module

    calls = _count_solves(monkeypatch)
    assert screen_module.main(["field", "whitehead", "berge"]) == 0
    assert "rigid_compatible=True" in capsys.readouterr().out
    assert calls == [PRECISION, 2 * PRECISION] * 2
    calls.clear()
    filled = []
    polish = screen_module.doubled_structure

    def counted(tri, result):
        filled.append(result.shapes.precision_bits)
        return polish(tri, result)

    monkeypatch.setattr(screen_module, "doubled_structure", counted)
    fill_and_screen(cf.load_fixture("whitehead"), 1, [2, 3], OPTIONS)
    assert calls == []
    assert filled == [PRECISION] * 2


@pytest.mark.parametrize("failure", [
    {"success": False},
    {"restarts_used": 1},
], ids=["failed", "another-root"])
def test_a_failed_doubled_polish_is_recorded_on_each_cusp(monkeypatch, capsys, failure):
    # a 2p result that did not succeed, or that is not the polish of the
    # start, is refused: each cusp of a screen records the error with no
    # minimal polynomial, since algdep confirms at 2p, and isolate, which
    # solves the 2p structure once for all cusps, prints it for each cusp
    # without solving again
    import dataclasses

    import cuspforge.screen as screen_module

    calls = _count_solves(monkeypatch, lambda result: dataclasses.replace(result, **failure))
    message = (f"'whitehead': the {2 * PRECISION}-bit polish of the complete structure "
               "did not succeed")
    rep = screen([fixture_dir() / "whitehead.json"], OPTIONS)[0]
    assert [c.rigid for c in rep.cusps] == [False, False]
    assert [c.error for c in rep.cusps] == [message, message]
    assert all(c.isolation is None and c.minpoly is None and c.shape is not None
               for c in rep.cusps)
    assert rep.verdict == UNDETERMINED
    assert calls == [PRECISION, 2 * PRECISION]
    calls.clear()
    assert screen_module.main(["isolate", "whitehead"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"whitehead.{cusp}: isolation failed: {message}" for cusp in ("c1", "c2")]
    assert calls == [PRECISION, 2 * PRECISION]


def test_non_hyperbolic_solve_gets_no_rigid_verdict(whitehead):
    # the flat (1, -1) filling keeps its field but no cusp is
    # rigid-compatible, and the audit refuses an obstruction verdict
    from cuspforge.screen import ScreenReport, _audit

    rep = fill_and_screen(whitehead, 1, [-1], OPTIONS)[0]
    assert not rep.solve["geometric"] and rep.solve["degenerate"]
    assert rep.verdict == UNDETERMINED and rep.error is None
    assert [c.rigid for c in rep.cusps] == [False]
    assert all(c.error is None and c.minpoly is not None for c in rep.cusps)
    for verdict in (FAILS_RIGID, RIGID_NOT_ISOLATED):
        with pytest.raises(AssertionError, match="geometric, non-degenerate"):
            _audit(ScreenReport(manifold=rep.manifold, source="", verdict=verdict,
                                cusps=rep.cusps, solve=rep.solve))


def test_fill_sweep_reports_a_failed_complete_solve(whitehead, monkeypatch):
    # a start search that finds no float root becomes each filling's report.
    # It runs on a copy of whitehead: the session fixture's record
    # (`solver.invariants`) may keep a start an earlier test searched for,
    # and the copy keeps the failed one
    import cuspforge.solver as solver_module

    monkeypatch.setattr(solver_module, "_float_search", lambda rows, z: None)
    reports = fill_and_screen(dataclasses.replace(whitehead), 1, [2, -3], OPTIONS)
    assert [rep.manifold for rep in reports] == ["whitehead(c2=1/2)", "whitehead(c2=1/-3)"]
    for rep in reports:
        assert rep.verdict == UNDETERMINED and not rep.cusps
        assert rep.error == ("filled solve failed: 'whitehead': complete-structure start "
                             "search did not converge within 32 restarts")


# ---------------------------------------------------------------------------
# CLI


def run_cli(*args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "cuspforge.screen", *args],
        capture_output=True, text=True, env=merged,
    )


def test_cli_field_subcommand():
    proc = run_cli("field", "berge", "--precision-bits", "192")
    assert proc.returncode == 0
    assert "Q(sqrt(-3))" in proc.stdout
    assert NON_VERIFIED_TAG in proc.stdout


def test_cli_usage_error_exit_code():
    proc = run_cli("fill", "whitehead")
    assert proc.returncode == 1


def test_cli_parse_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    proc = run_cli("screen", str(bad), "--format", "csv")
    assert proc.returncode == 2


def test_cli_fixture_env_override(tmp_path, whitehead):
    custom = tmp_path / "fixtures"
    custom.mkdir()
    (custom / "mylink.json").write_text(cf.serialize(whitehead))
    proc = run_cli("shape", "mylink", "--precision-bits", "192",
                   env={"CUSPFORGE_FIXTURES": str(custom)})
    assert proc.returncode == 0
    assert "c1" in proc.stdout


def test_cli_out_directory(tmp_path):
    proc = run_cli("screen", "berge", "--out", str(tmp_path / "reports"),
                   "--precision-bits", "192")
    assert proc.returncode == 0
    assert (tmp_path / "reports" / "summary.csv").exists()
    assert (tmp_path / "reports" / "berge.report.json").exists()


def test_cli_out_name_with_a_control_character_is_a_parse_failure(tmp_path, whitehead):
    doc = json.loads(cf.serialize(whitehead))
    doc["name"] = "white\x00head"
    bad = tmp_path / "nul.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "reports"
    proc = run_cli("screen", str(bad), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["nul.report.json", "summary.csv"]
    assert "control characters" in json.loads((out / "nul.report.json").read_text())["error"]


def test_write_reports_gives_colliding_names_suffixes(tmp_path):
    from cuspforge.screen import ScreenReport

    names = ["berge", "x-2", "berge", "a(b)", "x", "berge", "x"]
    reports = [ScreenReport(manifold=name, source=str(i), verdict=UNDETERMINED)
               for i, name in enumerate(names)]
    write_reports(reports, tmp_path)
    written = {p.name: json.loads(p.read_text())["source"] for p in tmp_path.glob("*.report.json")}
    # names no other report shares are kept; a repeated one takes the first
    # free suffix, never the name of another report
    assert written == {
        "berge.report.json": "0", "x-2.report.json": "1", "berge-2.report.json": "2",
        "a_b.report.json": "3", "x.report.json": "4", "berge-3.report.json": "5",
        "x-3.report.json": "6",
    }


def test_audit_holds_under_python_optimize():
    # the consistency rules are explicit raises: `python -O` strips assert
    # statements but still refuses a forged report
    forged = ("from cuspforge.screen import FAILS_RIGID, ScreenReport, _audit\n"
              "try:\n"
              "    _audit(ScreenReport(manifold='forged', source='', verdict=FAILS_RIGID))\n"
              "except AssertionError as exc:\n"
              "    print('refused:', exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", forged], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: FailsRigidField requires a geometric")


@pytest.mark.parametrize("args", [
    ("fill", "whitehead", "--cusp", "1", "--n-range=abc"),
    ("fill", "whitehead", "--cusp", "1", "--n-range=5:1"),
    ("isolate", "whitehead", "--cusp", "5"),
    ("fill", "whitehead", "--cusp", "7", "--n-range=1:1"),
    ("fill", "whitehead", "--cusp", "-1", "--n-range=1:1"),
    ("solve", "whitehead", "--precision-bits", "-40"),
    ("field", "622", "--precision-bits", "-3"),
    ("field", "whitehead", "--max-degree", "0"),
    ("screen", "whitehead", "--max-degree", "0", "--format", "csv"),
    ("fill", "whitehead", "--cusp", "1", "--n-range=0:0"),
])
def test_cli_bad_value_is_one_line_usage_error(args):
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_cli_isolate_records_failures_without_traceback():
    # at 8 bits the elimination cannot decide the rank of some cusps'
    # completeness curves; each failed cusp prints one line
    proc = run_cli("isolate", "whitehead", "berge", "--precision-bits", "8")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith(
        "whitehead.c1: isolation failed: kernel dimension 1 undecided at the rank cut; pivots ")
    assert lines[3].startswith(
        "berge.c-knotted: isolation failed: kernel dimension 1 undecided at the rank cut; pivots ")


@pytest.mark.parametrize("bits", [5, 6, 7, 8])
def test_cli_isolate_refuses_a_tied_first_pivot(bits, capsys):
    # from 5 to 8 bits the clean margin, 4 times the cut, is the largest
    # entry, and berge's c-knotted curve has a first pivot that only ties
    # with it: the kernel check refuses it at each of these precisions
    import cuspforge.screen as screen_module

    assert screen_module.main(["isolate", "berge", "--precision-bits", str(bits)]) == 0
    knotted = capsys.readouterr().out.splitlines()[1]
    assert knotted.startswith("berge.c-knotted: isolation failed: kernel dimension 1 undecided "
                              "at the rank cut; pivots 1.0, 1.7321, 1.0; ")
    assert knotted.endswith("; cut 0.25")


@pytest.mark.parametrize("command", ["shape", "solve"])
def test_cli_prints_no_values_from_a_failed_complete_solve(command, monkeypatch, capsys):
    # at 1 bit berge's solve misses its residual target; one line says so
    import cuspforge.screen as screen_module

    assert screen_module.main([command, "berge", "--precision-bits", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "berge: solver did not reach the residual target"]

    def fails(tri, *args, **kwargs):
        raise screen_module.SolveError(f"{tri.name!r}: complete-structure Newton did not converge")

    monkeypatch.setattr(screen_module, "solve_complete", fails)
    assert screen_module.main([command, "berge"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "berge: solve failed: 'berge': complete-structure Newton did not converge"]


def test_cli_isolate_reports_a_failed_complete_solve(monkeypatch, capsys):
    import cuspforge.screen as screen_module

    def fails(tri, *args, **kwargs):
        raise screen_module.SolveError(f"{tri.name!r}: complete-structure Newton did not converge")

    monkeypatch.setattr(screen_module, "solve_complete", fails)
    assert screen_module.main(["isolate", "whitehead", "berge"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: solve failed: {name!r}: complete-structure Newton did not converge"
        for name in ("whitehead", "berge")
    ]


def test_cli_field_records_errors_without_traceback():
    # algdep refuses precision below 128 bits; the field view prints the
    # recorded cusp errors instead of raising
    proc = run_cli("field", "berge", "--precision-bits", "96")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("at least 128 bits") == 2


@pytest.mark.parametrize("args", [
    ("solve", "berge", "--tolerance", "1e-20"),
    ("solve", "berge", "--parallel", "2"),
    ("solve", "berge", "--format", "csv"),
    ("shape", "berge", "--max-degree", "8"),
    ("isolate", "berge", "--out", "reports"),
    ("field", "berge", "--format", "json"),
], ids=["tolerance", "parallel", "solve-format", "shape-max-degree", "isolate-out",
        "field-format"])
def test_cli_has_no_tolerance_flag(args):
    # a subcommand declares only the flags it reads
    assert run_cli(*args).returncode == 1


@pytest.mark.parametrize("args, n_reports", [
    (("screen", "622"), 1),
    (("fill", "whitehead", "--cusp", "1", "--n-range=-1:1"), 2),
], ids=["screen-622", "fill-whitehead"])
def test_cli_records_lattice_reduction_failures(args, n_reports):
    # these inputs once made sympy's LLL raise inside algdep; any failure
    # there is recorded on the cusp, and the batch finishes with one report
    # per manifold or filling
    proc = run_cli(*args)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    heads = [line for line in proc.stdout.splitlines() if not line.startswith(" ")]
    assert len(heads) == n_reports
    assert all(line.startswith(args[1]) for line in heads)


def test_cli_table_prints_small_components_with_their_exponent():
    # the flat (1, -1) filling's cusp shape is real: its imaginary part is
    # rounding noise far below 1e-50, and the table must not cut off the
    # exponent that says so
    proc = run_cli("fill", "whitehead", "--cusp", "1", "--n-range=-1:1")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    flat = lines[lines.index("whitehead(c2=1/-1): Undetermined") + 1]
    match = re.search(r"shape=(-?[\d.]+(?:e[-+]?\d+)?)([-+][\d.]+(?:e[-+]?\d+)?)i ", flat)
    assert match, flat
    assert float(match[1]) == 2.0
    assert abs(float(match[2])) < 1e-50


def test_cli_flat_filling_is_not_rigid_compatible():
    # the degenerate, non-geometric (1, -1) filling is not hyperbolic: its
    # rational field is printed, but it is not rigid-compatible
    proc = run_cli("fill", "whitehead", "--cusp", "1", "--n-range=-1:1")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    flat = lines[lines.index("whitehead(c2=1/-1): Undetermined") + 1]
    assert " field=Rational rigid=False isolation=-" in flat
    assert "[" not in flat


@pytest.mark.parametrize("path, value, message", [
    pytest.param(("cusps",), 1, "cusps must be a list", id="cusps-1"),
    pytest.param(("edges",), None, "edges must be a list", id="edges-None"),
    pytest.param(("n_tet",), True, "n_tet a positive integer", id="n_tet-true"),
    pytest.param(("edges", 0, "corners", 0, "tet"), True, "corner tet must be an integer",
                 id="tet-true"),
    pytest.param(("cusps", 0, "filling"), [True, 2],
                 "key 'filling' is not part of a triangulation", id="filling-true"),
    pytest.param(("name",), "white\x00head", "name must not contain control characters",
                 id="name-nul"),
    pytest.param(("cusps", 1, "name"), "c\n2", "name must not contain control characters",
                 id="cusp-name-newline"),
])
def test_cli_malformed_fixture_is_a_parse_failure(tmp_path, whitehead, path, value, message):
    doc = json.loads(cf.serialize(whitehead))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(cf.TriangulationError, match=message):
        cf.parse_triangulation(json.dumps(doc))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("screen", str(bad))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "parse failed: " in proc.stdout and message in proc.stdout


@pytest.mark.parametrize("command", ["screen", "solve"])
def test_cli_file_with_a_filling_is_a_parse_failure(tmp_path, whitehead, command):
    # a well-formed filling in the file is refused, not silently ignored:
    # whitehead with c2 filled (1, 2) gets no verdict of the complete link
    doc = json.loads(cf.serialize(whitehead))
    doc["cusps"][1]["filling"] = [1, 2]
    filled = tmp_path / "filled.json"
    filled.write_text(json.dumps(doc))
    proc = run_cli(command, str(filled))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    out = proc.stdout + proc.stderr
    assert "key 'filling'" in out and "`cuspforge fill`" in out
    assert "Isolated" not in out and "residual=" not in out


@pytest.mark.parametrize("command", ["screen", "solve"])
@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe\x00garbage", "not UTF-8 text"),
    (b"[" * 100000 + b"]" * 100000, "invalid JSON"),
    (b'{"n_tet": 1' + b"0" * 5000 + b"}", "invalid JSON"),
], ids=["not-utf8", "deeply-nested", "huge-integer"])
def test_cli_unparsable_file_is_a_parse_failure(tmp_path, command, content, message):
    # screen records the parse failure in its report; solve prints it
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    proc = run_cli(command, str(bad))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stdout + proc.stderr
