"""The three workloads: their ops, per-pass report emission and reference checks.

Every op calls one public cuspforge function through its module attribute,
so the traced run sees the call.  Each check classifies the op's result:

    passed       matches the reference
    uncertified  the program declined to decide: an Undetermined verdict,
                 an error recorded in a report, an unrecognized field, or
                 a 512-bit trace whose spread does not reproduce the
                 256-bit one (isolation's own certification rule)
    wrong        contradicts the reference

An op that raises is counted as "raised".  Every status but "passed"
counts as a failed op; only "wrong" makes the run incorrect.

The references come from README.md and tests/test_acceptance.py.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Callable

from mpmath import mp

import cuspforge.manifold as manifold
import cuspforge.numberlab as numberlab
import cuspforge.screen as screen
import cuspforge.solver as solver
from inputs import FIXTURES, TRACE_PRECISIONS, load_start

PRECISION = 256
TRACE_POINTS = 8
TRACE_STEP = 1e-3
FILL_CUSP = 1
FILL_N = tuple(n for n in range(-5, 6) if n != 0)
# Criterion 7: exactly one of the |n| = 1 slopes is the geometric
# Eisenstein filling; the other is the flat exceptional slope.
EISENSTEIN_SLOPE = 1

# per cusp: (minimal polynomial, constant term first; isolation order)
SCREEN_REFERENCE = {
    "whitehead": (((8, 4, 1), 2), ((2, -2, 1), 1)),
    "622": (((4, -2, 1), 2), ((4, -2, 1), 2)),
    "berge": (((1, -1, 1), 2), ((1, -1, 1), 1)),
}


def complete_cusp_parameters(name: str) -> tuple:
    """Exact cusp parameters at the complete structure, per cusp."""
    if name == "whitehead":
        return mp.mpc(-2, 2), mp.mpc(1, 1)
    if name == "622":
        return (1 + mp.sqrt(-3),) * 2
    return ((1 + mp.sqrt(-3)) / 2,) * 2


@dataclass
class Outcome:
    status: str                      # passed | uncertified | wrong
    reason: str = ""
    minpolys: list = field(default_factory=list)  # algdep results the check accepted


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable                  # (result, CheckState) -> Outcome


@dataclass
class CheckState:
    """What a check may compare across ops: the spreads traced in the
    current pass, and the first report JSON of each manifold in the run."""
    spreads: dict = field(default_factory=dict)
    first_json: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    emits_reports: bool
    precision: object


def _uncertain_report(rep) -> str | None:
    if rep.error:
        return f"report error: {rep.error}"
    for rec in rep.cusps:
        if rec.error:
            return f"cusp {rec.name} error: {rec.error}"
    return None


# ---------------------------------------------------------------------------
# screen: one op per manifold, screen([path], ScreenOptions())

def _check_screen(name: str):
    def check(reports, state: CheckState) -> Outcome:
        if len(reports) != 1:
            return Outcome("wrong", f"{len(reports)} reports for one input")
        rep = reports[0]
        text = rep.to_json()
        first = state.first_json.setdefault(name, text)
        if text != first:
            return Outcome("wrong", "report JSON differs from the first pass")
        problem = _uncertain_report(rep)
        if problem or rep.verdict == screen.UNDETERMINED:
            return Outcome("uncertified", problem or "verdict Undetermined")
        if rep.verdict != screen.RIGID_NOT_ISOLATED:
            return Outcome("wrong", f"verdict {rep.verdict}")
        reference = SCREEN_REFERENCE[name]
        if len(rep.cusps) != len(reference):
            return Outcome("wrong", f"{len(rep.cusps)} cusp records")
        accepted = []
        for rec, (poly, order) in zip(rep.cusps, reference):
            if rec.minpoly is None:
                return Outcome("uncertified", f"cusp {rec.name}: field unrecognized")
            if rec.minpoly.coefficients != poly:
                return Outcome("wrong", f"cusp {rec.name}: minpoly {rec.minpoly.coefficients}")
            accepted.append(poly)
            if rec.isolation is None or not rec.isolation.not_isolated:
                return Outcome("uncertified", f"cusp {rec.name}: isolation inconclusive")
            if rec.isolation.order != order:
                return Outcome("wrong", f"cusp {rec.name}: isolation order {rec.isolation.order}")
        return Outcome("passed", minpolys=accepted)
    return check


def screen_workload(inputs: pathlib.Path) -> Workload:
    options = screen.ScreenOptions(precision_bits=PRECISION, max_degree=12)
    ops = [Op(name, lambda p=inputs / f"{name}.json": screen.screen([p], options),
              _check_screen(name))
           for name in FIXTURES]
    return Workload(ops, emits_reports=True, precision=PRECISION)


# ---------------------------------------------------------------------------
# fill: one op per filling, fill_and_screen(whitehead, 1, [n])

def _check_fill(n: int):
    def check(reports, state: CheckState) -> Outcome:
        if len(reports) != 1:
            return Outcome("wrong", f"{len(reports)} reports for one filling")
        rep = reports[0]
        problem = _uncertain_report(rep)
        if problem:
            return Outcome("uncertified", problem)
        if len(rep.cusps) != 1:
            return Outcome("wrong", f"{len(rep.cusps)} unfilled cusp records")
        rec = rep.cusps[0]
        with mp.workprec(PRECISION + 30):
            value = mp.mpc(mp.mpf(rec.shape["re"]), mp.mpf(rec.shape["im"]))
            z1 = rep.solve["shapes"][1]
            x = mp.mpc(mp.mpf(z1["re"]), mp.mpf(z1["im"]))
            if abs(value - (4 * x / (1 - x ** 2) - 2)) >= mp.mpf("1e-30"):
                return Outcome("wrong", "cusp parameter off the curve formula 4x/(1-x^2)-2")
        geometric = rep.solve["geometric"] and not rep.solve["degenerate"]
        quadratic = rec.field.kind in (numberlab.GAUSSIAN, numberlab.EISENSTEIN)
        if n == EISENSTEIN_SLOPE:
            if not geometric:
                return Outcome("wrong", "Eisenstein slope solved as non-geometric")
            if rec.minpoly is None:
                return Outcome("uncertified", "field unrecognized")
            if rec.field.kind != numberlab.EISENSTEIN:
                return Outcome("wrong", f"field {rec.field}")
        elif n == -EISENSTEIN_SLOPE:
            if geometric:
                return Outcome("wrong", "flat exceptional slope solved as geometric")
        elif quadratic:
            return Outcome("wrong", f"|n| >= 2 filling has quadratic field {rec.field}")
        accepted = [] if rec.minpoly is None else [rec.minpoly.coefficients]
        return Outcome("passed", minpolys=accepted)
    return check


def fill_workload(inputs: pathlib.Path) -> Workload:
    options = screen.ScreenOptions(precision_bits=PRECISION, max_degree=12)
    tri = manifold.parse_triangulation((inputs / "whitehead.json").read_text())
    ops = [Op(f"whitehead(1,{n})",
              lambda n=n: screen.fill_and_screen(tri, FILL_CUSP, [n], options),
              _check_fill(n))
           for n in FILL_N]
    return Workload(ops, emits_reports=True, precision=PRECISION)


# ---------------------------------------------------------------------------
# trace: trace_completeness_curve from the set-up's start solutions

def _check_trace(name: str, cusp: int, bits: int, equations, reference):
    key = (name, cusp)

    def check(samples, state: CheckState) -> Outcome:
        if len(samples) != TRACE_POINTS + 1:
            return Outcome("wrong", f"{len(samples)} samples")
        with mp.workprec(bits + 30):
            tol = mp.mpf(2) ** (-bits // 2)
            for k, (shapes, _) in enumerate(samples):
                residual = max(eq.residual(list(shapes.z)) for eq in equations)
                if residual >= tol:
                    return Outcome("wrong", f"sample {k} residual {mp.nstr(residual, 5)}")
            tau0 = samples[0][1]
            if abs(tau0 - reference) >= tol:
                return Outcome("wrong", "sample 0 is not the complete cusp parameter")
            spread = max(abs(t - tau0) for _, t in samples[1:])
            state.spreads[key, bits] = spread
            low = state.spreads.get((key, TRACE_PRECISIONS[0]))
            if bits == TRACE_PRECISIONS[1] and low is not None:
                agree = mp.mpf(2) ** (-TRACE_PRECISIONS[0] // 2)
                if abs(low - spread) >= agree * (1 + abs(spread)):
                    return Outcome("uncertified",
                                   f"spread {mp.nstr(spread, 12)} does not reproduce "
                                   f"the {TRACE_PRECISIONS[0]}-bit {mp.nstr(low, 12)}")
        return Outcome("passed")
    return check


def trace_workload(inputs: pathlib.Path) -> Workload:
    starts = json.loads((inputs / "starts.json").read_text())
    ops = []
    for name in FIXTURES:
        tri = manifold.parse_triangulation((inputs / f"{name}.json").read_text())
        for cusp in range(len(tri.cusps)):
            for bits in TRACE_PRECISIONS:
                start = load_start(starts[name][str(bits)])
                with mp.workprec(bits + 30):
                    equations = solver.completeness_system(tri, cusp)
                    reference = complete_cusp_parameters(name)[cusp]

                def run(tri=tri, cusp=cusp, bits=bits, start=start):
                    return solver.trace_completeness_curve(
                        tri, cusp, n_points=TRACE_POINTS, step=TRACE_STEP,
                        precision_bits=bits, start=start)
                ops.append(Op(f"{name}.c{cusp}@{bits}", run,
                              _check_trace(name, cusp, bits, equations, reference)))
    return Workload(ops, emits_reports=False, precision=list(TRACE_PRECISIONS))


WORKLOADS = {"screen": screen_workload, "fill": fill_workload, "trace": trace_workload}


def emit(reports, out_dir: pathlib.Path) -> None:
    """What a CLI run does with its reports: JSON, the CSV summary, files."""
    for rep in reports:
        rep.to_json()
    screen.reports_to_csv(reports)
    screen.write_reports(reports, out_dir)
