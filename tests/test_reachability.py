"""Every function in `cuspforge` serves a subcommand, or is named in KEPT
with the reason it stays.

The runs of `runs` go through `screen.main` in this process under `sys.settrace`, with
call events only, so a function counts as entered when its code starts to
run.  The functions are found by `ast` in the package's sources, methods
and nested functions included, and keyed by file and first line (the
first decorator's line for a decorated one), as their code objects are.
A name in KEPT that the runs do enter fails too, so the list cannot go
stale.
"""

import ast
import contextlib
import io
import pathlib
import sys

import pytest

import cuspforge
from cuspforge import screen, solver

SOURCES = pathlib.Path(cuspforge.__file__).parent

TRACE = ("the benchmark's trace workload and isolation's continuation fallback, "
         "which orders 1 and 2 pre-empt on every fixture cusp (ROADMAP item 4)")
TRACECALC = "acceptance criterion 5 and demo 06 (ROADMAP item 8)"
ALGEBRA = ("the exact holonomy algebra of demo 01 and the curve laws of "
           "tests/test_holonomy.py and tests/test_manifold.py")
CURVES = ("demo 01, the curve laws and the basis-covariance test of "
          "tests/test_isolation.py; the repaired decorations may use it (ROADMAP item 7)")
SERIALIZE = ("the parse round trip of tests/test_manifold.py; writes the repaired "
             "fixtures (ROADMAP item 7)")

KEPT = {
    "blockform._part": "`block` of a Python float or complex: `pinned_factor` on mpmath "
                       "rows with a complex right-hand side takes it, as "
                       "test_pinned_factor_solves_in_the_scalar_type_of_its_rows and the "
                       "least-squares oracle of test_square_pinned_steps_match_least_squares do",
    "holonomy.MonomialSum.__mul__": ALGEBRA,
    "holonomy.MonomialSum.__neg__": ALGEBRA,
    "holonomy.MonomialSum.__str__": ALGEBRA,
    "holonomy.MonomialSum.canonical_string": ALGEBRA,
    "holonomy.MonomialSum.constant": ALGEBRA,
    "holonomy.MonomialSum.derivative": ALGEBRA,
    "holonomy.MonomialSum.evaluate": ALGEBRA + "; the oracle of the block evaluator",
    "holonomy.MonomialSum.is_zero": ALGEBRA,
    "holonomy.MonomialSum.zero": ALGEBRA,
    "holonomy.SignedMonomial.__str__": ALGEBRA,
    "holonomy.SignedMonomial.canonical_string": ALGEBRA,
    "holonomy.SignedMonomial.derivative": ALGEBRA,
    "holonomy.SignedMonomial.evaluate": ALGEBRA,
    "holonomy.SignedMonomial.inverse": ALGEBRA + "; `invert_curve`",
    "holonomy.ShapeAssignment.from_values": "demo 01 and the rational shape sampler of "
                                            "tests/conftest.py",
    "holonomy.ShapeAssignment.is_geometric": TRACE,
    "manifold.CuspCurve.pre_word": CURVES,
    "manifold.concat_curves": CURVES,
    "manifold.invert_curve": CURVES,
    "manifold._exponents_to_word": CURVES,
    "manifold.serialize": SERIALIZE,
    "manifold._corner_obj": SERIALIZE,
    "manifold._curve_obj": SERIALIZE,
    "numberlab._scaled": "a lattice row whose squared norm exceeds 2^900, which no "
                         "128-bit lattice has (the LLL tests across scales, `algdep` at 1024 bits)",
    "numberlab.lll": "the whole reduction, held against sympy and Cohen's reference by "
                     "the LLL tests; `algdep` runs `lll_pauses`",
    "solver._regular": "a start that is already a root at the working precision, as the "
                       "trace workload's stored starts are; no fixture start is one",
    "solver.trace_completeness_curve": TRACE,
    "solver.trace_completeness_curve.corrected": TRACE,
    "solver.trace_completeness_curve.corrected.step": TRACE,
    "tracecalc.TraceTuple.denominator": TRACECALC,
    "tracecalc._as_matrix": TRACECALC,
    "tracecalc._det": TRACECALC,
    "tracecalc._inv_sl2": TRACECALC,
    "tracecalc.cusp_parameter_from_traces": TRACECALC,
    "tracecalc.traces_from_matrices": TRACECALC,
    "tracecalc.whitehead_curve_residual": TRACECALC,
    "tracecalc.whitehead_cusp_parameter": TRACECALC,
    "tracecalc.whitehead_theta": TRACECALC,
    "tracecalc.whitehead_trace_tuple": TRACECALC,
}


def functions() -> dict:
    """{(file, first line): dotted name} of every function and method in
    the package's sources, e.g. "solver.trace_completeness_curve.corrected"."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), first] = prefix + child.name
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SOURCES.glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem + ".")
    return out


def runs(tmp: pathlib.Path) -> list:
    """(argv, exit code) of every subcommand at 128 bits, each report
    format, and the three usage or input errors."""
    bits = ["--precision-bits", "128"]
    return [
        (["screen", "whitehead", "622", "berge", "--format", "json", *bits], 0),
        (["screen", "whitehead", "--format", "csv", *bits], 0),
        (["screen", "berge", *bits], 0),
        (["screen", "622", "--out", str(tmp / "reports"), *bits], 0),
        (["fill", "whitehead", "--cusp", "1", "--n-range=-1:1", *bits], 0),
        (["isolate", "whitehead", "berge", *bits], 0),
        (["field", "whitehead", *bits], 0),
        (["solve", "berge", *bits], 0),
        (["shape", "622", *bits], 0),
        (["screen", str(tmp / "missing.json"), *bits], 2),
        (["fill", "whitehead", "--cusp", "5", *bits], 1),
        (["screen"], 1),                    # argparse: `_Parser.error`
    ]


def entered_code(tmp: pathlib.Path) -> set:
    """(file, first line) of every code object that `runs` start, each
    exit code checked.  The package's memos are cleared first, so that
    what earlier tests cached runs again: the lru caches, and the
    equations kept per triangulation, which a new parse of a fixture
    finds since triangulations compare by value."""
    for name, module in list(sys.modules.items()):
        if name.startswith("cuspforge"):
            for value in vars(module).values():
                if getattr(value, "__module__", None) == name and hasattr(value, "cache_clear"):
                    value.cache_clear()
    solver._EQUATIONS.clear()
    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for argv, expected in runs(tmp):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = screen.main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code == expected, argv
    finally:
        sys.settrace(previous)
    return entered


@pytest.fixture(scope="module")
def never_entered(tmp_path_factory) -> set:
    entered = entered_code(tmp_path_factory.mktemp("reachability"))
    return {name for key, name in functions().items() if key not in entered}


def test_every_function_serves_a_subcommand_or_is_kept_for_a_reason(never_entered):
    assert sorted(never_entered - KEPT.keys()) == []


def test_every_kept_function_exists_and_is_never_entered(never_entered):
    assert sorted(KEPT.keys() - set(functions().values())) == []
    assert sorted(KEPT.keys() - never_entered) == []
