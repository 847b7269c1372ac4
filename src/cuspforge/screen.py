"""Batch screening workflow and command line.

For each manifold file: solve the complete structure, evaluate each cusp's
parameter there, recognize its field by integer-relation detection,
confirmed on the parameter at the structure polished to twice the
precision, apply the rigid-field test, and — only for rigid-compatible
cusps — run the isolation test.  The per-manifold verdict summarizes the
two obstructions:

    FailsRigidField          every cusp has a recognized field, and each
                             fails the rigid-field test
    RigidFieldButNotIsolated some rigid-compatible cusp is certified
                             non-isolated
    Undetermined             anything else

An unrecognized field (an `algdep` miss) decides nothing: such a cusp
neither fails nor passes the rigid-field test.

Both verdicts bound the hidden-symmetry phenomenon for fillings; the tool
reports obstructions only and never claims a manifold *has* hidden
symmetries.  All numeric recognition is tagged "non-verified computation":
it is high-confidence evidence, not certified arithmetic.

Reports serialize deterministically (fixed seed and precision give
byte-identical JSON) and aggregate into a CSV summary.

The `cuspforge` executable exposes subcommands solve | shape | field |
isolate | fill | screen; run `cuspforge --help` for flags.  Bare manifold
names resolve against the bundled fixtures, or against the directory in
the CUSPFORGE_FIXTURES environment variable when set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import pathlib
import re
import sys
from dataclasses import dataclass, field

from mpmath import mp

from . import __version__, load_fixture
from .holonomy import cusp_parameter, evaluate_cusp_parameter
from .isolation import IsolationEvidence, doubled_structure, isolation_verdict
from .manifold import IdealTriangulation, TriangulationError, read_triangulation
from .numberlab import (UNRECOGNIZED, AlgdepError, FieldClass, MinPoly, algdep,
                        check_algdep_arguments, classify_field, rigid_compatible)
from .solver import (SolveError, SolveResult, doubled_filling, printed_complex, printed_digits,
                     solve_complete, solve_filled)

NON_VERIFIED_TAG = "non-verified computation"

FAILS_RIGID = "FailsRigidField"
RIGID_NOT_ISOLATED = "RigidFieldButNotIsolated"
UNDETERMINED = "Undetermined"

UNCONVERGED = "solver did not reach the residual target"


@dataclass
class ScreenOptions:
    precision_bits: int = 256
    max_degree: int = 12
    seed: int = 0

    def provenance(self) -> dict:
        return {
            "tool": "cuspforge",
            "version": __version__,
            "precision_bits": self.precision_bits,
            "max_degree": self.max_degree,
            "seed": self.seed,
            "tag": NON_VERIFIED_TAG,
        }


@dataclass
class CuspRecord:
    name: str
    shape: dict | None = None            # {"re": ..., "im": ...} decimal strings
    minpoly: MinPoly | None = None
    field: FieldClass | None = None
    rigid: bool = False
    isolation: IsolationEvidence | None = None
    error: str | None = None

    def to_jsonable(self) -> dict:
        return {
            "cusp": self.name,
            "shape": self.shape,
            "minpoly": None if self.minpoly is None else self.minpoly.to_jsonable(),
            "field": None if self.field is None else self.field.to_jsonable(),
            "rigid_compatible": self.rigid,
            "isolation": None if self.isolation is None else self.isolation.to_jsonable(),
            "error": self.error,
        }


@dataclass
class ScreenReport:
    manifold: str
    source: str
    verdict: str
    cusps: list[CuspRecord] = field(default_factory=list)
    filling: list | None = None
    solve: dict | None = None
    provenance: dict = field(default_factory=dict)
    error: str | None = None
    parse_failed: bool = False      # not serialized; sets the CLI exit code

    def to_jsonable(self) -> dict:
        return {
            "manifold": self.manifold,
            "source": self.source,
            "verdict": self.verdict,
            "filling": self.filling,
            "cusps": [c.to_jsonable() for c in self.cusps],
            "solve": self.solve,
            "provenance": self.provenance,
            "error": self.error,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=1)


def _hyperbolic(solve: dict | None) -> bool:
    """A serialized solve that is geometric and not degenerate."""
    return solve is not None and solve["geometric"] and not solve["degenerate"]


def _audit(report: ScreenReport) -> ScreenReport:
    """Verdict consistency rules, enforced before any report is emitted
    (explicit raises, so that `python -O` keeps them)."""
    records = [c for c in report.cusps if c.error is None]
    if report.verdict in (FAILS_RIGID, RIGID_NOT_ISOLATED) and not _hyperbolic(report.solve):
        raise AssertionError(f"{report.verdict} requires a geometric, non-degenerate solve")
    if report.verdict == FAILS_RIGID and not (records and all(map(_fails_rigid, records))):
        raise AssertionError("FailsRigidField requires every screened cusp to fail the rigid "
                             "test on a recognized field")
    if report.verdict == RIGID_NOT_ISOLATED and not any(
            c.rigid and c.isolation is not None and c.isolation.not_isolated for c in records):
        raise AssertionError("RigidFieldButNotIsolated requires certified non-isolation evidence")
    return report


def _fails_rigid(rec: CuspRecord) -> bool:
    """A recognized field that fails the rigid-field test; an unrecognized
    one is undecided."""
    return not rec.rigid and rec.field is not None and rec.field.kind != UNRECOGNIZED


def _verdict(records: list[CuspRecord]) -> str:
    usable = [c for c in records if c.error is None]
    if not usable:
        return UNDETERMINED
    if all(map(_fails_rigid, usable)):
        return FAILS_RIGID
    if any(c.rigid and c.isolation is not None and c.isolation.not_isolated for c in usable):
        return RIGID_NOT_ISOLATED
    return UNDETERMINED


def screen_triangulation(tri: IdealTriangulation, source: str,
                         options: ScreenOptions,
                         run_isolation: bool = True,
                         solved: SolveResult | None = None,
                         filling: list | None = None) -> ScreenReport:
    """Screen one (possibly filled) triangulation; never raises on solver
    or recognition failure, recording errors in the report instead.

    A non-geometric or degenerate solve keeps each cusp's shape, minimal
    polynomial and field, but no cusp is rigid-compatible, isolation does
    not run and the verdict is Undetermined; `solve.notes` gives the
    reason.

    `algdep` takes each cusp parameter at twice the precision, from one 2p
    polish of the solve per triangulation: `doubled_structure`, or
    `doubled_filling` for a filled solve.  When that polish fails, or
    `algdep` refuses the precision, every cusp records the error, with its
    shape but no minimal polynomial."""
    report = ScreenReport(
        manifold=tri.name, source=source, verdict=UNDETERMINED,
        filling=filling, provenance=options.provenance(),
    )
    with mp.workprec(options.precision_bits + 30):
        try:
            if solved is None:
                solved = solve_complete(tri, options.precision_bits, seed=options.seed)
            report.solve = solved.to_jsonable()
            if not solved.success:
                report.error = UNCONVERGED
                return _audit(report)
        except SolveError as exc:
            report.error = f"solve failed: {exc}"
            return _audit(report)

        hyperbolic = _hyperbolic(report.solve)
        unfilled = [i for i, c in enumerate(tri.cusps)
                    if filling is None or filling[i] in (None, "complete")]
        doubled = failure = None
        if unfilled:
            try:
                check_algdep_arguments(options.max_degree, options.precision_bits)
                doubled = (doubled_structure(tri, solved) if filling is None
                           else doubled_filling(tri, filling, solved))
            except (SolveError, AlgdepError) as exc:
                failure = str(exc)
        for i in unfilled:
            cusp = tri.cusps[i]
            rec = CuspRecord(name=cusp.name)
            report.cusps.append(rec)
            try:
                pair = cusp_parameter(tri, cusp)
                value = evaluate_cusp_parameter(pair, solved.shapes)
                rec.shape = printed_complex(value, printed_digits(options.precision_bits))
                if failure is not None:
                    rec.error = failure
                    continue
                with mp.workprec(2 * options.precision_bits + 30):
                    value = evaluate_cusp_parameter(pair, doubled.shapes)
                rec.minpoly = algdep(value, options.max_degree, options.precision_bits)
                rec.field = classify_field(rec.minpoly)
                rec.rigid = hyperbolic and rigid_compatible(rec.field)
                if rec.rigid and run_isolation and filling is None:
                    # the isolation test polishes its own 2p structure; the
                    # benchmark counts those polishes as its re-solves
                    # (ROADMAP item 2)
                    rec.isolation = isolation_verdict(tri, i, start=solved)
            except (SolveError, ZeroDivisionError, ValueError) as exc:
                rec.error = str(exc)
    report.verdict = _verdict(report.cusps) if hyperbolic else UNDETERMINED
    return _audit(report)


def _screen_one(path, options: ScreenOptions) -> ScreenReport:
    try:
        tri = read_triangulation(path)
    except OSError as exc:
        error = f"cannot read file: {exc}"
    except TriangulationError as exc:
        error = str(exc)
    else:
        return screen_triangulation(tri, str(path), options)
    return ScreenReport(
        manifold=pathlib.Path(path).stem, source=str(path), verdict=UNDETERMINED,
        provenance=options.provenance(), error=f"parse failed: {error}",
        parse_failed=True,
    )


def screen(paths, options: ScreenOptions | None = None) -> list[ScreenReport]:
    """Screen a batch of triangulation files.  Parse failures and solver
    failures are recorded per report; the batch always completes."""
    options = options or ScreenOptions()
    return [_screen_one(path, options) for path in paths]


def fill_and_screen(path_or_tri, cusp: int, n_values,
                    options: ScreenOptions | None = None) -> list[ScreenReport]:
    """Screen the remaining cusps of each (1, n) filling of one cusp.

    Each filling is solved on its own (`solve_filled`, which runs its own
    machine-precision start search); no complete structure is polished.
    Solver failures for individual fillings become error reports; there is
    no isolation leg for a filled (one-cusped) result, so a filled report's
    verdict is FailsRigidField or Undetermined.
    """
    options = options or ScreenOptions()
    if isinstance(path_or_tri, IdealTriangulation):
        tri, source = path_or_tri, path_or_tri.name
    else:
        tri = read_triangulation(path_or_tri)
        source = str(path_or_tri)
    reports = []
    for n in n_values:
        filling = [None] * len(tri.cusps)
        filling[cusp] = (1, n)
        label = f"{tri.name}({tri.cusps[cusp].name}=1/{n})"
        listed = [list(f) if f else None for f in filling]
        try:
            solved = solve_filled(tri, filling, options.precision_bits, seed=options.seed)
        except SolveError as exc:
            reports.append(ScreenReport(
                manifold=label, source=source, verdict=UNDETERMINED, filling=listed,
                provenance=options.provenance(), error=f"filled solve failed: {exc}",
            ))
            continue
        report = screen_triangulation(tri, source, options, solved=solved, filling=listed)
        report.manifold = label
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# output formatting

CSV_COLUMNS = ["manifold", "cusp", "field", "rigid_compatible", "isolation", "verdict", "tag"]


def reports_to_csv(reports: list[ScreenReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        if not rep.cusps:
            writer.writerow([rep.manifold, "", "", "", "", rep.verdict, NON_VERIFIED_TAG])
        for rec in rep.cusps:
            iso = "" if rec.isolation is None else rec.isolation.label
            writer.writerow([
                rep.manifold, rec.name,
                "" if rec.field is None else str(rec.field),
                rec.rigid, iso, rep.verdict, NON_VERIFIED_TAG,
            ])
    return buf.getvalue()


def reports_to_table(reports: list[ScreenReport]) -> str:
    lines = []
    for rep in reports:
        head = f"{rep.manifold}: {rep.verdict}"
        if rep.error:
            head += f"  [{rep.error}]"
        lines.append(head)
        for rec in rep.cusps:
            iso = "-" if rec.isolation is None else rec.isolation.label
            shape = "-"
            if rec.shape:
                re_part, im_part = (mp.nstr(mp.mpf(rec.shape[k]), 12) for k in ("re", "im"))
                shape = f"{re_part}{'' if im_part.startswith('-') else '+'}{im_part}i"
            field_name = str(rec.field) if rec.field else "-"
            err = f"  [{rec.error}]" if rec.error else ""
            lines.append(f"  {rec.name}: shape={shape} field={field_name} "
                         f"rigid={rec.rigid} isolation={iso}{err}")
        lines.append(f"  ({NON_VERIFIED_TAG})")
    return "\n".join(lines)


def write_reports(reports: list[ScreenReport], out_dir) -> None:
    """One `<name>.report.json` per report plus `summary.csv`; a name that
    an earlier report already took gets the first free `-2`, `-3`, ...
    suffix, and every name no other report shares is kept as it is."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stems = [rep.manifold.replace("/", "_").replace("(", "_").replace(")", "").replace("=", "_")
             for rep in reports]
    taken, seen = set(stems), set()
    for rep, stem in zip(reports, stems):
        safe, k = stem, 1
        while stem in seen and safe in taken:
            k += 1
            safe = f"{stem}-{k}"
        seen.add(stem)
        taken.add(safe)
        (out / f"{safe}.report.json").write_text(rep.to_json() + "\n")
    (out / "summary.csv").write_text(reports_to_csv(reports))


# ---------------------------------------------------------------------------
# CLI

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


class _UsageError(ValueError):
    """A command-line value that argparse cannot check: exit code 1."""


def _cusp_index(tri: IdealTriangulation, cusp: int) -> int:
    if not 0 <= cusp < len(tri.cusps):
        raise _UsageError(f"--cusp {cusp} is out of range 0..{len(tri.cusps) - 1} "
                         f"for {tri.name}")
    return cusp


def fixture_dir() -> pathlib.Path:
    env = os.environ.get("CUSPFORGE_FIXTURES")
    if env:
        return pathlib.Path(env)
    return pathlib.Path(__file__).parent / "fixtures"


def resolve_input(name: str) -> pathlib.Path:
    p = pathlib.Path(name)
    if p.exists():
        return p
    candidate = fixture_dir() / f"{name}.json"
    if candidate.exists():
        return candidate
    return p  # let downstream report the missing file


def _build_parser() -> _Parser:
    # each subcommand declares only the flags it reads: every one solves,
    # field/screen/fill recognize fields, and screen/fill emit reports
    solving = argparse.ArgumentParser(add_help=False)
    solving.add_argument("--precision-bits", type=int, default=256)
    solving.add_argument("--seed", type=int, default=0)
    recognizing = argparse.ArgumentParser(add_help=False, parents=[solving])
    recognizing.add_argument("--max-degree", type=int, default=12)
    reporting = argparse.ArgumentParser(add_help=False, parents=[recognizing])
    reporting.add_argument("--out", type=str, default=None, help="directory for report files")
    reporting.add_argument("--format", choices=["json", "csv", "table"], default="table")

    parser = _Parser(prog="cuspforge", description=(
        "Hyperbolic structures, cusp fields, and hidden-symmetry "
        "obstructions for decorated ideal triangulations."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags, help_text in [
        ("solve", solving, "complete hyperbolic structure"),
        ("shape", solving, "cusp parameter values at the complete structure"),
        ("field", recognizing, "cusp fields via integer-relation detection"),
        ("isolate", solving, "geometric-isolation evidence per cusp"),
        ("screen", reporting, "full screening reports"),
    ]:
        p = sub.add_parser(name, help=help_text, parents=[flags])
        p.add_argument("manifolds", nargs="+")
        if name == "isolate":
            p.add_argument("--cusp", type=int, default=None)
    p = sub.add_parser("fill", help="screen (1, n) fillings of one cusp", parents=[reporting])
    p.add_argument("manifold")
    p.add_argument("--cusp", type=int, required=True)
    p.add_argument("--n-range", type=str, default="-3:3",
                   help="inclusive range a:b of filling integers n (0 skipped)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    options = ScreenOptions(precision_bits=args.precision_bits, seed=args.seed,
                            max_degree=getattr(args, "max_degree", ScreenOptions.max_degree))
    try:
        if options.precision_bits < 1:
            raise _UsageError(f"--precision-bits must be at least 1, "
                              f"got {options.precision_bits}")
        if options.max_degree < 1:
            raise _UsageError(f"--max-degree must be at least 1, got {options.max_degree}")
        with mp.workprec(options.precision_bits + 30):
            return _dispatch(args, options)
    except _UsageError as exc:
        print(f"cuspforge: error: {exc}", file=sys.stderr)
        return 1
    except (TriangulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _converged_solve(tri: IdealTriangulation, options: ScreenOptions) -> SolveResult | None:
    """The complete solve, or None after printing one line that says why
    there is none."""
    try:
        result = solve_complete(tri, options.precision_bits, seed=options.seed)
    except SolveError as exc:
        print(f"{tri.name}: solve failed: {exc}")
        return None
    if not result.success:
        print(f"{tri.name}: {UNCONVERGED}")
        return None
    return result


def _dispatch(args, options: ScreenOptions) -> int:
    digits = printed_digits(options.precision_bits)

    if args.command == "solve":
        for name in args.manifolds:
            tri = load_fixture(name)
            result = _converged_solve(tri, options)
            if result is None:
                continue
            print(f"{tri.name}: residual={mp.nstr(result.residual, 6)} "
                  f"geometric={result.geometric}")
            for i, z in enumerate(result.shapes.z):
                print(f"  z{i} = {mp.nstr(z, digits)}")
        return 0

    if args.command == "shape":
        for name in args.manifolds:
            tri = load_fixture(name)
            result = _converged_solve(tri, options)
            if result is None:
                continue
            for cusp in tri.cusps:
                value = evaluate_cusp_parameter(cusp_parameter(tri, cusp), result.shapes)
                print(f"{tri.name}.{cusp.name}: {mp.nstr(value, digits)}")
        return 0

    if args.command == "field":
        for name in args.manifolds:
            tri = load_fixture(name)
            report = screen_triangulation(tri, name, options, run_isolation=False)
            if report.error:
                print(f"{tri.name}: {report.error}")
            for rec in report.cusps:
                if rec.error:
                    print(f"{tri.name}.{rec.name}: {rec.error}")
                    continue
                print(f"{tri.name}.{rec.name}: minpoly={rec.minpoly} field={rec.field} "
                      f"rigid_compatible={rec.rigid} ({NON_VERIFIED_TAG})")
        return 0

    if args.command == "isolate":
        for name in args.manifolds:
            tri = load_fixture(name)
            indices = (range(len(tri.cusps)) if args.cusp is None
                       else [_cusp_index(tri, args.cusp)])
            start = _converged_solve(tri, options)
            if start is None:
                continue
            # one doubled-precision structure certifies every cusp's evidence
            try:
                doubled = doubled_structure(tri, start)
            except SolveError as exc:
                for i in indices:
                    print(f"{tri.name}.{tri.cusps[i].name}: isolation failed: {exc}")
                continue
            for i in indices:
                name = f"{tri.name}.{tri.cusps[i].name}"
                try:
                    ev = isolation_verdict(tri, i, start=start, doubled=doubled)
                except (SolveError, ZeroDivisionError, ValueError) as exc:
                    print(f"{name}: isolation failed: {exc}")
                    continue
                order = f" at order {ev.order}" if ev.order else ""
                print(f"{name}: {ev.verdict}{order} |d_tau|={mp.nstr(abs(ev.d_tau), 6)} "
                      f"|d2_tau|={mp.nstr(abs(ev.d2_tau), 6)}")
        return 0

    if args.command == "fill":
        bounds = re.fullmatch(r"(-?\d+):(-?\d+)", args.n_range)
        if bounds is None or int(bounds[1]) > int(bounds[2]):
            raise _UsageError(f"--n-range must be a:b with integers a <= b, "
                             f"got {args.n_range!r}")
        n_values = [n for n in range(int(bounds[1]), int(bounds[2]) + 1) if n != 0]
        if not n_values:
            raise _UsageError(f"--n-range must contain a nonzero n, got {args.n_range!r}")
        tri = load_fixture(args.manifold)
        reports = fill_and_screen(tri, _cusp_index(tri, args.cusp), n_values, options)
        return _emit(reports, args)

    if args.command == "screen":
        paths = [resolve_input(name) for name in args.manifolds]
        reports = screen(paths, options)
        code = 2 if any(r.parse_failed for r in reports) else 0
        emit_code = _emit(reports, args)
        return code or emit_code

    return 1


def _emit(reports, args) -> int:
    if args.out:
        write_reports(reports, args.out)
        print(f"wrote {len(reports)} report(s) to {args.out}")
    elif args.format == "json":
        print(json.dumps([r.to_jsonable() for r in reports], sort_keys=True, indent=1))
    elif args.format == "csv":
        sys.stdout.write(reports_to_csv(reports))
    else:
        print(reports_to_table(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
