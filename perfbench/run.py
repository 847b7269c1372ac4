"""cuspforge benchmark: screen, fill and trace workloads.

    python3 perfbench/run.py --workload screen|fill|trace --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout.  Set-up runs SETUPS times, or fewer
once SETUP_BUDGET_S is spent, each in a fresh interpreter
(perfbench/prepare.py); the median of their calibrated times is setup_s.
The runner then times whole passes over the workload's ops, one op at a
time in this process, stopping at the pass boundary nearest to S seconds.
Every op is checked against its reference (see workloads.py); an op that
raises or fails its check is counted as failed and the run goes on.

With --trace 0 the passes run untraced and give the end-to-end metrics.
Every time behind them is calibrated (calibration.py); the raw wall-clock
forms are printed beside them.
With --trace 1 the set-up runs once more in this process, traced, and
untraced and traced passes alternate: the traced ones give the per-layer
metrics (tracing.py), and the ratio of their calibrated times gives
trace_overhead_share.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it list every metric with
its unit and sample count, the failures by exception type and layer, and
the provenance.  The full record, spans included, goes to
.perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 3
# set-ups stop early once they have taken this long together
SETUP_BUDGET_S = 10.0
SETUP_TIMEOUT = 120


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _setup(workload: str, seed: int, out: pathlib.Path) -> dict:
    """One set-up in a fresh interpreter; returns the times it reports."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "prepare.py"),
           "--workload", workload, "--seed", str(seed), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"set-up took over {SETUP_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _layer(exc: BaseException) -> str | None:
    """module.function of the innermost cuspforge frame the exception left."""
    layer = None
    for frame in traceback.extract_tb(exc.__traceback__):
        path = pathlib.Path(frame.filename)
        if path.parent.name == "cuspforge":
            layer = f"{path.stem}.{frame.name}"
    return layer


def _timed_pass(workload, index: int, state, tracer, clock, emit_dir) -> dict:
    """Run every op once, then emit the pass's reports.  Checks run
    between ops, outside the timed and traced regions."""
    from workloads import emit

    def in_span(tag, fn):
        if tracer is None:
            return fn
        def traced():
            with tracer.record(f"{index}:{tag}"):
                return fn()
        return traced

    records = []
    reports = []
    for op in workload.ops:
        result, exc, seconds, calibrated = clock.timed(in_span(op.label, op.run))
        record = {"pass": index, "op": op.label, "traced": tracer is not None,
                  "seconds": seconds, "calibrated": calibrated}
        if exc is not None:
            record.update(status="raised", error=type(exc).__name__,
                          layer=_layer(exc), reason=str(exc)[:200])
        else:
            outcome = op.check(result, state)
            record.update(status=outcome.status, reason=outcome.reason,
                          minpolys=outcome.minpolys)
            if workload.emits_reports:
                reports.extend(result)
        records.append(record)
    emitted = {"seconds": 0.0, "calibrated": 0.0}
    if workload.emits_reports:
        _, exc, emitted["seconds"], emitted["calibrated"] = clock.timed(
            in_span("emit", lambda: emit(reports, emit_dir / f"pass{index}")))
        if exc is not None:
            raise exc
    return {"traced": tracer is not None, "records": records, "emit": emitted,
            "calibrated": sum(r["calibrated"] for r in records) + emitted["calibrated"]}


def measure(workload, seconds: float, tracer, clock, emit_dir: pathlib.Path) -> list[dict]:
    """Whole passes for about `seconds`.  With a tracer, passes
    run untraced, traced, traced, untraced in groups of four, so that
    warm-up and drift fall on both sides of trace_overhead_share."""
    from tracing import install
    from workloads import CheckState

    state = CheckState()
    passes = []
    begin = time.perf_counter()
    while True:
        index = len(passes)
        use_tracer = tracer is not None and index % 4 in (1, 2)
        uninstall = install(tracer) if use_tracer else None
        state.spreads.clear()
        try:
            passes.append(_timed_pass(workload, index, state,
                                      tracer if use_tracer else None, clock, emit_dir))
        finally:
            if uninstall is not None:
                uninstall()
        elapsed = time.perf_counter() - begin
        # stop at the pass boundary nearest to `seconds`
        if elapsed + elapsed / len(passes) / 2 >= seconds and not (tracer and len(passes) % 4):
            return passes


def _line_counts() -> dict:
    counts = {p.name: p.read_bytes().count(b"\n")
              for p in sorted((SRC / "cuspforge").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload) -> dict:
    import mpmath.libmp
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "python": platform.python_version(),
        "sympy_ground_types": GROUND_TYPES,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "precision_bits": workload.precision,
        "git_commit": _git_commit(),
        "src_lines": _line_counts(),
    }


def end_to_end(passes: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics, and their uncalibrated wall-clock forms, as
    {name: (value, unit, sample count)}.

    goodput divides the ops that passed in a pass by a typical pass time:
    the sum over ops of each op's median time over the passes, plus the
    median emission time.
    """
    records = [r for p in passes for r in p["records"]]
    passed = sum(r["status"] == "passed" for r in records)
    n = len(records)

    def timing(key):
        by_op = collections.defaultdict(list)
        for r in records:
            by_op[r["op"]].append(r[key])
        typical_pass = (sum(statistics.median(v) for v in by_op.values())
                        + statistics.median(p["emit"][key] for p in passes))
        return ((passed / len(passes) / typical_pass, "ops/s", n),
                (statistics.median(r[key] for r in records), "s", n))

    (goodput, p50), (wall_goodput, wall_p50) = timing("calibrated"), timing("seconds")
    gated = {
        "setup_s": (statistics.median(s["calibrated"] for s in setups), "s", len(setups)),
        "goodput_ops_per_s": goodput,
        "op_p50_s": p50,
        "passed_share": (passed / n, "ratio", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    return gated, {"setup_s.wall": (statistics.median(s["seconds"] for s in setups),
                                    "s", len(setups)),
                   "goodput_ops_per_s.wall": wall_goodput, "op_p50_s.wall": wall_p50}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["screen", "fill", "trace"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cuspforge" / "__init__.py").is_file():
        return _fail(f"no cuspforge sources under {SRC}; run from a full checkout")
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work, prefix=f"{args.workload}-") as tmp:
        tmp = pathlib.Path(tmp)
        inputs = tmp / "inputs"
        setups = []
        # a traced run reports no setup_s, so one set-up will do
        while len(setups) < (1 if args.trace else SETUPS) and \
                sum(s["seconds"] for s in setups) < SETUP_BUDGET_S:
            try:
                setups.append(_setup(args.workload, args.seed, inputs))
            except RuntimeError as exc:
                return _fail(str(exc))

        sys.path.insert(0, str(SRC))
        from calibration import Clock
        from prepare import prepare
        from tracing import Tracer, install, layer_metrics
        from workloads import WORKLOADS

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            # once more in this process, so that the layers set-up spends
            # its time in show up in the per-layer metrics
            uninstall = install(tracer)
            try:
                with tracer.record("setup"):
                    prepare(args.workload, args.seed, inputs)
            finally:
                uninstall()
        workload = WORKLOADS[args.workload](inputs)
        passes = measure(workload, args.seconds, tracer, Clock(), tmp / "emitted")

    records = [r for p in passes for r in p["records"]]
    failed = [r for r in records if r["status"] != "passed"]
    extra = {"failed_share": (len(failed) / len(records), "ratio", len(records))}
    if tracer is not None:
        traced = [r for r in records if r["traced"]]
        recognized = sum(len(r.get("minpolys", ())) for r in traced)
        times = {t: sum(p["calibrated"] for p in passes if p["traced"] == t)
                 for t in (False, True)}
        metrics = layer_metrics(tracer.spans, recognized, times[True] / times[False] - 1)
        metrics = {k: (v, unit, len(traced)) for k, (v, unit) in metrics.items()}
    else:
        metrics, wall = end_to_end(passes, setups)
        extra.update(wall)

    prov = provenance(workload)
    failures = collections.Counter(
        (r["status"], r.get("error"), r.get("layer"), r["op"]) for r in failed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ops={len(records)}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:8s} n={n}")
    for name, (value, unit, n) in extra.items():
        print(f"  {name:40s} {value:14.6g} {unit:8s} n={n}  (reported, not gated)")
    for (status, error, layer, op), count in sorted(failures.items(), key=str):
        print(f"  failed {count}x {op}: {status}"
              + (f" {error} in {layer}" if error else ""))
    print("  provenance " + json.dumps(prov, sort_keys=True))

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "setups": setups,
              "metrics": metrics, "reported": extra, "passes": passes,
              "spans": tracer.spans if tracer is not None else []}
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, default=str))
    print(f"  detail {out.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not any(r["status"] == "wrong" for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
