"""Benchmark set-up, run in a fresh interpreter; its time is setup_s.

    python3 perfbench/prepare.py --workload trace --seed 3 --out DIR

It imports cuspforge as the CLI does, writes the seed's relabelled fixtures
into DIR and parses them.  For the trace workload it also computes the
start solutions the ops take as given: a cold complete solve at 256 bits,
polished to 512 bits through `initial=`, written exactly to DIR/starts.json.
The last line it prints is the set-up's wall time, from the first import
of cuspforge on, and that time calibrated by the kernel timed right before
and after it in the same process (calibration.py); the kernel has mpmath
imported by then, so its import is not part of the set-up time.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def prepare(workload: str, seed: int, out: pathlib.Path) -> None:
    """Write and parse the inputs of `workload`; raises on failure."""
    import cuspforge.screen  # noqa: F401  (what the CLI imports)
    import cuspforge.manifold as manifold
    import cuspforge.solver as solver
    from inputs import FIXTURES, TRACE_PRECISIONS, dump_shapes, write_inputs

    names = ("whitehead",) if workload == "fill" else FIXTURES
    paths = write_inputs(ROOT / "src" / "cuspforge" / "fixtures", out, names, seed)
    tris = {name: manifold.parse_triangulation(path.read_text())
            for name, path in paths.items()}
    if workload != "trace":
        return
    starts = {}
    for name, tri in tris.items():
        cold = solver.solve_complete(tri, TRACE_PRECISIONS[0])
        polished = solver.solve_complete(tri, TRACE_PRECISIONS[1], initial=cold.shapes)
        starts[name] = {}
        for bits, result in zip(TRACE_PRECISIONS, (cold, polished)):
            if not result.success:
                raise RuntimeError(f"{name}: start solve at {bits} bits failed")
            starts[name][str(bits)] = {
                "precision_bits": bits,
                "shapes": dump_shapes(result.shapes),
                "residual": str(result.residual),
                "geometric": result.geometric,
                "iterations": result.iterations,
                "success": result.success,
                "restarts_used": result.restarts_used,
            }
    (out / "starts.json").write_text(json.dumps(starts))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["screen", "fill", "trace"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from calibration import calibrated, kernel_seconds

    before = kernel_seconds()
    start = time.perf_counter()
    prepare(args.workload, args.seed, pathlib.Path(args.out))
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds,
                      "calibrated": calibrated(seconds, before, kernel_seconds())}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
