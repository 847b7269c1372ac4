"""Seeded benchmark inputs: relabelled fixtures and serialized start solutions.

A seed selects a relabelling of every bundled fixture: new edge labels and a
new order of the corners within each edge.  Seed 0 is the fixtures as
shipped.  The relabelled file describes the same triangulation, and every
verdict, polynomial and report must come out unchanged.

The relabelling leaves the numerics bit-identical on purpose, so that a
run's figures measure the code rather than the draw:

* Tetrahedron indices stay.  The solver's random restart schedule assigns
  perturbations by tetrahedron index, so a tetrahedron relabelling changes
  which starting points the cold search tries: over 14 relabellings 622's
  start search took 2 to 32 restarts and 1.6 to 10.4 s.
* Edge order stays.  It is the row order of every Jacobian, and it changes
  the complex phase of the SVD kernel vector that trace_completeness_curve
  walks along, hence which cusps' 256- and 512-bit spreads agree.
"""

from __future__ import annotations

import json
import pathlib
import random

FIXTURES = ("whitehead", "622", "berge")
# the trace workload's precisions: its start solutions are solved at the
# first and polished to the second
TRACE_PRECISIONS = (256, 512)


def relabel(doc: dict, seed: int) -> dict:
    """The fixture document with its edge labels and the corner order of
    each edge drawn from `seed`; seed 0 returns an unchanged copy."""
    doc = json.loads(json.dumps(doc))
    if seed == 0:
        return doc
    rng = random.Random(f"perfbench-relabel:{doc['name']}:{seed}")
    labels = [f"e{k}" for k in range(len(doc["edges"]))]
    rng.shuffle(labels)
    for label, edge in zip(labels, doc["edges"]):
        edge["label"] = label
        rng.shuffle(edge["corners"])
    return doc


def write_inputs(fixture_dir: pathlib.Path, out_dir: pathlib.Path,
                 names, seed: int) -> dict[str, pathlib.Path]:
    """Write the relabelled JSON of each named fixture into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        doc = json.loads((fixture_dir / f"{name}.json").read_text())
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(relabel(doc, seed), indent=1))
        paths[name] = path
    return paths


def _mpf_pair(x) -> list[int]:
    man, exp = x.man_exp          # the mantissa comes back unsigned
    return [-int(man) if x < 0 else int(man), int(exp)]


def dump_shapes(shapes) -> list:
    """Exact (mantissa, exponent) form of each complex shape."""
    return [[_mpf_pair(z.real), _mpf_pair(z.imag)] for z in shapes.z]


def load_start(entry: dict):
    """Rebuild the SolveResult that trace_completeness_curve takes as start."""
    from mpmath import mp
    from cuspforge.holonomy import ShapeAssignment
    from cuspforge.solver import SolveResult

    bits = entry["precision_bits"]
    with mp.workprec(bits + 30):
        z = tuple(mp.mpc(mp.mpf(tuple(re)), mp.mpf(tuple(im)))
                  for re, im in entry["shapes"])
        residual = mp.mpf(entry["residual"])
    return SolveResult(
        shapes=ShapeAssignment(z, bits), residual=residual,
        geometric=entry["geometric"], iterations=entry["iterations"],
        success=entry["success"], seed=0, restarts_used=entry["restarts_used"],
    )
