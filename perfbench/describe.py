"""Measure the input properties of the workloads and write input_properties.json.

    python3 perfbench/describe.py

For every workload, kind and size class, a sample of the calls of the
default seed is loaded through coalsim and described: state counts, the
largest support (value base), the size of the resolved default signature's
grid, the share of C x D that the greatest bisimulation keeps, and the depth
at which the joint partition stabilises.  A change that helps only inputs
with some property can cite these shares.  `harness` inputs are generated
inside coalsim by `randtest` (at most 5 states per model), so only its call
mix is recorded.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLES = 6  # calls described per slot group

WHY = {
    "equiv": "Planted inflations keep many pairs alive through several refinement "
             "rounds, so the fixpoint, partition, relabel and load/emit layers do the "
             "work; narrow supports keep subset enumeration cheap.",
    "wide": "Wide supports make subset enumeration (pair checks, measure, the prob "
            "grid) and transport do nearly all the work; partition and load do almost none.",
    "harness": "Thousands of engine calls on models of at most 5 states: fixed per-call "
               "costs dominate, and oracles, generators, formulas, relations and value "
               "enumeration do their work here.",
}
NOTES = {
    "equiv": "Every distribution pair is fully bisimilar: the pure distribution functor "
             "has no observation that separates states, so kept_pairs_frac is 1 by "
             "construction (the all-pairs-survive worst case).",
}


def _summary(values):
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from coalsim.behaviour import stabilized_partition
    from coalsim.liftings import DEFAULT_LITERALS, resolve_signature
    from coalsim.modelio import load_coalgebra
    from coalsim.simulation import greatest_bisimulation
    from coalsim.values import base

    from workloads import WORKLOADS

    doc = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in ("equiv", "wide"):
            workload = WORKLOADS[name](0)
            groups = {}
            for index in range(len(workload.slots) * SAMPLES):
                call = workload.prepare(index, f"s{index}_", tmp)
                c, d = (load_coalgebra(path) for path in call.argv[1:3])
                key = f"{call.kind}/|C|={len(c.carrier)}"
                row = groups.setdefault(key, [])
                if len(row) < SAMPLES:
                    sig = resolve_signature(DEFAULT_LITERALS[c.kind.name], [c, d])
                    kept = greatest_bisimulation(c, d, sig)
                    row.append({
                        "states_C": len(c.carrier),
                        "states_D": len(d.carrier),
                        "max_support": max(len(base(v)) for m in (c, d) for v in m.transition.values()),
                        "grid_size": len(sig.modalities),
                        "kept_pairs_frac": len(kept.pairs) / (len(c.carrier) * len(d.carrier)),
                        "partition_depth": stabilized_partition(c, d)[1],
                    })
                for path in call.files:
                    Path(path).unlink(missing_ok=True)
            doc[name] = {
                "why": WHY[name],
                **({"note": NOTES[name]} if name in NOTES else {}),
                "groups": {
                    key: {field: _summary([r[field] for r in rows]) for field in rows[0]}
                    for key, rows in sorted(groups.items())
                },
            }
        harness = WORKLOADS["harness"](0)
        doc["harness"] = {
            "why": WHY["harness"],
            "call": f"randtest <property> --trials {harness.trials} --seed <fresh> --json",
            "properties": list(harness.properties),
        }
    out = HERE / "input_properties.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
