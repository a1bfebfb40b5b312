"""Per-layer metrics, one group per coalsim module, from a traced pass.

`_ms` metrics are milliseconds of self time per CLI call and `_calls`
metrics are calls per CLI call, both averaged over the calls of the traced
pass, so they do not depend on how many calls fit into a run.
`properties.trial_ms.<name>` is the inclusive time of one trial.  A layer a
workload does not reach reads 0.
"""

from __future__ import annotations

import statistics

from instances import KINDS
from workloads import Harness

PROPERTIES = Harness.properties
COMMANDS = ("behavioural", "greatest-bisim", "greatest-sim", "nstep",
            "check-sim", "tbisim", "randtest")

# metric -> functions whose self time (SELF_MS) or call count (CALLS) it sums
SELF_MS = {
    "simulation.greatest_bisim_ms": ["simulation.greatest_bisimulation"],
    "simulation.greatest_sim_ms": ["simulation.greatest_simulation"],
    "simulation.check_ms": [
        "simulation.is_simulation", "simulation.is_bisimulation",
        "simulation.is_bisimulation_up_to_difunctionality",
        "simulation.is_n_simulation", "simulation.is_n_bisimulation",
    ],
    "simulation.chain_ms": ["simulation.n_simulation_chain", "simulation.n_bisimulation_chain"],
    "behaviour.partition_ms": ["behaviour.n_step_partition", "behaviour.stabilized_partition"],
    "behaviour.quotient_ms": ["behaviour.quotient_witness"],
    "behaviour.equiv_self_ms": ["behaviour.behavioural_equivalence"],
    "behaviour.coupling_ms": [
        "behaviour.t_bisimulation_check", "behaviour.t_bisim_up_to_difunctionality_check",
        "behaviour.verify_coupling",
    ],
    "values.relabel_ms": ["values.relabel"],
    "values.measure_ms": ["values.measure"],
    "values.validate_ms": ["values.validate"],
    "values.enumerate_ms": ["values.enumerate_values"],
    "modelio.load_ms": [
        "modelio.load_coalgebra", "modelio.load_relation", "modelio.coalgebra_from_dict",
        "modelio.relation_from_dict", "modelio.value_from_json",
    ],
    "modelio.dump_ms": [
        "modelio.dump_json", "modelio.relation_to_dict", "modelio.value_to_json",
        "modelio.coalgebra_to_dict",
    ],
    "liftings.signature_ms": [
        "liftings.resolve_signature", "liftings.auto_signature", "liftings.ensure_separating",
        "liftings.graded_bound", "liftings.prob_grid",
    ],
    "transport.flow_ms": ["transport.feasible_transport"],
    "relations.closure_ms": ["relations.difunctional_closure"],
    "formulas.eval_ms": ["formulas.evaluate", "formulas.extension"],
    "generators.gen_ms": [
        "generators.generate_coalgebra", "generators.generate_pair", "generators.random_relation",
        "generators.random_formula", "generators.random_positive_formula",
    ],
    "oracles.oracle_ms": ["oracles.brute_force_simulation_oracle"],
    "cli.self_ms": ["cli.cli_dispatch", "cli.build_parser"],
}
CALLS = {
    "simulation.greatest_bisim_calls": ["simulation.greatest_bisimulation"],
    "behaviour.coupling_calls": [
        "behaviour.t_bisimulation_check", "behaviour.t_bisim_up_to_difunctionality_check",
    ],
    "values.relabel_calls": ["values.relabel"],
    "values.measure_calls": ["values.measure"],
    "liftings.satisfies_calls": ["liftings.satisfies"],
    "transport.flow_calls": ["transport.feasible_transport"],
    "relations.closure_calls": ["relations.difunctional_closure"],
}

# Return values kept while tracing, for the input-property metrics.
KEEP = {
    "simulation.greatest_bisimulation": lambda args, rel: (
        args[0].kind.name, len(rel.pairs) / (len(rel.left) * len(rel.right))
    ),
    "behaviour.stabilized_partition": lambda args, result: result[1],
    "liftings.resolve_signature": lambda args, sig: len(sig.modalities),
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SELF_MS:
        units[name] = "ms"
    for name in CALLS:
        units[name] = "count"
    units["simulation.greatest_bisim_frac"] = "ratio"
    for kind in KINDS:
        units[f"simulation.kept_pairs_frac.{kind}"] = "ratio"
    units["behaviour.partition_depth"] = "count"
    units["liftings.grid_size"] = "count"
    for prop in PROPERTIES:
        units[f"properties.trial_ms.{prop}"] = "ms"
    for command in COMMANDS:
        units[f"cli.{command}.p50_ms"] = "ms"
    units["trace.overhead_frac"] = "ratio"
    return units


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def compute(tracer, traced_calls: int, untraced_by_command: dict, overhead: float) -> dict:
    """All per-layer metric values; `untraced_by_command` maps command -> latencies (s)."""
    out = {}
    per_call = max(traced_calls, 1)
    for name, functions in SELF_MS.items():
        out[name] = sum(tracer.totals(f)[2] for f in functions) / 1e6 / per_call
    for name, functions in CALLS.items():
        out[name] = sum(tracer.totals(f)[0] for f in functions) / per_call
    # Share of behavioural_equivalence's time spent inside greatest_bisimulation,
    # over `behavioural` calls: the pair fixpoint's share of deciding equivalence.
    inside = tracer.totals("simulation.greatest_bisimulation", "behavioural")[1]
    whole = tracer.totals("behaviour.behavioural_equivalence", "behavioural")[1]
    out["simulation.greatest_bisim_frac"] = inside / whole if whole else 0.0
    kept = tracer.results.get("simulation.greatest_bisimulation", [])
    for kind in KINDS:
        out[f"simulation.kept_pairs_frac.{kind}"] = _mean(f for k, f in kept if k == kind)
    out["behaviour.partition_depth"] = _mean(tracer.results.get("behaviour.stabilized_partition", []))
    out["liftings.grid_size"] = _mean(tracer.results.get("liftings.resolve_signature", []))
    for prop in PROPERTIES:
        calls, incl, _ = tracer.totals(f"properties.trial.{prop}")
        out[f"properties.trial_ms.{prop}"] = incl / 1e6 / calls if calls else 0.0
    for command in COMMANDS:
        lat = untraced_by_command.get(command, [])
        out[f"cli.{command}.p50_ms"] = statistics.median(lat) * 1e3 if lat else 0.0
    out["trace.overhead_frac"] = overhead
    return out
