"""Randomized theorem checks, runnable by name.

Each property executes a cross-module claim on seeded random instances and
reports counterexamples.  The claims and their identifiers are written once,
in `theorem_matrix.json` next to this module; the registry `PROPERTIES`
pairs each entry with its runner.  Trial seeds are derived as
`seed + trial_index`, so runs are reproducible and trials are independent.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from typing import Callable

from .behaviour import (
    behavioural_equivalence,
    n_step_partition,
    stabilized_partition,
    t_bisim_up_to_difunctionality_check,
    t_bisimulation_check,
)
from .errors import InternalCheckError, ValidationError, shown
from .formulas import evaluate, format_formula, rank
from .generators import (
    EnumerationBudget,
    GeneratorConfig,
    enumerate_values,
    generate_coalgebra,
    inflate_coalgebra,
    random_positive_formula,
    random_relation,
)
from .liftings import (
    LambdaSignature,
    auto_signature,
    at_least,
    atom,
    diamond_gt,
    lifting_violations,
    more_than,
    satisfies,
    subsets,
    BOX,
    DIAMOND,
    NBHD_BOX,
)
from .modelio import coalgebra_to_dict, relation_to_dict
from .oracles import (
    brute_force_simulation_oracle,
    distinguishing_pair,
    is_lambda_homomorphism,
    lambda_leq,
    simulation_chain,
)
from .relations import difunctional_closure, identity_relation, relation
from .simulation import (
    greatest_bisimulation,
    greatest_simulation,
    is_bisimulation,
    is_bisimulation_up_to_difunctionality,
    is_n_bisimulation,
    is_n_simulation,
    is_simulation,
)
from .values import (
    DISTRIBUTION,
    DISTRIBUTION_KIND,
    KRIPKE,
    MULTISET,
    MULTISET_KIND,
    NEIGHBORHOOD_KIND,
    Coalgebra,
    base,
    kripke_kind,
    relabel,
    state_key,
    values_equal,
)

KIND_POOL = (
    kripke_kind(("p", "q")),
    MULTISET_KIND,
    DISTRIBUTION_KIND,
    NEIGHBORHOOD_KIND,
)

WPP_KIND_POOL = (kripke_kind(("p", "q")), MULTISET_KIND, DISTRIBUTION_KIND)


@dataclass
class PropertyRunReport:
    name: str
    trials: int
    counterexamples: list
    asserting: bool = True

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "property": self.name,
            "trials": self.trials,
            "counterexamples": self.counterexamples,
            "passed": self.passed,
            "asserting": self.asserting,
        }


def _models(trial_seed: int, kind, max_states=5, **overrides):
    rng = random.Random(trial_seed)
    cfg = GeneratorConfig(
        seed=rng.getrandbits(32), kind=kind, max_states=max_states, **overrides
    )
    c = generate_coalgebra(cfg)
    d = generate_coalgebra(replace(cfg, seed=rng.getrandbits(32)))
    return rng, c, d


def _instance_doc(c, d, **extra) -> dict:
    doc = {"left": coalgebra_to_dict(c), "right": coalgebra_to_dict(d)}
    doc.update(extra)
    return doc


def _random_modality(rng, kind):
    name = kind.name
    if name == KRIPKE:
        pool = [BOX, DIAMOND] + [atom(p) for p in kind.atoms]
        return pool[rng.randrange(len(pool))]
    if name == MULTISET:
        return diamond_gt(rng.randint(0, 5))
    if name == DISTRIBUTION:
        p = Fraction(rng.randint(0, 4), 4)
        return at_least(p) if rng.random() < 0.5 else more_than(p)
    return NBHD_BOX


def _prop_oracle_agreement(trial, seed):
    rng, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=5)
    sig = auto_signature(c, d)
    s = random_relation(rng, c, d)
    engine = is_simulation(s, c, d, sig).holds
    oracle = brute_force_simulation_oracle(s, c, d, sig)
    if engine != oracle:
        return _instance_doc(
            c, d, relation=relation_to_dict(s), engine=engine, oracle=oracle
        )
    return None


def _prop_fast_path(trial, seed):
    rng, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=5)
    sig = auto_signature(c, d)
    s = random_relation(rng, c, d)
    # is_simulation decides by lifting_check, the per-kind check and the
    # flow's cut; compare with the generic search's listing at every pair.
    img = s.left_images()
    generic = not any(
        lifting_violations(c.transition[x], d.transition[y], img, sig, 1)
        for x, y in s.sorted_pairs()
    )
    fast = is_simulation(s, c, d, sig).holds
    if generic != fast:
        return _instance_doc(
            c, d, relation=relation_to_dict(s), generic=generic, fast=fast
        )
    return None


def _prop_preservation(trial, seed):
    rng, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=5)
    sig = auto_signature(c, d)
    s = greatest_simulation(c, d, sig)
    if not s.pairs:
        return None
    pairs = sorted(s.pairs, key=state_key)
    for _ in range(12):
        x, y = pairs[rng.randrange(len(pairs))]
        f = random_positive_formula(rng, sig, max_rank=4)
        if evaluate(f, c, x) and not evaluate(f, d, y):
            return _instance_doc(
                c,
                d,
                relation=relation_to_dict(s),
                pair=[x, y],
                formula=format_formula(f),
            )
    return None


def _prop_rank_preservation(trial, seed):
    rng, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=5)
    sig = auto_signature(c, d)
    n = trial % 5
    s = greatest_simulation(c, d, sig, n)
    if not s.pairs:
        return None
    pairs = sorted(s.pairs, key=state_key)
    for _ in range(12):
        x, y = pairs[rng.randrange(len(pairs))]
        f = random_positive_formula(rng, sig, max_rank=n)
        if rank(f) > n:
            raise InternalCheckError("formula generator exceeded its rank bound")
        if evaluate(f, c, x) and not evaluate(f, d, y):
            return _instance_doc(
                c,
                d,
                relation=relation_to_dict(s),
                depth=n,
                pair=[x, y],
                formula=format_formula(f),
            )
    return None


def _prop_n_bisim_n_step(trial, seed):
    _, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=5)
    sig = auto_signature(c, d)
    n = trial % 6
    greatest = simulation_chain(c, d, sig, n, both=True)
    partition = n_step_partition(c, d, n).cross_relation()
    if greatest.pairs != partition.pairs:
        return _instance_doc(
            c,
            d,
            depth=n,
            greatest=relation_to_dict(greatest),
            partition=relation_to_dict(partition),
        )
    return None


def _prop_soundness_completeness(trial, seed):
    """The both-way chain's limit, the certified answer and the bare partition agree."""
    _, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=5)
    sig = auto_signature(c, d)
    try:
        answer = behavioural_equivalence(c, d, sig)
    except InternalCheckError as exc:
        return _instance_doc(c, d, failure=str(exc))
    fixpoint = simulation_chain(c, d, sig, both=True)
    partition = stabilized_partition(c, d)[0].cross_relation()
    if not fixpoint.pairs == answer.pairs == partition.pairs:
        return _instance_doc(
            c,
            d,
            fixpoint=relation_to_dict(fixpoint),
            answer=relation_to_dict(answer),
            partition=relation_to_dict(partition),
        )
    return None


def _prop_prop_difunctional(trial, seed):
    rng, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=5)
    sig = auto_signature(c, d)
    s = random_relation(rng, c, d)
    up_to = is_bisimulation_up_to_difunctionality(s, c, d, sig).holds
    closed = is_bisimulation(difunctional_closure(s), c, d, sig).holds
    if up_to != closed:
        return _instance_doc(
            c, d, relation=relation_to_dict(s), up_to=up_to, closure=closed
        )
    return None


def _candidate_relations(rng, c, d, sig):
    """Relations likely to admit couplings, plus purely random ones."""
    out = [random_relation(rng, c, d, density=0.4)]
    if c.carrier == d.carrier and c.transition == d.transition:
        out.append(identity_relation(c.carrier))
    gb = greatest_bisimulation(c, d, sig)
    out.append(gb)
    if gb.pairs:
        keep = [p for p in gb.sorted_pairs() if rng.random() < 0.6]
        out.append(relation(c.carrier, d.carrier, keep))
    return out


def _prop_t_implies_lambda(trial, seed):
    rng, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=5)
    sig = auto_signature(c, d)
    for s in _candidate_relations(rng, c, d, sig):
        coupling = t_bisimulation_check(s, c, d)
        if coupling is not None and not is_bisimulation(s, c, d, sig).holds:
            return _instance_doc(
                c, d, relation=relation_to_dict(s), variant="plain"
            )
        up_to = t_bisim_up_to_difunctionality_check(s, c, d)
        if up_to is not None and not is_bisimulation_up_to_difunctionality(
            s, c, d, sig
        ).holds:
            return _instance_doc(
                c, d, relation=relation_to_dict(s), variant="up-to"
            )
    return None


def _all_relations(c, d):
    pool = [(x, y) for x in c.carrier for y in d.carrier]
    for pairs in subsets(pool):
        yield relation(c.carrier, d.carrier, pairs)


def _prop_t_bisim(trial, seed):
    kind = WPP_KIND_POOL[trial % 3]
    exhaustive = trial % 5 == 0
    rng, c, d = _models(
        seed + trial, kind, max_states=2 if exhaustive else 5, min_states=1
    )
    sig = auto_signature(c, d)
    if exhaustive:
        candidates = _all_relations(c, d)
    else:
        gb = greatest_bisimulation(c, d, sig)
        candidates = [gb]
        for _ in range(3):
            keep = [p for p in gb.sorted_pairs() if rng.random() < 0.6]
            candidates.append(relation(c.carrier, d.carrier, keep))
        candidates.append(random_relation(rng, c, d, density=0.3))
    for s in candidates:
        if s.is_difunctional() and is_bisimulation(s, c, d, sig).holds:
            if t_bisimulation_check(s, c, d) is None:
                return _instance_doc(
                    c, d, relation=relation_to_dict(s), variant="plain"
                )
        if is_bisimulation_up_to_difunctionality(s, c, d, sig).holds:
            if t_bisim_up_to_difunctionality_check(s, c, d) is None:
                return _instance_doc(
                    c, d, relation=relation_to_dict(s), variant="up-to"
                )
    return None


def _prop_functor_laws(trial, seed):
    rng, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=5)
    labels = [f"t{i}" for i in range(4)]
    relabeling = {x: labels[rng.randrange(len(labels))] for x in c.carrier}
    second = {t: f"u{rng.randrange(3)}" for t in labels}
    for x in c.carrier:
        t = c.transition[x]
        ident = {z: z for z in base(t)}
        if not values_equal(relabel(t, ident), t):
            return _instance_doc(c, d, state=x, law="identity")
        once = relabel(relabel(t, relabeling), second)
        composed = relabel(t, {z: second[relabeling[z]] for z in relabeling})
        if not values_equal(once, composed):
            return _instance_doc(c, d, state=x, law="composition")
        m = _random_modality(rng, c.kind)
        subset = frozenset(l for l in labels if rng.random() < 0.5)
        pushed = satisfies(relabel(t, relabeling), m, subset)
        pulled = satisfies(t, m, frozenset(z for z in relabeling if relabeling[z] in subset))
        if pushed != pulled:
            return _instance_doc(
                c, d, state=x, law="naturality", modality=m.token()
            )
    return None


def _find_simulations(rng, c, d, sig, want=2, attempts=8):
    found = []
    for _ in range(attempts):
        s = random_relation(rng, c, d, density=0.25)
        if is_simulation(s, c, d, sig).holds:
            found.append(s)
        if len(found) >= want:
            break
    return found


def _prop_stability(trial, seed):
    rng, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=4)
    sig = auto_signature(c, d)
    ident = identity_relation(c.carrier)
    if not is_simulation(ident, c, c, sig).holds:
        return _instance_doc(c, c, relation=relation_to_dict(ident), law="identity")
    sims = [greatest_simulation(c, d, sig)] + _find_simulations(rng, c, d, sig)
    union = sims[0]
    for s in sims[1:]:
        union = union.union(s)
    if not is_simulation(union, c, d, sig).holds:
        return _instance_doc(c, d, relation=relation_to_dict(union), law="union")
    rng2 = random.Random(seed + trial + 1)
    cfg = GeneratorConfig(seed=rng2.getrandbits(32), kind=c.kind, max_states=4)
    e = generate_coalgebra(cfg)
    sig_ce = auto_signature(c, d, e)
    first = greatest_simulation(c, d, sig_ce)
    second = greatest_simulation(d, e, sig_ce)
    composite = first.compose(second)
    if not is_simulation(composite, c, e, sig_ce).holds:
        return _instance_doc(
            c, e, relation=relation_to_dict(composite), law="composition"
        )
    return None


def _prop_monotony(trial, seed):
    rng, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=5)
    for x in c.carrier:
        t = c.transition[x]
        m = _random_modality(rng, c.kind)
        small = frozenset(z for z in c.carrier if rng.random() < 0.4)
        big = small | frozenset(z for z in c.carrier if rng.random() < 0.4)
        if satisfies(t, m, small) and not satisfies(t, m, big):
            return _instance_doc(c, d, state=x, modality=m.token())
    return None


def _prop_preorder(trial, seed):
    _, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=4)
    sig = auto_signature(c, d)
    values = [c.transition[x] for x in c.carrier] + [d.transition[y] for y in d.carrier]
    leq = [[lambda_leq(t, u, sig) for u in values] for t in values]  # each order test once
    if not all(row[i] for i, row in enumerate(leq)):
        return _instance_doc(c, d, law="reflexivity")
    for row in leq:
        for j, below in enumerate(row):
            if below and any(mid and not row[k] for k, mid in enumerate(leq[j])):
                return _instance_doc(c, d, law="transitivity")
    return None


def _prop_separation(trial, seed):
    rng, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=4)
    sig = auto_signature(c, d)
    states = list(c.carrier)
    x = states[rng.randrange(len(states))]
    y = states[rng.randrange(len(states))]
    t, u = c.transition[x], c.transition[y]
    witness = distinguishing_pair(t, u, sig)
    if values_equal(t, u) and witness is not None:
        return _instance_doc(c, c, pair=[x, y], unexpected=witness[0].token())
    if not values_equal(t, u) and witness is None:
        return _instance_doc(c, c, pair=[x, y], missing=True)
    return None


def _prop_hom_agreement(trial, seed):
    rng, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=4)
    sig = auto_signature(c, d)
    f = {x: d.carrier[rng.randrange(len(d.carrier))] for x in c.carrier}
    pointwise = is_lambda_homomorphism(f, c, d, sig)
    graph = relation(c.carrier, d.carrier, [(x, f[x]) for x in c.carrier])
    relational = is_simulation(graph, c, d, sig).holds
    if pointwise != relational:
        return _instance_doc(
            c, d, map={str(k): v for k, v in f.items()}, pointwise=pointwise,
            relational=relational,
        )
    return None


def _prop_base_guarantee(trial, seed):
    rng, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=5)
    for x in c.carrier:
        t = c.transition[x]
        m = _random_modality(rng, c.kind)
        a = frozenset(z for z in c.carrier if rng.random() < 0.5)
        if satisfies(t, m, a) != satisfies(t, m, a & base(t)):
            return _instance_doc(c, d, state=x, modality=m.token())
    return None


def _prop_injectivity(trial, seed):
    rng, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=4)
    targets = [f"j{i}" for i in range(len(c.carrier) + 3)]
    rng.shuffle(targets)
    injection = {x: targets[i] for i, x in enumerate(c.carrier)}
    states = list(c.carrier)
    x = states[rng.randrange(len(states))]
    y = states[rng.randrange(len(states))]
    t, u = c.transition[x], c.transition[y]
    if not values_equal(t, u) and values_equal(
        relabel(t, injection), relabel(u, injection)
    ):
        return _instance_doc(c, c, pair=[x, y])
    return None


def _prop_nstep_is_n_bisim(trial, seed):
    _, c, d = _models(seed + trial, KIND_POOL[trial % 4], max_states=5)
    sig = auto_signature(c, d)
    n = trial % 6
    s = n_step_partition(c, d, n).cross_relation()
    if not is_n_simulation(s, c, d, sig, n):
        return _instance_doc(c, d, depth=n, direction="forward")
    if not is_n_simulation(s.converse(), d, c, sig, n):
        return _instance_doc(c, d, depth=n, direction="backward")
    if not is_n_bisimulation(s, c, d, sig, n):
        return _instance_doc(c, d, depth=n, direction="synchronized")
    return None


def _prop_quotient_simulation(trial, seed):
    """On every kind, inflated models under their auto signature or a few
    random modalities, which need not separate them: the simulation chain
    on the behavioural quotients against the one-way chain on C × D, and the
    signature-keyed partition's cross relation against the both-way chain,
    at depths 0-3 and at the limit."""
    for kind in KIND_POOL:
        rng, c, d = _models(seed + trial, kind, max_states=4, allow_infinite=True)
        c, d = inflate_coalgebra(rng, c), inflate_coalgebra(rng, c if rng.random() < 0.5 else d)
        if rng.random() < 0.5:
            sig = auto_signature(c, d)
        else:
            picked = (_random_modality(rng, kind) for _ in range(rng.randint(1, 3)))
            sig = LambdaSignature(kind, tuple(dict.fromkeys(picked)))
        for n in (0, 1, 2, 3, None):
            for both, found in (
                (False, greatest_simulation(c, d, sig, n)),
                (True, greatest_bisimulation(c, d, sig, n)),
            ):
                expected = simulation_chain(c, d, sig, n, both)
                if found.pairs != expected.pairs:
                    return _instance_doc(
                        c, d, signature=[m.token() for m in sig.modalities], both=both, depth=n,
                        quotient=relation_to_dict(found), direct=relation_to_dict(expected),
                    )
    return None


def _tiny_model_pool(kind_name: str):
    """Deterministic exhaustive pool of very small models for the search."""
    if kind_name == KRIPKE:
        kind = kripke_kind(())
        states = ["s0", "s1"]
        budget = EnumerationBudget()
    elif kind_name == DISTRIBUTION:
        kind = DISTRIBUTION_KIND
        states = ["s0", "s1"]
        budget = EnumerationBudget(denominators=(1, 2))
    else:
        kind = MULTISET_KIND
        states = ["s0", "s1"]
        budget = EnumerationBudget(max_weight=1)
    values = list(enumerate_values(kind, states, budget))
    models = []
    for v0 in values:
        for v1 in values:
            models.append(Coalgebra(kind, tuple(states), {"s0": v0, "s1": v1}))
    return models


def _prop_open_problem_search(trial, seed):
    kind_name = (KRIPKE, DISTRIBUTION, MULTISET)[trial % 3]
    pool = _tiny_model_pool(kind_name)
    rng = random.Random(seed + trial)
    c = pool[rng.randrange(len(pool))]
    d = pool[rng.randrange(len(pool))]
    sig = auto_signature(c, d)
    for s in _all_relations(c, d):
        if s.is_difunctional():
            continue
        if is_bisimulation(s, c, d, sig).holds and t_bisimulation_check(s, c, d) is None:
            return _instance_doc(c, d, relation=relation_to_dict(s))
    return None


@dataclass(frozen=True)
class PropertySpec:
    name: str
    statement: str
    runner: Callable
    asserting: bool = True


_RUNNERS = {
    "oracle-agreement": _prop_oracle_agreement,
    "fast-path": _prop_fast_path,
    "preservation": _prop_preservation,
    "rank-preservation": _prop_rank_preservation,
    "n-bisim-n-step": _prop_n_bisim_n_step,
    "soundness-completeness": _prop_soundness_completeness,
    "prop-difunctional": _prop_prop_difunctional,
    "t-implies-lambda": _prop_t_implies_lambda,
    "t-bisim": _prop_t_bisim,
    "functor-laws": _prop_functor_laws,
    "stability": _prop_stability,
    "monotony": _prop_monotony,
    "preorder": _prop_preorder,
    "separation": _prop_separation,
    "hom-agreement": _prop_hom_agreement,
    "base-guarantee": _prop_base_guarantee,
    "injectivity": _prop_injectivity,
    "nstep-is-n-bisim": _prop_nstep_is_n_bisim,
    "open-problem-search": _prop_open_problem_search,
    "quotient-simulation": _prop_quotient_simulation,
}


def theorem_matrix() -> list:
    """The shipped property-to-claim manifest, in registry order."""
    with resources.files(__package__).joinpath("theorem_matrix.json").open(
        "r", encoding="utf-8"
    ) as handle:
        return json.load(handle)


def _registry() -> dict:
    """One spec per manifest entry: its claim, with the runner of the same name."""
    manifest = theorem_matrix()
    if {entry["property"] for entry in manifest} != set(_RUNNERS):
        raise InternalCheckError("theorem matrix is out of sync with the registry")
    specs = {}
    for entry in manifest:
        name = entry["property"]
        # The one search: it reports what it finds and never fails.
        asserting = name != "open-problem-search"
        specs[name] = PropertySpec(name, entry["claim"], _RUNNERS[name], asserting)
    return specs


PROPERTIES = _registry()


def run_property_suite(name: str, trials: int, seed: int) -> PropertyRunReport:
    """Run one named property for the given number of derived-seed trials."""
    if name not in PROPERTIES:
        known = ", ".join(sorted(PROPERTIES))
        raise ValidationError(f"unknown property {shown(name)}; known: {known}")
    if trials < 0:
        raise ValidationError(f"trial count must be a natural number, got {trials}")
    spec = PROPERTIES[name]
    counterexamples = []
    for trial in range(trials):
        finding = spec.runner(trial, seed)
        if finding is not None:
            finding["trial"] = trial
            counterexamples.append(finding)
            if spec.asserting and len(counterexamples) >= 5:
                break
    return PropertyRunReport(name, trials, counterexamples, asserting=spec.asserting)
