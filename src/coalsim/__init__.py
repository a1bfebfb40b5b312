"""Simulation, bisimulation, and behavioural-equivalence checking for finite
state-based models over four functor kinds: Kripke frames with propositions,
multisets (graded transitions), exact rational probability distributions, and
monotone neighborhood systems.

This package exports the engine.  The verification layer is imported by
module: `coalsim.generators`, `coalsim.oracles`, `coalsim.properties`."""

from .behaviour import (
    Coupling,
    QuotientWitness,
    behavioural_equivalence,
    n_step_partition,
    quotient_witness,
    stabilized_partition,
    t_bisim_up_to_difunctionality_check,
    t_bisimulation_check,
    verify_coupling,
)
from .errors import (
    BudgetError,
    CoalsimError,
    InfiniteWeightError,
    InternalCheckError,
    KindMismatchError,
    NotSeparatingError,
    ParseError,
    QuotientUndefined,
    UnknownModalityError,
    ValidationError,
)
from .formulas import (
    And,
    Bot,
    Formula,
    Modal,
    Neg,
    Or,
    Top,
    evaluate,
    extension,
    format_formula,
    is_positive,
    parse_formula,
    rank,
)
from .liftings import (
    BOX,
    DIAMOND,
    NBHD_BOX,
    LambdaSignature,
    Modality,
    at_least,
    atom,
    auto_signature,
    diamond_gt,
    ensure_separating,
    more_than,
    resolve_signature,
    satisfies,
)
from .relations import (
    Partition,
    Relation,
    difunctional_closure,
    full_relation,
    identity_relation,
    relation,
)
from .simulation import (
    SimulationReport,
    Violation,
    greatest_bisimulation,
    greatest_simulation,
    is_bisimulation,
    is_bisimulation_up_to_difunctionality,
    is_n_bisimulation,
    is_n_simulation,
    is_simulation,
)
from .values import (
    DISTRIBUTION_KIND,
    INF,
    MULTISET_KIND,
    NEIGHBORHOOD_KIND,
    Coalgebra,
    DistValue,
    FunctorKind,
    KripkeValue,
    MultisetValue,
    NbhdValue,
    antichain,
    base,
    coalgebra,
    dist_value,
    kripke_kind,
    kripke_value,
    multiset_value,
    nbhd_value,
    relabel,
    validate,
    values_equal,
)

__version__ = "0.1.0"
