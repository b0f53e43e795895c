"""Permutation-group engine for derangement and elusivity analysis.

The library answers, with certificates, questions of the shape "does this
transitive permutation group contain a fixed-point-free element of prime
order r?" (r-elusivity), aggregates them over the odd primes dividing the
degree (2'-elusivity) or all primes (elusivity), classifies the normal
structure of an action (primitive / quasiprimitive / biquasiprimitive),
and builds the orbital graphs and standard double covers through which
those verdicts reach arc-transitive graphs of prime valency.
"""

__version__ = "0.1.0"

from .config import (Budgets, BudgetExceeded, CertificateError,
                     DEFAULT_BUDGETS, DEFAULT_SEED)
from .perm import (
    Permutation,
    PermGroup,
    StabilizerChain,
    BlockSystem,
    conjugate,
    commutator,
    parse_cycles,
    derangement_backtrack,
)

from .zoo import (
    GroupAction,
    SocleDecl,
    WreathSpec,
    WreathElement,
    CosetConstruction,
    MersenneScenario,
    GeneratorFileError,
    GENERATOR_FILE_DOC,
    natural_action,
    load_generators,
    format_generator_file,
    projective_line_action,
    mersenne_scenario,
    borel_subgroup,
    m11,
    subgroup_search,
    coset_action,
    wreath,
    assemble_stabilizer,
)
from .elusive import (
    ClassInfo,
    ElusivityVerdict,
    ElusivityReport,
    SemiregularResult,
    count_order_r_elements,
    prime_order_class_reps,
    action_prime_order_class_reps,
    wreath_prime_order_class_reps,
    wreath_fixed_point_check,
    is_r_elusive,
    is_2prime_elusive,
    is_elusive,
    structural_wreath_elusivity,
    semiregular_search,
)
from .structure import (
    NormalStructureReport,
    MinimalNormalReport,
    normal_structure,
    g_plus,
    verify_minimal_normal,
    PRIMITIVE,
    QUASIPRIMITIVE,
    BIQUASIPRIMITIVE,
    NEITHER,
)
from .orbital import (
    SuborbitTable,
    Graph,
    OrbitalGraph,
    DoubleCoverReport,
    suborbits,
    paired_suborbit,
    orbital_graph,
    is_connected,
    connectivity_by_generation,
    block_divisibility_check,
    standard_double_cover,
    verify_double_cover_scenario,
)
from .harness import (
    Expectation,
    Scenario,
    RunReport,
    ScenarioEnv,
    SCENARIOS,
    run_scenario,
    run_all,
    reports_to_json,
    format_table,
    all_passed,
)
