"""Design-based analysis of crossover (switchback) experiments.

Treatment sequences and complete randomization, linear causal estimands
over per-sequence means, assumption-derived coefficient restrictions,
identifiability checks, restricted weighted least squares with sandwich
variance estimates, closed-form two-period oracles, and a randomization
Monte Carlo harness.
"""

from .constraints import (
    ClassMap,
    CoefficientLayout,
    RestrictionMatrix,
    assemble,
    row_reduce,
)
from .errors import (
    ConditioningError,
    CrossoverError,
    DegenerateCovarianceError,
    EnumerationSizeError,
    HorizonError,
    MissingSequenceError,
    NotIdentifiableError,
)
from .estimands import (
    EstimandSpec,
    PotentialOutcomeTable,
    all_instantaneous_effects,
    carryover_effect,
    individual_effect_covariance,
    individual_effects,
    instantaneous_effect,
    marginal_effect,
    stack,
    true_value,
)
from .identification import (
    IdentificationCheck,
    is_identifiable,
    mean_derivation_time_invariant,
    mean_witness_carryover,
    mean_witness_no_anticipation,
    time_invariant_closure,
)
from .rwls import (
    EstimandEstimate,
    ObservedDataset,
    RwlsFit,
    WeightModel,
    estimate,
    feasible_rwls,
    implied_estimator_weights,
    oracle_variance,
    point_estimate,
    pooled_covariance_entries,
    sample_covariances,
    sequence_means,
    solve_restricted_wls,
)
from .sequences import (
    Assignment,
    CrossoverDesign,
    TreatmentSequence,
    as_sequence,
    code_template,
    design_from_text,
    design_to_text,
    enumerate_assignments,
    enumerate_codes,
    full_sequence_set,
    n_assignments,
    sample_assignment,
    sample_code_rows,
    sample_codes,
    sequence_set,
    subsequence,
    trailing_window,
)
from .simulator import (
    AuditResult,
    McReport,
    ScenarioGenerator,
    check_table_consistency,
    emit_bias_distribution,
    exact_randomization_audit,
    generate_table,
    random_consistent_table,
    realize_dataset,
    run_monte_carlo,
    standard_two_period_specs,
)

__version__ = "0.1.0"
