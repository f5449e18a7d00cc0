"""Design-based analysis of crossover (switchback) experiments.

Treatment sequences and complete randomization, linear causal estimands
over per-sequence means, assumption-derived coefficient restrictions,
identifiability checks, restricted weighted least squares with sandwich
variance estimates, the two-period closed forms as views of that fit, and a
randomization Monte Carlo harness.

The names below are imported from their modules on first access (PEP 562),
so ``import crossover`` loads no submodule and a CLI call loads only the
modules it runs.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "constraints": ("ClassMap", "CoefficientLayout", "RestrictionMatrix", "assemble", "row_reduce"),
    "errors": (
        "ConditioningError", "CrossoverError", "DegenerateCovarianceError", "EnumerationSizeError",
        "HorizonError", "MissingSequenceError", "NotIdentifiableError",
    ),
    "estimands": (
        "EstimandSpec", "PotentialOutcomeTable", "all_instantaneous_effects", "carryover_effect",
        "individual_effect_covariance", "individual_effects", "instantaneous_effect", "marginal_effect",
        "stack", "standard_two_period_specs", "true_value",
    ),
    "identification": (
        "IdentificationCheck", "is_identifiable", "mean_derivation_time_invariant",
        "mean_witness_carryover", "mean_witness_no_anticipation", "time_invariant_closure",
    ),
    "rwls": (
        "EstimandEstimate", "ObservedDataset", "RwlsFit", "WeightModel", "estimate", "feasible_rwls",
        "implied_estimator_weights", "oracle_variance", "point_estimate", "pooled_covariance_entries",
        "sample_covariances", "sequence_means", "solve_restricted_wls",
    ),
    "sequences": (
        "Assignment", "CrossoverDesign", "TreatmentSequence", "as_sequence", "code_template",
        "design_from_text", "design_to_text", "enumerate_assignments", "enumerate_codes",
        "full_sequence_set", "n_assignments", "sample_assignment", "sample_code_rows", "sample_codes",
        "sequence_set", "subsequence", "trailing_window",
    ),
    "simulator": (
        "AuditResult", "McReport", "ScenarioGenerator", "check_table_consistency",
        "emit_bias_distribution", "exact_randomization_audit", "generate_table",
        "random_consistent_table", "realize_dataset", "run_monte_carlo",
    ),
}
# each exported name -> the module that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_MODULE_OF]  # the modules too, as the eager imports bound them
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, an attribute once imported
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
