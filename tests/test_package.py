"""The package namespace: every exported name resolves on first access to
its defining module's object, and ``import crossover`` loads no submodule."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossover

# the names the package has exported since it re-exported every module's
# API eagerly, by defining module
EXPORTED = {
    "constraints": ["ClassMap", "CoefficientLayout", "RestrictionMatrix", "assemble", "row_reduce"],
    "errors": [
        "ConditioningError", "CrossoverError", "DegenerateCovarianceError", "EnumerationSizeError",
        "HorizonError", "MissingSequenceError", "NotIdentifiableError",
    ],
    "estimands": [
        "EstimandSpec", "PotentialOutcomeTable", "all_instantaneous_effects", "carryover_effect",
        "individual_effect_covariance", "individual_effects", "instantaneous_effect", "marginal_effect",
        "stack", "standard_two_period_specs", "true_value",
    ],
    "identification": [
        "IdentificationCheck", "is_identifiable", "mean_derivation_time_invariant",
        "mean_witness_carryover", "mean_witness_no_anticipation", "time_invariant_closure",
    ],
    "rwls": [
        "EstimandEstimate", "ObservedDataset", "RwlsFit", "WeightModel", "estimate", "feasible_rwls",
        "implied_estimator_weights", "oracle_variance", "point_estimate", "pooled_covariance_entries",
        "sample_covariances", "sequence_means", "solve_restricted_wls",
    ],
    "sequences": [
        "Assignment", "CrossoverDesign", "TreatmentSequence", "as_sequence", "code_template",
        "design_from_text", "design_to_text", "enumerate_assignments", "enumerate_codes",
        "full_sequence_set", "n_assignments", "sample_assignment", "sample_code_rows", "sample_codes",
        "sequence_set", "subsequence", "trailing_window",
    ],
    "simulator": [
        "AuditResult", "McReport", "ScenarioGenerator", "check_table_consistency",
        "emit_bias_distribution", "exact_randomization_audit", "generate_table",
        "random_consistent_table", "realize_dataset", "run_monte_carlo",
    ],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES)
def test_an_exported_name_is_its_modules_object(module, name):
    assert getattr(crossover, name) is getattr(importlib.import_module(f"crossover.{module}"), name)


def test_every_listed_name_resolves():
    assert {name for _, name in NAMES} <= set(crossover.__all__)
    for name in crossover.__all__:
        assert getattr(crossover, name) is not None


def test_star_import_binds_every_exported_name_and_module():
    namespace = {}
    exec("from crossover import *", namespace)
    for _, name in NAMES:
        assert namespace[name] is getattr(crossover, name)
    for module in EXPORTED:
        assert namespace[module] is importlib.import_module(f"crossover.{module}")


def test_dir_lists_every_exported_name():
    assert {name for _, name in NAMES} <= set(dir(crossover))


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match="^module 'crossover' has no attribute 'no_such_name'$"):
        crossover.no_such_name
    assert not hasattr(crossover, "no_such_name")


def test_the_two_period_specs_are_one_object():
    from crossover import estimands, simulator

    assert simulator.standard_two_period_specs is estimands.standard_two_period_specs
    assert crossover.standard_two_period_specs is estimands.standard_two_period_specs


def test_import_loads_no_submodule_and_a_submodule_loads_on_access():
    env = dict(os.environ)
    src = str(Path(crossover.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, crossover\n"
        "print(sorted(m for m in sys.modules if m.startswith('crossover.')))\n"
        "print(crossover.rwls is sys.modules['crossover.rwls'], crossover.feasible_rwls is crossover.rwls.feasible_rwls)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True True"]
