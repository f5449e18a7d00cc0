"""Assumption-consistent outcome generation and randomization Monte Carlo.

The study design is design-based: one potential-outcome table is fixed per
study, and only the treatment assignment is redrawn across replications.
Replication r draws its assignment from the seed stream ``[seed, r]``,
``np.random.default_rng([seed, r]).permutation``'s; a chunk's streams come
from one ``sequences.sample_code_rows`` call, which recomputes numpy's
``SeedSequence`` and PCG64 seeding for the whole chunk.
The replications are fitted in chunks as stacked arrays
(``rwls.StackedFit``), each result bitwise what a fit of that replication
alone gives; a chunk holds as many replications as fit MC_CHUNK_BYTES, so
memory is bounded by one chunk whatever the design and replication count.
Reports collect per-estimand bias samples, empirical and mean estimated
variances, and confidence-interval coverage.  An exact audit sums the
estimates over every assignment of a small design as it enumerates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .constraints import ClassMap, RestrictionMatrix, assemble
from .errors import ConditioningError, NotIdentifiableError
from .estimands import (
    EstimandSpec,
    PotentialOutcomeTable,
    instantaneous_effect,
    carryover_effect,
    stack,
    true_value,
)
from .identification import is_identifiable
from .rwls import (
    ObservedDataset,
    StackedFit,
    WeightModel,
    critical_value,
    implied_estimator_weights,
    oracle_variance,
    repair_positive_definite,
    solve_restricted_wls,
)
from .sequences import (
    Assignment,
    CrossoverDesign,
    TreatmentSequence,
    code_template,
    enumeration_walk,
    full_sequence_set,
    sample_code_rows,
    seed_words,
    sequence_set,
)

TWO_PERIOD_SEQUENCES = ("AA", "AB", "BA", "BB")
# bytes of the per-replication stacks a chunk of replications holds: the
# (N, T) outcomes, the (k, T, T) weights and the (h, h) class-width
# matrices; 78 replications of the four-sequence N = 400 study under b
MC_CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class ScenarioGenerator:
    """Configuration of the two-period outcome generators.

    ``gaussian_model`` draws correlated normal pairs per sequence around
    per-sequence location parameters, then overwrites entries so the table
    satisfies the scenario's assumptions exactly.  ``constant_effect``
    builds the table from two base normal draws plus fixed shifts, making
    every individual effect constant.
    """

    kind: str = "gaussian_model"
    scenario: str = "b"
    carryover_order: int = 1
    seed: int = 0
    beta1: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)
    beta2: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0)
    rho: float = 0.3
    tau1: float = 1.0
    tau2: float = 1.0
    carry_a: float = 0.0
    carry_b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian_model", "constant_effect"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.scenario not in ("a", "b", "c"):
            raise ValueError(f"scenario must be a, b, or c, got {self.scenario!r}")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"correlation must lie in (-1, 1), got {self.rho}")


def generate_table(
    generator: ScenarioGenerator, n_units: int, design: CrossoverDesign | None = None
) -> PotentialOutcomeTable:
    """Draw a two-period potential-outcome table consistent with the
    generator's scenario."""
    if n_units < 2:
        raise ValueError(f"need at least 2 units, got {n_units}")
    if design is not None and design.horizon != 2:
        raise ValueError("the built-in generators are two-period")
    rng = np.random.default_rng(generator.seed)
    if generator.kind == "gaussian_model":
        chol = np.array(
            [[1.0, 0.0], [generator.rho, np.sqrt(1.0 - generator.rho**2)]]
        )
        tables = {}
        for z, b1, b2 in zip(TWO_PERIOD_SEQUENCES, generator.beta1, generator.beta2):
            noise = rng.standard_normal((n_units, 2)) @ chol.T
            tables[z] = noise + np.array([b1, b2])
        y1 = {z: tables[z][:, 0].copy() for z in TWO_PERIOD_SEQUENCES}
        y2 = {z: tables[z][:, 1].copy() for z in TWO_PERIOD_SEQUENCES}
        # no anticipation: period-1 outcomes ignore the period-2 treatment
        y1["AB"] = y1["AA"].copy()
        y1["BB"] = y1["BA"].copy()
        if generator.scenario in ("b", "c"):
            # no carryover: period-2 outcomes ignore the period-1 treatment
            y2["BA"] = y2["AA"].copy()
            y2["BB"] = y2["AB"].copy()
        if generator.scenario == "c":
            # time invariance: the period-2 contrast matches the period-1 one
            shift = y1["AA"] - y1["BA"]
            y2["AA"] = shift + y2["AB"]
            y2["BA"] = shift + y2["BB"]
        outcomes = {z: np.column_stack([y1[z], y2[z]]) for z in TWO_PERIOD_SEQUENCES}
        return PotentialOutcomeTable(2, outcomes)
    base1 = rng.standard_normal(n_units)
    base2 = rng.standard_normal(n_units)
    y1 = {
        "AA": base1 + generator.tau1,
        "AB": base1 + generator.tau1,
        "BA": base1,
        "BB": base1,
    }
    y2 = {
        "BB": base2,
        "AB": base2 + generator.carry_b,
        "BA": base2 + generator.tau2,
    }
    y2["AA"] = y2["BA"] + generator.carry_a
    outcomes = {z: np.column_stack([y1[z], y2[z]]) for z in TWO_PERIOD_SEQUENCES}
    return PotentialOutcomeTable(2, outcomes)


def random_consistent_table(
    horizon: int,
    scenario: str,
    carryover_order: int,
    n_units: int,
    scope: Iterable[TreatmentSequence | str] | None = None,
    seed: int = 0,
    spread: float = 1.0,
) -> PotentialOutcomeTable:
    """A heterogeneous table of any horizon satisfying a scenario exactly.

    Each outcome sums shared draws, one per class-level generator, so the
    equalities the scenario asserts hold bitwise: scenario a shares values
    within prefix classes, scenario b within trailing-window classes, and
    scenario c uses a per-period level plus a time-constant window effect.
    """
    classes = ClassMap(horizon, scenario, carryover_order)
    rng = np.random.default_rng(seed)
    scope_t = sequence_set(scope, horizon) if scope else full_sequence_set(horizon)
    values: dict[tuple, np.ndarray] = {}

    def draw(key: tuple) -> np.ndarray:
        if key not in values:
            center = rng.normal(0.0, 2.0)
            values[key] = center + spread * rng.standard_normal(n_units)
        return values[key]

    outcomes = {}
    for z in scope_t:
        table = np.empty((n_units, horizon))
        for t in range(1, horizon + 1):
            table[:, t - 1] = sum(map(draw, classes.generators(t, classes.key(t, z))))
        outcomes[z] = table
    return PotentialOutcomeTable(horizon, outcomes)


def chunk_size(design: CrossoverDesign, classes: int) -> int:
    """Replications per stacked fit: as many as MC_CHUNK_BYTES holds of
    the design's (N, T), (k, T, T) and (h, h) float stacks, h being the
    number of classes it hits, and at least one."""
    horizon = design.horizon
    floats = design.n_units * horizon + len(design.counts) * horizon**2 + classes**2
    return max(1, MC_CHUNK_BYTES // (8 * floats))


def _outcome_cube(table: PotentialOutcomeTable, design: CrossoverDesign) -> np.ndarray:
    """(k, N, T) potential outcomes of the design's implemented sequences,
    in code order."""
    if table.n_units != design.n_units:
        raise ValueError(f"table has {table.n_units} units, design has {design.n_units}")
    return np.stack([table.outcomes[z] for z in design.observed])


def realize_dataset(table: PotentialOutcomeTable, assignment: Assignment) -> ObservedDataset:
    """Observed outcomes implied by a table and one assignment."""
    design = assignment.design
    index = {z: i for i, z in enumerate(design.observed)}
    codes = np.array([index[z] for z in assignment.sequences])
    return ObservedDataset(design, codes, _outcome_cube(table, design)[codes, np.arange(len(codes))])


def standard_two_period_specs(scope) -> list[EstimandSpec]:
    """The five canonical two-period contrasts."""
    return [
        instantaneous_effect(1, "", scope),
        instantaneous_effect(2, "A", scope),
        instantaneous_effect(2, "B", scope),
        carryover_effect(2, 1, "", "A", scope),
        carryover_effect(2, 1, "", "B", scope),
    ]


def check_table_consistency(
    table: PotentialOutcomeTable, restriction: RestrictionMatrix, tolerance: float = 1e-8
) -> float:
    """Largest violation of the restriction rows by the table's stacked
    means.  Raises when the table is inconsistent with the restriction."""
    layout = restriction.layout
    stacked = np.zeros(layout.size)
    for z in layout.scope:
        stacked[layout.block(z)] = table.mean_vector(z)
    residual = restriction.residual(stacked)
    if residual > tolerance * (1.0 + float(np.abs(stacked).max())):
        raise ValueError(
            f"table violates the scenario restrictions (residual {residual:.3e})"
        )
    return residual


@dataclass(frozen=True)
class McReport:
    """Monte Carlo results over complete randomizations of one table."""

    scenario: str
    carryover_order: int | None
    labels: tuple[str, ...]
    truth: np.ndarray
    bias: np.ndarray
    covered: np.ndarray
    estimated_variances: np.ndarray
    level: float
    seed: int
    generator_seed: int | None
    weight_choice: str

    @property
    def replications(self) -> int:
        return self.bias.shape[0]

    @property
    def coverage(self) -> np.ndarray:
        return self.covered.mean(axis=0)

    @property
    def empirical_variance(self) -> np.ndarray:
        return self.bias.var(axis=0, ddof=1)

    @property
    def mean_estimated_variance(self) -> np.ndarray:
        return self.estimated_variances.mean(axis=0)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "carryover_order": self.carryover_order,
            "replications": self.replications,
            "level": self.level,
            "seed": self.seed,
            "generator_seed": self.generator_seed,
            "weight_choice": self.weight_choice,
            "estimands": [
                {
                    "label": label,
                    "truth": float(self.truth[i]),
                    "mean_bias": float(self.bias[:, i].mean()),
                    "empirical_variance": float(self.empirical_variance[i]),
                    "mean_estimated_variance": float(self.mean_estimated_variance[i]),
                    "coverage": float(self.coverage[i]),
                }
                for i, label in enumerate(self.labels)
            ],
        }


def run_monte_carlo(
    generator: ScenarioGenerator | PotentialOutcomeTable,
    design: CrossoverDesign,
    specs: Sequence[EstimandSpec],
    replications: int = 10_000,
    weight_choice: str | WeightModel = "sample",
    level: float = 0.95,
    seed: int = 0,
    scenario: str | None = None,
    carryover_order: int | None = None,
) -> McReport:
    """Fix one table, then redraw the assignment ``replications`` times.

    Each replication r draws a complete randomization as a code vector
    from the seed stream ``[seed, r]`` (the stream ``sample_assignment``
    uses; ``sample_code_rows`` draws a chunk's at once), gathers the
    observed outcomes from the table, runs the feasible restricted fit,
    and records the bias, the estimated variances, and whether each
    confidence interval covers the truth.
    The fits run ``chunk_size`` replications at a time on stacked arrays
    (``rwls.StackedFit``); every result is bitwise what the replication's
    own ``feasible_rwls`` and ``estimate`` give.  ``scenario`` and
    ``carryover_order`` default to the generator's; scenario a has no
    carryover order, and its report gives None.
    Refuses fewer than 2 replications (the empirical variance needs two),
    a seed that is not a non-negative integer (before the table is drawn),
    scenario/design pairs that fail the rank condition, and tables
    inconsistent with the scenario; the errors a fit raises whatever the
    data (weight choice, confidence level, too few units) come before the
    first draw.
    """
    if replications < 2:
        raise ValueError(f"need at least 2 replications, got {replications}")
    seed_words(seed)
    if isinstance(generator, PotentialOutcomeTable):
        table = generator
        generator_seed = None
        if scenario is None:
            raise ValueError("scenario is required when passing a table directly")
    else:
        table = generate_table(generator, design.n_units, design)
        generator_seed = generator.seed
        if scenario is None:
            scenario = generator.scenario
        if carryover_order is None:
            carryover_order = generator.carryover_order
    restriction = assemble(scenario, design.horizon, design.scope, carryover_order)
    check = is_identifiable(design, restriction)
    if not check.identifiable:
        raise NotIdentifiableError(
            check.rank,
            check.dimension,
            f"scenario {scenario!r} on this design fails the rank condition "
            f"(rank {check.rank} of {check.dimension}); not all effects are identifiable",
        )
    check_table_consistency(table, restriction)
    stacked = stack(list(specs))
    truth = true_value(stacked, table)
    fit = StackedFit(design, restriction, stacked, weight_choice, scenario, carryover_order)
    z_crit = critical_value(level)
    bias = np.empty((replications, stacked.dimension))
    covered = np.empty((replications, stacked.dimension), dtype=bool)
    est_vars = np.empty((replications, stacked.dimension))
    template = code_template(design)
    # one-byte codes sort by radix and permute as the template does
    small = template.astype(np.min_scalar_type(template[-1]))
    # column i of period t is unit i % N's outcome under sequence i // N
    periods = _outcome_cube(table, design).transpose(2, 0, 1).reshape(design.horizon, -1)
    firsts = template * design.n_units
    size = chunk_size(design, fit.classes)
    for start in range(0, replications, size):
        chunk = slice(start, min(start + size, replications))
        codes = sample_code_rows(small, seed, chunk.start, chunk.stop)
        # a stable sort lists each sequence's units in increasing order,
        # and the sorted codes are the template itself
        units = np.argsort(codes, axis=1, kind="stable")
        # a (T, C, N) gather read as (C, N, T): the unit axis stays contiguous
        point, est_vars[chunk] = fit(np.take(periods, firsts + units, axis=1).transpose(1, 2, 0))
        half_width = z_crit * np.sqrt(np.clip(est_vars[chunk], 0.0, None))
        bias[chunk] = point - truth
        covered[chunk] = (point - half_width <= truth) & (truth <= point + half_width)
    return McReport(
        scenario=scenario,
        carryover_order=restriction.carryover_order,
        labels=stacked.labels,
        truth=truth,
        bias=bias,
        covered=covered,
        estimated_variances=est_vars,
        level=level,
        seed=seed,
        generator_seed=generator_seed,
        weight_choice=weight_choice if isinstance(weight_choice, str) else "user",
    )


def emit_bias_distribution(report: McReport) -> str:
    """CSV rows (scenario, estimand, replication, bias) for plotting."""
    lines = ["scenario,estimand,replication,bias"]
    for i, label in enumerate(report.labels):
        for r in range(report.replications):
            lines.append(f"{report.scenario},{label},{r},{float(report.bias[r, i])!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AuditResult:
    """Exact randomization distribution of the fixed-weight estimator;
    ``carryover_order`` is the restriction's, None under scenario a."""

    labels: tuple[str, ...]
    exact_mean: np.ndarray
    exact_covariance: np.ndarray
    formula_mean: np.ndarray
    formula_covariance: np.ndarray
    n_assignments: int
    carryover_order: int | None


def exact_randomization_audit(
    table: PotentialOutcomeTable,
    design: CrossoverDesign,
    specs: Sequence[EstimandSpec],
    weights: WeightModel | str = "oracle",
    scenario: str = "b",
    carryover_order: int | None = None,
) -> AuditResult:
    """Enumerate every assignment and average the fixed-weight estimator.

    ``weights`` defaults to the table's true per-sequence covariances
    ("oracle"); exact unbiasedness and the closed-form variance identity
    hold only for fixed weights.  Oracle covariances that the weight repair
    would lift raise ConditioningError naming their sequences.
    """
    restriction = assemble(scenario, design.horizon, design.scope, carryover_order)
    if isinstance(weights, str):
        if weights != "oracle":
            raise ValueError(f"weights must be a WeightModel or 'oracle', got {weights!r}")
        covariances = np.stack([table.covariance(z) for z in design.observed])
        singular = [str(z) for z in compress(design.observed, repair_positive_definite(covariances)[1])]
        if singular:
            raise ConditioningError(f"oracle covariance of {singular} falls below the repair floor")
        weights = WeightModel(dict(zip(design.observed, covariances)), "user")
    stacked = stack(list(specs))
    zero_means = {z: np.zeros(design.horizon) for z in design.observed}
    base = solve_restricted_wls(design, zero_means, weights, restriction)
    implied = implied_estimator_weights(base, stacked)
    # contrib[i, z] = implied[z] @ Y_i(z) / N_z: unit i's share of the
    # estimate when it is assigned to z
    cube = _outcome_cube(table, design)
    contrib = np.stack(
        [y @ implied[z].T / n for y, (z, n) in zip(cube, design.counts.items())], axis=1
    )
    # each prefix's partial sum, in unit order; one-code levels add in place
    points = np.zeros((1, stacked.dimension))
    for shares, (prefix, code) in zip(contrib, enumeration_walk(design)):
        if prefix.size > points.shape[0]:
            points = np.take(points, prefix, axis=0)
        for j, column in enumerate(shares.T):
            points[:, j] += column[code]
    exact_mean = points.mean(axis=0)
    points -= exact_mean
    exact_cov = points.T @ points / points.shape[0]
    return AuditResult(
        labels=stacked.labels,
        exact_mean=exact_mean,
        exact_covariance=exact_cov,
        formula_mean=true_value(stacked, table),
        formula_covariance=oracle_variance(base, stacked, table),
        n_assignments=points.shape[0],
        carryover_order=restriction.carryover_order,
    )
