"""Command-line front end.

Subcommands
-----------
identify   rank verdict and per-mean identification table for a design
fit        restricted weighted least squares fit of a dataset
simulate   Monte Carlo study over complete randomizations of one table
audit      exact enumeration of the randomization distribution

Design files are plain text: a ``T <horizon>`` line then ``<sequence>
<count>`` lines.  Datasets are CSV with header ``unit,sequence,y1,...,yT``.
Potential-outcome tables for ``audit`` use the same CSV layout with one
row per (unit, sequence) pair covering the whole scope.

Estimand requests (the ``--estimand`` flag, repeatable):

    tau t=<period> [history=<word>]
    carry t=<period> k=<order> [prefix=<word>] [suffix=<word>]
    marginal of [<request> | <request> ...] [weights=<w1,w2,...>]

Words are over {A, B}; omitted history/prefix/suffix default to empty.
Exit codes: 0 success, 2 parse/config failure, 3 identifiability failure,
4 conditioning failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from . import twoperiod
from .constraints import ClassMap, assemble
from .errors import ConditioningError, NotIdentifiableError
from .estimands import (
    EstimandSpec,
    PotentialOutcomeTable,
    carryover_effect,
    instantaneous_effect,
    marginal_effect,
    stack,
)
from .identification import (
    MeanTarget,
    is_identifiable,
    mean_witness_carryover,
    mean_witness_no_anticipation,
    time_invariant_closure,
)
from .rwls import (
    ObservedDataset,
    WeightModel,
    critical_value,
    estimate,
    feasible_rwls,
)
from .sequences import (
    CrossoverDesign,
    _check_lengths,
    as_sequence,
    design_from_text,
)
from .simulator import (
    ScenarioGenerator,
    emit_bias_distribution,
    exact_randomization_audit,
    run_monte_carlo,
    standard_two_period_specs,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_IDENTIFIABLE = 3
EXIT_CONDITIONING = 4
# nonblank CSV rows read and checked at a time; memory holds one block of
# row strings on top of the outcome floats
_BLOCK_ROWS = 2048


def _records(reader):
    """(row number, row) for the header, row 1, and each nonblank row after
    it; a row the csv reader cannot read, such as one with a field over the
    csv module's field size limit, ends them as (row number, its csv.Error)."""
    number = 0
    try:
        for number, row in enumerate(reader, start=1):
            if number == 1 or any(map(str.strip, row)):
                yield number, row
    except csv.Error as exc:
        yield number + 1, exc


def _read_header(records, design: CrossoverDesign | None) -> list[str]:
    """The checked header row unit,sequence,y1,...,yT of a dataset or table CSV."""
    header = next(records, (1, None))[1]
    if header is None:
        raise ValueError("row 1: empty file")
    if isinstance(header, csv.Error):
        raise ValueError(f"row 1: {header}")
    header = [h.strip() for h in header]
    if len(header) < 3 or header[0] != "unit" or header[1] != "sequence":
        raise ValueError(f"row 1: header must be unit,sequence,y1,...,yT, got {header}")
    expected = [f"y{t}" for t in range(1, len(header) - 1)]
    if header[2:] != expected:
        raise ValueError(f"row 1: outcome columns must be {expected}, got {header[2:]}")
    if design is not None and design.horizon != len(expected):
        raise ValueError(f"row 1: data has {len(expected)} periods but the design has {design.horizon}")
    return header


def _text_lines(text: str):
    """The lines of a text, each with its ending, split after each line feed
    only, as ``io.StringIO`` iterates it."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _read_columns(source, design: CrossoverDesign | None, table: bool = False):
    """Checked columns of a dataset or table CSV: the unit labels (of a
    table only), the distinct sequences, each row's index into them, and the
    outcomes.  ``source`` is the text or an iterable of its lines, such as an
    open file.

    The nonblank rows are read and checked in blocks of _BLOCK_ROWS, each
    distinct label once, when first seen; every check records the first row
    it rejects, and the earliest is named, as a row-by-row reader would name
    it (header is row 1).  Every check looks back only, so the first block
    with an error holds the row that reader names.  A row the csv module
    cannot read ends the reading and is named with the module's message.  A
    table's rows must name sequences of the design scope, each (unit,
    sequence) pair once.
    """
    records = _records(csv.reader(_text_lines(source) if isinstance(source, str) else source))
    header = _read_header(records, design)
    horizon = len(header) - 2
    codes: dict[str, int] = {}
    sequences = []
    first: dict[tuple[str, str], int] = {}
    units = [] if table else None
    code_blocks, outcome_blocks = [], []
    while block := list(islice(records, _BLOCK_ROWS)):
        numbers, rows = zip(*block)
        errors = []
        if isinstance(rows[-1], csv.Error):
            # a row the reader cannot read is the last it yields
            errors.append((len(rows) - 1, str(rows[-1])))
            rows = rows[:-1]
        ragged = next((i for i, row in enumerate(rows) if len(row) != len(header)), None)
        if ragged is not None:
            errors.append((ragged, f"expected {len(header)} fields, got {len(rows[ragged])}"))
            rows = rows[:ragged]
        labels = [row[1].strip() for row in rows]
        for label in dict.fromkeys(labels):
            if label in codes:
                continue
            try:
                z = as_sequence(label)
                _check_lengths((z,), horizon)
                if table and z not in design.scope:
                    raise ValueError(f"sequence {z} outside the design scope")
            except ValueError as exc:
                errors.append((labels.index(label), str(exc)))
                break
            codes[label] = len(sequences)
            sequences.append(z)
        if table:
            block_units = [row[0].strip() for row in rows]
            repeated = next(
                (i for i, pair in enumerate(zip(block_units, labels)) if first.setdefault(pair, numbers[i]) != numbers[i]),
                None,
            )
            if repeated is not None:
                unit, label = block_units[repeated], labels[repeated]
                errors.append((repeated, f"unit {unit} and sequence {label} repeat row {first[unit, label]}"))
        try:
            outcomes = np.array([row[2:] for row in rows], dtype=float)
        except ValueError:
            for i, row in enumerate(rows):
                try:
                    np.array(row[2:], dtype=float)
                except ValueError:
                    errors.append((i, f"non-numeric outcome in {row[2:]}"))
                    break
        if errors:
            # a tie goes to the check made first on a row, which was recorded first
            i, message = min(errors, key=lambda error: error[0])
            raise ValueError(f"row {numbers[i]}: {message}")
        if table:
            units.extend(block_units)
        code_blocks.append(np.fromiter(map(codes.__getitem__, labels), dtype=np.intp, count=len(labels)))
        outcome_blocks.append(outcomes)
    if not code_blocks:
        raise ValueError("row 2: no data rows")
    return units, sequences, np.concatenate(code_blocks), np.concatenate(outcome_blocks)


def parse_dataset(text: str | Iterable[str], design: CrossoverDesign | None = None):
    """Parse a dataset CSV, given as its text or an iterable of its lines
    (such as an open file); returns (dataset, design).

    When no design is given, the counts are tallied from the data and the
    horizon from the header.  Malformed rows raise ValueError naming the
    1-based row number (header is row 1).
    """
    _, sequences, label_codes, outcomes = _read_columns(text, design)
    tally = dict(zip(sequences, np.bincount(label_codes).tolist()))
    if design is None:
        design = CrossoverDesign(outcomes.shape[1], tally)
    elif tally != design.counts:
        raise ValueError(
            f"per-sequence counts in the data {tally} do not match the design "
            f"{design.counts}"
        )
    to_design = {z: i for i, z in enumerate(design.observed)}
    codes = np.array([to_design[z] for z in sequences], dtype=np.intp)[label_codes]
    return ObservedDataset(design, codes, outcomes), design


def parse_table(text: str | Iterable[str], design: CrossoverDesign) -> PotentialOutcomeTable:
    """Parse a potential-outcome table CSV, given as its text or an iterable
    of its lines, covering the design scope: one row per (unit, sequence)
    pair, units ordered by (length, label)."""
    units, sequences, label_codes, outcomes = _read_columns(text, design, table=True)
    index = {u: i for i, u in enumerate(sorted(set(units), key=lambda u: (len(u), u)))}
    unit_codes = np.array([index[u] for u in units], dtype=np.intp)
    scope_codes = np.array([design.scope.index(z) for z in sequences], dtype=np.intp)[label_codes]
    present = np.zeros((len(design.scope), len(index)), dtype=bool)
    present[scope_codes, unit_codes] = True
    # every sequence must cover the units of the first
    uneven = np.flatnonzero((present != present[0]).any(axis=1))
    if uneven.size:
        raise ValueError(f"sequence {design.scope[uneven[0]]} does not cover the same units as the others")
    cube = np.empty((len(design.scope), len(index), design.horizon))
    cube[scope_codes, unit_codes] = outcomes
    return PotentialOutcomeTable(design.horizon, dict(zip(design.scope, cube)))


_MARGINAL = re.compile(r"^marginal\s+of\s*\[(?P<body>.+)\]\s*(?:weights=(?P<weights>[\d.,eE+\-]+))?$")


def _parse_simple_request(text: str, scope) -> EstimandSpec:
    fields = text.split()
    if not fields:
        raise ValueError("empty estimand request")
    kind, options = fields[0], fields[1:]
    parsed: dict[str, str] = {}
    for option in options:
        if "=" not in option:
            raise ValueError(f"malformed option {option!r} in {text!r}")
        key, value = option.split("=", 1)
        parsed[key] = value
    for key in {"tau": ("t",), "carry": ("t", "k")}.get(kind, ()):
        if key not in parsed:
            raise ValueError(f"missing option {key}= in {text!r}")
    if kind == "tau":
        period = int(parsed.pop("t"))
        history = parsed.pop("history", "")
        if parsed:
            raise ValueError(f"unknown options {sorted(parsed)} in {text!r}")
        return instantaneous_effect(period, history, scope)
    if kind == "carry":
        period = int(parsed.pop("t"))
        order = int(parsed.pop("k"))
        prefix = parsed.pop("prefix", "")
        suffix = parsed.pop("suffix", "")
        if parsed:
            raise ValueError(f"unknown options {sorted(parsed)} in {text!r}")
        return carryover_effect(period, order, prefix, suffix, scope)
    raise ValueError(f"unknown estimand kind {kind!r} in {text!r}")


def parse_estimand_request(text: str, scope) -> EstimandSpec:
    """Parse one ``--estimand`` request into a spec."""
    text = text.strip()
    match = _MARGINAL.match(text)
    if match:
        parts = [part.strip() for part in match.group("body").split("|")]
        specs = [_parse_simple_request(part, scope) for part in parts]
        weights = None
        if match.group("weights"):
            weights = [float(w) for w in match.group("weights").split(",")]
        return marginal_effect(specs, weights)
    return _parse_simple_request(text, scope)


def _requested_specs(requests: list[str], design: CrossoverDesign) -> list[EstimandSpec]:
    """The specs of the estimand requests, by default the standard
    two-period contrasts, which need a two-period design."""
    if requests:
        return [parse_estimand_request(req, design.scope) for req in requests]
    if design.horizon != 2:
        raise ValueError("specify at least one estimand request for designs with more than two periods")
    return standard_two_period_specs(design.scope)


def _json_out(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _json_object(payload, source: str) -> dict:
    """The payload, checked to be a JSON object; ``source`` names it in the error."""
    if not isinstance(payload, dict):
        raise ValueError(f"{source} must be a JSON object, got {json.dumps(payload)[:40]}")
    return payload


def _load_weight_model(spec: str, design: CrossoverDesign) -> str | WeightModel:
    if spec in ("sample", "pooled"):
        return spec
    if spec.startswith("file:"):
        payload = _json_object(json.loads(Path(spec[5:]).read_text()), spec[5:])
        model = WeightModel(payload, "user")
        for z, m in model.matrices.items():
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                raise ValueError(f"weight for {z} is not positive definite") from None
        return model
    raise ValueError(f"--weights must be sample, pooled, or file:PATH, got {spec!r}")


def _cmd_identify(args) -> int:
    design = design_from_text(Path(args.design).read_text())
    restriction = assemble(args.scenario, design.horizon, design.scope, args.k)
    if args.dump_restriction:
        header = ",".join(f"g_{t}_{z}" for t, z in restriction.layout.labels())
        rows = [header]
        rows.extend(
            ",".join(repr(float(v)) for v in row) for row in restriction.matrix
        )
        Path(args.dump_restriction).write_text("\n".join(rows) + "\n")
    check = is_identifiable(design, restriction)
    lines = [f"global rank condition: {check}"]
    lines.append("sequence period verdict how")
    classes = ClassMap(design.horizon, args.scenario, args.k)
    if args.scenario == "c":
        closure = time_invariant_closure(design.horizon, args.k, design)
    for z in design.scope:
        for t in range(1, design.horizon + 1):
            if args.scenario == "a":
                found = mean_witness_no_anticipation(z, t, design)
            elif args.scenario == "b":
                found = mean_witness_carryover(z, t, args.k, design)
            else:
                found = closure.get(MeanTarget(t, classes.key(t, z)))
            how = "-" if not found else found.describe() if args.scenario == "c" else f"group {found}"
            lines.append(f"{z} {t} {'yes' if found else 'no'} {how}")
    report = "\n".join(lines)
    print(report)
    if args.out:
        Path(args.out).write_text(report + "\n")
    return EXIT_OK if check.identifiable else EXIT_NOT_IDENTIFIABLE


def _estimand_rows(labels, point, se, lower, upper) -> list[dict]:
    """The report rows of the estimands: label, point, se and interval."""
    return [
        {"label": label, "point": float(p), "se": float(s), "ci_lower": float(lo), "ci_upper": float(hi)}
        for label, p, s, lo, hi in zip(labels, point, se, lower, upper)
    ]


def _closed_form_report(dataset: ObservedDataset, scenario: str, z_crit: float) -> list[dict]:
    forms = twoperiod.closed_form(twoperiod.TwoPeriodSummary.from_dataset(dataset), scenario)
    point = np.array([p for p, _ in forms.values()])
    se = np.sqrt([v for _, v in forms.values()])
    return _estimand_rows(forms, point, se, point - z_crit * se, point + z_crit * se)


def _cmd_fit(args) -> int:
    z_crit = critical_value(args.level)
    design = None
    if args.design:
        design = design_from_text(Path(args.design).read_text())
    with open(args.data) as lines:
        dataset, design = parse_dataset(lines, design)
    restriction = assemble(args.scenario, design.horizon, design.scope, args.k)
    check = is_identifiable(design, restriction)
    if not check.identifiable:
        print(f"not identifiable: {check}", file=sys.stderr)
        return EXIT_NOT_IDENTIFIABLE
    payload = {
        "scenario": args.scenario,
        "carryover_order": restriction.carryover_order,
        "level": args.level,
        "design": {"horizon": design.horizon, "counts": dict(design.counts)},
    }
    if args.engine == "closed-form":
        if design.horizon != 2 or (args.scenario != "a" and args.k != 1):
            print("closed-form engine needs a two-period design and, under b and c, --k 1", file=sys.stderr)
            return EXIT_PARSE
        payload["engine"] = "closed-form"
        payload["estimands"] = _closed_form_report(dataset, args.scenario, z_crit)
        payload["note"] = "conservative variances; --estimand requests are ignored by this engine"
        _json_out(payload, args.out)
        return EXIT_OK
    specs = _requested_specs(args.estimand, design)
    weights = _load_weight_model(args.weights, design)
    fit = feasible_rwls(dataset, args.scenario, args.k, weights, restriction)
    stacked = stack(specs)
    result = estimate(fit, stacked, args.level)
    layout = fit.layout
    payload.update({
        "engine": "rwls",
        "rank": {"identifiable": check.identifiable, "rank": check.rank, "dimension": check.dimension},
        "coefficients": [
            {"period": t, "sequence": z, "estimate": float(fit.gamma[layout.column(t, z)])}
            for t, z in layout.labels()
        ],
        "estimands": _estimand_rows(
            result.labels, result.point, result.std_errors, result.ci_lower, result.ci_upper
        ),
        "wald": {
            "statistic": result.wald_statistic,
            "df": result.wald_df,
            "pvalue": result.wald_pvalue,
        },
        "weights": {
            "provenance": fit.weight_model.provenance,
            "repaired": list(fit.weight_model.repaired),
        },
        "condition_number": fit.condition_number,
        "restriction_residual": fit.restriction_residual,
        "warnings": list(fit.warnings),
    })
    _json_out(payload, args.out)
    return EXIT_OK


def _is_integer(value) -> bool:
    """An int, or a float with an integral value (some JSON writers emit 10.0)."""
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# kinds of config field: a check, the words naming it in an error, and the
# conversion of a value that passes the check
INTEGER = (_is_integer, "an integer", int)
NUMBER = (_is_number, "a number", float)
TEXT = (lambda value: isinstance(value, str), "a string", str)
FOUR_NUMBERS = (
    lambda value: isinstance(value, list) and len(value) == 4 and all(map(_is_number, value)),
    "a list of 4 numbers",
    lambda value: tuple(map(float, value)),
)
_REQUIRED = object()


def _config_field(block: dict, name: str, kind, source: str, default=_REQUIRED):
    """block[name], checked to be of the kind and converted; ``default``
    when it is absent or null.  ``source`` names the block in the error for
    a missing required field or a value of another kind."""
    value = block.get(name)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"{source} needs the field {name!r}")
        return default
    check, words, convert = kind
    if not check(value):
        raise ValueError(f"{source}: field {name!r} must be {words}, got {json.dumps(value)[:40]}")
    return convert(value)


def _cmd_simulate(args) -> int:
    source = args.config
    config = _json_object(json.loads(Path(source).read_text()), source)
    design_cfg = _json_object(config.get("design"), f"{source}: design")
    counts = _json_object(design_cfg.get("counts"), f"{source}: design counts")
    design = CrossoverDesign(
        _config_field(design_cfg, "T", INTEGER, f"{source}: design"),
        {as_sequence(z): _config_field(counts, z, INTEGER, f"{source}: design counts") for z in counts},
    )
    generator_source = f"{source}: generator"
    gen_cfg = _json_object(config.get("generator", {}), generator_source)

    def generator_field(name, kind, default):
        return _config_field(gen_cfg, name, kind, generator_source, default)

    # a null k (natural under scenario a, which has no carryover order) counts as absent
    order = _config_field(config, "k", INTEGER, source, None)
    generator = ScenarioGenerator(
        kind=generator_field("kind", TEXT, "gaussian_model"),
        scenario=_config_field(config, "scenario", TEXT, source, None) or generator_field("scenario", TEXT, "b"),
        carryover_order=order if order is not None else generator_field("carryover_order", INTEGER, 1),
        seed=generator_field("seed", INTEGER, _config_field(config, "seed", INTEGER, source, 0)),
        beta1=generator_field("beta1", FOUR_NUMBERS, (0.0, 0.0, 1.0, 1.0)),
        beta2=generator_field("beta2", FOUR_NUMBERS, (0.0, 1.0, 0.0, 1.0)),
        rho=generator_field("rho", NUMBER, 0.3),
        tau1=generator_field("tau1", NUMBER, 1.0),
        tau2=generator_field("tau2", NUMBER, 1.0),
        carry_a=generator_field("carry_a", NUMBER, 0.0),
        carry_b=generator_field("carry_b", NUMBER, 0.0),
    )
    requests = config.get("estimands") or []
    if not isinstance(requests, list) or not all(isinstance(req, str) for req in requests):
        raise ValueError(f"{source}: estimands must be a list of request strings, got {requests!r}")
    specs = _requested_specs(requests, design)
    replications = args.reps if args.reps is not None else _config_field(config, "replications", INTEGER, source, 10_000)
    seed = args.seed if args.seed is not None else _config_field(config, "seed", INTEGER, source, 0)
    report = run_monte_carlo(
        generator,
        design,
        specs,
        replications=replications,
        weight_choice=_config_field(config, "weights", TEXT, source, "sample"),
        level=_config_field(config, "level", NUMBER, source, 0.95),
        seed=seed,
    )
    _json_out(report.to_dict(), args.out)
    if args.bias_csv:
        Path(args.bias_csv).write_text(emit_bias_distribution(report))
    return EXIT_OK


def _cmd_audit(args) -> int:
    design = design_from_text(Path(args.design).read_text())
    with open(args.table) as lines:
        table = parse_table(lines, design)
    specs = _requested_specs(args.estimand, design)
    weights: str | WeightModel = "oracle"
    if args.weights and args.weights != "oracle":
        weights = _load_weight_model(args.weights, design)
    result = exact_randomization_audit(
        table, design, specs, weights, args.scenario, args.k
    )
    payload = {
        "scenario": args.scenario,
        "carryover_order": result.carryover_order,
        "n_assignments": result.n_assignments,
        "estimands": [
            {
                "label": label,
                "exact_mean": float(result.exact_mean[i]),
                "exact_variance": float(result.exact_covariance[i, i]),
                "formula_mean": float(result.formula_mean[i]),
                "formula_variance": float(result.formula_covariance[i, i]),
            }
            for i, label in enumerate(result.labels)
        ],
    }
    _json_out(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossover",
        description="design-based analysis of crossover experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_scenario=True):
        if need_scenario:
            p.add_argument("--scenario", choices=["a", "b", "c"], required=True)
            p.add_argument("--k", type=int, default=None, help="carryover order for scenarios b and c")
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    p_identify = sub.add_parser("identify", help="rank verdict and per-mean identification table")
    p_identify.add_argument("--design", required=True)
    p_identify.add_argument(
        "--dump-restriction", default=None, help="write the assembled restriction matrix as CSV"
    )
    add_common(p_identify)
    p_identify.set_defaults(func=_cmd_identify)

    p_fit = sub.add_parser("fit", help="restricted weighted least squares fit")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--design", default=None)
    p_fit.add_argument("--estimand", action="append", default=[])
    p_fit.add_argument("--weights", default="sample", help="sample | pooled | file:PATH")
    p_fit.add_argument("--level", type=float, default=0.95)
    p_fit.add_argument("--engine", choices=["auto", "rwls", "closed-form"], default="auto")
    add_common(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="Monte Carlo study from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--bias-csv", default=None, help="write per-replication bias rows here")
    p_sim.add_argument("--reps", type=int, default=None, help="override the configured replications")
    p_sim.add_argument("--seed", type=int, default=None, help="override the configured seed")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_audit = sub.add_parser("audit", help="exact enumeration of the randomization distribution")
    p_audit.add_argument("--table", required=True)
    p_audit.add_argument("--design", required=True)
    p_audit.add_argument("--estimand", action="append", default=[])
    p_audit.add_argument("--weights", default="oracle", help="oracle | file:PATH")
    add_common(p_audit)
    p_audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotIdentifiableError as exc:
        print(f"not identifiable: {exc}", file=sys.stderr)
        return EXIT_NOT_IDENTIFIABLE
    except ConditioningError as exc:
        print(f"conditioning failure: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
