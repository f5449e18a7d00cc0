import ast
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import crossover
from crossover import (
    CrossoverDesign,
    ObservedDataset,
    WeightModel,
    assemble,
    design_to_text,
    feasible_rwls,
    full_sequence_set,
    random_consistent_table,
    realize_dataset,
    sample_assignment,
)
from crossover import cli, twoperiod
from crossover.cli import (
    EXIT_CONDITIONING,
    EXIT_NOT_IDENTIFIABLE,
    EXIT_OK,
    EXIT_PARSE,
    main,
    parse_dataset,
    parse_estimand_request,
    parse_table,
)
from conftest import make_dataset

SCOPE2 = full_sequence_set(2)


def dataset_csv(dataset) -> str:
    lines = ["unit,sequence," + ",".join(f"y{t}" for t in range(1, dataset.design.horizon + 1))]
    for i, z in enumerate(dataset.assignments):
        values = ",".join(repr(float(v)) for v in dataset.outcomes[i])
        lines.append(f"u{i},{z},{values}")
    return "\n".join(lines) + "\n"


def table_csv(table) -> str:
    lines = ["unit,sequence," + ",".join(f"y{t}" for t in range(1, table.horizon + 1))]
    for z in table.scope:
        for i in range(table.n_units):
            values = ",".join(repr(float(v)) for v in table.outcomes[z][i])
            lines.append(f"u{i:03d},{z},{values}")
    return "\n".join(lines) + "\n"


def dense_dump(restriction) -> str:
    """The restriction dump formed from the whole dense C: the oracle of
    the file written row by row."""
    header = ",".join(f"g_{t}_{z}" for t, z in restriction.layout.labels())
    return "\n".join([header, *(",".join(repr(float(v)) for v in row) for row in restriction.matrix)]) + "\n"


def strict_json(text: str):
    """json.loads that rejects the NaN and Infinity constants strict JSON lacks."""

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def simulated_dataset(seed=0, counts=(5, 5, 5, 5)):
    design = CrossoverDesign(2, dict(zip(("AA", "AB", "BA", "BB"), counts)))
    table = random_consistent_table(2, "b", 1, design.n_units, seed=seed)
    return realize_dataset(table, sample_assignment(design, seed))


class TestParseDataset:
    def test_two_row_file(self):
        text = "unit,sequence,y1,y2\n1,AB,0.5,1.5\n2,BA,0.25,0.75\n"
        dataset, design = parse_dataset(text)
        assert dataset.n_units == 2
        assert design.count("AB") == 1

    def test_bad_symbol_names_row(self):
        text = "unit,sequence,y1,y2\n1,AB,0,1\n2,AC,0,1\n"
        with pytest.raises(ValueError, match="row 3"):
            parse_dataset(text)

    def test_ragged_row_named(self):
        text = "unit,sequence,y1,y2\n1,AB,0\n"
        with pytest.raises(ValueError, match="row 2"):
            parse_dataset(text)

    def test_non_numeric_outcome_named(self):
        text = "unit,sequence,y1,y2\n1,AB,x,1\n"
        with pytest.raises(ValueError, match="row 2"):
            parse_dataset(text)

    def test_count_mismatch_against_design(self):
        design = CrossoverDesign(2, {"AB": 2, "BA": 1})
        text = "unit,sequence,y1,y2\n1,AB,0,1\n2,BA,0,1\n3,BA,0,1\n"
        with pytest.raises(ValueError, match="counts"):
            parse_dataset(text, design)

    def test_a_row_the_csv_module_cannot_read_is_named(self):
        # a lone carriage return inside an unquoted field
        with pytest.raises(ValueError, match="^row 3: new-line character seen in unquoted field"):
            parse_dataset("unit,sequence,y1,y2\n1,AB,0,1\n2,B\rA,0,1\n")

    def test_binary_outcomes_accepted(self):
        text = "unit,sequence,y1,y2\n1,AB,0,1\n2,BA,1,0\n"
        dataset, _ = parse_dataset(text)
        assert set(np.unique(dataset.outcomes)) <= {0.0, 1.0}


def _with_rows(text: str, changes: dict[int, str]) -> str:
    """The CSV text with the given 1-based rows replaced."""
    lines = text.splitlines()
    for row, line in changes.items():
        lines[row - 1] = line
    return "\n".join(lines) + "\n"


def _parsed(text_or_lines, table_design=None):
    """The parse of a dataset (or, given a design, a table) as plain values,
    or the message of the ValueError it raises."""
    try:
        if table_design is None:
            dataset, design = parse_dataset(text_or_lines)
            return dict(design.counts), dataset.codes, dataset.outcomes
        table = parse_table(text_or_lines, table_design)
        return {z: y for z, y in table.outcomes.items()}
    except ValueError as exc:
        return str(exc)


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(np.array_equal(a[z], b[z]) for z in a)
    return a[0] == b[0] and np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


DATASET = dataset_csv(simulated_dataset(seed=4, counts=(3, 2, 2, 3)))
TABLE = table_csv(random_consistent_table(2, "b", 1, 3, seed=5))
TABLE_DESIGN = CrossoverDesign(2, {"AB": 1, "BA": 2})
HEADER = "unit,sequence,y1,y2\n"
# the csv module refuses a field over 131,072 characters
LONG = "9" * 200_000
# (text, None for a dataset or the design of a table, the message or None)
BLOCK_CASES = {
    "dataset": (DATASET, None, None),
    "table": (TABLE, TABLE_DESIGN, None),
    "bad label first seen in block 2": (_with_rows(DATASET, {5: "u3,AC,0,1"}), None, "row 5: sequence 'AC' uses"),
    "label of another length": (_with_rows(DATASET, {6: "u4,ABA,0,1"}), None, "row 6: sequence ABA has length 3, expected 2"),
    "ragged row in block 3": (_with_rows(DATASET, {8: "u6,AB,0"}), None, "row 8: expected 4 fields, got 3"),
    "ragged row before a bad label": (_with_rows(DATASET, {7: "u5,AB", 9: "u7,AC,0,1"}), None, "row 7: expected 4"),
    "non-numeric row in a later block": (_with_rows(DATASET, {10: "u8,BA,1,x"}), None, "row 10: non-numeric outcome"),
    "table label of another length": (_with_rows(TABLE, {11: "u001,BBB,0,1"}), TABLE_DESIGN, "row 11: sequence BBB has"),
    "table label outside the scope": (
        TABLE,
        CrossoverDesign(2, {"AB": 1, "BA": 1}, ("AB", "BA")),
        "row 2: sequence AA outside the design scope",
    ),
    "table repeat of an earlier block": (TABLE + "u000,AB,5.0,9.0\n", TABLE_DESIGN, "row 14: unit u000 and sequence AB repeat row 5"),
    "table repeat within a block": (_with_rows(TABLE, {3: "u000,AA,1,2"}), TABLE_DESIGN, "row 3: unit u000 and sequence AA repeat row 2"),
    "blank rows at a block boundary": (_with_rows(DATASET, {4: DATASET.splitlines()[3] + "\n\n  ,  \n \t"}), None, None),
    "blank rows before a bad row": (_with_rows(DATASET, {3: "\n , \n", 4: "u2,AB,1,y"}), None, "row 6: non-numeric outcome"),
    "crlf endings and quoted fields": (
        _with_rows(DATASET, {2: 'u0,"AB"," 0.5",1', 6: '"u,4",BA,1,2'}).replace("\n", "\r\n"),
        None,
        None,
    ),
    "field over the csv limit": (_with_rows(DATASET, {7: f"u5,AB,{LONG},1"}), None, "row 7: field larger than field limit"),
    "bad row before a field over the csv limit": (
        _with_rows(DATASET, {6: "u4,AB,x,1", 7: f"u5,AB,{LONG},1"}),
        None,
        "row 6: non-numeric outcome",
    ),
    "table field over the csv limit": (_with_rows(TABLE, {4: f"u002,AA,{LONG},1"}), TABLE_DESIGN, "row 4: field larger than"),
    "header only": (HEADER, None, "row 2: no data rows"),
    "header plus blank rows": (HEADER + "\n , \n\n", None, "row 2: no data rows"),
    "table header only": (HEADER, TABLE_DESIGN, "row 2: no data rows"),
}


class TestBlockReader:
    """The CSV reader checks rows in fixed blocks; the block size must
    change no result and no message."""

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_block_size_changes_nothing(self, monkeypatch, tmp_path, case):
        text, design, message = BLOCK_CASES[case]
        path = tmp_path / "input.csv"
        path.write_bytes(text.encode())
        results = []
        for size in (1, 2, 3, cli._BLOCK_ROWS):
            monkeypatch.setattr(cli, "_BLOCK_ROWS", size)
            results.append(_parsed(text, design))
            with open(path) as lines:
                results.append(_parsed(lines, design))
        if message is None:
            assert not isinstance(results[0], str), results[0]
        else:
            assert results[0].startswith(message), results[0]
        assert all(_same(results[0], result) for result in results[1:])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_rows_parse_alike_at_every_block_size(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        rows = DATASET.splitlines()[1:] + TABLE.splitlines()[1:]
        noise = ["u9,AC,0,1", "u9,AB,0", "u9,BA,1,z", "", " , ", "u9,ABA,0,1", "u000,AB,1,2", "u1,AA,0,1,2"]
        for _ in range(40):
            picked = [rows[i] for i in rng.integers(len(rows), size=rng.integers(0, 12))]
            for i in rng.integers(len(picked) + 1, size=rng.integers(0, 3)):
                picked.insert(i, noise[rng.integers(len(noise))])
            text = HEADER + "".join(row + "\n" for row in picked)
            for design in (None, TABLE_DESIGN):
                results = []
                for size in (1, 2, 3, cli._BLOCK_ROWS):
                    monkeypatch.setattr(cli, "_BLOCK_ROWS", size)
                    results.append(_parsed(text, design))
                assert all(_same(results[0], result) for result in results[1:]), text

    def test_parsing_20000_rows_peaks_below_8_mb(self):
        # 20,000 rows at T=6: the rows as Python lists took 28 MB, the outcomes are 0.96 MB
        rng = np.random.default_rng(0)
        labels = rng.choice(["AAAABA", "AABBAB", "BABABB", "BBAABB"], 20_000)
        outcomes = rng.standard_normal((20_000, 6)).tolist()
        text = "unit,sequence,y1,y2,y3,y4,y5,y6\n" + "".join(
            f"u{i},{z}," + ",".join(map(repr, row)) + "\n" for i, (z, row) in enumerate(zip(labels, outcomes))
        )
        tracemalloc.start()
        try:
            dataset, _ = parse_dataset(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dataset.outcomes.shape == (20_000, 6)
        assert peak <= 8_000_000


class TestEstimandGrammar:
    def test_tau_request(self):
        spec = parse_estimand_request("tau t=2 history=A", SCOPE2)
        assert spec.labels == ("tau_2(A)",)

    def test_carry_request(self):
        spec = parse_estimand_request("carry t=2 k=1 suffix=B", SCOPE2)
        assert spec.labels == ("tau_2^1(B)",)

    def test_marginal_request(self):
        spec = parse_estimand_request(
            "marginal of [tau t=2 history=A | tau t=2 history=B] weights=0.5,0.5", SCOPE2
        )
        assert np.allclose(spec.weight("AA")[0], [0, 0.5])
        assert np.allclose(spec.weight("BB")[0], [0, -0.5])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_estimand_request("ratio t=2", SCOPE2)

    @pytest.mark.parametrize(
        "request_text, message",
        [("tau", "missing option t= in 'tau'"), ("carry t=2", "missing option k= in 'carry t=2'")],
    )
    def test_missing_required_option_is_named(self, tmp_path, capsys, request_text, message):
        with pytest.raises(ValueError, match=message):
            parse_estimand_request(request_text, SCOPE2)
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(simulated_dataset(seed=6)))
        argv = ["fit", "--data", str(data_file), "--scenario", "b", "--k", "1", "--estimand", request_text]
        assert main(argv) == EXIT_PARSE
        assert message in capsys.readouterr().err


class TestIdentifyCommand:
    def test_rank_deficient_design_exits_nonzero(self, tmp_path, capsys):
        design_file = tmp_path / "design.txt"
        design_file.write_text("T 2\nAB 4\nBA 4\n")
        code = main(["identify", "--design", str(design_file), "--scenario", "a"])
        out = capsys.readouterr().out
        assert code == EXIT_NOT_IDENTIFIABLE
        assert "not identifiable" in out
        assert "rank 6 of 8" in out

    def test_identifiable_design_lists_witnesses(self, tmp_path, capsys):
        design_file = tmp_path / "design.txt"
        design_file.write_text("T 2\nAB 4\nBA 4\n")
        code = main(["identify", "--design", str(design_file), "--scenario", "b", "--k", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "identifiable (rank 8 of 8)" in out
        assert "AA 2 yes" in out

    @pytest.mark.parametrize("extra", [["b"], ["b", "--k", "0"], ["c", "--k", "3"]])
    def test_missing_or_out_of_range_order_exits_two(self, tmp_path, capsys, extra):
        design_file = tmp_path / "design.txt"
        design_file.write_text("T 2\nAB 4\nBA 4\n")
        code = main(["identify", "--design", str(design_file), "--scenario", *extra])
        assert code == EXIT_PARSE
        assert "carryover order" in capsys.readouterr().err

    def test_non_integer_count_exits_two_naming_its_line(self, tmp_path, capsys):
        design_file = tmp_path / "design.txt"
        design_file.write_text("T 2\nAB x\nBA 4\n")
        code = main(["identify", "--design", str(design_file), "--scenario", "b", "--k", "1"])
        assert code == EXIT_PARSE
        assert "error: line 2: count of AB must be an integer, got 'x'" in capsys.readouterr().err

    def test_scenario_c_builds_the_closure_once(self, tmp_path, capsys, monkeypatch):
        from crossover import cli, identification

        built = []
        closure = identification.time_invariant_closure

        def counting(*args):
            built.append(args)
            return closure(*args)

        monkeypatch.setattr(identification, "time_invariant_closure", counting)
        monkeypatch.setattr(cli, "time_invariant_closure", counting, raising=False)
        design_file = tmp_path / "design.txt"
        design_file.write_text("T 3\nAAB 2\nABA 2\nBAA 2\n")
        code = main(["identify", "--design", str(design_file), "--scenario", "c", "--k", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "BBB 3 yes" in out
        assert len(built) == 1

    def test_restriction_dump_is_auditable_csv(self, tmp_path, capsys):
        design_file = tmp_path / "design.txt"
        design_file.write_text("T 2\nAB 4\nBA 4\n")
        dump = tmp_path / "restriction.csv"
        code = main(
            [
                "identify",
                "--design",
                str(design_file),
                "--scenario",
                "b",
                "--k",
                "1",
                "--dump-restriction",
                str(dump),
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        lines = dump.read_text().strip().splitlines()
        assert lines[0].startswith("g_1_AA,g_2_AA,g_1_AB")
        matrix = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert matrix.shape == (4, 8)
        assert np.linalg.matrix_rank(matrix) == 4
        assert np.array_equal(matrix, assemble("b", 2, SCOPE2, 1).matrix)

    def test_restriction_dump_holds_chain_and_cycle_rows_exactly(self, tmp_path, capsys):
        design_file = tmp_path / "design.txt"
        design_file.write_text("T 3\nAAB 2\nABA 2\nBAA 2\n")
        dump = tmp_path / "restriction.csv"
        argv = ["identify", "--design", str(design_file), "--scenario", "c", "--k", "1"]
        assert main(argv + ["--dump-restriction", str(dump)]) == EXIT_OK
        capsys.readouterr()
        lines = dump.read_text().strip().splitlines()
        dumped = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        expected = assemble("c", 3, full_sequence_set(3), 1).matrix
        assert np.array_equal(dumped, expected)
        nonzeros = np.count_nonzero(dumped, axis=1)
        # 18 chain rows with one +1 and one -1, then 2 cycle rows over four classes
        assert list(nonzeros) == [2] * 18 + [4, 4]

    @pytest.mark.parametrize("horizon", [2, 3, 4])
    @pytest.mark.parametrize("model", [("a", None), ("b", 1), ("b", 2), ("c", 1), ("c", 2)])
    def test_restriction_dump_is_the_dense_matrix_written_row_by_row(self, tmp_path, capsys, horizon, model):
        scenario, order = model
        scope = full_sequence_set(horizon)
        design_file, dump = tmp_path / "design.txt", tmp_path / "restriction.csv"
        design_file.write_text(design_to_text(CrossoverDesign(horizon, {z: 2 for z in scope})))
        argv = ["identify", "--design", str(design_file), "--scenario", scenario]
        argv += ["--k", str(order)] if order else []
        assert main(argv + ["--dump-restriction", str(dump)]) == EXIT_OK
        capsys.readouterr()
        assert dump.read_bytes() == dense_dump(assemble(scenario, horizon, scope, order)).encode()

    def test_restriction_dump_never_holds_the_dense_matrix(self, tmp_path, capsys):
        # at T=7 under b with k=2 the dense C is 870 x 896, 6.2 MB; the
        # identify call that dumps it, rows streamed, peaks at about 0.4 MB
        design_file, dump = tmp_path / "design.txt", tmp_path / "restriction.csv"
        design_file.write_text("T 7\nAAAABAA 3\nAAABAAB 3\nABABABA 3\nBBBABAB 3\n")
        argv = ["identify", "--design", str(design_file), "--scenario", "b", "--k", "2"]
        tracemalloc.start()
        try:
            code = main(argv + ["--dump-restriction", str(dump)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == EXIT_NOT_IDENTIFIABLE
        restriction = assemble("b", 7, full_sequence_set(7), 2)
        assert (restriction.n_rows, restriction.layout.size) == (870, 896)
        assert dump.read_text() == dense_dump(restriction)
        assert peak < 1_000_000


class TestFitCommand:
    def test_fit_report_structure(self, tmp_path):
        dataset = simulated_dataset(seed=3)
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(dataset))
        out_file = tmp_path / "report.json"
        code = main(
            [
                "fit",
                "--data",
                str(data_file),
                "--scenario",
                "b",
                "--k",
                "1",
                "--out",
                str(out_file),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(out_file.read_text())
        assert report["rank"]["identifiable"] is True
        assert len(report["coefficients"]) == 8
        labels = [row["label"] for row in report["estimands"]]
        assert labels[0] == "tau_1"
        for row in report["estimands"]:
            assert row["ci_lower"] <= row["point"] <= row["ci_upper"]

    @pytest.mark.parametrize(
        "engine,scenario,k,order",
        [
            ("rwls", "a", "2", None),
            ("closed-form", "a", "2", None),
            ("rwls", "b", "2", 2),
            ("closed-form", "b", "1", 1),
            ("rwls", "c", "1", 1),
        ],
    )
    def test_carryover_order_is_the_fitted_restrictions(self, tmp_path, engine, scenario, k, order):
        # scenario a has no carryover order, whatever --k says
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(simulated_dataset(seed=3)))
        out_file = tmp_path / "report.json"
        argv = ["fit", "--data", str(data_file), "--scenario", scenario, "--k", k, "--engine", engine]
        assert main(argv + ["--out", str(out_file)]) == EXIT_OK
        assert json.loads(out_file.read_text())["carryover_order"] == order

    def test_fit_checks_identification_once(self, tmp_path, monkeypatch):
        from crossover import constraints

        # under scenario b the rank is read from the classes hit, with no SVD
        svds, records = [], []
        svd, record = np.linalg.svd, constraints.ImplementedSet
        monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: svds.append(m.shape) or svd(m, *a, **k))
        monkeypatch.setattr(constraints, "ImplementedSet", lambda *fields: records.append(fields) or record(*fields))
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(simulated_dataset(seed=5)))
        argv = ["fit", "--data", str(data_file), "--scenario", "b", "--k", "1"]
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == EXIT_OK
        assert svds == [] and len(records) == 1

    # one weight block at 1e-14 scale puts cond(M) far above 1e12; at 1e-20
    # Cholesky still accepts M, while eigvalsh's absolute error (about
    # eps lambda_max) swamps lambda_min and can leave it <= 0
    @pytest.mark.parametrize("scale", [1e-14, 1e-20])
    def test_a_condition_number_over_the_threshold_warns_in_the_fit_and_the_report(self, tmp_path, scale):
        dataset = simulated_dataset(seed=7)
        block = np.array([[1.0, 0.3], [0.3, 2.0]])
        matrices = {str(z): block * (scale if str(z) == "AB" else 1.0) for z in dataset.design.observed}
        fit = feasible_rwls(dataset, "b", 1, WeightModel(matrices))
        low, high = np.linalg.eigvalsh(fit.reduced_matrix)[[0, -1]]
        assert fit.condition_number == (high / low if low > 0.0 else np.inf) and fit.condition_number > 1e12
        warning = f"reduced system condition number {fit.condition_number:.3e} exceeds 1e+12"
        assert fit.warnings == (warning,)
        data_file, weights_file, out_file = tmp_path / "data.csv", tmp_path / "w.json", tmp_path / "report.json"
        data_file.write_text(dataset_csv(dataset))
        weights_file.write_text(json.dumps({z: m.tolist() for z, m in matrices.items()}))
        argv = ["fit", "--data", str(data_file), "--scenario", "b", "--k", "1", "--weights", f"file:{weights_file}"]
        assert main(argv + ["--out", str(out_file)]) == EXIT_OK
        assert json.loads(out_file.read_text())["warnings"] == [warning]

    def test_an_unresolved_condition_number_is_null_in_strict_json(self, tmp_path):
        # AB/BA x 5 with the AB weight block at 1e-20 scale: Cholesky accepts
        # M, eigvalsh leaves lambda_min <= 0 and cond(M) reads infinite
        design = CrossoverDesign(2, {"AB": 5, "BA": 5})
        dataset = realize_dataset(random_consistent_table(2, "b", 1, 10, seed=0), sample_assignment(design, 0))
        block = np.array([[1.0, 0.3], [0.3, 2.0]])
        matrices = {str(z): block * (1e-20 if str(z) == "AB" else 1.0) for z in design.observed}
        assert feasible_rwls(dataset, "b", 1, WeightModel(matrices)).condition_number == np.inf
        data_file, weights_file, out_file = tmp_path / "data.csv", tmp_path / "w.json", tmp_path / "report.json"
        data_file.write_text(dataset_csv(dataset))
        weights_file.write_text(json.dumps({z: m.tolist() for z, m in matrices.items()}))
        argv = ["fit", "--data", str(data_file), "--scenario", "b", "--k", "1", "--weights", f"file:{weights_file}"]
        assert main(argv + ["--out", str(out_file)]) == EXIT_OK
        report = strict_json(out_file.read_text())
        assert report["condition_number"] is None
        assert report["warnings"] == ["reduced system condition number inf exceeds 1e+12"]

    def test_pooled_entry_without_degrees_of_freedom_names_its_sequences(self, tmp_path, capsys):
        design = CrossoverDesign(2, {"AB": 1, "BA": 4})
        dataset = realize_dataset(random_consistent_table(2, "b", 1, 5, seed=2), sample_assignment(design, 2))
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(dataset))
        argv = ["fit", "--data", str(data_file), "--scenario", "b", "--k", "1", "--weights", "pooled"]
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err == "error: entry (1,1) pooled over ['AB'] has no degrees of freedom\n"

    def test_fit_is_deterministic(self, tmp_path):
        dataset = simulated_dataset(seed=4)
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(dataset))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for out in (first, second):
            assert (
                main(["fit", "--data", str(data_file), "--scenario", "c", "--k", "1", "--out", str(out)])
                == EXIT_OK
            )
        assert first.read_text() == second.read_text()

    def test_three_period_fit_reports_requested_rows(self, tmp_path):
        design = CrossoverDesign(3, {"AAB": 4, "ABA": 4, "BAA": 4})
        table = random_consistent_table(3, "b", 1, 12, seed=9)
        dataset = realize_dataset(table, sample_assignment(design, 2))
        data_file = tmp_path / "data3.csv"
        data_file.write_text(dataset_csv(dataset))
        out_file = tmp_path / "report3.json"
        code = main(
            [
                "fit",
                "--data",
                str(data_file),
                "--scenario",
                "b",
                "--k",
                "1",
                "--estimand",
                "tau t=1",
                "--estimand",
                "tau t=2 history=A",
                "--estimand",
                "tau t=3 history=AA",
                "--out",
                str(out_file),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(out_file.read_text())
        assert [row["label"] for row in report["estimands"]] == [
            "tau_1",
            "tau_2(A)",
            "tau_3(AA)",
        ]

    def test_closed_form_engine(self, tmp_path):
        dataset = simulated_dataset(seed=6)
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(dataset))
        out_file = tmp_path / "closed.json"
        code = main(
            [
                "fit",
                "--data",
                str(data_file),
                "--scenario",
                "b",
                "--k",
                "1",
                "--engine",
                "closed-form",
                "--out",
                str(out_file),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(out_file.read_text())
        assert report["engine"] == "closed-form"
        assert {row["label"] for row in report["estimands"]} == {"tau_1", "tau_2"}

    @pytest.mark.parametrize("scenario", ["b", "c"])
    def test_closed_form_engine_takes_carryover_order_one_only(self, tmp_path, capsys, scenario):
        dataset = simulated_dataset(seed=6)
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(dataset))
        argv = ["fit", "--data", str(data_file), "--scenario", scenario, "--engine", "closed-form"]
        assert main(argv + ["--k", "2"]) == EXIT_PARSE
        assert "--k 1" in capsys.readouterr().err
        out_file = tmp_path / "closed.json"
        assert main(argv + ["--k", "1", "--out", str(out_file)]) == EXIT_OK
        points = {row["label"]: row["point"] for row in json.loads(out_file.read_text())["estimands"]}
        forms = twoperiod.closed_form(twoperiod.TwoPeriodSummary.from_dataset(dataset), scenario)
        assert points == {label: float(point) for label, (point, _) in forms.items()}

    @pytest.mark.parametrize("scenario", ["a", "b", "c"])
    @pytest.mark.parametrize("counts", [(5, 6, 7, 5), (6, 7)])
    def test_closed_form_engine_reports_the_library_closed_forms(self, tmp_path, counts, scenario):
        groups = ("AA", "AB", "BA", "BB") if len(counts) == 4 else ("AB", "BA")
        design = CrossoverDesign(2, dict(zip(groups, counts)))
        dataset = make_dataset(design, np.random.default_rng(len(counts)))
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(dataset))
        out_file = tmp_path / "closed.json"
        argv = ["fit", "--data", str(data_file), "--scenario", scenario, "--k", "1", "--engine", "closed-form"]
        assert main(argv + ["--out", str(out_file)]) == EXIT_OK
        rows = json.loads(out_file.read_text())["estimands"]
        forms = twoperiod.closed_form(twoperiod.TwoPeriodSummary.from_dataset(dataset), scenario)
        assert [(row["label"], row["point"], row["se"]) for row in rows] == [
            (label, point, float(np.sqrt(variance))) for label, (point, variance) in forms.items()
        ]

    def test_closed_form_engine_reports_tau_1_of_the_two_sequence_design_under_a(self, tmp_path):
        # the full scope is not identified under a (exit 3 on the rwls engine);
        # the implemented scope identifies tau_1
        dataset = make_dataset(CrossoverDesign(2, {"AB": 4, "BA": 4}), np.random.default_rng(0))
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(dataset))
        argv = ["fit", "--data", str(data_file), "--scenario", "a"]
        assert main(argv) == EXIT_NOT_IDENTIFIABLE
        out_file = tmp_path / "closed.json"
        assert main(argv + ["--engine", "closed-form", "--out", str(out_file)]) == EXIT_OK
        rows = json.loads(out_file.read_text())["estimands"]
        point, variance = twoperiod.closed_form(twoperiod.TwoPeriodSummary.from_dataset(dataset), "a")["tau_1"]
        assert [(row["label"], row["point"], row["se"]) for row in rows] == [("tau_1", point, float(np.sqrt(variance)))]

    @pytest.mark.parametrize("seed", [0, 1, 18, 34])
    def test_closed_form_standard_errors_stay_finite_on_repaired_pooled_blocks(self, tmp_path, seed):
        design = CrossoverDesign(2, dict.fromkeys(("AA", "AB", "BA", "BB"), 3))
        dataset = make_dataset(design, np.random.default_rng(seed))
        assert twoperiod.working_weight_model(dataset, "c").repaired
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(dataset))
        out_file = tmp_path / "closed.json"
        argv = ["fit", "--data", str(data_file), "--scenario", "c", "--k", "1", "--engine", "closed-form"]
        assert main(argv + ["--out", str(out_file)]) == EXIT_OK
        (row,) = json.loads(out_file.read_text())["estimands"]
        assert np.isfinite(row["se"]) and row["se"] >= 0.0

    def test_unidentifiable_fit_exits_three(self, tmp_path):
        design = CrossoverDesign(2, {"AB": 5, "BA": 5})
        table = random_consistent_table(2, "a", 1, 10, seed=5)
        dataset = realize_dataset(table, sample_assignment(design, 1))
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(dataset))
        code = main(["fit", "--data", str(data_file), "--scenario", "a"])
        assert code == EXIT_NOT_IDENTIFIABLE

    @pytest.mark.parametrize("extra", [[], ["--weights", "pooled"], ["--engine", "closed-form"]])
    def test_overflowing_moments_exit_four_with_a_package_message(self, tmp_path, extra):
        # outcomes of about 1e160 square past double precision in R_z'R_z
        dataset = simulated_dataset(seed=3, counts=(100, 100, 100, 100))
        scaled = ObservedDataset(dataset.design, dataset.assignments, dataset.outcomes * 1e160)
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(scaled))
        env = dict(os.environ)
        src = str(Path(crossover.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["fit", "--data", str(data_file), "--scenario", "b", "--k", "1", *extra]
        proc = subprocess.run([sys.executable, "-m", "crossover.cli", *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_CONDITIONING
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["conditioning failure: the moments of sequence AA overflow double precision; rescale the outcomes"]

    def test_parse_failure_exits_two(self, tmp_path):
        data_file = tmp_path / "data.csv"
        data_file.write_text("unit,sequence,y1,y2\n1,AC,0,1\n")
        code = main(["fit", "--data", str(data_file), "--scenario", "b", "--k", "1"])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("row", [1, 3])
    def test_a_field_over_the_csv_limit_exits_two_naming_its_row(self, tmp_path, capsys, row):
        lines = ["unit,sequence,y1,y2", "1,AB,0,1", "2,BA,1,0"]
        lines[row - 1] += LONG
        data_file = tmp_path / "data.csv"
        data_file.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--data", str(data_file), "--scenario", "b", "--k", "1"]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: row {row}: field larger than field limit")

    @pytest.mark.parametrize("matrix", [[[1, 2], [2, 1]], [[1, 0.5], [0, 1]]])
    def test_weights_that_are_not_positive_definite_exit_two(self, tmp_path, capsys, matrix):
        design = CrossoverDesign(2, {"AB": 5, "BA": 5})
        table = random_consistent_table(2, "b", 1, 10, seed=5)
        dataset = realize_dataset(table, sample_assignment(design, 1))
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(dataset))
        weights_file = tmp_path / "weights.json"
        weights_file.write_text(json.dumps({"AB": matrix, "BA": [[1, 0], [0, 1]]}))
        argv = ["fit", "--data", str(data_file), "--scenario", "b", "--k", "1"]
        code = main(argv + ["--weights", f"file:{weights_file}"])
        assert code == EXIT_PARSE
        assert "weight for AB" in capsys.readouterr().err

    def test_singular_weights_exit_two_naming_the_sequence(self, tmp_path, capsys):
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(simulated_dataset(seed=6)))
        weights_file = tmp_path / "weights.json"
        weights_file.write_text(json.dumps({"AA": [[1, 0], [0, 1]], "AB": [[1, 1], [1, 1]], "BA": [[1.5, -0.2], [-0.2, 1.0]], "BB": [[1, 0], [0, 1]]}))
        argv = ["fit", "--data", str(data_file), "--scenario", "b", "--k", "1"]
        assert main(argv + ["--weights", f"file:{weights_file}"]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: weight for AB is singular\n"


    @pytest.mark.parametrize("engine", ["rwls", "closed-form"])
    @pytest.mark.parametrize("level", ["1.5", "0", "nan"])
    def test_level_outside_the_unit_interval_exits_two_on_every_engine(self, tmp_path, capsys, engine, level):
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(simulated_dataset(seed=6)))
        argv = ["fit", "--data", str(data_file), "--scenario", "b", "--k", "1", "--engine", engine]
        assert main(argv + ["--level", level]) == EXIT_PARSE
        assert f"confidence level must be in (0, 1), got {float(level)}" in capsys.readouterr().err

    def test_closed_form_engine_rejects_other_group_sets(self, tmp_path, capsys):
        dataset = simulated_dataset(seed=6, counts=(5, 5, 5))
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(dataset))
        argv = ["fit", "--data", str(data_file), "--scenario", "b", "--k", "1", "--engine", "closed-form"]
        assert main(argv) == EXIT_PARSE
        assert "AA/AB/BA/BB and AB/BA designs" in capsys.readouterr().err

    def test_weights_file_holding_an_array_exits_two(self, tmp_path, capsys):
        data_file = tmp_path / "data.csv"
        data_file.write_text(dataset_csv(simulated_dataset(seed=6)))
        weights_file = tmp_path / "weights.json"
        weights_file.write_text(json.dumps([[1, 0], [0, 1]]))
        argv = ["fit", "--data", str(data_file), "--scenario", "b", "--k", "1"]
        assert main(argv + ["--weights", f"file:{weights_file}"]) == EXIT_PARSE
        assert f"{weights_file} must be a JSON object" in capsys.readouterr().err


def test_import_does_not_load_scipy_stats():
    env = dict(os.environ)
    src = str(Path(crossover.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, crossover; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_no_module_level_scipy_import():
    # `import crossover` loads no scipy: code that needs scipy imports it
    # inside the function that uses it
    offenders = []
    for path in sorted(Path(crossover.__file__).parent.glob("*.py")):
        pending = list(ast.parse(path.read_text()).body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            offenders += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy"]
            pending.extend(ast.iter_child_nodes(node))
    assert offenders == []


@pytest.mark.parametrize("command", ["import", "fit", "identify"])
def test_cli_calls_load_no_scipy(tmp_path, command):
    data_file = tmp_path / "data.csv"
    data_file.write_text(dataset_csv(simulated_dataset(seed=6)))
    design_file = tmp_path / "design.txt"
    design_file.write_text("T 3\nAAB 2\nABA 2\nBAA 2\n")
    argv = {
        "import": None,
        "fit": ["fit", "--data", str(data_file), "--scenario", "b", "--k", "1",
                "--out", str(tmp_path / "fit.json")],
        "identify": ["identify", "--design", str(design_file), "--scenario", "c", "--k", "1",
                     "--out", str(tmp_path / "identify.txt")],
    }[command]
    code = (
        "import sys\n"
        "from crossover.cli import main\n"
        f"argv = {argv!r}\n"
        "code = main(argv) if argv else 0\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    src = str(Path(crossover.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


# the package modules a command must not load: identify runs nothing of the
# fit, estimand, Monte Carlo or closed-form layers, and no fit runs the
# Monte Carlo harness
@pytest.mark.parametrize(
    "command, absent",
    [
        ("identify", ["estimands", "rwls", "simulator", "twoperiod"]),
        ("fit", ["simulator", "twoperiod"]),
        ("closed-form", ["simulator"]),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, command, absent):
    data_file = tmp_path / "data.csv"
    data_file.write_text(dataset_csv(simulated_dataset(seed=6)))
    design_file = tmp_path / "design.txt"
    design_file.write_text("T 2\nAB 4\nBA 4\n")
    fit = ["fit", "--data", str(data_file), "--scenario", "b", "--k", "1", "--out", str(tmp_path / "fit.json")]
    argv = {
        "identify": ["identify", "--design", str(design_file), "--scenario", "b", "--k", "1"],
        "fit": fit,
        "closed-form": fit + ["--engine", "closed-form"],
    }[command]
    code = (
        "import sys\n"
        "from crossover.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('crossover.')))\n"
    )
    env = dict(os.environ)
    src = str(Path(crossover.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    status, loaded = proc.stdout.strip().splitlines()[-1].split(" ", 1)
    assert status == "0"
    assert "'crossover.cli'" in loaded and not [name for name in absent if f"'crossover.{name}'" in loaded], loaded


class TestSimulateCommand:
    def test_simulate_round_trip(self, tmp_path):
        config = {
            "design": {"T": 2, "counts": {"AB": 10, "BA": 10}},
            "scenario": "b",
            "k": 1,
            "replications": 12,
            "seed": 5,
            "generator": {"kind": "constant_effect", "seed": 7},
        }
        config_file = tmp_path / "study.json"
        config_file.write_text(json.dumps(config))
        out_file = tmp_path / "mc.json"
        csv_file = tmp_path / "bias.csv"
        code = main(
            [
                "simulate",
                "--config",
                str(config_file),
                "--out",
                str(out_file),
                "--bias-csv",
                str(csv_file),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(out_file.read_text())
        assert report["replications"] == 12
        assert len(report["estimands"]) == 5
        lines = csv_file.read_text().strip().splitlines()
        assert len(lines) == 1 + 12 * 5


    def test_negative_seed_exits_two(self, tmp_path, capsys):
        config = {"design": {"T": 2, "counts": {"AB": 10, "BA": 10}}, "scenario": "b", "k": 1}
        config_file = tmp_path / "study.json"
        config_file.write_text(json.dumps(config))
        out_file = tmp_path / "mc.json"
        code = main(["simulate", "--config", str(config_file), "--seed", "-1", "--out", str(out_file)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == "error: expected non-negative integer\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("reps", ["1", "0", "-3"])
    def test_fewer_than_two_replications_exit_two(self, tmp_path, capsys, reps):
        config = {"design": {"T": 2, "counts": {"AB": 10, "BA": 10}}, "scenario": "b", "k": 1}
        config_file = tmp_path / "study.json"
        config_file.write_text(json.dumps(config))
        out_file = tmp_path / "mc.json"
        code = main(["simulate", "--config", str(config_file), "--reps", reps, "--out", str(out_file)])
        assert code == EXIT_PARSE
        assert "at least 2 replications" in capsys.readouterr().err
        assert not out_file.exists()


    def test_null_carryover_order_counts_as_absent(self, tmp_path):
        config = {
            "design": {"T": 2, "counts": {"AA": 5, "AB": 5, "BA": 5, "BB": 5}},
            "scenario": "a",
            "k": None,
            "weights": "pooled",
        }
        config_file = tmp_path / "study.json"
        config_file.write_text(json.dumps(config))
        out_file = tmp_path / "mc.json"
        assert main(["simulate", "--config", str(config_file), "--reps", "3", "--out", str(out_file)]) == EXIT_OK
        assert json.loads(out_file.read_text())["replications"] == 3

    def test_scenario_a_reports_a_null_carryover_order(self, tmp_path):
        config = {"design": {"T": 2, "counts": {"AA": 5, "AB": 5, "BA": 5, "BB": 5}}, "scenario": "a", "k": None}
        config_file = tmp_path / "study.json"
        config_file.write_text(json.dumps(config))
        out_file = tmp_path / "mc.json"
        assert main(["simulate", "--config", str(config_file), "--reps", "3", "--out", str(out_file)]) == EXIT_OK
        assert json.loads(out_file.read_text())["carryover_order"] is None

    def test_integral_floats_are_read_as_integers(self, tmp_path):
        # some JSON writers emit every number as a float
        config = {
            "design": {"T": 2.0, "counts": {"AB": 10.0, "BA": 10}},
            "scenario": "b",
            "k": 1.0,
            "replications": 3.0,
            "seed": 3.0,
        }
        config_file = tmp_path / "study.json"
        config_file.write_text(json.dumps(config))
        out_file = tmp_path / "mc.json"
        assert main(["simulate", "--config", str(config_file), "--out", str(out_file)]) == EXIT_OK
        floats = json.loads(out_file.read_text())
        config.update(design={"T": 2, "counts": {"AB": 10, "BA": 10}}, k=1, replications=3, seed=3)
        config_file.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(config_file), "--out", str(out_file)]) == EXIT_OK
        assert json.loads(out_file.read_text()) == floats
        assert floats["replications"] == 3 and floats["carryover_order"] == 1

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {"design": {"T": 2, "counts": {"AB": 10, "BA": 10}}, "generator": {"beta1": 3}},
                "generator: field 'beta1' must be a list of 4 numbers, got 3",
            ),
            ({"design": {"counts": {"AB": 10, "BA": 10}}}, "design needs the field 'T'"),
            ({"design": {"T": "two", "counts": {"AB": 10, "BA": 10}}}, "field 'T' must be an integer"),
            ({"design": {"T": 2, "counts": {"AB": 1.5, "BA": 10}}}, "field 'AB' must be an integer"),
            ({"design": {"T": 2, "counts": {"AB": 10, "BA": 10}}, "generator": {"rho": "high"}}, "field 'rho' must be a number"),
            ({"design": {"T": 2, "counts": {"AB": 10, "BA": 10}}, "replications": True}, "field 'replications' must be an integer"),
        ],
    )
    def test_mistyped_or_missing_field_exits_two_naming_it(self, tmp_path, capsys, config, message):
        config_file = tmp_path / "study.json"
        config_file.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(config_file)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert str(config_file) in err and message in err

    @pytest.mark.parametrize(
        "config, message",
        [
            ([{"design": {"T": 2, "counts": {"AB": 10, "BA": 10}}}], "must be a JSON object"),
            (
                {"design": {"T": 2, "counts": {"AB": 10, "BA": 10}}, "scenario": "b", "k": 1, "estimands": "tau t=1"},
                "estimands must be a list of request strings",
            ),
        ],
    )
    def test_malformed_config_exits_two_naming_the_file(self, tmp_path, capsys, config, message):
        config_file = tmp_path / "study.json"
        config_file.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(config_file), "--reps", "3"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert str(config_file) in err and message in err


class TestAuditCommand:
    def test_audit_exact_unbiasedness(self, tmp_path):
        design = CrossoverDesign(2, {"AB": 2, "BA": 2})
        design_file = tmp_path / "design.txt"
        design_file.write_text(design_to_text(design))
        table = random_consistent_table(2, "b", 1, 4, seed=17)
        table_file = tmp_path / "table.csv"
        table_file.write_text(table_csv(table))
        out_file = tmp_path / "audit.json"
        code = main(
            [
                "audit",
                "--table",
                str(table_file),
                "--design",
                str(design_file),
                "--scenario",
                "b",
                "--k",
                "1",
                "--out",
                str(out_file),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(out_file.read_text())
        assert report["n_assignments"] == 6
        for row in report["estimands"]:
            assert row["exact_mean"] == pytest.approx(row["formula_mean"], abs=1e-9)
            assert row["exact_variance"] == pytest.approx(row["formula_variance"], abs=1e-9)

    @pytest.mark.parametrize("scenario,k,order", [("a", "2", None), ("b", "1", 1)])
    def test_carryover_order_is_the_audited_restrictions(self, tmp_path, scenario, k, order):
        # scenario a has no carryover order, whatever --k says
        design = CrossoverDesign(2, {"AA": 2, "AB": 2, "BA": 2, "BB": 2})
        design_file = tmp_path / "design.txt"
        design_file.write_text(design_to_text(design))
        table_file = tmp_path / "table.csv"
        table_file.write_text(table_csv(random_consistent_table(2, "b", 1, 8, seed=17)))
        out_file = tmp_path / "audit.json"
        argv = ["audit", "--table", str(table_file), "--design", str(design_file), "--scenario", scenario]
        assert main(argv + ["--k", k, "--out", str(out_file)]) == EXIT_OK
        assert json.loads(out_file.read_text())["carryover_order"] == order

    @pytest.mark.parametrize(
        "text,message",
        [("", "row 1: empty file"), ("foo,bar,y1,y2\nu1,AB,0,1\nu1,BA,0,1\n", "row 1: header must be")],
    )
    def test_malformed_table_header_exits_two_naming_row_one(self, tmp_path, capsys, text, message):
        design_file = tmp_path / "design.txt"
        design_file.write_text("T 2\nAB 1\nBA 1\n")
        table_file = tmp_path / "table.csv"
        table_file.write_text(text)
        argv = ["audit", "--table", str(table_file), "--design", str(design_file), "--scenario", "b", "--k", "1"]
        assert main(argv) == EXIT_PARSE
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize(
        "extra,message",
        [
            ("u000,AB,5.0,9.0\n", "row 10: unit u000 and sequence AB repeat row 4"),
            (None, "row 2: no data rows"),
        ],
    )
    def test_repeated_row_or_no_rows_exits_two_naming_the_row(self, tmp_path, capsys, extra, message):
        design_file = tmp_path / "design.txt"
        design_file.write_text("T 2\nAB 1\nBA 1\n")
        text = table_csv(random_consistent_table(2, "b", 1, 2, seed=3))
        table_file = tmp_path / "table.csv"
        table_file.write_text(text + extra if extra else text.splitlines()[0] + "\n")
        argv = ["audit", "--table", str(table_file), "--design", str(design_file), "--scenario", "b", "--k", "1"]
        assert main(argv) == EXIT_PARSE
        assert message in capsys.readouterr().err

    def test_a_table_field_over_the_csv_limit_exits_two_naming_its_row(self, tmp_path, capsys):
        design_file = tmp_path / "design.txt"
        design_file.write_text("T 2\nAB 1\nBA 1\n")
        text = table_csv(random_consistent_table(2, "b", 1, 2, seed=3))
        table_file = tmp_path / "table.csv"
        table_file.write_text(_with_rows(text, {4: f"u000,AB,1,{LONG}"}))
        argv = ["audit", "--table", str(table_file), "--design", str(design_file), "--scenario", "b", "--k", "1"]
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: row 4: field larger than field limit")

    def test_singular_oracle_covariance_exits_four_naming_the_sequence(self, tmp_path, capsys):
        # two units give each sequence a rank-one covariance
        design_file = tmp_path / "design.txt"
        design_file.write_text("T 2\nAB 1\nBA 1\n")
        table_file = tmp_path / "table.csv"
        table_file.write_text(table_csv(random_consistent_table(2, "b", 1, 2, seed=3)))
        argv = ["audit", "--table", str(table_file), "--design", str(design_file), "--scenario", "b", "--k", "1"]
        assert main(argv) == EXIT_CONDITIONING
        err = capsys.readouterr().err
        assert "conditioning failure" in err and "'AB', 'BA'" in err


class TestRoundTrip:
    def test_simulator_written_data_reingests_identically(self, tmp_path):
        dataset = simulated_dataset(seed=11)
        text = dataset_csv(dataset)
        reparsed, _ = parse_dataset(text, dataset.design)
        assert reparsed.assignments == dataset.assignments
        assert np.array_equal(reparsed.outcomes, dataset.outcomes)
