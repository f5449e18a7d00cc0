import ast
import copy
import itertools
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import crossover
from crossover import constraints
from crossover.constraints import SCENARIOS, ClassMap, restriction_from_rows
from crossover import (
    CoefficientLayout,
    CrossoverDesign,
    RestrictionMatrix,
    assemble,
    full_sequence_set,
    random_consistent_table,
    row_reduce,
    sequence_set,
)

from conftest import dense_basis, gram_plus_restriction

LAYOUT2 = CoefficientLayout(2, full_sequence_set(2))

# column order: (1,AA),(2,AA),(1,AB),(2,AB),(1,BA),(2,BA),(1,BB),(2,BB)
PREFIX_ROWS_2P = np.array(
    [
        [1, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, -1, 0],
    ],
    dtype=float,
)
WINDOW_ROWS_2P = np.array(
    [
        [0, 1, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, -1],
    ],
    dtype=float,
)
TIME_ROW_2P = np.array([[1, -1, 0, 1, -1, 0, 0, 0]], dtype=float)


def prefix_rows(layout):
    """C under scenario a: rows equating period-t coefficients of sequences
    sharing a length-t prefix."""
    return assemble("a", layout.horizon, layout.scope).matrix


def window_rows(layout, order):
    """The rows of C under scenario b from period k on, equating period-t
    coefficients of sequences sharing the trailing length-k window."""
    matrix = assemble("b", layout.horizon, layout.scope, order).matrix
    # a chain row's first nonzero column is a coefficient of its period
    period = np.argmax(matrix != 0, axis=1) % layout.horizon + 1
    return matrix[period >= order]


def cycle_rows(layout, order):
    """The rows scenario c appends to scenario b's C: one per independent
    cycle tying window contrasts together across periods t >= k."""
    chain = assemble("b", layout.horizon, layout.scope, order).n_rows
    return assemble("c", layout.horizon, layout.scope, order).matrix[chain:]


def rank(matrix):
    return np.linalg.matrix_rank(matrix) if matrix.size else 0


def same_row_space(a, b):
    if a.size == 0 and b.size == 0:
        return True
    stacked = np.vstack([m for m in (a, b) if m.size])
    return rank(a) == rank(b) == rank(stacked)


class TestNoAnticipationRows:
    def test_two_period_full_scope(self):
        assert np.array_equal(prefix_rows(LAYOUT2), PREFIX_ROWS_2P)

    def test_single_period_has_no_rows(self):
        layout = CoefficientLayout(1, full_sequence_set(1))
        assert prefix_rows(layout).shape[0] == 0

    def test_three_period_row_count(self):
        layout = CoefficientLayout(3, full_sequence_set(3))
        # t=1: two classes of 4 -> 6 rows; t=2: four classes of 2 -> 4 rows
        assert prefix_rows(layout).shape[0] == 10


class TestNoCarryoverRows:
    def test_two_period_order_one_contains_window_rows(self):
        rows = window_rows(LAYOUT2, 1)
        period2 = rows[np.flatnonzero(np.abs(rows[:, 1::2]).sum(axis=1) > 0)]
        assert np.array_equal(period2, WINDOW_ROWS_2P)
        assert same_row_space(rows, np.vstack([PREFIX_ROWS_2P, WINDOW_ROWS_2P]))

    def test_order_equal_to_horizon_yields_nothing(self):
        assert window_rows(LAYOUT2, 2).shape[0] == 0

    def test_disjoint_windows_yield_nothing(self):
        layout = CoefficientLayout(3, ("AAB", "ABA", "BAA"))
        assert window_rows(layout, 2).shape[0] == 0


class TestTimeInvariantRows:
    def test_two_period_single_row(self):
        assert np.array_equal(cycle_rows(LAYOUT2, 1), TIME_ROW_2P)

    def test_single_period_has_no_rows(self):
        layout = CoefficientLayout(1, full_sequence_set(1))
        assert cycle_rows(layout, 1).shape[0] == 0

    def test_single_window_value_has_no_rows(self):
        layout = CoefficientLayout(2, ("AA",))
        assert cycle_rows(layout, 1).shape[0] == 0


class TestRowReduce:
    def test_duplicate_rows_collapse(self):
        rows = np.array([[1.0, -1.0, 0.0], [1.0, -1.0, 0.0]])
        assert row_reduce(rows).shape == (1, 3)

    def test_zero_matrix_is_empty(self):
        assert row_reduce(np.zeros((3, 4))).shape[0] == 0

    def test_two_period_scenario_c_stack_rank(self):
        raw = np.vstack(
            [
                prefix_rows(LAYOUT2),
                window_rows(LAYOUT2, 1),
                cycle_rows(LAYOUT2, 1),
            ]
        )
        reduced = row_reduce(raw)
        assert reduced.shape[0] == 5
        assert same_row_space(raw, reduced)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_preserves_row_space(self, seed, n_rows, n_cols):
        rng = np.random.default_rng(seed)
        rows = rng.integers(-1, 2, size=(n_rows, n_cols)).astype(float)
        reduced = row_reduce(rows)
        assert rank(reduced) == reduced.shape[0] == rank(rows)
        assert same_row_space(rows, reduced)


    def test_keeps_each_row_outside_the_span_of_those_kept_before(self):
        rows = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        assert np.array_equal(row_reduce(rows), rows[[1, 3]])

    def test_runs_without_scipy(self):
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from crossover.constraints import CoefficientLayout, restriction_from_rows\n"
            "layout = CoefficientLayout(2, ('AB', 'BA'))\n"
            "print(restriction_from_rows(layout, np.eye(4)[[0, 0, 1]]).n_rows)\n"
        )
        env = dict(os.environ)
        src = str(Path(crossover.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "2"


class TestNullSpace:
    @staticmethod
    def assert_matches_scipy(matrix):
        got = constraints._null_space(matrix)
        want = scipy.linalg.null_space(matrix)
        assert got.shape == want.shape
        assert np.abs(got.T @ got - np.eye(got.shape[1])).max() <= 1e-12
        assert np.abs(got @ got.T - want @ want.T).max() <= 1e-12

    def test_scenario_c_class_level_cycle_matrices(self, monkeypatch):
        seen = []
        null_space = constraints._null_space
        monkeypatch.setattr(constraints, "_null_space", lambda m: seen.append(m) or null_space(m))
        for horizon in range(1, 7):
            for order in range(1, horizon + 1):
                assemble("c", horizon, full_sequence_set(horizon), order)
        monkeypatch.undo()
        assert len(seen) >= 10
        for matrix in seen:
            self.assert_matches_scipy(matrix)

    @pytest.mark.parametrize(
        "rows,cols,inner", [(3, 5, 2), (6, 6, 3), (8, 5, 2), (1, 4, 1), (12, 30, 7), (2, 3, 0)]
    )
    def test_random_rank_deficient_matrices(self, rng, rows, cols, inner):
        matrix = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
        self.assert_matches_scipy(matrix)
        assert constraints._null_space(matrix).shape == (cols, cols - inner)


class TestAssemble:
    def test_scenario_a_single_period_empty(self):
        restriction = assemble("a", 1, full_sequence_set(1))
        assert restriction.n_rows == 0

    def test_requires_order_for_b_and_c(self):
        with pytest.raises(ValueError):
            assemble("b", 2, full_sequence_set(2))

    def test_nested_row_spaces(self):
        scope = full_sequence_set(2)
        c_a = assemble("a", 2, scope).matrix
        c_b = assemble("b", 2, scope, 1).matrix
        c_c = assemble("c", 2, scope, 1).matrix
        assert rank(np.vstack([c_b, c_a])) == rank(c_b)
        assert rank(np.vstack([c_c, c_b])) == rank(c_c)

    def test_two_sequence_scenario_b_gram_determinant(self):
        # the assembled restriction reproduces det(X'X + C'C) = NAB^2 * NBA^2
        restriction = assemble("b", 2, full_sequence_set(2), 1)
        for n_ab, n_ba in [(1, 1), (2, 3), (5, 4), (7, 2), (10, 10)]:
            design = CrossoverDesign(2, {"AB": n_ab, "BA": n_ba})
            det = np.linalg.det(gram_plus_restriction(design, restriction))
            expected = (n_ab * n_ba) ** 2
            assert det == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize(
        "scenario,horizon,order",
        [
            ("a", 2, None),
            ("b", 2, 1),
            ("c", 2, 1),
            ("a", 3, None),
            ("b", 3, 1),
            ("b", 3, 2),
            ("c", 3, 1),
            ("c", 3, 2),
            ("c", 4, 2),
        ],
    )
    def test_rows_annihilate_consistent_tables(self, scenario, horizon, order):
        # the load-bearing soundness property: a table satisfying the
        # scenario's assumptions has stacked means in the null space
        restriction = assemble(scenario, horizon, full_sequence_set(horizon), order)
        table = random_consistent_table(
            horizon, scenario, order or 1, 16, seed=hash((scenario, horizon, order)) % 2**31
        )
        layout = restriction.layout
        stacked = np.zeros(layout.size)
        for z in layout.scope:
            stacked[layout.block(z)] = table.mean_vector(z)
        if restriction.n_rows:
            assert np.abs(restriction.matrix @ stacked).max() < 1e-12


def closed_form_dimension(scenario, horizon, order):
    """Free coefficients d on the full 2^T scope."""
    if scenario == "a":
        return 2 ** (horizon + 1) - 2
    if scenario == "b":
        return sum(2 ** min(t, order) for t in range(1, horizon + 1))
    return sum(2**t for t in range(1, order)) + (horizon - order + 1) + 2**order - 1


FULL_SCOPE_CASES = [
    (scenario, horizon, order)
    for horizon in range(1, 7)
    for scenario in ("a", "b", "c")
    for order in ([None] if scenario == "a" else range(1, horizon + 1))
]


class TestResidual:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_largest_entry_of_the_dense_product(self, data):
        horizon = data.draw(st.integers(1, 5))
        full = full_sequence_set(horizon)
        scope = [full[i] for i in sorted(data.draw(st.sets(st.integers(0, len(full) - 1), min_size=1)))]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        kind = data.draw(st.sampled_from(("a", "b", "c", "rows", "none")))
        if kind in SCENARIOS:
            order = None if kind == "a" else data.draw(st.integers(1, horizon))
            restriction = assemble(kind, horizon, scope, order)
        else:
            layout = CoefficientLayout(horizon, scope)
            n_rows = data.draw(st.integers(1, 6)) if kind == "rows" else 0
            rows = row_reduce(rng.normal(size=(n_rows, layout.size)))
            restriction = restriction_from_rows(layout, rows)
            assert np.array_equal(restriction.matrix, rows)
        v = rng.normal(scale=10.0 ** data.draw(st.integers(-3, 6)), size=restriction.layout.size)
        dense = restriction.matrix
        assert dense.shape == (restriction.n_rows, restriction.layout.size)
        expected = np.abs(dense @ v).max(initial=0)
        assert abs(restriction.residual(v) - expected) <= 1e-14 * (1 + np.abs(v).max())


class TestClassMap:
    @pytest.mark.parametrize("scenario,horizon,order", FULL_SCOPE_CASES)
    def test_full_scope_basis_and_rows(self, scenario, horizon, order):
        restriction = assemble(scenario, horizon, full_sequence_set(horizon), order)
        basis, rows = dense_basis(restriction), restriction.matrix
        p, d = basis.shape
        assert d == closed_form_dimension(scenario, horizon, order)
        assert np.abs(basis.T @ basis - np.eye(d)).max() < 1e-12
        assert rows.shape[0] == rank(rows) == p - d
        if rows.shape[0]:
            assert np.abs(rows @ basis).max() < 1e-12

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_restricted_scope_spans_the_full_basis_on_its_blocks(self, data):
        horizon = data.draw(st.integers(1, 5))
        scenario = data.draw(st.sampled_from(("a", "b", "c")))
        order = None if scenario == "a" else data.draw(st.integers(1, horizon))
        full = full_sequence_set(horizon)
        picked = sorted(data.draw(st.sets(st.integers(0, len(full) - 1), min_size=1)))
        restricted = dense_basis(assemble(scenario, horizon, [full[i] for i in picked], order))
        columns = np.concatenate([np.arange(i * horizon, (i + 1) * horizon) for i in picked])
        projected = dense_basis(assemble(scenario, horizon, full, order))[columns]
        assert rank(restricted) == restricted.shape[1] == rank(projected)
        assert rank(np.hstack([restricted, projected])) == rank(projected)

    def test_time_invariance_closes_long_cycles_on_a_restricted_scope(self):
        # the periods and windows form the 6-cycle t2-AB-t4-AA-t3-BA-t2 and
        # no two periods share two windows, yet the assumption still ties
        # the six classes together
        scope = ("ABAB", "BAAA")
        restriction = assemble("c", 4, scope, 2)
        assert dense_basis(restriction).shape[1] == 7
        assert restriction.n_rows == 1
        assert cycle_rows(restriction.layout, 2).shape[0] == 1
        table = random_consistent_table(4, "c", 2, 16, scope=scope, seed=5)
        layout = restriction.layout
        stacked = np.concatenate([table.mean_vector(z) for z in layout.scope])
        assert np.abs(restriction.matrix @ stacked).max() < 1e-12

    @pytest.mark.parametrize("scenario,order", [("a", None), ("b", 1), ("b", 2), ("c", 2)])
    def test_ids_index_the_sorted_class_keys(self, scenario, order):
        classes = ClassMap(3, scenario, order)
        scope = full_sequence_set(3)[::-1]
        keys, ids = classes.ids(scope)
        assert keys == sorted({(t, classes.key(t, z)) for z in scope for t in (1, 2, 3)})
        assert ids.shape == (len(scope), 3)
        for z, row in zip(scope, ids):
            assert [keys[j] for j in row] == [(t, classes.key(t, z)) for t in (1, 2, 3)]

    @pytest.mark.parametrize("horizon", range(1, 7))
    def test_ids_match_the_key_loop_on_random_sequence_sets(self, horizon):
        rng = np.random.default_rng(horizon)
        full = full_sequence_set(horizon)
        for scenario, order in [("a", None)] + [(s, k) for s in "bc" for k in range(1, horizon + 1)]:
            classes = ClassMap(horizon, scenario, order)
            for size in (1, len(full) // 2, len(full)):
                picked = [full[i] for i in rng.permutation(len(full))[:size]]
                keys = [[(t, classes.key(t, z)) for t in range(1, horizon + 1)] for z in picked]
                expected = sorted({key for row in keys for key in row})
                got, ids = classes.ids(picked)
                assert got == expected
                assert ids.tolist() == [[expected.index(key) for key in row] for row in keys]

    @pytest.mark.parametrize("sequences", [["ABA", "B"], ["AB", "B"], ["AB", "BAA"]])
    def test_ids_refuse_a_sequence_of_another_length(self, sequences):
        # ABA was truncated to AB, and B given the period-2 class (2, "")
        wrong = next(z for z in sequences if len(z) != 2)
        with pytest.raises(ValueError, match=f"^sequence {wrong} has length {len(wrong)}, expected 2$"):
            ClassMap(2, "b", 1).ids(sequences)

    @pytest.mark.parametrize("sequences", [["AC", "AB"], ["AB", "B\u00e9"], ["AB", "A\x00"]])
    def test_ids_refuse_a_sequence_with_other_letters(self, sequences):
        # AC was given the period-2 class (2, "C")
        wrong = next(z for z in sequences if set(z) - {"A", "B"})
        with pytest.raises(ValueError, match="^" + re.escape(f"sequence {wrong!r} uses symbols outside ('A', 'B')")):
            ClassMap(2, "b", 1).ids(sequences)

    def test_ids_keep_input_order_and_repeated_rows(self):
        keys, ids = ClassMap(2, "b", 1).ids(["BA", "AB", "BA"])
        assert keys == [(1, "A"), (1, "B"), (2, "A"), (2, "B")]
        assert ids.tolist() == [[1, 2], [0, 3], [1, 2]]

    def test_unknown_scenario_and_bad_orders_rejected(self):
        for args in (("d", 3, None), ("b", 3, None), ("c", 3, 0), ("b", 3, 4)):
            with pytest.raises(ValueError):
                assemble(args[0], args[1], full_sequence_set(args[1]), args[2])


def _restrictions():
    """A class-built restriction with chain and cycle rows, and a
    restriction on given rows."""
    layout = CoefficientLayout(3, full_sequence_set(3))
    rows = np.random.default_rng(4).normal(size=(3, layout.size))
    return [assemble("c", 3, layout.scope, 1), RestrictionMatrix(layout, rows), restriction_from_rows(layout, rows)]


class TestSharedRestriction:
    def test_assemble_shares_one_restriction_per_model(self):
        scope = full_sequence_set(3)
        shared = assemble("b", 3, scope, 1)
        assert assemble("b", 3, [z.letters for z in scope], 1) is shared
        assert assemble("b", 3, scope[::-1], 1) is shared
        assert ClassMap(3, "b", 1).restriction(CoefficientLayout(3, scope[1:] + scope[:1])) is shared
        assert assemble("b", 3, scope, 2) is not shared
        assert assemble("c", 3, scope, 1) is not shared

    def test_scenario_a_carries_no_carryover_order(self):
        scope = full_sequence_set(2)
        assert ClassMap(2, "a", 2) == ClassMap(2, "a") and ClassMap(2, "a", 2).order is None
        restriction = assemble("a", 2, scope, 2)
        assert restriction.carryover_order is None
        assert assemble("a", 2, scope) is restriction

    @pytest.mark.parametrize("which", range(3))
    def test_arrays_and_attributes_are_read_only(self, which):
        restriction = _restrictions()[which]
        record = restriction.implemented(full_sequence_set(3)[::2])
        arrays = [restriction.class_ids, restriction.class_basis, restriction._pairs, restriction._rows]
        for array in arrays + [restriction._columns, record.hit, record.local]:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        for name in ("scenario", "class_basis", "layout", "verdicts"):
            with pytest.raises(AttributeError):
                setattr(restriction, name, None)
        assert not hasattr(restriction, "verdicts")

    @pytest.mark.parametrize(
        "rows",
        [[[1, -1, 0, 0], [2, -2, 0, 0]], [[0, 0, 0, 0]], np.eye(4).tolist() + [[1, 1, 0, 0]]],
        ids=["repeated-row", "zero-row", "more-rows-than-columns"],
    )
    def test_rows_without_full_row_rank_are_refused(self, rows):
        layout = CoefficientLayout(2, ("AB", "BA"))
        with pytest.raises(ValueError, match="full row rank.*restriction_from_rows"):
            RestrictionMatrix(layout, rows)
        reduced = restriction_from_rows(layout, rows)
        assert reduced.dimension == layout.size - reduced.n_rows

    def test_given_rows_are_copied_not_frozen(self):
        layout = CoefficientLayout(2, full_sequence_set(2))
        rows = np.ones((1, layout.size))
        restriction = RestrictionMatrix(layout, rows)
        rows[0, 0] = 2.0
        assert restriction.matrix[0, 0] == 1.0

    @pytest.mark.parametrize("which", range(3))
    def test_copies_through_pickle_and_deepcopy(self, which):
        restriction = _restrictions()[which]
        observed = full_sequence_set(3)[::2]
        record = restriction.implemented(observed)
        for copied in (pickle.loads(pickle.dumps(restriction)), copy.deepcopy(restriction)):
            assert copied is not restriction
            assert copied.layout == restriction.layout and copied.scenario == restriction.scenario
            assert copied.carryover_order == restriction.carryover_order
            for name in ("class_ids", "class_basis", "matrix", "_pairs", "_rows", "_columns"):
                assert np.array_equal(getattr(copied, name), getattr(restriction, name)), name
            again = copied.implemented(observed)
            assert again.rank == record.rank
            assert np.array_equal(again.hit, record.hit) and np.array_equal(again.local, record.local)

    def test_one_record_per_implemented_set(self):
        restriction = assemble("b", 2, full_sequence_set(2), 1)
        two = CrossoverDesign(2, {"AB": 4, "BA": 6}).observed
        record = restriction.implemented(two)
        assert restriction.implemented(CrossoverDesign(2, {"AB": 40, "BA": 1}).observed) is record
        assert record.rank == restriction.layout.size
        assert [restriction.class_ids[restriction.layout.block(z)].tolist() for z in two] == record.hit[record.local].tolist()

    def test_the_cache_holds_at_most_its_bound(self):
        bound = constraints.RESTRICTION_CACHE_SIZE
        full = full_sequence_set(5)
        first = assemble("b", 5, full[:1], 1)
        for size in range(2, bound + 3):
            assemble("b", 5, full[:size], 1)
        assert ClassMap._shared.cache_info().currsize == bound
        assert assemble("b", 5, full[:1], 1) is not first

    def test_a_restriction_too_large_to_keep_is_built_on_each_call(self):
        # T=200, 8 sequences, k=2 under c: the 721 x 204 null basis and the
        # 517 x 721 cycle rows hold about 4 MB
        scope = ["".join(w) for w in np.random.default_rng(2).choice(list("AB"), size=(8, 200))]
        large = assemble("c", 200, scope, 2)
        assert large.class_basis.nbytes > constraints.SHARED_RESTRICTION_BYTES
        assert assemble("c", 200, scope, 2) is not large
        assert ClassMap._shared.cache_info().currsize == 0
        small = assemble("c", 200, scope[:1], 2)
        assert assemble("c", 200, scope[:1], 2) is small

    @pytest.mark.parametrize("horizon", [200, 400])
    def test_a_long_horizon_restriction_holding_o_p_arrays_is_shared(self, horizon):
        # under b the restriction holds O(p) ids and scales, no q x q array
        scope = ["".join(w) for w in np.random.default_rng(2).choice(list("AB"), size=(8, horizon))]
        shared = assemble("b", horizon, scope, 2)
        assert shared.null_basis is None and shared._rows.size == 0
        assert assemble("b", horizon, scope, 2) is shared
        assert assemble("b", horizon, sorted(scope, reverse=True), 2) is shared
        assert ClassMap._shared.cache_info().currsize >= 1

    @pytest.mark.parametrize(
        "scenario,horizon,order,n",
        [("a", 8, None, 256), ("a", 10, None, 1024), ("b", 400, 2, 8), ("b", 800, 2, 8), ("c", 7, 2, 128), ("c", 100, 1, 8)],
    )
    def test_a_shared_restriction_holds_at_most_the_bound(self, scenario, horizon, order, n):
        # its arrays plus a full set of records of the largest implemented sets
        rng = np.random.default_rng(horizon)
        scope = full_sequence_set(horizon) if n == 2**horizon else sequence_set(
            "".join(w) for w in rng.choice(list("AB"), size=(n, horizon))
        )
        restriction = assemble(scenario, horizon, scope, order)
        assert assemble(scenario, horizon, scope, order) is restriction
        for size in range(len(scope), len(scope) - constraints.IMPLEMENTED_SETS_KEPT, -1):
            restriction.implemented(scope[:size])
        arrays = [restriction.class_ids, restriction.class_scale, restriction._pairs, restriction._rows, restriction._columns]
        arrays += [] if restriction.null_basis is None else [restriction.null_basis]
        arrays += [array for record in restriction._sets.values() for array in record[:2]]
        assert sum(array.nbytes for array in arrays) <= constraints.SHARED_RESTRICTION_BYTES

    def test_the_records_kept_are_at_most_their_bound(self):
        restriction = assemble("b", 3, full_sequence_set(3), 1)
        sets = [tuple(s) for s in itertools.combinations(full_sequence_set(3), 2)]
        records = [restriction.implemented(s) for s in sets]
        kept = constraints.IMPLEMENTED_SETS_KEPT
        assert len(sets) > kept and list(restriction._sets) == sets[-kept:]
        assert restriction.implemented(sets[-1]) is records[-1]
        again = restriction.implemented(sets[0])
        assert again is not records[0] and again.rank == records[0].rank


def _package_nodes(skip=()):
    """(file name, node) for every AST node of the package's modules."""
    for path in sorted(Path(crossover.__file__).parent.glob("*.py")):
        if path.name not in skip:
            for node in ast.walk(ast.parse(path.read_text())):
                yield path.name, node


def test_window_helpers_are_called_only_where_classes_are_defined():
    # a (period, sequence) pair is mapped to its assumption class in one
    # place, the class map; other modules ask the map
    offenders = []
    for path, node in _package_nodes(skip={"sequences.py", "constraints.py"}):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ("subsequence", "trailing_window"):
                offenders.append(f"{path}:{node.lineno} {name}")
    assert offenders == []


def test_no_module_reads_a_p_wide_view():
    # the package keeps Z = E Q and the sandwich at class width: the dense
    # p x d basis, the p x p maps Z M^-1 Z' and Z M^-1 meat M^-1 Z', and
    # X'X + C'C are test references only (see conftest)
    names = {"gram_plus_restriction", "ehw_covariance"}
    attributes = names | {"u11", "ehw", "basis"}
    offenders = []
    for path, node in _package_nodes():
        if isinstance(node, ast.Attribute):
            name, banned = node.attr, attributes
        else:
            # a name, a def or an imported alias
            name, banned = getattr(node, "id", None) or getattr(node, "name", None), names
        if name in banned:
            offenders.append(f"{path}:{node.lineno} {name}")
    assert offenders == []
