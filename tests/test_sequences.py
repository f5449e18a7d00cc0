import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossover import (
    CrossoverDesign,
    EnumerationSizeError,
    HorizonError,
    TreatmentSequence,
    as_sequence,
    assemble,
    code_template,
    design_from_text,
    design_to_text,
    enumerate_assignments,
    enumerate_codes,
    full_sequence_set,
    instantaneous_effect,
    is_identifiable,
    n_assignments,
    sample_assignment,
    sample_code_rows,
    sample_codes,
    sequence_set,
    subsequence,
)

words = st.text(alphabet="AB", min_size=1, max_size=8)


class TestTreatmentSequence:
    def test_rejects_foreign_symbols(self):
        with pytest.raises(ValueError):
            TreatmentSequence("AC")

    def test_lexicographic_order(self):
        assert as_sequence("AA") < as_sequence("AB") < as_sequence("BA") < as_sequence("BB")

    def test_letter_is_one_based(self):
        z = as_sequence("ABBA")
        assert z.letter(1) == "A"
        assert z.letter(4) == "A"
        with pytest.raises(IndexError):
            z.letter(5)


class TestSequenceIsItsWord:
    def test_equals_hashes_and_sorts_as_the_word(self):
        z = TreatmentSequence("AB")
        assert isinstance(z, str)
        assert z == "AB" and "AB" == z and z != "BA"
        assert hash(z) == hash("AB")
        assert len({z, "AB"}) == 1
        assert {"AB": 3}[z] == 3 and {z: 3}["AB"] == 3
        mixed = ["BA", TreatmentSequence("AA"), "BB", TreatmentSequence("AB")]
        assert sorted(mixed) == sorted(map(str, mixed)) == ["AA", "AB", "BA", "BB"]

    def test_repr_is_unchanged(self):
        assert repr(TreatmentSequence("AB")) == "TreatmentSequence(letters='AB')"
        assert repr([TreatmentSequence("")]) == "[TreatmentSequence(letters='')]"

    def test_str_and_letters_are_plain_strings(self):
        z = TreatmentSequence("ABA")
        for word in (str(z), z.letters, f"{z}"):
            assert type(word) is str and word == "ABA"

    @pytest.mark.parametrize("bad", ["AC", "ab", "A B", "1"])
    def test_constructor_and_concatenation_reject_foreign_letters(self, bad):
        with pytest.raises(ValueError, match="uses symbols outside"):
            TreatmentSequence(bad)
        with pytest.raises(ValueError, match="uses symbols outside"):
            TreatmentSequence("AB") + bad

    def test_concatenation_is_a_checked_sequence(self):
        for tail in ("BA", TreatmentSequence("BA"), ""):
            joined = TreatmentSequence("AB") + tail
            assert type(joined) is TreatmentSequence and joined == "AB" + tail

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        z = TreatmentSequence("ABB")
        again = pickle.loads(pickle.dumps(z, protocol))
        assert type(again) is TreatmentSequence and again == z

    def test_copies_round_trip(self):
        z = TreatmentSequence("BAB")
        for again in (copy.copy(z), copy.deepcopy(z), copy.deepcopy([z])[0]):
            assert type(again) is TreatmentSequence and again == z

    def test_instances_accept_no_attributes(self):
        z = TreatmentSequence("AB")
        with pytest.raises(AttributeError):
            z.extra = 1
        with pytest.raises(AttributeError):
            z.letters = "BA"
        assert not hasattr(z, "__dict__")

    def test_a_scope_spelling_one_sequence_both_ways_keeps_it_once(self):
        scope = ("AB", TreatmentSequence("AB"), "BA")
        design = CrossoverDesign(2, {"AB": 3, "BA": 3}, scope=scope)
        assert design.scope == ("AB", "BA")
        assert is_identifiable(design, assemble("b", 2, design.scope, 1)).identifiable

    def test_an_estimand_over_that_scope_weighs_each_sequence_once(self):
        spec = instantaneous_effect(1, "", ("AB", TreatmentSequence("AB"), "BA"))
        assert spec.scope == ("AB", "BA")
        assert spec.weight("AB").tolist() == [[1.0, 0.0]]
        assert spec.weight("BA").tolist() == [[-1.0, 0.0]]


class TestFullSequenceSet:
    def test_base_case(self):
        assert [str(z) for z in full_sequence_set(1)] == ["A", "B"]

    def test_two_periods(self):
        assert [str(z) for z in full_sequence_set(2)] == ["AA", "AB", "BA", "BB"]

    def test_three_periods_cardinality_and_order(self):
        seqs = [str(z) for z in full_sequence_set(3)]
        assert len(seqs) == 8
        assert seqs == sorted(seqs)

    @pytest.mark.parametrize("horizon", [0, -1, 17])
    def test_horizon_bounds(self, horizon):
        with pytest.raises(HorizonError):
            full_sequence_set(horizon)


class TestSequenceSet:
    def test_orders_lexicographically(self):
        got = sequence_set(["BB", "AB", "BA"])
        assert got == ("AB", "BA", "BB")
        assert all(type(z) is TreatmentSequence for z in got)

    def test_drops_repeated_and_mixed_spellings(self):
        assert sequence_set(["BA", "AB", TreatmentSequence("AB"), "BA"], 2) == ("AB", "BA")

    @pytest.mark.parametrize("bad", ["AC", "ab"])
    def test_checks_letters(self, bad):
        with pytest.raises(ValueError, match="uses symbols outside"):
            sequence_set(["AA", bad])

    def test_takes_a_mappings_keys(self):
        assert sequence_set({"BA": 1, TreatmentSequence("AB"): 2}) == ("AB", "BA")

    @pytest.mark.parametrize("horizon", [None, 3])
    def test_empty_input_is_the_empty_set(self, horizon):
        assert sequence_set([], horizon) == ()

    @pytest.mark.parametrize(
        "sequences,horizon,message",
        [
            (["AB", "ABA"], 2, "sequence ABA has length 3, expected 2"),
            (["ABA", "BAB"], 2, "sequence ABA has length 3, expected 2"),
            (["AA", "AB", "BA", "BAA"], None, "sequence BAA has length 3, expected 2"),
            (["B", "AA"], None, "sequence B has length 1, expected 2"),
        ],
    )
    def test_a_sequence_of_another_length_is_refused(self, sequences, horizon, message):
        with pytest.raises(ValueError) as info:
            sequence_set(sequences, horizon)
        assert str(info.value) == message

    def test_the_horizon_is_checked_even_when_the_set_agrees_with_itself(self):
        assert sequence_set(("ABA", "BAB"), 3) == ("ABA", "BAB")
        with pytest.raises(ValueError, match="expected 4"):
            sequence_set(("ABA", "BAB"), 4)


class TestSubsequence:
    def test_interior_window(self):
        assert str(subsequence("ABBA", 1, 3)) == "ABB"

    def test_tail_window(self):
        assert str(subsequence("ABBA", 3, 4)) == "BA"

    def test_reversed_indices_give_empty_word(self):
        assert len(subsequence("ABBA", 2, 1)) == 0

    @pytest.mark.parametrize("t1,t2", [(0, 2), (1, 5), (5, 5)])
    def test_out_of_range(self, t1, t2):
        with pytest.raises(IndexError):
            subsequence("ABBA", t1, t2)

    @given(words, st.data())
    @settings(max_examples=50, deadline=None)
    def test_composition(self, word, data):
        horizon = len(word)
        a = data.draw(st.integers(1, horizon))
        b = data.draw(st.integers(a, horizon))
        inner = subsequence(word, a, b)
        k = data.draw(st.integers(1, len(inner)))
        assert subsequence(inner, 1, k) == subsequence(word, a, a + k - 1)


class TestCrossoverDesign:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            CrossoverDesign(2, {"AB": 0})

    @pytest.mark.parametrize("count", [2.5, np.float64(3.7), float("nan"), float("inf"), "3", None])
    def test_non_integer_count_is_refused_naming_its_sequence(self, count):
        with pytest.raises(ValueError, match="count for AB must be a whole number"):
            CrossoverDesign(2, {"BA": 3, "AB": count})

    @pytest.mark.parametrize("count", [3, np.int64(3), np.uint8(3), 3.0, np.float64(3.0), np.float32(3.0)])
    def test_integral_counts_are_kept(self, count):
        design = CrossoverDesign(2, {"AB": count, "BA": 2})
        assert list(design.counts.values()) == [3, 2]
        assert all(type(n) is int for n in design.counts.values())

    @pytest.mark.parametrize(
        "counts,scope,message",
        [
            ({"AB": 2, "ABA": 2}, (), "sequence ABA has length 3, expected 2"),
            ({"AB": 2}, ("AB", "BAB"), "sequence BAB has length 3, expected 2"),
        ],
    )
    def test_sequences_of_another_length_share_one_message(self, counts, scope, message):
        with pytest.raises(ValueError) as info:
            CrossoverDesign(2, counts, scope=scope)
        assert str(info.value) == message

    def test_scope_contains_observed(self):
        with pytest.raises(ValueError):
            CrossoverDesign(2, {"AB": 2}, scope=("BA",))

    def test_default_scope_is_full(self):
        design = CrossoverDesign(2, {"AB": 2, "BA": 2})
        assert [str(z) for z in design.scope] == ["AA", "AB", "BA", "BB"]

    def test_text_round_trip(self):
        design = CrossoverDesign(3, {"AAB": 4, "ABA": 5, "BAA": 6})
        again = design_from_text(design_to_text(design))
        assert again == design

    def test_text_with_comments(self):
        design = design_from_text("# demo\nT = 2\nAB 3\nBA 4\n")
        assert design.horizon == 2
        assert design.count("BA") == 4

    @pytest.mark.parametrize(
        "text,message",
        [
            ("T 2\nAB x\n", "line 2: count of AB must be an integer, got 'x'"),
            ("# demo\nT two\nAB 3\n", "line 2: horizon must be an integer, got 'two'"),
            ("T 2\nAB 3\n\nBA 1.5\n", "line 4: count of BA must be an integer, got '1.5'"),
        ],
    )
    def test_non_integer_horizon_or_count_names_its_line(self, text, message):
        with pytest.raises(ValueError) as info:
            design_from_text(text)
        assert str(info.value) == message


class TestSampleAssignment:
    def test_degenerate_design(self):
        design = CrossoverDesign(2, {"AB": 3})
        assignment = sample_assignment(design, 0)
        assert all(str(z) == "AB" for z in assignment.sequences)

    def test_same_seed_same_assignment(self):
        design = CrossoverDesign(2, {"AB": 4, "BA": 4})
        first = sample_assignment(design, 123)
        second = sample_assignment(design, 123)
        assert first.sequences == second.sequences

    def test_counts_always_match_design(self, rng):
        design = CrossoverDesign(2, {"AA": 2, "AB": 3, "BA": 1})
        for seed in range(25):
            assignment = sample_assignment(design, seed)
            tally = {}
            for z in assignment.sequences:
                tally[z] = tally.get(z, 0) + 1
            assert tally == design.counts

    def test_codes_follow_the_label_permutation_stream(self):
        # the draw is the one numpy stream a label-list permutation uses,
        # so every seeded study keeps its assignments
        design = CrossoverDesign(2, {"AA": 2, "AB": 3, "BA": 1, "BB": 4})
        labels = [z for z, n in design.counts.items() for _ in range(n)]
        template = code_template(design)
        for seed in (0, 7, [3, 11]):
            order = np.random.default_rng(seed).permutation(len(labels))
            expected = tuple(labels[i] for i in order)
            codes = sample_codes(template, seed)
            assert tuple(design.observed[c] for c in codes) == expected
            assert sample_assignment(design, seed).sequences == expected

    def test_unit_marginal_frequency(self):
        design = CrossoverDesign(2, {"AB": 2, "BA": 2})
        ab = as_sequence("AB")
        hits = 0
        draws = 10_000
        for seed in range(draws):
            hits += sample_assignment(design, seed).sequences[0] == ab
        assert abs(hits / draws - 0.5) < 0.02


class TestChunkStreams:
    """``sample_code_rows`` recomputes numpy's seeding for a chunk of
    ``[seed, r]`` streams; each row must be the reference draw, bitwise."""

    TEMPLATES = {
        "uint8": np.repeat(np.arange(4), [3, 1, 4, 2]).astype(np.uint8),
        "intp": np.repeat(np.arange(3), [7, 5, 9]).astype(np.intp),
    }

    @staticmethod
    def reference(template, seed, start, stop):
        return np.stack([sample_codes(template, [seed, r]) for r in range(start, stop)])

    @pytest.mark.parametrize("dtype", ["uint8", "intp"])
    @pytest.mark.parametrize("start,stop", [(0, 7), (5, 12), (9, 10), (2**32 - 3, 2**32)])
    @pytest.mark.parametrize(
        "seed",
        [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, 2**100 + 3, np.int64(2**40 + 9), True, False],
    )
    def test_rows_are_the_reference_draws(self, seed, start, stop, dtype):
        template = self.TEMPLATES[dtype]
        rows = sample_code_rows(template, seed, start, stop)
        expected = self.reference(template, seed, start, stop)
        assert rows.dtype == expected.dtype == template.dtype
        assert np.array_equal(rows, expected)

    def test_many_seeds_against_default_rng(self):
        template = np.arange(50)
        for seed in np.random.default_rng(11).integers(0, 2**63 - 1, size=20).tolist():
            expected = [np.random.default_rng([seed, r]).permutation(50) for r in range(3, 8)]
            assert np.array_equal(sample_code_rows(template, seed, 3, 8), expected)

    def test_empty_range(self):
        rows = sample_code_rows(self.TEMPLATES["uint8"], 3, 4, 4)
        assert rows.shape == (0, 10) and rows.dtype == np.uint8

    @pytest.mark.parametrize("start,stop", [(2**32, 2**32 + 1), (2**32 - 1, 2**32 + 1), (-1, 2), (3, 2)])
    def test_indices_outside_one_word_are_refused_by_name(self, start, stop):
        with pytest.raises(ValueError, match=r"stream indices r in .* must lie in \[0, 2\*\*32\]"):
            sample_code_rows(self.TEMPLATES["uint8"], 3, start, stop)

    def test_seed_errors_are_numpys(self):
        template = self.TEMPLATES["uint8"]
        for seed, error in ((-1, ValueError), (2.5, TypeError)):
            with pytest.raises(error) as ours:
                sample_code_rows(template, seed, 0, 1)
            with pytest.raises(error) as numpys:
                np.random.default_rng([seed, 0])
            assert str(numpys.value) in str(ours.value)


class TestEnumerateAssignments:
    def test_count_matches_multinomial(self):
        design = CrossoverDesign(2, {"AB": 2, "BA": 2})
        assert n_assignments(design) == 6
        items = list(enumerate_assignments(design))
        assert len(items) == 6
        assert len({a.sequences for a in items}) == 6

    def test_single_sequence(self):
        design = CrossoverDesign(2, {"AB": 2})
        assert [a.sequences for a in enumerate_assignments(design)] == [
            (as_sequence("AB"), as_sequence("AB"))
        ]

    @pytest.mark.parametrize(
        "counts",
        [{"AB": 2}, {"AB": 2, "BA": 2}, {"AA": 2, "AB": 1, "BB": 2}, {"AA": 1, "AB": 1, "BA": 1, "BB": 1}],
    )
    def test_code_rows_are_the_sorted_distinct_permutations(self, counts):
        design = CrossoverDesign(2, counts)
        codes = enumerate_codes(design)
        expected = sorted(set(itertools.permutations(code_template(design).tolist())))
        assert [tuple(row) for row in codes.tolist()] == expected
        observed = design.observed
        assert [a.sequences for a in enumerate_assignments(design)] == [
            tuple(observed[c] for c in row) for row in expected
        ]

    def test_four_distinct_sequences(self):
        design = CrossoverDesign(2, {"AA": 1, "AB": 1, "BA": 1, "BB": 1})
        assert len(list(enumerate_assignments(design))) == 24

    def test_refuses_blowup(self):
        design = CrossoverDesign(1, {"A": 15, "B": 15})
        with pytest.raises(EnumerationSizeError):
            enumerate_assignments(design)
        with pytest.raises(EnumerationSizeError):
            enumerate_codes(design)

    def test_sampling_is_uniform_over_enumeration(self):
        # chi-squared goodness of fit over the 6 assignments, p > 0.001
        from scipy import stats

        design = CrossoverDesign(2, {"AB": 2, "BA": 2})
        index = {a.sequences: i for i, a in enumerate(enumerate_assignments(design))}
        counts = np.zeros(len(index))
        draws = 100_000
        base = np.random.default_rng(2718)
        for seed in base.integers(0, 2**63 - 1, size=draws):
            counts[index[sample_assignment(design, int(seed)).sequences]] += 1
        statistic = float(((counts - draws / 6) ** 2 / (draws / 6)).sum())
        assert stats.chi2.sf(statistic, df=5) > 0.001
