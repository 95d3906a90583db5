from __future__ import annotations

import copy
import math
import operator
import pickle
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patsim.engine import RunConfig
from patsim.evaluation import (
    AnnotationRecord,
    ValidationSet,
    _tau_b,
    cluster_precision_at_k,
    evaluate_config,
    inter_annotator_agreement,
    kendall_tau_b,
    load_annotations,
    mean_annotation,
    save_annotations,
)
from patsim.exceptions import DegenerateInput, LengthMismatch, ParseError, TooShort
from patsim.segmenter import CATEGORY_NAMES
from patsim.synth import load_assignment_csv, synthesize_validation, write_assignment_csv

from conftest import dense_similarity
from oracles import agreement_reference, evaluate_reference, kendall_tau_b_reference


class TestKendallTauB:
    def test_perfect_agreement(self):
        assert kendall_tau_b([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]) == 1.0

    def test_perfect_reversal(self):
        assert kendall_tau_b([1, 2, 3], [3, 2, 1]) == -1.0

    def test_tied_example(self):
        # pairs: (0,1) tied in x, (1,2) tied in y, (0,2) concordant;
        # tau = 1 / sqrt(2 * 2) = 0.5, confirmed by the loop oracle
        assert kendall_tau_b_reference([1, 1, 2], [1, 2, 2]) == 0.5
        assert kendall_tau_b([1, 1, 2], [1, 2, 2]) == 0.5

    def test_matches_oracle_exactly_on_random_ties(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 51))
            spread = int(rng.integers(1, 12))
            x = rng.integers(0, spread, n)
            y = rng.integers(0, spread, n)
            want = kendall_tau_b_reference(list(x), list(y))
            got = kendall_tau_b(x, y)
            assert got == want  # bitwise: identical counts, identical formula

    def test_all_tied_is_undefined(self):
        assert kendall_tau_b([3, 3, 3], [1, 2, 3]) is None
        assert kendall_tau_b([1, 2, 3], [7, 7, 7]) is None

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            kendall_tau_b([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(TooShort):
            kendall_tau_b([1], [2])

    @pytest.mark.parametrize("x, y", [
        ([math.nan, 1, 2], [1, 2, 3]),
        ([1, 2, 3], [1, math.nan, 3]),
        ([1, 2, math.inf], [1, 2, 3]),
        ([1, 2, 3], [-math.inf, 2, 3]),
    ], ids=["nan-x", "nan-y", "inf-x", "inf-y"])
    def test_non_finite_rejected(self, x, y):
        # a NaN has no rank: its pairs would silently count as ties
        with pytest.raises(DegenerateInput, match="finite"):
            kendall_tau_b(x, y)

    def test_antisymmetric_under_reversal_without_ties(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 20))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            assert kendall_tau_b(x, -y) == pytest.approx(
                -kendall_tau_b(x, y), abs=1e-15
            )

    @given(
        st.lists(st.integers(-50, 50), min_size=2, max_size=30),
        st.lists(st.integers(-50, 50), min_size=2, max_size=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_monotone_transform(self, xs, ys):
        n = min(len(xs), len(ys))
        x = np.array(xs[:n], dtype=float)
        y = np.array(ys[:n], dtype=float)
        base = kendall_tau_b(x, y)
        # strictly increasing map: ranks unchanged, counts identical
        stretched = kendall_tau_b(3.0 * x + 11.0, np.exp(y / 50.0))
        assert base == stretched


# one slot of a masked row: grade, model score, and whether it counts
SLOT = st.tuples(st.sampled_from([0.0, 1.0, 4 / 3, 2.5, 3.0]),
                 st.sampled_from([-0.5, 0.0, 0.1, 0.2, 1 / 3]), st.booleans())


class TestBatchedTauB:
    @given(st.lists(st.lists(SLOT, min_size=2, max_size=9), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_the_scalar_and_the_oracle_bitwise(self, rows):
        width = max(map(len, rows))
        padded = [row + [(0.0, 0.0, False)] * (width - len(row)) for row in rows]
        x, y, valid = (np.array([[slot[k] for slot in row] for row in padded])
                       for k in range(3))
        x = np.where(valid, x, np.nan)  # masked grades are NaN, as in the layout
        taus, counts = _tau_b(x, y, valid)
        for r, row in enumerate(rows):
            kept = [(a, b) for a, b, ok in row if ok]
            assert counts[r] == len(kept)
            if len(kept) < 2:
                assert math.isnan(taus[r])
                continue
            want = kendall_tau_b_reference(*zip(*kept))
            assert kendall_tau_b(*zip(*kept)) == want
            assert (None if math.isnan(taus[r]) else float(taus[r])) == want


def tiny_validation(scores_by_annotator):
    """One pivot, candidates r1..rN, one category (Medication)."""
    relevant_count = len(next(iter(scores_by_annotator.values())))
    relevants = [f"r{i}" for i in range(relevant_count)]
    records = [
        AnnotationRecord(annotator, "pivot", relevants[i], "Medication", score)
        for annotator, scores in scores_by_annotator.items()
        for i, score in enumerate(scores)
    ]
    return ValidationSet(records)


class TestMeanAnnotation:
    def test_plain_mean(self):
        vs = tiny_validation({"a1": [7, 0], "a2": [8, 0], "a3": [9, 0]})
        assert mean_annotation(vs, "pivot", "r0", "Medication") == 8.0

    def test_incomparable_excluded(self):
        vs = tiny_validation({"a1": [7, 0], "a2": [-1, 0], "a3": [9, 0]})
        assert mean_annotation(vs, "pivot", "r0", "Medication") == 8.0

    def test_all_incomparable_is_undefined(self):
        vs = tiny_validation({"a1": [-1, 0], "a2": [-1, 0], "a3": [-1, 0]})
        assert mean_annotation(vs, "pivot", "r0", "Medication") is None

    def test_missing_record_is_undefined(self):
        vs = tiny_validation({"a1": [5, 5]})
        assert mean_annotation(vs, "pivot", "other", "Medication") is None


def sim_for(ids, pair_scores, mmethod="mms"):
    n = len(ids)
    scores = np.full((n, n), np.nan)
    defined = np.zeros((n, n), bool)
    np.fill_diagonal(scores, 1.0)
    np.fill_diagonal(defined, True)
    index = {pid: i for i, pid in enumerate(ids)}
    for (a, b), v in pair_scores.items():
        i, j = index[a], index[b]
        if v is not None:
            scores[i, j] = scores[j, i] = v
            defined[i, j] = defined[j, i] = True
    return dense_similarity(ids, scores, defined,
                            RunConfig(filter=False, vmethod="lsa050", mmethod=mmethod))


class TestEvaluateConfig:
    def annotations(self):
        return tiny_validation({
            "a1": [9, 6, 3, 1],
            "a2": [8, 7, 2, 2],
        })

    def model_scores(self, values):
        ids = ["pivot", "r0", "r1", "r2", "r3"]
        pairs = {("pivot", f"r{i}"): v for i, v in enumerate(values)}
        return sim_for(ids, pairs)

    def test_scores_equal_to_annotations_give_tau_one(self):
        vs = self.annotations()
        means = [mean_annotation(vs, "pivot", f"r{i}", "Medication") for i in range(4)]
        result = evaluate_config(self.model_scores(means), vs, "Medication")
        assert result.mean == pytest.approx(1.0)

    def test_negated_scores_give_minus_one(self):
        vs = self.annotations()
        means = [mean_annotation(vs, "pivot", f"r{i}", "Medication") for i in range(4)]
        result = evaluate_config(
            self.model_scores([-m for m in means]), vs, "Medication"
        )
        assert result.mean == pytest.approx(-1.0)

    def test_undefined_pairs_excluded_and_counted(self):
        vs = self.annotations()
        result = evaluate_config(
            self.model_scores([0.9, None, 0.3, 0.1]), vs, "Medication"
        )
        assert result.excluded_pairs == 1
        assert result.mean is not None

    def test_pivot_with_too_few_usable_candidates_skipped(self):
        vs = self.annotations()
        result = evaluate_config(
            self.model_scores([0.9, None, None, None]), vs, "Medication"
        )
        assert result.skipped_pivots == ["pivot"]
        assert result.mean is None

    def test_invariant_under_monotone_rescaling(self):
        vs = self.annotations()
        base = evaluate_config(
            self.model_scores([0.9, 0.5, 0.2, 0.1]), vs, "Medication"
        )
        rescaled = evaluate_config(
            self.model_scores([math.tanh(10 * v) for v in (0.9, 0.5, 0.2, 0.1)]),
            vs, "Medication",
        )
        assert base.mean == rescaled.mean


def oracle_cases():
    """Validation sets with incomparable judgments and unequal candidate
    counts, each with a matrix that lacks a candidate and a pivot and
    leaves some pairs undefined."""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        ids = [f"p{k:02d}" for k in range(30)]
        vs = synthesize_validation({pid: k % 3 for k, pid in enumerate(ids)},
                                   n_pivots=6, per_pivot=6, n_annotators=3, noise=2.0,
                                   incomparable_rate=0.3, seed=seed)
        kept = {(p, rel) for k, (p, rels) in enumerate(vs.relevants.items())
                for rel in rels[:2 + (k + seed) % 5]}
        vs = ValidationSet([r for r in vs.annotations
                            if (r.pivot_id, r.relevant_id) in kept])
        missing = {vs.pivots[seed % 6], vs.relevants[vs.pivots[(seed + 1) % 6]][0]}
        known = [pid for pid in ids if pid not in missing]
        scores = np.round(rng.random((len(known), len(known))), 1)
        pairs = {(a, b): None if rng.random() < 0.15 else float(scores[i, j])
                 for i, a in enumerate(known) for j, b in enumerate(known) if i < j}
        yield vs, sim_for(known, pairs)


class TestAgainstOracle:
    def test_evaluate_config(self):
        excluded = skipped = 0
        for vs, sim in oracle_cases():
            for name in CATEGORY_NAMES:
                result = evaluate_config(sim, vs, name)
                per_pivot, skip, excl, mean = evaluate_reference(sim, vs, name)
                assert result.per_pivot == per_pivot
                assert result.skipped_pivots == skip
                assert result.excluded_pairs == excl
                assert result.mean == mean
                excluded += excl
                skipped += len(skip)
        assert excluded and skipped

    def test_inter_annotator_agreement(self):
        for vs, _ in oracle_cases():
            agreement = inter_annotator_agreement(vs)
            for name in CATEGORY_NAMES:
                assert agreement[name].values == agreement_reference(vs, name)


class TestAgreement:
    def test_identical_annotators_agree_perfectly(self):
        vs = tiny_validation({"a1": [9, 6, 3], "a2": [9, 6, 3]})
        agreement = inter_annotator_agreement(vs)
        summary = agreement["Medication"]
        assert summary.values == [1.0]
        assert summary.median == 1.0
        # categories with no annotations have empty distributions
        assert agreement["Age"].median is None

    def test_all_tied_vector_excluded(self):
        vs = tiny_validation({"a1": [5, 5, 5], "a2": [9, 6, 3]})
        assert inter_annotator_agreement(vs)["Medication"].values == []

    def test_single_annotator_rejected(self):
        vs = tiny_validation({"a1": [9, 6, 3]})
        with pytest.raises(TooShort):
            inter_annotator_agreement(vs)

    def test_agreement_degrades_with_noise(self):
        assignment = {f"p{k:03d}": k % 4 for k in range(60)}
        medians = []
        for noise in (0.2, 1.5, 4.0):
            vs = synthesize_validation(
                assignment, n_pivots=8, per_pivot=5, n_annotators=3,
                noise=noise, seed=11,
            )
            agreement = inter_annotator_agreement(vs)
            values = [
                v for name in CATEGORY_NAMES for v in agreement[name].values
            ]
            medians.append(statistics.median(values))
        assert medians[0] > medians[1] > medians[2]


class TestAnnotationFile:
    def test_round_trip(self, tmp_path):
        assignment = {f"p{k:03d}": k % 3 for k in range(30)}
        vs = synthesize_validation(assignment, n_pivots=4, per_pivot=5, seed=2)
        path = tmp_path / "ann.csv"
        save_annotations(vs, path)
        again = load_annotations(path)
        assert again.pivots == vs.pivots
        assert again.relevants == vs.relevants
        assert again.annotations == vs.annotations

    @pytest.mark.parametrize("prefix", ["p,", 'p"'])
    def test_round_trip_of_ids_that_need_quotes(self, tmp_path, prefix):
        assignment = {f"{prefix}{k:03d}": k % 3 for k in range(30)}
        write_assignment_csv(assignment, tmp_path / "clusters.csv")
        assert load_assignment_csv(tmp_path / "clusters.csv") == assignment
        vs = synthesize_validation(assignment, n_pivots=4, per_pivot=5, seed=2)
        save_annotations(vs, tmp_path / "ann.csv")
        assert load_annotations(tmp_path / "ann.csv").annotations == vs.annotations

    @pytest.mark.parametrize("text, line, match", [
        ("patient_id,group\np1,0\n", None, "columns"),
        ("cluster\n0\n", None, "columns"),
        ("patient_id,cluster\np1,0\np2,two\n", 3, "'two' is not an integer"),
        ("patient_id,cluster\np1,0\np2,1.5\n", 3, "'1.5' is not an integer"),
        ("patient_id,cluster\np1,0\np2\n", 3, "None is not an integer"),
        ("patient_id,cluster\np1,0\np2,1\np1,1\n", 4, "'p1' is listed twice"),
    ], ids=["no-cluster-column", "no-id-column", "word", "fraction", "short-row",
            "repeated-id"])
    def test_bad_assignment_names_path_and_line(self, tmp_path, text, line, match):
        path = tmp_path / "clusters.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=match) as info:
            load_assignment_csv(path)
        assert info.value.path == path and info.value.line == line

    def test_category_by_id(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text(
            "annotator_id,pivot_id,relevant_id,category,score\n"
            "a1,p,r1,5,7\n"
            "a1,p,r2,Medication,3\n"
        )
        vs = load_annotations(path)
        assert all(r.category == "Medication" for r in vs.annotations)

    def test_bad_score_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text(
            "annotator_id,pivot_id,relevant_id,category,score\n"
            "a1,p,r1,Medication,11\n"
            "a1,p,r2,Medication,5\n"
        )
        with pytest.raises(ParseError):
            load_annotations(path)

    def test_unknown_category_names_path_and_line(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text(
            "annotator_id,pivot_id,relevant_id,category,score\n"
            "a1,p,r1,Medication,5\n"
            "a1,p,r2,Nonsense,5\n"
        )
        with pytest.raises(ParseError, match="Nonsense") as info:
            load_annotations(path)
        assert info.value.path == path
        assert info.value.line == 3

    def test_error_line_counts_line_breaks_inside_quoted_ids(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text(
            "annotator_id,pivot_id,relevant_id,category,score\n"
            'a1,"p\nq",r1,Medication,5\n'
            "a1,p,r2,Medication,x\n"
        )
        with pytest.raises(ParseError) as info:
            load_annotations(path)
        assert info.value.line == 4
        assert str(info.value).endswith(f"({path}:4)")

    def test_duplicate_judgment_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text(
            "annotator_id,pivot_id,relevant_id,category,score\n"
            "a1,p,r1,Medication,5\n"
            "a1,p,r2,Medication,5\n"
            "a1,p,r1,Medication,6\n"
        )
        with pytest.raises(ParseError):
            load_annotations(path)

    def test_single_relevant_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text(
            "annotator_id,pivot_id,relevant_id,category,score\n"
            "a1,p,r1,Medication,5\n"
        )
        with pytest.raises(ParseError):
            load_annotations(path)

    def test_pivot_listed_as_its_own_candidate_rejected(self, tmp_path):
        # no pair scores a patient against itself: the diagonal's 1 would
        # always rank that candidate first
        records = [AnnotationRecord("a1", "q", r, "Medication", 5) for r in "qa"]
        with pytest.raises(ParseError, match="'q' is listed as its own candidate"):
            ValidationSet(records)
        path = tmp_path / "ann.csv"
        path.write_text(
            "annotator_id,pivot_id,relevant_id,category,score\n"
            "a1,q,a,Medication,5\n"
            "a1,q,q,Medication,9\n"
            "a1,q,b,Medication,1\n"
        )
        with pytest.raises(ParseError, match="own candidate"):
            load_annotations(path)

    def test_duplicate_annotation_names_path_and_line(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text(
            "annotator_id,pivot_id,relevant_id,category,score\n"
            "a1,q,a,Medication,5\n"
            "a1,q,b,Medication,3\n"
            "a1,q,a,Medication,5\n"
        )
        with pytest.raises(ParseError, match="duplicate annotation") as info:
            load_annotations(path)
        assert info.value.path == path and info.value.line == 4

    @pytest.mark.parametrize("rows, match", [
        ("a1,q,a,Medication,5\n", "need >= 2"),
        ("a1,q,a,Medication,5\na1,q,q,Medication,9\n", "own candidate"),
    ], ids=["one-candidate", "own-candidate"])
    def test_candidate_list_fault_names_the_file(self, tmp_path, rows, match):
        path = tmp_path / "ann.csv"
        path.write_text("annotator_id,pivot_id,relevant_id,category,score\n" + rows)
        with pytest.raises(ParseError, match=match) as info:
            load_annotations(path)
        assert info.value.path == path and info.value.line is None
        assert str(info.value).endswith(f"({path})")

    def test_record_category_is_canonicalised(self):
        records = [AnnotationRecord(a, "q", r, "medication", s)
                   for a, scores in (("a1", (9, 1)), ("a2", (8, 0)))
                   for r, s in zip("ab", scores)]
        assert {r.category for r in records} == {"Medication"}
        assert AnnotationRecord("a1", "q", "a", 5, 3).category == "Medication"
        vs = ValidationSet(records)
        assert mean_annotation(vs, "q", "a", "Medication") == 8.5
        assert inter_annotator_agreement(vs)["Medication"].values == [1.0]

    @pytest.mark.parametrize("score", [5.5, 5.0, True, 11, -2, "5"])
    def test_record_score_must_be_an_integer_in_range(self, score):
        with pytest.raises(ValueError, match="score must be an integer"):
            AnnotationRecord("a1", "q", "a", "Medication", score)

    def test_record_with_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="nonsense"):
            AnnotationRecord("a1", "q", "a", "nonsense", 5)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError):
            load_annotations(path)


class TestSynthesizeValidation:
    def test_full_fill_record_count(self):
        assignment = {f"p{k:03d}": k % 5 for k in range(120)}
        vs = synthesize_validation(
            assignment, n_pivots=10, per_pivot=5, n_annotators=1, seed=4
        )
        # 10 pivots x 5 candidates x 10 categories for one annotator
        assert len(vs.annotations) == 500
        assert all(len(v) == 5 for v in vs.relevants.values())

    def test_deterministic(self):
        assignment = {f"p{k:03d}": k % 3 for k in range(40)}
        a = synthesize_validation(assignment, n_pivots=5, seed=9)
        b = synthesize_validation(assignment, n_pivots=5, seed=9)
        assert a.annotations == b.annotations

    def test_incomparable_rate(self):
        assignment = {f"p{k:03d}": k % 3 for k in range(40)}
        vs = synthesize_validation(
            assignment, n_pivots=5, incomparable_rate=0.3, seed=9
        )
        frac = sum(1 for r in vs.annotations if r.score == -1) / len(vs.annotations)
        assert 0.15 < frac < 0.45


class TestClusterPrecision:
    def test_perfect_block_structure(self):
        ids = [f"p{k}" for k in range(8)]
        assignment = {pid: k // 4 for k, pid in enumerate(ids)}
        pairs = {}
        for i in range(8):
            for j in range(i + 1, 8):
                same = assignment[ids[i]] == assignment[ids[j]]
                pairs[(ids[i], ids[j])] = 0.9 if same else 0.1
        sim = sim_for(ids, pairs)
        assert cluster_precision_at_k(sim, assignment, k=3) == 1.0

    def test_undefined_pairs_never_ranked(self):
        ids = ["a", "b", "c"]
        assignment = {"a": 0, "b": 0, "c": 1}
        pairs = {("a", "b"): None, ("a", "c"): 0.2, ("b", "c"): 0.2}
        sim = sim_for(ids, pairs)
        # for "a" the only defined candidate is "c" (wrong cluster)
        prec = cluster_precision_at_k(sim, assignment, k=1)
        assert prec == pytest.approx((0 + 0 + 0) / 3 + 0, abs=1e-12)


    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        ids = ["a", "b", "c"]
        sim = sim_for(ids, {("a", "b"): 0.5, ("a", "c"): 0.2, ("b", "c"): 0.2})
        with pytest.raises(ValueError, match="k must be >= 1"):
            cluster_precision_at_k(sim, {"a": 0, "b": 0, "c": 1}, k=k)


def test_annotators_are_computed_once():
    vs = synthesize_validation({f"p{i}": i % 2 for i in range(12)}, n_pivots=3,
                               n_annotators=3, seed=2)
    assert vs.annotators == tuple(sorted({r.annotator_id for r in vs.annotations}))
    assert vs.annotators is vs.annotators


class TestFrozenValidationSet:
    """The grades are compiled once and keyed by the pivots' order, so no
    edit after construction may move a tau to another pivot."""

    @pytest.fixture
    def vs(self):
        ids = [f"p{k:02d}" for k in range(20)]
        return synthesize_validation({pid: k % 3 for k, pid in enumerate(ids)},
                                     n_pivots=4, seed=1)

    @pytest.mark.parametrize("edit, error", [
        (lambda vs: vs.pivots.reverse(), AttributeError),
        (lambda vs: setattr(vs, "pivots", list(reversed(vs.pivots))), AttributeError),
        (lambda vs: setattr(vs, "annotations", ()), AttributeError),
        (lambda vs: vs.annotations.append(vs.annotations[0]), AttributeError),
        (lambda vs: operator.setitem(vs.relevants, vs.pivots[0], ()), TypeError),
        (lambda vs: vs.relevants[vs.pivots[0]].append("x"), AttributeError),
        (lambda vs: vs.annotators.sort(), AttributeError),
        (lambda vs: vs._slot.clear(), AttributeError),
        (lambda vs: operator.setitem(vs._grades, (0, 0, 0, 0), 3.0), ValueError),
        (lambda vs: operator.setitem(vs._mean, (0, 0, 0), 3.0), ValueError),
    ], ids=["reverse-pivots", "assign-pivots", "assign-annotations",
            "append-annotation", "set-relevants", "append-candidate",
            "sort-annotators", "clear-slots", "write-grades", "write-mean"])
    def test_every_edit_raises(self, vs, edit, error):
        ids = sorted(vs.patient_ids())
        rng = np.random.default_rng(0)
        sim = sim_for(ids, {(a, b): float(rng.random()) for i, a in enumerate(ids)
                            for b in ids[i + 1:]})
        before = evaluate_config(sim, vs, "Medication").per_pivot
        with pytest.raises(error):
            edit(vs)
        assert evaluate_config(sim, vs, "Medication").per_pivot == before

    def test_pickled_and_copied_as_its_records(self, vs):
        for again in (pickle.loads(pickle.dumps(vs)), copy.deepcopy(vs)):
            assert again == vs and again.annotations == vs.annotations
            assert again.pivots == vs.pivots and again.relevants == vs.relevants
            assert np.array_equal(again._grades, vs._grades, equal_nan=True)
            assert not again._grades.flags.writeable


@pytest.mark.parametrize("field", ["annotator_id", "pivot_id", "relevant_id"])
def test_empty_annotation_id_rejected(tmp_path, field):
    ids = {"annotator_id": "a1", "pivot_id": "q", "relevant_id": "r1", field: ""}
    with pytest.raises(ValueError, match=f"{field} must be a non-empty string"):
        AnnotationRecord(**ids, category="Medication", score=5)
    path = tmp_path / "ann.csv"
    path.write_text("annotator_id,pivot_id,relevant_id,category,score\n"
                    "a1,q,r0,Medication,5\n"
                    f"{ids['annotator_id']},{ids['pivot_id']},{ids['relevant_id']},"
                    "Medication,5\n")
    with pytest.raises(ParseError, match=f"{field} must be a non-empty string") as info:
        load_annotations(path)
    assert info.value.path == path and info.value.line == 3
