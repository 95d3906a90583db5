from __future__ import annotations

import json

import numpy as np
import pytest

from patsim.corpus import (
    Corpus,
    NoteRecord,
    PatientRecord,
    corpus_stats,
    load_corpus,
    parse_timestamp,
    write_corpus,
)
from patsim.exceptions import EmptyCorpus, ParseError
from patsim.synth import SynthSpec, generate_synthetic

from conftest import make_corpus


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestLoadCorpus:
    def test_two_patients_three_notes_each(self, tmp_path):
        rows = [
            {"patient_id": p, "timestamp": f"2020-01-0{i}", "text": f"note {i}"}
            for p in ("a", "b")
            for i in (1, 2, 3)
        ]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        corpus = load_corpus(path)
        assert corpus.summary.n_patients == 2
        assert corpus.summary.n_notes == 6
        assert corpus.summary.mean_notes == 3.0
        assert corpus.summary == corpus_stats(corpus)
        assert corpus.summary.median_notes == 3.0

    def test_out_of_order_notes_resorted(self, tmp_path):
        rows = [
            {"patient_id": "a", "timestamp": "2020-03-01", "text": "later"},
            {"patient_id": "a", "timestamp": "2020-01-01", "text": "earlier"},
        ]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        corpus = load_corpus(path)
        texts = [n.text for n in corpus.patients["a"].notes]
        assert texts == ["earlier", "later"]

    def test_equal_timestamps_keep_input_order(self, tmp_path):
        rows = [
            {"patient_id": "a", "timestamp": "2020-01-01", "text": "first"},
            {"patient_id": "a", "timestamp": "2020-01-01", "text": "second"},
        ]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        corpus = load_corpus(path)
        assert [n.text for n in corpus.patients["a"].notes] == ["first", "second"]

    def test_missing_patient_id_cites_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"patient_id": "a", "timestamp": "2020-01-01",
                                 "text": "x"}) + "\n")
            fh.write(json.dumps({"timestamp": "2020-01-02", "text": "y"}) + "\n")
        with pytest.raises(ParseError) as err:
            load_corpus(path)
        assert err.value.line == 2
        assert "patient_id" in str(err.value)

    def test_duplicate_json_field_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"patient_id": "a", "patient_id": "b", '
            '"timestamp": "2020-01-01", "text": "x"}\n'
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_corpus(path)

    def test_non_utf8_line_is_a_parse_error_naming_the_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = {"patient_id": "a", "timestamp": "2020-01-01", "text": "x"}
        path.write_bytes(json.dumps(good).encode() + b"\n"
                         + b'{"patient_id": "b", "timestamp": "2020-01-01", "text": "\xff"}\n')
        with pytest.raises(ParseError, match="is not UTF-8") as err:
            load_corpus(path)
        assert err.value.path == path and err.value.line == 2

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_line_numbers_count_crlf_and_lone_cr(self, tmp_path, newline):
        path = tmp_path / "c.jsonl"
        good = json.dumps({"patient_id": "a", "timestamp": "2020-01-01", "text": "x"})
        bad = good.replace('"a"', "5")
        path.write_bytes(newline.join([good, "", good, bad, ""]).encode())
        with pytest.raises(ParseError, match="patient_id") as err:
            load_corpus(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("bad", [
        '{"patient_id": "b", "timestamp": "2020-01-01", "text": ' + "[" * 5000 + "]" * 5000
        + "}",
        "[" * 5000 + "]" * 5000,
    ], ids=["nested_5000_deep", "nested_5000_deep_line"])
    def test_nesting_past_the_recursion_limit_is_a_parse_error_naming_the_line(
            self, tmp_path, bad):
        path = tmp_path / "c.jsonl"
        good = json.dumps({"patient_id": "a", "timestamp": "2020-01-01", "text": "x"})
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ParseError, match="bad JSON: maximum recursion depth") as err:
            load_corpus(path)
        assert err.value.path == path and err.value.line == 2

    def test_bad_timestamp(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"patient_id": "a", "timestamp": "notadate",
                            "text": "x"}])
        with pytest.raises(ParseError, match="timestamp"):
            load_corpus(path)

    def test_empty_file_is_empty_corpus(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(EmptyCorpus):
            load_corpus(path)

    def test_corpus_of_no_patients_is_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            Corpus({})

    def test_corpus_key_must_be_its_records_id(self):
        patient = PatientRecord("b", [NoteRecord(parse_timestamp("2020-01-01"), "x")])
        with pytest.raises(ValueError, match="corpus key 'a' holds patient 'b'"):
            Corpus({"a": patient})

    def test_missing_path(self, tmp_path):
        with pytest.raises(ParseError):
            load_corpus(tmp_path / "nope.jsonl")

    def test_directory_of_files(self, tmp_path):
        write_jsonl(tmp_path / "a.jsonl",
                    [{"patient_id": "a", "timestamp": "2020-01-01", "text": "x"}])
        write_jsonl(tmp_path / "b.jsonl",
                    [{"patient_id": "b", "timestamp": "2020-01-01", "text": "y"}])
        corpus = load_corpus(tmp_path)
        assert corpus.summary.n_patients == 2


class TestPatientRecord:
    def test_notes_sorted_when_built(self):
        notes = [NoteRecord(parse_timestamp(ts), text) for ts, text in
                 (("2020-03-01", "c"), ("2020-01-01", "a1"), ("2020-02-01", "b"),
                  ("2020-01-01", "a2"))]
        patient = PatientRecord("p", notes)
        assert [n.text for n in patient.notes] == ["a1", "a2", "b", "c"]
        assert isinstance(patient.notes, tuple)

    def test_patient_without_notes_rejected(self):
        with pytest.raises(ValueError, match="patient 'p' has no notes"):
            PatientRecord("p", ())

    @pytest.mark.parametrize("patient_id", ["", 7, None])
    def test_patient_id_must_be_a_non_empty_string(self, patient_id):
        note = NoteRecord(parse_timestamp("2020-01-01"), "a")
        with pytest.raises(ValueError, match="patient_id must be a non-empty string"):
            PatientRecord(patient_id, (note,))

    @pytest.mark.parametrize("text", ["", " \n", 5, None])
    def test_note_text_must_be_a_non_empty_string(self, text):
        with pytest.raises(ValueError, match="note text must be a non-empty string"):
            NoteRecord(parse_timestamp("2020-01-01"), text)


class TestTimestamps:
    def test_date_only_means_midnight(self):
        ts = parse_timestamp("2020-05-06")
        assert (ts.hour, ts.minute, ts.second) == (0, 0, 0)

    def test_zulu_suffix(self):
        assert parse_timestamp("2020-05-06T10:00:00Z").hour == 10

    def test_offset_normalized_to_utc(self):
        assert parse_timestamp("2020-05-06T10:00:00+02:00").hour == 8


class TestRoundTrip:
    def test_write_then_load_equals(self, tmp_path):
        corpus = make_corpus({
            "a": [("2020-01-01", "first\n\nsecond"), ("2020-01-02", "třetí")],
            "b": [("2021-06-07T12:30:00", "poznámka")],
        })
        path = tmp_path / "c.jsonl"
        write_corpus(corpus, path)
        again = load_corpus(path)
        assert again == corpus

    def test_notes_nondecreasing_after_load(self, tmp_path):
        corpus, _ = generate_synthetic(SynthSpec(n_patients=8, n_clusters=2, seed=3))
        path = tmp_path / "c.jsonl"
        write_corpus(corpus, path)
        again = load_corpus(path)
        for patient in again:
            stamps = [n.timestamp for n in patient.notes]
            assert stamps == sorted(stamps)


class TestStats:
    def test_single_patient_single_note(self):
        corpus = make_corpus({"a": [("2020-01-01", "x")]})
        stats = corpus_stats(corpus)
        assert (stats.n_patients, stats.n_notes, stats.mean_notes) == (1, 1, 1.0)

    def test_no_patients_is_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            corpus_stats([])

    def test_summary_is_the_stats_of_the_patients(self):
        patients = {pid: PatientRecord(pid, [
            NoteRecord(parse_timestamp(f"2020-01-0{k + 1}"), "x") for k in range(n)])
            for pid, n in (("a", 1), ("b", 4), ("c", 2))}
        assert Corpus(patients).summary == corpus_stats(patients.values())

    def test_fixed_note_count_mean_exact(self):
        corpus, _ = generate_synthetic(
            SynthSpec(n_patients=6, n_clusters=2, notes_per_patient=(10, 10), seed=1)
        )
        assert corpus_stats(corpus).mean_notes == 10.0

    def test_reference_scale_counts(self):
        # 152,552 notes over 4,267 patients: the summary must reproduce
        # the counts and their ratio (about 35.8 notes per patient).
        n_patients, n_notes = 4267, 152552
        base, extra = divmod(n_notes, n_patients)
        note = NoteRecord(parse_timestamp("2020-01-01"), "x")
        patients = {}
        for k in range(n_patients):
            pid = f"p{k}"
            count = base + (1 if k < extra else 0)
            patients[pid] = PatientRecord(pid, (note,) * count)
        stats = corpus_stats(Corpus(patients))
        assert stats.n_patients == 4267
        assert stats.n_notes == 152552
        assert abs(stats.mean_notes - 35.75) < 0.1


class TestSynthetic:
    def test_deterministic_for_fixed_seed(self, tmp_path):
        spec = SynthSpec(n_patients=10, n_clusters=3, seed=7)
        c1, a1 = generate_synthetic(spec)
        c2, a2 = generate_synthetic(spec)
        assert a1 == a2
        p1, p2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
        write_corpus(c1, p1)
        write_corpus(c2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_cluster(self):
        corpus, assignment = generate_synthetic(
            SynthSpec(n_patients=5, n_clusters=1, seed=2)
        )
        assert set(assignment.values()) == {0}
        assert len(corpus) == 5

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(n_patients=2, n_clusters=5)
        with pytest.raises(ValueError):
            SynthSpec(n_patients=5, n_clusters=2, notes_per_patient=(4, 2))

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SynthSpec(n_patients=5, n_clusters=2, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        a = generate_synthetic(SynthSpec(n_patients=4, n_clusters=2, seed=np.int64(9)))
        b = generate_synthetic(SynthSpec(n_patients=4, n_clusters=2, seed=9))
        assert a == b
