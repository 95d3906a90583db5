from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patsim.exceptions import ConfigError, DimTooLarge, InsufficientTitles, UnknownTitle
from patsim.segmenter import (
    CATEGORIES,
    UNTITLED,
    RelevancyMap,
    build_title_space,
    expand_prototypes,
    filter_patient,
    load_prototypes,
    normalize_title,
    relevancy_from_prototypes,
    resolve_category,
    segment_note,
    segment_patient,
    unfiltered_notes,
)
from patsim.synth import SynthSpec, generate_synthetic
from patsim.vectorizer import embed_texts, fit_lsa

from conftest import make_corpus
from oracles import embed_reference


class TestSegmentNote:
    def test_simple_titled_segment(self):
        segs = segment_note("Medication:\naspirin 100mg")
        assert [(s.title, s.body) for s in segs] == [("medication", "aspirin 100mg")]

    def test_one_letter_titles(self):
        segs = segment_note("M: metformin\n\nSummary: stable")
        assert [(s.title, s.body) for s in segs] == [
            ("m", "metformin"),
            ("summary", "stable"),
        ]

    def test_no_colon_is_untitled(self):
        segs = segment_note("no colon anywhere here")
        assert [(s.title, s.body) for s in segs] == [
            (UNTITLED, "no colon anywhere here")
        ]

    def test_long_prose_with_colon_is_untitled(self):
        text = "one two three four five six seven: rest of the sentence"
        segs = segment_note(text)
        assert segs[0].title == UNTITLED
        assert segs[0].body == text

    def test_multiword_title(self):
        segs = segment_note("Family history: mother healthy")
        assert segs[0].title == "family history"
        assert segs[0].body == "mother healthy"

    def test_title_only_paragraph_falls_back_to_untitled(self):
        segs = segment_note("Medication:")
        assert [(s.title, s.body) for s in segs] == [(UNTITLED, "Medication:")]

    def test_bare_colon_word_is_not_a_title(self):
        segs = segment_note(": something")
        assert segs[0].title == UNTITLED

    def test_multiline_body(self):
        segs = segment_note("Summary: first line\nsecond line")
        assert segs[0].body == "first line\nsecond line"

    def test_blank_line_runs_split_paragraphs(self):
        segs = segment_note("A: one\n\n\n\nB: two\n   \nC: three")
        assert [s.title for s in segs] == ["a", "b", "c"]

    def test_note_index_propagates(self):
        segs = segment_note("A: one", note_index=4)
        assert segs[0].note_index == 4

    def test_inherit_untitled(self):
        text = "Medication:\naspirin\n\ncontinued without title\n\nSummary: ok"
        plain = segment_note(text)
        assert [s.title for s in plain] == ["medication", UNTITLED, "summary"]
        inherited = segment_note(text, inherit_untitled=True)
        assert [s.title for s in inherited] == ["medication", "medication", "summary"]

    def test_inherit_with_leading_untitled(self):
        segs = segment_note("plain intro\n\nA: body", inherit_untitled=True)
        assert [s.title for s in segs] == [UNTITLED, "a"]


class TestNormalizeTitle:
    @given(st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, raw):
        once = normalize_title(raw)
        assert normalize_title(once) == once

    def test_examples(self):
        assert normalize_title("  Family   History: ") == "family history"
        assert normalize_title("M:") == "m"
        assert normalize_title("drugs") == "drugs"


@st.composite
def note_texts(draw):
    words = st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
        min_size=1, max_size=8,
    )
    paragraphs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.integers(0, 2))
        body_words = draw(st.lists(words, min_size=1, max_size=6))
        body = " ".join(body_words)
        if kind == 0:
            title = " ".join(draw(st.lists(words, min_size=1, max_size=3)))
            paragraphs.append(f"{title}:\n{body}")
        elif kind == 1:
            paragraphs.append(body)
        else:
            paragraphs.append(f"{body}\n{body}")
    return "\n\n".join(paragraphs)


class TestLosslessness:
    @given(note_texts())
    @settings(max_examples=150, deadline=None)
    def test_segments_recover_nonblank_characters(self, text):
        # Titles are stored normalized (lowercase, colon stripped), so the
        # per-segment reconstruction is compared case-insensitively.
        segs = segment_note(text)
        rebuilt = []
        for s in segs:
            rebuilt.append(s.body if s.title == UNTITLED else f"{s.title}: {s.body}")
        want = "".join(text.split()).casefold()
        got = "".join(" ".join(rebuilt).split()).casefold()
        assert sorted(got) == sorted(want)


class TestCategories:
    def test_exactly_ten_fixed_categories(self):
        assert len(CATEGORIES) == 10
        assert [c.id for c in CATEGORIES] == list(range(1, 11))
        assert CATEGORIES[4].name == "Medication"
        assert CATEGORIES[9].name == "Side effects"

    def test_resolve_by_name_id_and_object(self):
        cat = resolve_category("medication")
        assert cat.id == 5
        assert resolve_category(5) is cat
        assert resolve_category("5") is cat
        assert resolve_category(cat) is cat
        with pytest.raises(ConfigError):
            resolve_category("bogus")
        with pytest.raises(ConfigError):
            resolve_category(11)


class TestFilterPatient:
    def make_patient(self):
        corpus = make_corpus({
            "a": [
                ("2020-01-01", "Summary: stable"),
                ("2020-01-02", "Medication:\naspirin\n\nSummary: improving"),
                ("2020-01-03", "Family history: none"),
            ],
        })
        return corpus.patients["a"]

    def relevancy(self, titles):
        return RelevancyMap({c.name: frozenset(titles.get(c.name, ())) for c in CATEGORIES})

    def test_only_matching_note_survives(self):
        patient = self.make_patient()
        rmap = self.relevancy({"Medication": {"medication"}})
        out = filter_patient(patient, "Medication", rmap)
        assert len(out) == 1
        assert out[0].note_index == 1
        assert out[0].text == "aspirin"

    def test_identity_filter_keeps_all_bodies(self):
        patient = self.make_patient()
        all_titles = {"summary", "medication", "family history"}
        rmap = self.relevancy({"Treatment": all_titles})
        out = filter_patient(patient, "Treatment", rmap)
        assert [fn.note_index for fn in out] == [0, 1, 2]
        assert out[1].text == "aspirin\nimproving"

    def test_no_match_gives_empty(self):
        patient = self.make_patient()
        rmap = self.relevancy({"Allergies": {"allergies"}})
        assert filter_patient(patient, "Allergies", rmap) == []

    def test_note_indices_strictly_increasing(self):
        patient = self.make_patient()
        rmap = self.relevancy({"Treatment": {"summary"}})
        out = filter_patient(patient, "Treatment", rmap)
        idx = [fn.note_index for fn in out]
        assert idx == sorted(set(idx))
        assert len(out) <= len(patient.notes)

    def test_missing_category_entry(self):
        patient = self.make_patient()
        rmap = RelevancyMap({"Medication": frozenset({"medication"})})
        with pytest.raises(ConfigError):
            filter_patient(patient, "Treatment", rmap)

    def test_unfiltered_notes_identity(self):
        patient = self.make_patient()
        out = unfiltered_notes(patient)
        assert [fn.note_index for fn in out] == [0, 1, 2]
        assert out[0].text == "Summary: stable"


def synonym_corpus():
    """Three titles: two share near-identical bodies, one is disjoint."""
    spec = {}
    rng = np.random.default_rng(5)
    shared = ["alpha", "beta", "gamma", "delta", "epsilon"]
    distinct = ["omega", "psi", "chi", "phi"]
    for p in range(6):
        notes = []
        for k in range(4):
            meds = " ".join(rng.permutation(shared)[:4])
            drugs = " ".join(rng.permutation(shared)[:4])
            fam = " ".join(rng.permutation(distinct)[:3])
            notes.append((
                f"2020-01-{k + 1:02d}",
                f"Medication:\n{meds}\n\nDrugs:\n{drugs}\n\nFamily history:\n{fam}",
            ))
        spec[f"p{p}"] = notes
    return make_corpus(spec)


def segments_of(corpus):
    return [segment_patient(p) for p in corpus]


class TestTitleSpace:
    def test_synonym_titles_are_close(self):
        space = build_title_space(segments_of(synonym_corpus()), dim=2)
        med, drugs, fam = space["medication"], space["drugs"], space["family history"]
        assert float(med @ drugs) > float(med @ fam)

    def test_duplicated_body_gives_cosine_one(self):
        corpus = make_corpus({
            "a": [("2020-01-01", "One: alpha beta gamma\n\nTwo: alpha beta gamma")],
            "b": [("2020-01-01", "One: alpha beta gamma\n\nTwo: alpha beta gamma")],
        })
        space = build_title_space(segments_of(corpus), dim=2)
        assert float(space["one"] @ space["two"]) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_vocabularies_are_orthogonal(self):
        corpus = make_corpus({
            "a": [("2020-01-01", "One: alpha beta alpha gamma\n\nTwo: omega psi chi omega")],
            "b": [("2020-01-01", "One: beta gamma alpha beta\n\nTwo: psi chi omega psi")],
        })
        space = build_title_space(segments_of(corpus), dim=2)
        assert abs(float(space["one"] @ space["two"])) < 0.05

    def test_insufficient_titles(self):
        corpus = make_corpus({"a": [("2020-01-01", "Only: body text")]})
        with pytest.raises(InsufficientTitles):
            build_title_space(segments_of(corpus), dim=1)

    def test_dim_cannot_exceed_title_count(self):
        from patsim.exceptions import DimTooLarge

        with pytest.raises(DimTooLarge):
            build_title_space(segments_of(synonym_corpus()), dim=5)

    def test_unit_norm_embeddings(self):
        space = build_title_space(segments_of(synonym_corpus()), dim=2)
        for vec in space.values():
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_vectors_match_the_reference(self):
        # every title's document is its bodies joined in corpus order
        corpus, _ = generate_synthetic(SynthSpec(n_patients=12, n_clusters=3, seed=4))
        segments = segments_of(corpus)
        space = build_title_space(segments, dim=8)
        bodies = {}
        for seg in (s for patient in segments for note in patient for s in note):
            bodies.setdefault(seg.title, []).append(seg.body)
        docs = {t: "\n".join(b) for t, b in bodies.items()}
        texts = [docs[t] for t in sorted(docs)]
        model, _ = fit_lsa(texts, (8,))[8]
        assert sorted(space) == sorted(docs)
        for title, doc in docs.items():
            np.testing.assert_allclose(space[title], embed_reference(model, doc),
                                       rtol=0, atol=1e-12)
        # one TF-IDF pass: the fit's own rows, bitwise as embed_texts gives them
        rows, found = embed_texts(model, texts)
        assert found.all()
        for title, want in zip(sorted(docs), rows):
            assert space[title].tobytes() == want.tobytes()


class TestExpandPrototypes:
    def space(self):
        return build_title_space(segments_of(synonym_corpus()), dim=2)

    def test_threshold_one_keeps_prototypes(self):
        space = self.space()
        rmap = expand_prototypes({"Medication": ["medication"]}, space, threshold=1.0)
        got = rmap.for_category("Medication")
        assert "medication" in got
        assert got <= {"medication", "drugs"}

    def test_synonym_discovered(self):
        space = self.space()
        rmap = expand_prototypes({"Medication": ["medication"]}, space, threshold=0.7)
        assert "drugs" in rmap.for_category("Medication")
        assert "family history" not in rmap.for_category("Medication")

    def test_tiny_threshold_includes_nearly_all(self):
        space = self.space()
        rmap = expand_prototypes({"Medication": ["medication"]}, space, threshold=1e-9)
        kept = rmap.for_category("Medication")
        assert len(kept) >= len(space) - 1

    def test_monotone_in_threshold(self):
        space = self.space()
        prev = None
        for threshold in (0.9, 0.6, 0.3, 0.05):
            got = expand_prototypes(
                {"Treatment": ["medication"]}, space, threshold
            ).for_category("Treatment")
            if prev is not None:
                assert prev <= got
            prev = got

    def test_unknown_prototype(self):
        with pytest.raises(UnknownTitle, match="nonexistent"):
            expand_prototypes({"Medication": ["nonexistent"]}, self.space(), 0.5)

    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            expand_prototypes({"Medication": ["medication"]}, self.space(), 0.0)

    def test_category_without_prototypes_rejected(self):
        with pytest.raises(ConfigError, match="'Medication' has no prototype"):
            expand_prototypes({"5": []}, self.space(), 0.5)


class TestRelevancyFromPrototypes:
    def test_two_titles_clamp_the_title_dim(self):
        corpus = make_corpus({
            "a": [("2020-01-01", "One: alpha beta alpha gamma\n\nTwo: omega psi chi omega")],
            "b": [("2020-01-01", "One: beta gamma alpha beta\n\nTwo: psi chi omega psi")],
        })
        segments = segments_of(corpus)
        protos = {"Medication": ["one"]}
        with pytest.raises(DimTooLarge):
            build_title_space(segments_of(corpus), dim=16)
        got = relevancy_from_prototypes(protos, segments, title_dim=16,
                                        threshold=0.5)
        assert got == expand_prototypes(protos, build_title_space(segments_of(corpus), dim=2), 0.5)
        assert got.for_category("Medication") == {"one"}

    def test_one_title_is_insufficient(self):
        corpus = make_corpus({"a": [("2020-01-01", "Only: body text")]})
        with pytest.raises(InsufficientTitles):
            relevancy_from_prototypes({"Medication": ["only"]}, segments_of(corpus))


class TestRelevancyMapFile:
    def test_round_trip(self, tmp_path):
        rmap = RelevancyMap({
            "Medication": frozenset({"medication", "drugs", "m"}),
            "Treatment": frozenset({"treatment"}),
        })
        path = tmp_path / "relevancy.json"
        rmap.save(path)
        again = RelevancyMap.load(path)
        assert again.entries == rmap.entries

    def test_empty_entry_is_legal(self, tmp_path):
        path = tmp_path / "relevancy.json"
        path.write_text('{"Medication": []}', encoding="utf-8")
        assert RelevancyMap.load(path).for_category("Medication") == frozenset()

    def test_load_normalizes_titles(self, tmp_path):
        path = tmp_path / "relevancy.json"
        path.write_text('{"Medication": ["  Drugs: ", "M:"]}', encoding="utf-8")
        rmap = RelevancyMap.load(path)
        assert rmap.for_category("Medication") == {"drugs", "m"}

    @pytest.mark.parametrize("text", [
        '{"Medication": ["drugs"',
        '{"Medication": 5}',
        '{"Medication": "medication"}',
        '{"Medication": ["drugs", 5]}',
    ], ids=["invalid_json", "entry_not_a_list", "entry_is_a_string",
            "title_not_a_string"])
    def test_bad_file_names_the_file(self, tmp_path, text):
        path = tmp_path / "relevancy.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            RelevancyMap.load(path)


class TestPrototypesFile:
    def test_reads_the_mapping(self, tmp_path):
        path = tmp_path / "protos.json"
        path.write_text('{"Medication": ["medication", "Drugs:"], "5": []}',
                        encoding="utf-8")
        assert load_prototypes(path) == {"Medication": ["medication", "Drugs:"],
                                         "5": []}

    @pytest.mark.parametrize("text", [
        '{"Medication": ["drugs"',
        '{"Medication": 5}',
        '{"Medication": "medication"}',
        '{"Medication": ["drugs", 5]}',
        '["medication"]',
        '{"Nonsense": ["drugs"]}',
    ], ids=["invalid_json", "entry_not_a_list", "entry_is_a_string",
            "title_not_a_string", "not_an_object", "unknown_category"])
    def test_bad_file_names_the_file(self, tmp_path, text):
        path = tmp_path / "protos.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_prototypes(path)
