from __future__ import annotations

import json

import numpy as np
import pytest

from patsim import cli, engine, grid, kernels, segmenter
from patsim.corpus import load_corpus, write_corpus
from patsim.evaluation import AnnotationRecord, ValidationSet
from patsim.exceptions import ConfigError, MissingEmbedding, ParseError, TooShort
from patsim.grid import (
    GridCell,
    GridOptions,
    Legs,
    _GridRunner,
    cells_csv,
    grid_search,
    render_agreement,
    render_summary,
    render_top10,
    top10_csv,
    write_report,
)
from patsim.synth import (
    SynthSpec,
    default_prototypes,
    generate_synthetic,
    synthesize_validation,
)
from patsim.vectorizer import (
    build_patient_matrices,
    fit_lsa,
    load_matrices,
)

from conftest import embedded


@pytest.fixture(scope="module")
def lsa_only_report():
    spec = SynthSpec(
        n_patients=50,
        n_clusters=4,
        notes_per_patient=(14, 18),
        segments_per_note=(3, 5),
        seed=21,
    )
    corpus, assignment = generate_synthetic(spec)
    validation = synthesize_validation(
        assignment, n_pivots=8, per_pivot=5, n_annotators=3, noise=1.0, seed=5
    )
    report = grid_search(
        corpus,
        validation,
        prototypes=default_prototypes(),
        options=GridOptions(seed=3, threshold=0.6),
    )
    return report


class TestLsaOnlyGrid:
    def test_always_42_cells(self, lsa_only_report):
        assert len(lsa_only_report.cells) == 42
        keys = {(c.mmethod, c.vmethod, c.filter) for c in lsa_only_report.cells}
        assert len(keys) == 42

    def test_import_legs_skipped_lsa_legs_valued(self, lsa_only_report):
        skipped = [c for c in lsa_only_report.cells if c.status == "skipped"]
        valued = [c for c in lsa_only_report.cells if c.status != "skipped"]
        assert len(skipped) == 24
        assert len(valued) == 18
        assert all(c.vmethod.startswith(("d2v", "rbc")) for c in skipped)
        assert all("not found" in c.note for c in skipped)
        for cell in valued:
            assert cell.vmethod in ("lsa050", "lsa200", "combined")
            assert cell.mean is not None

    def test_combined_flagged_partial_without_imports(self, lsa_only_report):
        ensemble = [c for c in lsa_only_report.cells if c.vmethod == "combined"]
        assert len(ensemble) == 6
        assert all(c.status == "partial" for c in ensemble)
        assert all("1 of 3" in c.note for c in ensemble)

    def test_combined_equals_lsa050_when_only_member(self, lsa_only_report):
        # an ensemble of one member is that member
        by_key = {(c.mmethod, c.vmethod, c.filter): c for c in lsa_only_report.cells}
        for mmethod in ("rv2", "mms", "eds"):
            for filtered in (False, True):
                solo = by_key[(mmethod, "lsa050", filtered)]
                ens = by_key[(mmethod, "combined", filtered)]
                for name, value in solo.per_category.items():
                    other = ens.per_category[name]
                    if value is None:
                        assert other is None
                    else:
                        assert other == pytest.approx(value, abs=1e-12)

    def test_filtered_lsa_beats_noise(self, lsa_only_report):
        # planted clusters drive annotations, so real legs must correlate
        by_key = {(c.mmethod, c.vmethod, c.filter): c for c in lsa_only_report.cells}
        assert by_key[("rv2", "lsa050", False)].mean > 0.3
        assert by_key[("rv2", "lsa050", True)].mean > 0.3

    def test_display_mean_matches_displayed_components(self, lsa_only_report):
        for cell in lsa_only_report.cells:
            shown = [v for v in cell.display_values().values() if v is not None]
            if not shown:
                assert cell.display_mean() is None
                continue
            # 5e-3 is the 2-decimal rounding bound; tiny float slack on top
            assert abs(cell.display_mean() - sum(shown) / len(shown)) <= 5e-3 + 1e-9


class TestRendering:
    def test_summary_mentions_every_leg(self, lsa_only_report):
        text = render_summary(lsa_only_report)
        for token in ("rv2", "mms", "eds", "combined", "lsa050", "rbc200", "skip"):
            assert token in text

    def test_top10_rows_sorted_descending(self, lsa_only_report):
        text = render_top10(lsa_only_report)
        lines = text.splitlines()
        means = [float(line.split()[-1]) for line in lines[1:]]
        assert means == sorted(means, reverse=True)
        assert len(means) == 10

    def test_top10_printed_mean_consistency(self, lsa_only_report):
        lines = top10_csv(lsa_only_report).strip().splitlines()[1:]
        for line in lines:
            parts = line.split(",")
            cats = [float(v) for v in parts[3:13] if v != ""]
            mean = float(parts[13])
            assert abs(mean - sum(cats) / len(cats)) <= 5e-3 + 1e-9

    def test_cells_csv_has_all_rows(self, lsa_only_report):
        lines = cells_csv(lsa_only_report).strip().splitlines()
        assert len(lines) == 1 + 42

    def test_agreement_table_lists_categories(self, lsa_only_report):
        text = render_agreement(lsa_only_report)
        assert "Medication" in text and "Side effects" in text

    def test_write_report_files(self, lsa_only_report, tmp_path):
        paths = write_report(lsa_only_report, tmp_path / "out")
        names = {p.name for p in paths}
        assert {"summary.txt", "summary.csv", "top10.txt", "top10.csv",
                "agreement.txt", "agreement.csv", "cells.csv",
                "exclusions.json"} <= names
        exclusions = json.loads((tmp_path / "out" / "exclusions.json").read_text())
        assert isinstance(exclusions, dict)


class TestGridCell:
    def test_mean_follows_an_edited_per_category(self):
        cell = GridCell(False, "lsa050", "rv2", "ok", {"Age": 0.25, "Allergies": None})
        assert cell.mean == 0.25
        cell.per_category = {"Age": 0.5, "Allergies": None, "Medication": -0.25}
        assert cell.mean == 0.125
        cell.per_category["Age"] = cell.per_category["Medication"] = None
        assert cell.mean is None


class TestGridValidation:
    def test_missing_patients_rejected(self):
        corpus, assignment = generate_synthetic(
            SynthSpec(n_patients=10, n_clusters=2, seed=1)
        )
        validation = synthesize_validation(assignment, n_pivots=3, seed=1)
        validation = ValidationSet(validation.annotations + tuple(
            AnnotationRecord("annotator1", "ghost", rel, "Medication", 5) for rel in "xy"))
        with pytest.raises(ConfigError):
            grid_search(corpus, validation, prototypes=default_prototypes())

    def test_one_annotator_fails_before_any_scoring(self, monkeypatch):
        corpus, assignment = generate_synthetic(
            SynthSpec(n_patients=10, n_clusters=2, seed=1)
        )
        validation = synthesize_validation(assignment, n_pivots=3, n_annotators=1,
                                           seed=1)
        scored = []
        monkeypatch.setattr(grid, "compute_legs",
                            lambda *args: scored.append(args))
        with pytest.raises(TooShort):
            grid_search(corpus, validation, prototypes=default_prototypes())
        assert scored == []

    def test_needs_relevancy_or_prototypes(self):
        corpus, assignment = generate_synthetic(
            SynthSpec(n_patients=10, n_clusters=2, seed=1)
        )
        validation = synthesize_validation(assignment, n_pivots=3, seed=1)
        with pytest.raises(ConfigError):
            grid_search(corpus, validation)

    def test_relevancy_map_lacking_a_category_fails_before_any_scoring(self, monkeypatch):
        corpus, assignment = generate_synthetic(
            SynthSpec(n_patients=10, n_clusters=2, seed=1)
        )
        validation = synthesize_validation(assignment, n_pivots=3, seed=1)
        scored = []
        monkeypatch.setattr(grid, "compute_legs",
                            lambda *args: scored.append(args))
        relevancy = segmenter.RelevancyMap({"Medication": frozenset({"medication"})})
        with pytest.raises(ConfigError, match="no entry for 'Age'"):
            grid_search(corpus, validation, relevancy=relevancy)
        assert scored == []


def _write_imports(directory, corpus, legs, seed=77):
    """Random unit note vectors, one JSONL file per import leg."""
    directory.mkdir()
    rng = np.random.default_rng(seed)
    for leg in legs:
        dim = engine.parse_vmethod(leg)[1]
        with open(directory / f"{leg}.jsonl", "w", encoding="utf-8") as fh:
            for patient in corpus:
                for idx in range(len(patient.notes)):
                    fh.write(json.dumps({"patient_id": patient.patient_id,
                                         "note_index": idx,
                                         "vector": rng.standard_normal(dim).tolist()}) + "\n")


class TestGridWork:
    """Which scoring calls the grid makes, with two of the four import legs."""

    LEGS = ("lsa050", "lsa200", "d2v050", "rbc200")
    CONTEXTS = [None] + [c.name for c in segmenter.CATEGORIES]

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        corpus, assignment = generate_synthetic(SynthSpec(
            n_patients=50, n_clusters=4, notes_per_patient=(14, 18),
            segments_per_note=(3, 5), seed=21,
        ))
        validation = synthesize_validation(
            assignment, n_pivots=8, per_pivot=5, n_annotators=3, noise=1.0, seed=5
        )
        imports = tmp_path_factory.mktemp("grid") / "imports"
        _write_imports(imports, corpus, ("d2v050", "rbc200"))
        scored, combined, eds, calls = [], [], [], []

        def compute_legs(legs, pairs):
            pairs = list(pairs)
            # per dim, each eds leg's distinct validation pairs of its
            # patients, and its patient count
            want: dict[int, list[tuple[int, int]]] = {}
            for mats, config in legs:
                scored.append(config)
                if config.mmethod == "eds":
                    want.setdefault(config.dim, []).append(
                        (len({frozenset(p) for p in validation.pairs()
                              if set(p) <= set(mats) and p[0] != p[1]}), len(mats)))
            eds.append((want, []))
            calls.append((legs, pairs, engine.compute_legs(legs, pairs)))
            return calls[-1][2]

        def combine_similarities(members, config):
            combined.append((config, [m.config.vmethod for m in members]))
            return engine.combine_similarities(members, config)

        score = kernels.eds_batch

        def eds_batch(rows, offsets, ii, jj):
            eds[-1][1].append((rows.shape[1], ii.size))  # (dim, pairs)
            return score(rows, offsets, ii, jj)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "compute_legs", compute_legs)
            mp.setattr(grid, "combine_similarities", combine_similarities)
            mp.setattr(kernels, "eds_batch", eds_batch)
            report = grid_search(corpus, validation, prototypes=default_prototypes(),
                                 imports_dir=imports,
                                 options=GridOptions(seed=3, threshold=0.6))
        return report, scored, combined, eds, calls

    def config(self, context, vmethod, mmethod):
        return engine.RunConfig(filter=context is not None, vmethod=vmethod,
                                mmethod=mmethod, category=context, seed=3)

    def test_each_leg_scored_once_per_context_and_measure(self, recorded):
        _, scored, *_ = recorded
        assert len(scored) == len(set(scored))
        assert set(scored) == {self.config(ctx, v, m) for ctx in self.CONTEXTS
                               for v in self.LEGS for m in engine.MMETHODS}

    def test_one_combine_per_context_and_measure(self, recorded):
        _, _, combined, *_ = recorded
        assert sorted(combined, key=repr) == sorted(
            [(self.config(ctx, "combined", m), ["lsa050", "d2v050"])
             for ctx in self.CONTEXTS for m in engine.MMETHODS], key=repr)

    def test_eds_scores_only_the_validations_distinct_pairs(self, recorded):
        _, _, _, eds, _ = recorded
        assert len(eds) == len(self.CONTEXTS)
        for want, batches in eds:
            assert dict(batches) == {dim: sum(distinct for distinct, _ in legs)
                                     for dim, legs in want.items()}
            assert all(0 < distinct < n * (n - 1) // 2
                       for legs in want.values() for distinct, n in legs)

    def test_one_eds_batch_per_context_and_dim(self, recorded):
        _, _, _, eds, _ = recorded
        dims = sorted({engine.parse_vmethod(v)[1] for v in self.LEGS})
        assert [sorted(dim for dim, _ in batches) for _, batches in eds] \
            == [dims] * len(self.CONTEXTS)

    def test_every_score_is_the_one_leg_alone_gets(self, recorded):
        *_, calls = recorded
        for legs, pairs, sims in calls:
            for (mats, config), sim in zip(legs, sims, strict=True):
                alone = engine.compute_legs([(mats, config)], pairs)[0]
                assert sim.patient_ids == alone.patient_ids
                assert np.array_equal(sim.defined, alone.defined)
                assert np.array_equal(sim.scores.view(np.uint64),
                                      alone.scores.view(np.uint64))

    def test_cells_follow_the_available_legs(self, recorded):
        report, *_ = recorded
        status = {(c.vmethod, c.filter, c.mmethod): c.status for c in report.cells}
        for (vmethod, _, _), value in status.items():
            expected = {"combined": "partial", "d2v200": "skipped",
                        "rbc050": "skipped"}.get(vmethod, "ok")
            assert value == expected, vmethod
        assert all("2 of 3" in c.note for c in report.cells if c.vmethod == "combined")

    @pytest.mark.parametrize("stray", [[("ghost", 0), ("ghost", 1)],
                                       [("p0001", -1), ("p0002", -2)],
                                       [("p0001", 999), ("p0001", 1000)]])
    def test_import_record_for_a_note_the_corpus_lacks(self, stray, tmp_path, monkeypatch):
        corpus, assignment = generate_synthetic(
            SynthSpec(n_patients=10, n_clusters=2, seed=1)
        )
        validation = synthesize_validation(assignment, n_pivots=3, seed=1)
        _write_imports(tmp_path / "imports", corpus, ("d2v050", "rbc200"))
        with open(tmp_path / "imports" / "rbc200.jsonl", "a", encoding="utf-8") as fh:
            for pid, idx in stray:
                fh.write(json.dumps({"patient_id": pid, "note_index": idx,
                                     "vector": [1.0] * 200}) + "\n")
        compressed = []
        monkeypatch.setattr(grid, "compress_embeddings",
                            lambda *args: compressed.append(args) or args[0])
        with pytest.raises(ConfigError, match=rf"rbc200.jsonl: 2 record\(s\) .*"
                                              rf"first \('{stray[0][0]}', {stray[0][1]}\)"):
            grid_search(corpus, validation, prototypes=default_prototypes(),
                        imports_dir=tmp_path / "imports")
        assert len(compressed) == 1  # d2v050 only, read first

    def test_bad_import_file_fails_before_any_scoring(self, tmp_path, monkeypatch):
        corpus, assignment = generate_synthetic(
            SynthSpec(n_patients=10, n_clusters=2, seed=1)
        )
        validation = synthesize_validation(assignment, n_pivots=3, seed=1)
        _write_imports(tmp_path / "imports", corpus, ("d2v050", "rbc200"))
        with open(tmp_path / "imports" / "rbc200.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"patient_id": 7, "note_index": 0, "vector": [1.0]}\n')
        scored = []
        monkeypatch.setattr(grid, "compute_legs",
                            lambda *args: scored.append(args))
        with pytest.raises(ParseError, match="rbc200.jsonl"):
            grid_search(corpus, validation, prototypes=default_prototypes(),
                        imports_dir=tmp_path / "imports")
        assert scored == []

    def test_missing_import_record_fails_before_any_scoring(self, tmp_path, monkeypatch):
        corpus, assignment = generate_synthetic(
            SynthSpec(n_patients=10, n_clusters=2, seed=1)
        )
        validation = synthesize_validation(assignment, n_pivots=3, seed=1)
        _write_imports(tmp_path / "imports", corpus, ("d2v050",))
        path = tmp_path / "imports" / "d2v050.jsonl"
        pid = sorted(validation.patient_ids())[0]
        records = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(json.dumps(r) + "\n" for r in records
                                if (r["patient_id"], r["note_index"]) != (pid, 0)))
        scored = []
        monkeypatch.setattr(grid, "compute_legs",
                            lambda *args: scored.append(args))
        with pytest.raises(MissingEmbedding, match=rf"d2v050.jsonl: no record for 1 "
                                                   rf"note\(s\), the first \('{pid}', 0\)"):
            grid_search(corpus, validation, prototypes=default_prototypes(),
                        imports_dir=tmp_path / "imports")
        assert scored == []


def test_cli_builds_the_grids_filtered_leg(tmp_path, monkeypatch):
    """vectorize --category --prototypes gives the grid's filtered lsa050 leg."""
    corpus, assignment = generate_synthetic(SynthSpec(
        n_patients=50, n_clusters=4, notes_per_patient=(14, 18),
        segments_per_note=(3, 5), seed=21,
    ))
    validation = synthesize_validation(
        assignment, n_pivots=8, per_pivot=5, n_annotators=3, noise=1.0, seed=5
    )
    write_corpus(corpus, tmp_path / "corpus.jsonl")
    (tmp_path / "protos.json").write_text(json.dumps(default_prototypes()))
    corpus = load_corpus(tmp_path / "corpus.jsonl")
    runner = _GridRunner(
        Legs(corpus, None, default_prototypes(), GridOptions(seed=3, threshold=0.6)),
        validation, None,
    )
    scored = {}

    def compute_legs(legs, pairs):
        for mats, config in legs:
            scored[config.vmethod, config.mmethod] = mats
        return engine.compute_legs(legs, pairs)

    monkeypatch.setattr(grid, "compute_legs", compute_legs)
    table = runner.table("Medication")
    assert table["lsa050", "rv2"].config.category == "Medication"
    grid_mats = scored["lsa050", "rv2"]

    built = []

    def relevancy_from_prototypes(*args, **kwargs):
        built.append(segmenter.relevancy_from_prototypes(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(grid, "relevancy_from_prototypes", relevancy_from_prototypes)
    assert cli.main([
        "vectorize", "--corpus", str(tmp_path / "corpus.jsonl"),
        "--category", "Medication", "--prototypes", str(tmp_path / "protos.json"),
        "--threshold", "0.6", "--vmethod", "lsa050",
        "--out", str(tmp_path / "med.bin"),
    ]) == 0
    assert built == [runner.legs.relevancy()]
    cli_mats, meta = load_matrices(tmp_path / "med.bin")
    assert meta["vmethod"] == "lsa050" and meta["category"] == "Medication"

    assert grid_mats and set(grid_mats) == validation.patient_ids() & set(cli_mats)
    for pid, mat in grid_mats.items():
        assert np.array_equal(mat.rows.view(np.uint64),
                              cli_mats[pid].rows.view(np.uint64))
        assert np.array_equal(mat.note_indices, cli_mats[pid].note_indices)


class TestLegs:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_synthetic(SynthSpec(n_patients=12, n_clusters=2, seed=4))[0]

    def test_unfiltered_notes_never_segment(self, corpus, monkeypatch):
        monkeypatch.setattr(grid, "segment_patient", None)  # any call fails
        legs = Legs(corpus)
        notes = legs.notes(None)
        assert notes is legs.notes(None)
        assert [fn.text for fn in notes["p0000"]] == \
            [n.text for n in corpus.patients["p0000"].notes]

    def test_filtered_notes_are_built_once(self, corpus):
        legs = Legs(corpus, prototypes=default_prototypes())
        assert legs.notes("Medication") is legs.notes("Medication")
        assert legs.notes("Medication") is not legs.notes("Treatment")

    def test_relevancy_wins_over_prototypes(self, corpus, monkeypatch):
        given = segmenter.RelevancyMap({"Medication": frozenset({"drugs"})})
        monkeypatch.setattr(grid, "relevancy_from_prototypes", None)
        legs = Legs(corpus, given, default_prototypes())
        assert legs.relevancy() is given
        assert legs.notes("Medication") == {
            pid: segmenter.filter_segments(segmenter.segment_patient(p),
                                           given.for_category("Medication"))
            for pid, p in corpus.patients.items()}

    def test_filtered_leg_needs_relevancy_or_prototypes(self, corpus):
        with pytest.raises(ConfigError, match="relevancy map or prototype titles"):
            Legs(corpus).notes("Medication")

    def test_lsa_dim_too_large(self, corpus):
        # a dim the context cannot carry is left out; vectorize raises on it
        assert Legs(corpus).lsa(None, (10_000,)) == {}

    def test_lsa_embeddings_match_one_dim_fits(self, corpus):
        legs = Legs(corpus, prototypes=default_prototypes())
        for context in (None, "Medication"):
            shared = legs.lsa(context, (4, 10_000))
            assert list(shared) == [4]  # the context is too small for 10,000
            model, vectors = shared[4]
            docs = [fn.text for fns in legs.notes(context).values() for fn in fns]
            alone, _ = fit_lsa(docs, (4,))[4]
            assert model.projection.tobytes() == alone.projection.tobytes()
            want, _ = build_patient_matrices(legs.notes(context),
                                             embedded(alone, legs.notes(context)))
            got, _ = build_patient_matrices(legs.notes(context), vectors)
            assert list(got) == list(want)
            for pid, mat in want.items():
                assert got[pid].rows.tobytes() == mat.rows.tobytes()
                assert np.array_equal(got[pid].note_indices, mat.note_indices)
