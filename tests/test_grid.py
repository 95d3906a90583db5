from __future__ import annotations

import json

import numpy as np
import pytest

from patsim import cli, segmenter
from patsim.corpus import load_corpus, write_corpus
from patsim.exceptions import ConfigError
from patsim.grid import (
    GridOptions,
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
from patsim.vectorizer import load_matrices


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


class TestGridValidation:
    def test_missing_patients_rejected(self):
        corpus, assignment = generate_synthetic(
            SynthSpec(n_patients=10, n_clusters=2, seed=1)
        )
        validation = synthesize_validation(assignment, n_pivots=3, seed=1)
        validation.pivots[0] = "ghost"
        validation.relevants["ghost"] = ["x", "y"]
        with pytest.raises(ConfigError):
            grid_search(corpus, validation, prototypes=default_prototypes())

    def test_needs_relevancy_or_prototypes(self):
        corpus, assignment = generate_synthetic(
            SynthSpec(n_patients=10, n_clusters=2, seed=1)
        )
        validation = synthesize_validation(assignment, n_pivots=3, seed=1)
        with pytest.raises(ConfigError):
            grid_search(corpus, validation)


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
    runner = _GridRunner(corpus, validation, None, default_prototypes(), None,
                         GridOptions(seed=3, threshold=0.6))
    grid_mats = runner._matrices_for(True, "Medication", "lsa", 50)

    built = []

    def relevancy_from_prototypes(*args, **kwargs):
        built.append(segmenter.relevancy_from_prototypes(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "relevancy_from_prototypes", relevancy_from_prototypes)
    assert cli.main([
        "vectorize", "--corpus", str(tmp_path / "corpus.jsonl"),
        "--category", "Medication", "--prototypes", str(tmp_path / "protos.json"),
        "--threshold", "0.6", "--dim", "50",
        "--out", str(tmp_path / "med.bin"),
    ]) == 0
    assert built == [runner.relevancy]
    cli_mats, meta = load_matrices(tmp_path / "med.bin")
    assert meta["vmethod"] == "lsa050" and meta["category"] == "Medication"

    assert grid_mats and set(grid_mats) == validation.patient_ids() & set(cli_mats)
    for pid, mat in grid_mats.items():
        assert np.array_equal(mat.rows.view(np.uint64),
                              cli_mats[pid].rows.view(np.uint64))
        assert np.array_equal(mat.note_indices, cli_mats[pid].note_indices)
