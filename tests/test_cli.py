from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from patsim import cli, grid
from patsim.cli import build_parser, load_config_file, main
from patsim.engine import load_similarity
from patsim.exceptions import ConfigError
from patsim.synth import load_assignment_csv, synthesize_validation
from patsim.evaluation import save_annotations
from patsim.vectorizer import load_lsa_model, load_matrices, save_matrices


def run_cli(*argv):
    return main(list(argv))


def run_proc(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "patsim.cli", *argv],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A small corpus taken through synth and vectorize once."""
    root = tmp_path_factory.mktemp("cli")
    assert run_cli(
        "synth", "--patients", "25", "--clusters", "3", "--seed", "7",
        "--out", str(root / "corpus.jsonl"),
        "--assignment-out", str(root / "assign.csv"),
        "--prototypes-out", str(root / "protos.json"),
    ) == 0
    assert run_cli(
        "vectorize", "--corpus", str(root / "corpus.jsonl"),
        "--category", "all", "--method", "lsa", "--dim", "12",
        "--out", str(root / "mats.bin"),
    ) == 0
    return root


class TestSynth:
    def test_outputs_exist(self, pipeline_dir):
        assert (pipeline_dir / "corpus.jsonl").exists()
        assignment = load_assignment_csv(pipeline_dir / "assign.csv")
        assert set(assignment.values()) == {0, 1, 2}
        protos = json.loads((pipeline_dir / "protos.json").read_text())
        assert protos["Medication"] == ["medication"]

    def test_deterministic_output_bytes(self, tmp_path):
        for name in ("a", "b"):
            assert run_cli(
                "synth", "--patients", "10", "--clusters", "2", "--seed", "3",
                "--out", str(tmp_path / f"{name}.jsonl"),
            ) == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


class TestSegment:
    def test_segments_jsonl_shape(self, pipeline_dir, tmp_path):
        out = tmp_path / "segments.jsonl"
        assert run_cli(
            "segment", "--corpus", str(pipeline_dir / "corpus.jsonl"),
            "--out", str(out),
        ) == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert set(first) == {"patient_id", "note_index", "title", "body"}


class TestVectorize:
    def test_idempotent_bytes(self, pipeline_dir, tmp_path):
        out2 = tmp_path / "mats2.bin"
        assert run_cli(
            "vectorize", "--corpus", str(pipeline_dir / "corpus.jsonl"),
            "--category", "all", "--method", "lsa", "--dim", "12",
            "--out", str(out2),
        ) == 0
        assert out2.read_bytes() == (pipeline_dir / "mats.bin").read_bytes()

    def test_filtered_category_with_prototypes(self, pipeline_dir, tmp_path):
        out = tmp_path / "med.bin"
        assert run_cli(
            "vectorize", "--corpus", str(pipeline_dir / "corpus.jsonl"),
            "--category", "Medication",
            "--prototypes", str(pipeline_dir / "protos.json"),
            "--method", "lsa", "--dim", "8", "--out", str(out),
        ) == 0
        assert out.exists()

    def test_import_method(self, pipeline_dir, tmp_path):
        emb = tmp_path / "d2v.jsonl"
        rng = np.random.default_rng(0)
        from patsim.corpus import load_corpus

        corpus = load_corpus(pipeline_dir / "corpus.jsonl")
        with open(emb, "w") as fh:
            for patient in corpus:
                for idx in range(len(patient.notes)):
                    v = rng.standard_normal(12)
                    fh.write(json.dumps({
                        "patient_id": patient.patient_id,
                        "note_index": idx,
                        "vector": v.tolist(),
                    }) + "\n")
        out = tmp_path / "imported.bin"
        assert run_cli(
            "vectorize", "--corpus", str(pipeline_dir / "corpus.jsonl"),
            "--category", "all", "--method", "import", "--dim", "12",
            "--imports", str(emb), "--label", "d2v012", "--out", str(out),
        ) == 0

    def test_unfiltered_reads_no_relevancy_or_prototypes(self, pipeline_dir, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(grid, "segment_patient", None)  # any call fails
        out = tmp_path / "all.bin"
        assert run_cli(
            "vectorize", "--corpus", str(pipeline_dir / "corpus.jsonl"),
            "--category", "all", "--dim", "12", "--out", str(out),
            "--relevancy", str(tmp_path / "missing.json"),
            "--prototypes", str(tmp_path / "missing.json"),
        ) == 0
        assert out.read_bytes() == (pipeline_dir / "mats.bin").read_bytes()

    def test_relevancy_wins_over_prototypes(self, pipeline_dir, tmp_path):
        rel = tmp_path / "rel.json"
        rel.write_text('{"Medication": ["medication", "drugs", "m"]}', encoding="utf-8")
        assert run_cli(
            "vectorize", "--corpus", str(pipeline_dir / "corpus.jsonl"),
            "--category", "Medication", "--dim", "8", "--out", str(tmp_path / "m.bin"),
            "--relevancy", str(rel), "--prototypes", str(tmp_path / "missing.json"),
        ) == 0

    @pytest.mark.parametrize("argv, message", [
        (["--category", "Medication"], "relevancy map or prototype titles"),
        # lsa999 is a valid label, and the 25-patient corpus cannot carry dim 999
        (["--category", "all", "--dim", "999"], "lsa dim 999 for all"),
    ], ids=["filtered-without-relevancy", "dim-too-large"])
    def test_one_error_line(self, argv, message, pipeline_dir, tmp_path, capsys):
        assert run_cli("vectorize", "--corpus", str(pipeline_dir / "corpus.jsonl"),
                       "--out", str(tmp_path / "x.bin"), *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert message in err
        assert not (tmp_path / "x.bin").exists()

    def test_import_method_rejects_model_out(self, capsys, tmp_path, monkeypatch):
        # no model is fitted on the import path, so there is none to save;
        # the input paths do not exist, so the flags are checked first
        monkeypatch.chdir(tmp_path)
        assert run_cli("vectorize", "--corpus", "missing.jsonl", "--method", "import",
                       "--imports", "missing.jsonl", "--label", "d2v050",
                       "--out", "x.bin", "--model-out", "model.bin") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --model-out ") and len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["vectorize", "gridsearch"])
    def test_leg_flag_defaults_are_grid_options(self, command):
        args = build_parser().parse_args([command])
        assert cli._grid_options(args) == grid.GridOptions()

    @pytest.mark.parametrize("label", ["lsa200", "lsa8", "combined"])
    def test_label_must_carry_dim(self, label, pipeline_dir, tmp_path):
        # a dim-8 container labelled lsa200 would make pairs record dim 200
        out = tmp_path / "mislabelled.bin"
        args = build_parser().parse_args([
            "vectorize", "--corpus", str(pipeline_dir / "corpus.jsonl"),
            "--dim", "8", "--label", label, "--out", str(out),
        ])
        with pytest.raises(ConfigError, match="label"):
            args.func(args)
        assert not out.exists()


    @pytest.mark.parametrize("argv", [
        ["--method", "lsa", "--label", "d2v008"],
        ["--method", "lsa", "--label", "rbc008"],
        ["--method", "import", "--imports", "missing.jsonl", "--label", "lsa008"],
    ], ids=["lsa-as-d2v", "lsa-as-rbc", "import-as-lsa"])
    def test_label_family_must_match_method(self, argv, pipeline_dir, tmp_path, capsys):
        # an lsa container labelled d2v008 would make pairs record a d2v leg
        assert run_cli("vectorize", "--corpus", str(pipeline_dir / "corpus.jsonl"),
                       "--dim", "8", "--out", str(tmp_path / "x.bin"), *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --label ") and "family" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x.bin").exists()

    @pytest.mark.parametrize("stray", [("ghost", 0), ("p0000", -1)])
    def test_import_record_for_a_note_the_corpus_lacks(self, stray, pipeline_dir, tmp_path,
                                                       capsys, monkeypatch):
        from patsim.corpus import load_corpus

        corpus = load_corpus(pipeline_dir / "corpus.jsonl")
        emb = tmp_path / "d2v.jsonl"
        rng = np.random.default_rng(0)
        with open(emb, "w") as fh:
            for patient in corpus:
                for idx in range(len(patient.notes)):
                    fh.write(json.dumps({"patient_id": patient.patient_id, "note_index": idx,
                                         "vector": rng.standard_normal(16).tolist()}) + "\n")
            fh.write(json.dumps({"patient_id": stray[0], "note_index": stray[1],
                                 "vector": rng.standard_normal(16).tolist()}) + "\n")
        compressed = []
        monkeypatch.setattr(grid, "compress_embeddings", lambda *args: compressed.append(args))
        assert run_cli("vectorize", "--corpus", str(pipeline_dir / "corpus.jsonl"),
                       "--method", "import", "--imports", str(emb), "--label", "d2v008",
                       "--dim", "8", "--out", str(tmp_path / "x.bin")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert f"1 record(s) for notes the corpus lacks, the first {stray}" in err
        assert compressed == [] and not (tmp_path / "x.bin").exists()

    def test_missing_import_record_fails_before_compression(self, pipeline_dir, tmp_path,
                                                            capsys, monkeypatch):
        from patsim.corpus import load_corpus

        corpus = load_corpus(pipeline_dir / "corpus.jsonl")
        emb = tmp_path / "d2v.jsonl"
        rng = np.random.default_rng(0)
        keys = [(p.patient_id, idx) for p in corpus for idx in range(len(p.notes))]
        with open(emb, "w") as fh:
            for pid, idx in keys[:-1]:  # the last note has no record
                fh.write(json.dumps({"patient_id": pid, "note_index": idx,
                                     "vector": rng.standard_normal(16).tolist()}) + "\n")
        compressed = []
        monkeypatch.setattr(grid, "compress_embeddings", lambda *args: compressed.append(args))
        assert run_cli("vectorize", "--corpus", str(pipeline_dir / "corpus.jsonl"),
                       "--method", "import", "--imports", str(emb), "--label", "d2v008",
                       "--dim", "8", "--out", str(tmp_path / "x.bin")) == 1
        err = capsys.readouterr().err
        assert err.strip() == f"error: {emb}: no record for 1 note(s), the first {keys[-1]}"
        assert compressed == [] and not (tmp_path / "x.bin").exists()


class TestPairs:
    def test_writes_similarity_and_csv(self, pipeline_dir, tmp_path):
        sim_path = tmp_path / "sim.bin"
        csv_path = tmp_path / "sim.csv"
        assert run_cli(
            "pairs", "--matrices", str(pipeline_dir / "mats.bin"),
            "--mmethod", "mms", "--out", str(sim_path), "--csv", str(csv_path),
        ) == 0
        sim = load_similarity(sim_path)
        assert sim.config.mmethod == "mms"
        assert sim.config.vmethod == "lsa012"
        assert csv_path.read_text().startswith("id_a,id_b,score,defined")

    def test_bad_mmethod_is_usage_error(self):
        proc = run_proc("pairs", "--mmethod", "bogus")
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr

    def test_unknown_subcommand_is_usage_error(self):
        proc = run_proc("frobnicate")
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_missing_required_path_is_domain_error(self, tmp_path):
        assert run_cli("pairs", "--mmethod", "mms", "--out",
                       str(tmp_path / "x.bin")) == 1

    @pytest.mark.parametrize("meta", [
        {"vmethod": "lsa012", "seed": "x"},
        {"vmethod": "lsa012", "category": 5},
        {"vmethod": "bogus"},
    ])
    def test_bad_container_meta_is_one_error_line(self, pipeline_dir, tmp_path,
                                                  capsys, meta):
        matrices, _ = load_matrices(pipeline_dir / "mats.bin")
        save_matrices(matrices, tmp_path / "mats.bin", meta=meta)
        assert run_cli("pairs", "--matrices", str(tmp_path / "mats.bin"),
                       "--mmethod", "mms", "--out", str(tmp_path / "x.sim")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt matrix container ")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x.sim").exists()


class TestCounts:
    """A count below 1 is a one-line error, raised before any input is read
    (the input paths here do not exist)."""

    @pytest.mark.parametrize("argv, flag", [
        (["pairs", "--mmethod", "mms", "--matrices", "missing.bin", "--out", "x.sim",
          "--workers", "0"], "--workers"),
        (["gridsearch", "--corpus", "missing.jsonl", "--annotations", "missing.csv",
          "--out", "report", "--workers", "0"], "--workers"),
        (["vectorize", "--corpus", "missing.jsonl", "--out", "x.bin", "--dim", "0"],
         "--dim"),
        (["vectorize", "--corpus", "missing.jsonl", "--out", "x.bin",
          "--min-doc-freq", "0"], "--min-doc-freq"),
    ])
    def test_flag_below_one(self, argv, flag, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be >= 1")
        assert len(err.strip().splitlines()) == 1

    def test_workers_env_below_one(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PATSIM_WORKERS", "0")
        assert run_cli("pairs", "--mmethod", "mms", "--matrices", "missing.bin",
                       "--out", "x.sim") == 1
        assert capsys.readouterr().err == "error: PATSIM_WORKERS must be >= 1, got 0\n"

    @pytest.mark.parametrize("counts, message", [
        (["--patients", "3", "--clusters", "5"], "n_clusters cannot exceed n_patients"),
        (["--patients", "5", "--clusters", "2", "--notes-min", "5", "--notes-max", "2"],
         "notes_per_patient range (5, 2) is empty"),
        (["--patients", "5", "--clusters", "2", "--vocab", "50"],
         "vocab_size too small"),
    ])
    def test_inconsistent_synth_counts(self, counts, message, capsys, tmp_path):
        # each count is >= 1, but together they describe no corpus
        assert run_cli("synth", *counts, "--out", str(tmp_path / "c.jsonl")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_negative_synth_seed(self, via, capsys, tmp_path):
        cfg = tmp_path / "patsim.cfg"
        cfg.write_text("seed = -1\n")
        seed = ["--seed", "-1"] if via == "flag" else ["--config", str(cfg)]
        assert run_cli("synth", "--patients", "5", "--clusters", "2", *seed,
                       "--out", str(tmp_path / "c.jsonl")) == 1
        assert capsys.readouterr().err == (
            "error: seed must be a non-negative integer, got -1\n")
        assert not (tmp_path / "c.jsonl").exists()


class TestEvaluate:
    def test_end_to_end(self, pipeline_dir, tmp_path):
        sim_path = tmp_path / "sim.bin"
        assert run_cli(
            "pairs", "--matrices", str(pipeline_dir / "mats.bin"),
            "--mmethod", "rv2", "--out", str(sim_path),
        ) == 0
        assignment = load_assignment_csv(pipeline_dir / "assign.csv")
        vs = synthesize_validation(assignment, n_pivots=5, per_pivot=5, seed=3)
        ann_path = tmp_path / "ann.csv"
        save_annotations(vs, ann_path)
        out_csv = tmp_path / "eval.csv"
        assert run_cli(
            "evaluate", "--sim", str(sim_path),
            "--annotations", str(ann_path), "--category", "all",
            "--out", str(out_csv),
        ) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "category,tau,pivots,skipped,excluded"
        assert len(lines) == 11

    def test_config_out_writes_the_csv(self, pipeline_dir, tmp_path):
        # out is a known key and evaluate has --out, so the file fills it
        sim_path = tmp_path / "sim.bin"
        assert run_cli("pairs", "--matrices", str(pipeline_dir / "mats.bin"),
                       "--mmethod", "rv2", "--out", str(sim_path)) == 0
        vs = synthesize_validation(load_assignment_csv(pipeline_dir / "assign.csv"),
                                   n_pivots=5, per_pivot=5, seed=3)
        save_annotations(vs, tmp_path / "ann.csv")
        cfg = tmp_path / "patsim.cfg"
        cfg.write_text(f"annotations = {tmp_path / 'ann.csv'}\n"
                       f"out = {tmp_path / 'eval.csv'}\n")
        assert run_cli("evaluate", "--config", str(cfg), "--sim", str(sim_path)) == 0
        lines = (tmp_path / "eval.csv").read_text().strip().splitlines()
        assert lines[0] == "category,tau,pivots,skipped,excluded" and len(lines) == 11


class TestGridsearch:
    def test_lsa_only_grid_end_to_end(self, tmp_path):
        # big enough notes-per-patient that the dim-200 legs are feasible
        # in every category; without import files that leaves 18 valued
        # cells and 24 skipped ones
        root = tmp_path
        assert run_cli(
            "synth", "--patients", "50", "--clusters", "4", "--seed", "21",
            "--notes-min", "14", "--notes-max", "18",
            "--out", str(root / "c.jsonl"),
            "--assignment-out", str(root / "a.csv"),
            "--prototypes-out", str(root / "p.json"),
        ) == 0
        assignment = load_assignment_csv(root / "a.csv")
        vs = synthesize_validation(assignment, n_pivots=8, per_pivot=5, seed=5)
        save_annotations(vs, root / "ann.csv")
        assert run_cli(
            "gridsearch", "--corpus", str(root / "c.jsonl"),
            "--annotations", str(root / "ann.csv"),
            "--prototypes", str(root / "p.json"),
            "--threshold", "0.6",
            "--out", str(root / "report"),
        ) == 0
        lines = (root / "report" / "cells.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 42
        skipped = [ln for ln in lines[1:] if ",skipped," in ln]
        valued = [ln for ln in lines[1:] if ",skipped," not in ln]
        assert len(skipped) == 24
        assert len(valued) == 18


class TestHelp:
    @pytest.mark.parametrize("command", [
        "synth", "segment", "vectorize", "pairs", "evaluate",
        "gridsearch", "report",
    ])
    def test_help_lists_flags_with_defaults(self, command):
        proc = run_proc(command, "--help")
        assert proc.returncode == 0
        # only the generator takes a seed; every other step is deterministic
        assert ("--seed" in proc.stdout) == (command == "synth")
        assert "--config" in proc.stdout

    def test_pairs_help_mentions_workers_default(self):
        proc = run_proc("pairs", "--help")
        assert "PATSIM_WORKERS" in proc.stdout

    def test_help_shows_flag_defaults(self):
        proc = run_proc("vectorize", "--help")
        flat = " ".join(proc.stdout.split())
        assert "(default: 50)" in flat      # --dim
        assert "(default: all)" in flat     # --category
        assert "(default: 0.7)" in flat     # --threshold


class TestConfigFile:
    def test_values_fill_unset_flags(self, pipeline_dir, tmp_path):
        cfg = tmp_path / "patsim.cfg"
        cfg.write_text(
            f"corpus = {pipeline_dir / 'corpus.jsonl'}\n"
            "seed = 1  # comment\n"
        )
        out = tmp_path / "from_config.bin"
        assert run_cli(
            "vectorize", "--config", str(cfg), "--category", "all",
            "--method", "lsa", "--dim", "12", "--out", str(out),
        ) == 0
        assert out.read_bytes() == (pipeline_dir / "mats.bin").read_bytes()

    def test_flag_overrides_config(self, pipeline_dir, tmp_path):
        cfg = tmp_path / "patsim.cfg"
        cfg.write_text(f"out = {tmp_path / 'from_config.bin'}\n")
        out = tmp_path / "override.bin"
        assert run_cli(
            "vectorize", "--config", str(cfg),
            "--corpus", str(pipeline_dir / "corpus.jsonl"),
            "--category", "all", "--method", "lsa", "--dim", "12",
            "--out", str(out),
        ) == 0
        assert out.read_bytes() == (pipeline_dir / "mats.bin").read_bytes()
        assert not (tmp_path / "from_config.bin").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "patsim.cfg"
        cfg.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config_file(cfg)

    @pytest.mark.parametrize(
        "line", ["dim = 20", "title_dim = 8", "threshold = 0.5",
                 "min_doc_freq = 2", "categories = Medication"])
    def test_flag_only_settings_rejected(self, line, tmp_path):
        # these have flags but no config-file mapping; accepting them
        # would silently keep the flag default
        cfg = tmp_path / "patsim.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config_file(cfg)

    def test_missing_referenced_path_rejected(self, tmp_path):
        cfg = tmp_path / "patsim.cfg"
        cfg.write_text("corpus = /does/not/exist.jsonl\n")
        with pytest.raises(ConfigError, match="does not exist"):
            load_config_file(cfg)

    def test_workers_env_default(self, pipeline_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("PATSIM_WORKERS", "2")
        sim_path = tmp_path / "sim.bin"
        assert run_cli(
            "pairs", "--matrices", str(pipeline_dir / "mats.bin"),
            "--mmethod", "mms", "--out", str(sim_path),
        ) == 0
        assert load_similarity(sim_path).config.workers == 2


class TestPathErrors:
    """A missing or unwritable path is one error line with exit code 1."""

    @pytest.mark.parametrize("argv", [
        ["vectorize", "--category", "Medication", "--relevancy", "{tmp}/missing.json"],
        ["vectorize", "--category", "Medication", "--prototypes", "{tmp}/missing.json"],
        ["vectorize", "--method", "import", "--imports", "{tmp}/nope.jsonl",
         "--label", "d2v050"],
        ["gridsearch", "--annotations", "{tmp}/ann.csv",
         "--prototypes", "{tmp}/missing.json"],
    ], ids=["relevancy", "prototypes", "imports", "gridsearch-prototypes"])
    def test_missing_input_file(self, argv, pipeline_dir, tmp_path, capsys):
        assignment = load_assignment_csv(pipeline_dir / "assign.csv")
        save_annotations(synthesize_validation(assignment, n_pivots=3, seed=1),
                         tmp_path / "ann.csv")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert run_cli(*argv, "--corpus", str(pipeline_dir / "corpus.jsonl"),
                       "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "missing.json" in err or "nope.jsonl" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["pairs", "--mmethod", "rv2", "--matrices", "{tmp}/nope.bin",
         "--out", "{tmp}/x.sim"],
        ["report", "--sims", "{tmp}/nope.sim"],
        ["report", "--sims", "{sim}", "--csv", "{tmp}/afile/t.csv"],
        ["evaluate", "--sim", "{sim}", "--annotations", "{tmp}/ann.csv",
         "--out", "{tmp}/afile/e.csv"],
    ], ids=["pairs-matrices", "report-sims", "report-csv-under-a-file",
            "evaluate-out-under-a-file"])
    def test_missing_or_unwritable(self, argv, pipeline_dir, tmp_path, capsys):
        sim = tmp_path / "s.sim"
        assert run_cli("pairs", "--matrices", str(pipeline_dir / "mats.bin"),
                       "--mmethod", "rv2", "--out", str(sim)) == 0
        assignment = load_assignment_csv(pipeline_dir / "assign.csv")
        save_annotations(synthesize_validation(assignment, n_pivots=3, seed=1),
                         tmp_path / "ann.csv")
        (tmp_path / "afile").write_text("", encoding="utf-8")
        capsys.readouterr()
        argv = [a.replace("{tmp}", str(tmp_path)).replace("{sim}", str(sim))
                for a in argv]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_report_csv_makes_its_directory(self, pipeline_dir, tmp_path):
        sim = tmp_path / "s.sim"
        assert run_cli("pairs", "--matrices", str(pipeline_dir / "mats.bin"),
                       "--mmethod", "rv2", "--out", str(sim)) == 0
        assert run_cli("report", "--sims", str(sim),
                       "--csv", str(tmp_path / "nodir" / "t.csv")) == 0
        lines = (tmp_path / "nodir" / "t.csv").read_text().splitlines()
        assert lines[0] == "mmethod,dim,wall_time_seconds" and len(lines) == 2


class TestBadPrototypesFile:
    @pytest.mark.parametrize("text", ['{bad', '["medication"]'],
                             ids=["invalid_json", "a_list"])
    @pytest.mark.parametrize("command", ["vectorize", "gridsearch"])
    def test_one_error_line_naming_the_file(self, command, text, pipeline_dir,
                                            tmp_path, capsys):
        protos = tmp_path / "protos.json"
        protos.write_text(text, encoding="utf-8")
        assignment = load_assignment_csv(pipeline_dir / "assign.csv")
        save_annotations(synthesize_validation(assignment, n_pivots=3, seed=1),
                         tmp_path / "ann.csv")
        extra = (["--category", "Medication"] if command == "vectorize"
                 else ["--annotations", str(tmp_path / "ann.csv")])
        assert run_cli(command, "--corpus", str(pipeline_dir / "corpus.jsonl"),
                       "--prototypes", str(protos), "--out", str(tmp_path / "out"),
                       *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {protos}: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["vectorize", "gridsearch"])
    def test_category_without_prototypes(self, command, pipeline_dir, tmp_path, capsys):
        protos = tmp_path / "protos.json"
        protos.write_text('{"Medication": []}', encoding="utf-8")
        assignment = load_assignment_csv(pipeline_dir / "assign.csv")
        save_annotations(synthesize_validation(assignment, n_pivots=3, seed=1),
                         tmp_path / "ann.csv")
        extra = (["--category", "Medication"] if command == "vectorize"
                 else ["--annotations", str(tmp_path / "ann.csv")])
        assert run_cli(command, "--corpus", str(pipeline_dir / "corpus.jsonl"),
                       "--prototypes", str(protos), "--out", str(tmp_path / "out"),
                       *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'Medication'" in err
        assert len(err.strip().splitlines()) == 1


# vectorize --model-out, pairs for each measure and gridsearch, in one process
_ONE_THREAD_COUNT = """
import sys
from patsim.cli import main

root, out = sys.argv[1:]
steps = [
    ["vectorize", "--corpus", f"{root}/corpus.jsonl", "--dim", "20",
     "--out", f"{out}/mats.bin", "--model-out", f"{out}/model.lsa"],
    *(["pairs", "--matrices", f"{out}/mats.bin", "--mmethod", m, "--out", f"{out}/{m}.sim"]
      for m in ("rv2", "mms", "eds")),
    ["gridsearch", "--corpus", f"{root}/corpus.jsonl", "--annotations", f"{root}/ann.csv",
     "--prototypes", f"{root}/protos.json", "--out", f"{out}/report"],
]
for argv in steps:
    assert main(argv) == 0, argv
"""


def test_outputs_agree_across_blas_thread_counts(tmp_path):
    """The sign rule leaves BLAS rounding as the only thing a thread count
    moves: reports bitwise, models, matrices and scores within 1e-12."""
    assert run_cli("synth", "--patients", "40", "--clusters", "3", "--seed", "7",
                   "--out", str(tmp_path / "corpus.jsonl"),
                   "--assignment-out", str(tmp_path / "assign.csv"),
                   "--prototypes-out", str(tmp_path / "protos.json")) == 0
    vs = synthesize_validation(load_assignment_csv(tmp_path / "assign.csv"),
                               n_pivots=6, per_pivot=5, seed=3)
    save_annotations(vs, tmp_path / "ann.csv")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c", _ONE_THREAD_COUNT, str(tmp_path), str(out)],
                       check=True, env=env, capture_output=True)
        outs.append(out)
    one, two = outs

    names = sorted(p.name for p in (one / "report").iterdir())
    assert names == sorted(p.name for p in (two / "report").iterdir())
    for name in names:
        assert (one / "report" / name).read_bytes() == (two / "report" / name).read_bytes()

    m1, m2 = (load_lsa_model(out / "model.lsa") for out in outs)
    assert m1.vocabulary == m2.vocabulary and m1.idf.tobytes() == m2.idf.tobytes()
    assert np.abs(m1.projection - m2.projection).max() <= 1e-12

    (mats1, meta1), (mats2, meta2) = (load_matrices(out / "mats.bin") for out in outs)
    assert meta1 == meta2 and list(mats1) == list(mats2)
    for pid, mat in mats1.items():
        assert np.array_equal(mat.note_indices, mats2[pid].note_indices)
        assert np.abs(mat.rows - mats2[pid].rows).max() <= 1e-12

    for mmethod in ("rv2", "mms", "eds"):
        s1, s2 = (load_similarity(out / f"{mmethod}.sim") for out in outs)
        assert s1.patient_ids == s2.patient_ids and np.array_equal(s1.defined, s2.defined)
        assert np.abs(s1.scores[s1.defined] - s2.scores[s2.defined]).max() <= 1e-12
