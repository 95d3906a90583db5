from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from patsim.cli import build_parser, load_config_file, main
from patsim.engine import load_similarity
from patsim.exceptions import ConfigError
from patsim.synth import load_assignment_csv, synthesize_validation
from patsim.evaluation import save_annotations


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
