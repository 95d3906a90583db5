"""Command-line entry point wiring the pipeline stages together.

Subcommands: synth, segment, vectorize, pairs, evaluate, gridsearch,
report. A shared `--config` file (plain `key = value` lines) supplies
defaults; explicit flags always win. PATSIM_WORKERS sets the default
worker count.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import engine, evaluation, formats, grid, synth
from .corpus import load_corpus, write_corpus
from .exceptions import ConfigError, DimTooLarge, FormatError, PatsimError
from .segmenter import (
    CATEGORIES,
    RelevancyMap,
    load_prototypes,
    resolve_category,
    segment_patient,
)
from .vectorizer import (
    build_patient_matrices,
    load_matrices,
    save_lsa_model,
    save_matrices,
)

log = logging.getLogger("patsim")

_CONFIG_KEYS = {
    "corpus": ("path", True),
    "annotations": ("path", True),
    "imports": ("path", True),
    "relevancy": ("path", True),
    "prototypes": ("path", True),
    "out": ("str", False),
    "out_dir": ("str", False),
    "seed": ("int", False),
    "workers": ("int", False),
}


def load_config_file(path: str | Path) -> dict:
    """Parse a `key = value` config file; unknown keys are rejected."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    values: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        kind, must_exist = _CONFIG_KEYS[key]
        try:
            if kind == "int":
                values[key] = int(value)
            else:
                values[key] = value
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad {kind} value {value!r}")
        if must_exist and not Path(value).exists():
            raise ConfigError(f"{path}:{lineno}: path {value!r} does not exist")
    return values


def _fill_defaults(args: argparse.Namespace) -> None:
    """Copy config values into the unset destinations of the same name
    that the subcommand's parser has; a key it has none for is ignored."""
    config = load_config_file(args.config) if args.config else {}
    for key, value in config.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _resolve_workers(value: int | None) -> int:
    """--workers, else PATSIM_WORKERS, else 1; a count below 1 is rejected."""
    source, env = "--workers", os.environ.get("PATSIM_WORKERS")
    if value is None and env:
        try:
            source, value = "PATSIM_WORKERS", int(env)
        except ValueError:
            raise ConfigError(f"PATSIM_WORKERS must be an integer, got {env!r}")
    if value is not None and value < 1:
        raise ConfigError(f"{source} must be >= 1, got {value}")
    return value or 1


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigError(
                f"--{name.replace('_', '-')} is required "
                "(flag or config file)"
            )


def _require_counts(args: argparse.Namespace, *names: str) -> None:
    """Reject a count flag below 1 before any input is read."""
    for name in names:
        if getattr(args, name) < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 1, "
                              f"got {getattr(args, name)}")


def _relevancy_inputs(args) -> tuple[RelevancyMap | None, dict | None]:
    """(relevancy map, prototype titles) from --relevancy or --prototypes;
    the relevancy map wins, and then the prototypes file is not read."""
    if args.relevancy:
        return RelevancyMap.load(args.relevancy), None
    if args.prototypes:
        return None, load_prototypes(args.prototypes)
    return None, None


def _grid_options(args, workers: int = 1) -> grid.GridOptions:
    """The leg_settings flags as GridOptions."""
    return grid.GridOptions(
        workers=workers,
        threshold=args.threshold,
        title_dim=args.title_dim,
        min_doc_freq=args.min_doc_freq,
        sublinear_tf=not args.raw_tf,
        inherit_untitled=args.inherit_untitled,
    )


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    _require(args, "out")
    _require_counts(args, "patients", "clusters", "notes_min", "notes_max", "vocab")
    try:
        spec = synth.SynthSpec(
            n_patients=args.patients,
            n_clusters=args.clusters,
            notes_per_patient=(args.notes_min, args.notes_max),
            seed=args.seed or 0,
            vocab_size=args.vocab,
        )
    except ValueError as exc:  # counts that are each valid but inconsistent
        raise ConfigError(str(exc)) from None
    corpus, assignment = synth.generate_synthetic(spec)
    write_corpus(corpus, args.out)
    print(f"wrote {corpus.summary.n_notes} notes for "
          f"{corpus.summary.n_patients} patients to {args.out}")
    if args.assignment_out:
        synth.write_assignment_csv(assignment, args.assignment_out)
        print(f"wrote cluster assignment to {args.assignment_out}")
    if args.prototypes_out:
        protos = synth.default_prototypes()
        Path(args.prototypes_out).write_text(
            json.dumps(protos, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote prototype titles to {args.prototypes_out}")
    return 0


def cmd_segment(args) -> int:
    _require(args, "corpus", "out")
    corpus = load_corpus(args.corpus)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        for patient in corpus:
            for segs in segment_patient(patient, args.inherit_untitled):
                for seg in segs:
                    fh.write(json.dumps(
                        {
                            "patient_id": patient.patient_id,
                            "note_index": seg.note_index,
                            "title": seg.title,
                            "body": seg.body,
                        },
                        ensure_ascii=False,
                    ))
                    fh.write("\n")
                    count += 1
    print(f"wrote {count} segments to {out}")
    return 0


def cmd_vectorize(args) -> int:
    _require(args, "corpus", "out")
    _require_counts(args, "dim", "min_doc_freq", "title_dim")
    if args.method == "import":
        _require(args, "imports", "label")
        if args.model_out:
            raise ConfigError("--model-out saves a fitted LSA model; --method import fits none")
    label = args.label or engine.vmethod_label("lsa", args.dim)
    family, dim = engine.parse_vmethod(label)
    if dim != args.dim:
        raise ConfigError(
            f"--label must be <family><dim> with dim {args.dim}, got {label!r}"
        )
    families = ("lsa",) if args.method == "lsa" else grid.IMPORT_FAMILIES
    if family not in families:
        raise ConfigError(f"--label {label!r} is not a {args.method} leg; its family "
                          f"must be {' or '.join(families)}")
    corpus = load_corpus(args.corpus)
    filtered = args.category.lower() != "all"
    category = resolve_category(args.category).name if filtered else None
    # an unfiltered leg reads neither the relevancy nor the prototypes file
    relevancy, prototypes = _relevancy_inputs(args) if filtered else (None, None)
    legs = grid.Legs(corpus, relevancy, prototypes, _grid_options(args))
    notes = legs.notes(category)
    if args.method == "lsa":
        fits = legs.lsa(category, (args.dim,))
        if args.dim not in fits:
            raise DimTooLarge(f"lsa dim {args.dim} for {category or 'all'}: "
                              "too few documents or terms")
        model, embedder = fits[args.dim]
        if args.model_out:
            save_lsa_model(model, args.model_out)
            print(f"wrote model dump to {args.model_out}")
    else:
        keys = [(pid, fn.note_index) for pid, fns in notes.items() for fn in fns]
        embedder = legs.imported(Path(args.imports), args.dim, keys)

    matrices, absent = build_patient_matrices(corpus, notes, embedder)
    if not matrices:
        raise ConfigError("every patient was filtered out; nothing to write")
    save_matrices(matrices, args.out, meta={
        "vmethod": label,
        "filter": filtered,
        "category": category,
    })
    print(f"wrote {len(matrices)} patient matrices (dim {args.dim}) to {args.out}")
    if absent:
        sidecar = Path(str(args.out) + ".exclusions.json")
        sidecar.write_text(json.dumps(sorted(absent), indent=2) + "\n",
                           encoding="utf-8")
        print(f"{len(absent)} patient(s) had no usable text; "
              f"ids listed in {sidecar}")
    return 0


def cmd_pairs(args) -> int:
    _require(args, "matrices", "out")
    workers = _resolve_workers(args.workers)
    matrices, meta = load_matrices(args.matrices)
    try:
        config = engine.RunConfig(
            filter=meta.get("filter", False),
            vmethod=meta.get("vmethod", "lsa050"),
            mmethod=args.mmethod,
            category=meta.get("category"),
            workers=workers,
            seed=meta.get("seed", 0),
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(f"corrupt matrix container {args.matrices}: "
                          f"bad meta: {exc}") from None
    sim = engine.compute_all_pairs(matrices, config)
    engine.persist_similarity(sim, args.out)
    npairs = sim.n * (sim.n - 1) // 2
    print(f"scored {npairs} pairs ({sim.n} patients, {args.mmethod}) "
          f"in {sim.wall_time_seconds:.2f}s; wrote {args.out}")
    if args.csv:
        engine.export_csv(sim, args.csv)
        print(f"wrote CSV export to {args.csv}")
    return 0


def cmd_evaluate(args) -> int:
    _require(args, "sim", "annotations")
    sim = engine.load_similarity(args.sim)
    validation = evaluation.load_annotations(args.annotations)
    if args.category and args.category.lower() != "all":
        categories = [resolve_category(args.category)]
    else:
        categories = list(CATEGORIES)
    table = [["category", "tau", "pivots", "skipped", "excluded"]]
    for cat in categories:
        res = evaluation.evaluate_config(sim, validation, cat)
        used = sum(1 for v in res.per_pivot.values() if v is not None)
        table.append([cat.name, res.mean, str(used), str(len(res.skipped_pivots)),
                      str(res.excluded_pairs)])
    means = [row[1] for row in table[1:] if row[1] is not None]
    mean_row = [["mean", sum(means) / len(means), "", "", ""]] \
        if len(table) > 2 and means else []
    print(formats.text_table(table + mean_row, 3))
    if args.out:
        formats.write_csv(args.out, [formats.csv_table(table, 4)])
        print(f"wrote {args.out}")
    return 0


def cmd_gridsearch(args) -> int:
    _require(args, "corpus", "annotations")
    if args.out_dir is None:
        raise ConfigError("--out is required (flag or config file)")
    _require_counts(args, "min_doc_freq", "title_dim")
    options = _grid_options(args, workers=_resolve_workers(args.workers))
    corpus = load_corpus(args.corpus)
    validation = evaluation.load_annotations(args.annotations)
    relevancy, prototypes = _relevancy_inputs(args)
    report = grid.grid_search(
        corpus,
        validation,
        prototypes=prototypes,
        relevancy=relevancy,
        imports_dir=args.imports,
        options=options,
    )
    paths = grid.write_report(report, args.out_dir)
    print(grid.render_summary(report))
    print()
    print(grid.render_top10(report))
    print()
    print(f"wrote {len(paths)} report files to {args.out_dir}")
    return 0


def cmd_report(args) -> int:
    runs = [engine.load_similarity(p) for p in args.sims]
    table = engine.timing_report(runs)
    print(table.render())
    if args.csv:
        formats.write_csv(args.csv, [table.to_csv()])
        print(f"wrote {args.csv}")
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patsim",
        description="Patient similarity from note embedding matrices.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable debug logging")
    subparser_kw = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None,
                       help="key = value config file; flags override it")

    defaults = grid.GridOptions()

    def leg_settings(p: argparse.ArgumentParser) -> None:
        """The flags that decide how a leg's notes are filtered and fitted;
        their defaults are GridOptions'."""
        p.add_argument("--relevancy", default=None, help="relevancy map JSON")
        p.add_argument("--prototypes", default=None, help="prototype titles JSON")
        p.add_argument("--threshold", type=float, default=defaults.threshold,
                       help="cosine threshold for prototype expansion")
        p.add_argument("--title-dim", type=int, default=defaults.title_dim,
                       help="dimension of the title latent space")
        p.add_argument("--min-doc-freq", type=int, default=defaults.min_doc_freq,
                       help="drop tokens seen in fewer documents")
        p.add_argument("--raw-tf", action="store_true",
                       help="use raw counts instead of 1+log(count)")
        p.add_argument("--inherit-untitled", action="store_true",
                       help="untitled segments inherit the previous title")

    p = sub.add_parser("synth", help="generate a synthetic corpus",
                       **subparser_kw)
    common(p)
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the generator (unset means 0)")
    p.add_argument("--patients", type=int, required=True,
                   help="number of patients to generate")
    p.add_argument("--clusters", type=int, required=True,
                   help="number of planted clusters")
    p.add_argument("--notes-min", type=int, default=6,
                   help="minimum notes per patient")
    p.add_argument("--notes-max", type=int, default=12,
                   help="maximum notes per patient")
    p.add_argument("--vocab", type=int, default=600,
                   help="pseudo-word vocabulary size")
    p.add_argument("--out", default=None, help="corpus JSONL path")
    p.add_argument("--assignment-out", default=None,
                   help="write patient_id,cluster CSV")
    p.add_argument("--prototypes-out", default=None,
                   help="write default prototype titles as JSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("segment", help="split notes into titled segments",
                       **subparser_kw)
    common(p)
    p.add_argument("--corpus", default=None, help="corpus JSONL path")
    p.add_argument("--out", default=None, help="segments JSONL path")
    p.add_argument("--inherit-untitled", action="store_true",
                   help="untitled segments inherit the previous title")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("vectorize", help="build patient matrices",
                       **subparser_kw)
    common(p)
    p.add_argument("--corpus", default=None, help="corpus JSONL path")
    p.add_argument("--category", default="all",
                   help="similarity category name, id, or 'all' (no filtering)")
    p.add_argument("--method", choices=("lsa", "import"), default="lsa",
                   help="fit embeddings here or read them from a file")
    p.add_argument("--dim", type=int, default=50,
                   help="embedding dimension")
    p.add_argument("--out", default=None, help="matrix container path")
    p.add_argument("--imports", default=None,
                   help="embedding JSONL file (method=import)")
    p.add_argument("--label", default=None,
                   help="leg label recorded in the container, <family><dim> "
                        "with the --dim value and a family of the --method "
                        "(lsa; d2v or rbc for import, e.g. d2v050); defaults "
                        "to lsa<dim> for lsa")
    leg_settings(p)
    p.add_argument("--model-out", default=None, help="save the LSA model dump")
    p.set_defaults(func=cmd_vectorize)

    p = sub.add_parser("pairs", help="score all patient pairs",
                       **subparser_kw)
    common(p)
    p.add_argument("--matrices", default=None,
                   help="matrix container from vectorize")
    p.add_argument("--mmethod", choices=engine.MMETHODS, required=True,
                   help="matrix similarity measure")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel eds workers (default: PATSIM_WORKERS or 1)")
    p.add_argument("--out", default=None, help="similarity file path")
    p.add_argument("--csv", default=None, help="also export id_a,id_b,score,defined")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("evaluate",
                       help="correlate a similarity file with annotations",
                       **subparser_kw)
    common(p)
    p.add_argument("--sim", default=None, help="similarity file from pairs")
    p.add_argument("--annotations", default=None,
                   help="annotation CSV path")
    p.add_argument("--category", default="all",
                   help="one category or 'all'")
    p.add_argument("--out", default=None, help="write per-category CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gridsearch", help="run the full 2x7x3 evaluation grid",
                       **subparser_kw)
    common(p)
    p.add_argument("--corpus", default=None, help="corpus JSONL path")
    p.add_argument("--annotations", default=None,
                   help="annotation CSV path")
    p.add_argument("--imports", default=None,
                   help="directory with d2v050.jsonl etc. for imported legs")
    p.add_argument("--out", dest="out_dir", default=None,
                   help="directory for the report tables")
    leg_settings(p)
    p.add_argument("--workers", type=int, default=None,
                   help="parallel eds workers (default: PATSIM_WORKERS or 1)")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("report", help="timing table over similarity files",
                       **subparser_kw)
    common(p)
    p.add_argument("--sims", nargs="+", required=True,
                   help="similarity files to tabulate")
    p.add_argument("--csv", default=None, help="also write a CSV table")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        _fill_defaults(args)
        return args.func(args)
    except (PatsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
