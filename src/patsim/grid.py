"""Grid search over (filter, vectorizer, measure) and report tables.

Runs every cell of the 2 x 7 x 3 grid end to end: filter notes,
vectorize, score pairs, correlate with annotations per category.
Each leg context (every note whole, or one category's segments) gets one
table of its 21 (vectorizer, measure) similarity matrices, and the 42
cells are read from those tables.
Embedding models are fitted on the whole corpus, once per context for
both LSA dims; pair scoring covers only the (pivot, candidate) pairs the
validation set ranks, which is all the evaluation reads.

Legs whose imported embedding files are missing are reported as skipped,
never silently zeroed. The ensemble leg averages whatever dim-50 member
scores exist and is flagged partial when members are missing.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import formats
from .corpus import Corpus
from .engine import (
    MMETHODS,
    VMETHODS,
    RunConfig,
    SimilarityMatrix,
    combine_similarities,
    compute_legs,
    parse_vmethod,
    vmethod_label,
)
from .evaluation import (
    AgreementSummary,
    ValidationSet,
    evaluate_config,
    inter_annotator_agreement,
)
from .exceptions import ConfigError, MissingEmbedding
from .segmenter import (
    CATEGORIES,
    FilteredNote,
    RelevancyMap,
    Segment,
    filter_segments,
    relevancy_from_prototypes,
    segment_patient,
    unfiltered_notes,
)
from .vectorizer import (
    LsaModel,
    NoteVectors,
    build_patient_matrices,
    compress_embeddings,
    fit_lsa,
    import_embeddings,
)

log = logging.getLogger(__name__)

__all__ = [
    "GridOptions",
    "Legs",
    "GridCell",
    "EvalReport",
    "grid_search",
    "render_summary",
    "render_top10",
    "render_agreement",
    "write_report",
]

IMPORT_FAMILIES = ("d2v", "rbc")
MEMBER_FAMILIES = ("lsa",) + IMPORT_FAMILIES  # the ensemble averages their dim-50 legs
LEG_METHODS = tuple(v for v in VMETHODS if v != "combined")  # each scored from its own matrices
IMPORT_LEGS = tuple(v for v in LEG_METHODS if parse_vmethod(v)[0] in IMPORT_FAMILIES)
LSA_DIMS = tuple(parse_vmethod(v)[1] for v in LEG_METHODS if parse_vmethod(v)[0] == "lsa")


@dataclass(frozen=True)
class GridOptions:
    seed: int = 0  # recorded in each cell's RunConfig; no grid step is random
    workers: int = 1
    threshold: float = 0.7
    title_dim: int = 16
    min_doc_freq: int = 1
    sublinear_tf: bool = True
    inherit_untitled: bool = False


@dataclass
class GridCell:
    """One grid configuration with its per-category correlations."""

    filter: bool
    vmethod: str
    mmethod: str
    status: str  # "ok" | "partial" | "skipped"
    per_category: dict[str, float | None]
    note: str = ""

    @property
    def mean(self) -> float | None:
        defined = [v for v in self.per_category.values() if v is not None]
        return sum(defined) / len(defined) if defined else None

    def display_values(self) -> dict[str, float | None]:
        """Each value at 2 decimals."""
        return {
            name: (None if v is None else round(v, 2))
            for name, v in self.per_category.items()
        }

    def display_mean(self) -> float | None:
        """Mean of the printed (2-decimal) components, printed at 2 decimals.

        Derived from the displayed values so every rendered mean matches
        the mean of its rendered components to within display rounding.
        """
        shown = [v for v in self.display_values().values() if v is not None]
        if not shown:
            return None
        return round(sum(shown) / len(shown), 2)


@dataclass
class EvalReport:
    cells: list[GridCell]
    agreement: dict[str, AgreementSummary]
    exclusions: dict[str, list[str]] = field(default_factory=dict)


class Legs:
    """Each patient's notes, the LSA models and the imported vectors of
    one corpus's leg contexts; `vectorize` and the grid both build their
    legs here.

    A context is None, every note kept whole, or a category name, the
    segments whose titles the relevancy map files under it. The corpus
    is segmented, and a relevancy map grown from the prototype titles
    unless one is given, only when a filtered context first needs them.
    """

    def __init__(self, corpus: Corpus, relevancy: RelevancyMap | None = None,
                 prototypes: dict | None = None, options: GridOptions = GridOptions()):
        self.corpus = corpus
        self.options = options
        self._relevancy = relevancy
        self._prototypes = prototypes
        self._notes: dict[str | None, dict[str, list[FilteredNote]]] = {}

    @cached_property
    def _segments(self) -> dict[str, list[list[Segment]]]:
        log.info("segmenting %d patients", len(self.corpus))
        return {pid: segment_patient(p, self.options.inherit_untitled)
                for pid, p in self.corpus.patients.items()}

    def relevancy(self) -> RelevancyMap:
        """The given map, else one grown from the prototype titles."""
        if self._relevancy is None:
            if self._prototypes is None:
                raise ConfigError("a filtered leg needs a relevancy map or prototype "
                                  "titles (--relevancy or --prototypes)")
            self._relevancy = relevancy_from_prototypes(
                self._prototypes, self._segments.values(),
                title_dim=self.options.title_dim, threshold=self.options.threshold)
        return self._relevancy

    def notes(self, category: str | None) -> dict[str, list[FilteredNote]]:
        """Each patient's notes in one context, built once."""
        if category not in self._notes:
            if category is None:
                notes = {pid: unfiltered_notes(p) for pid, p in self.corpus.patients.items()}
            else:
                titles = self.relevancy().for_category(category)
                notes = {pid: filter_segments(segs, titles)
                         for pid, segs in self._segments.items()}
            self._notes[category] = notes
        return self._notes[category]

    def lsa(self, category: str | None, dims: tuple[int, ...]
            ) -> dict[int, tuple[LsaModel, NoteVectors]]:
        """One context's LSA model and note vectors at each of dims it can
        carry, from one fit (a dim too large is left out). Not cached."""
        notes = [(pid, fn) for pid, fns in self.notes(category).items() for fn in fns]
        index = {(pid, fn.note_index): k for k, (pid, fn) in enumerate(notes)}
        fits = fit_lsa([fn.text for _, fn in notes], dims,
                       self.options.min_doc_freq, self.options.sublinear_tf)
        return {dim: (model, NoteVectors(index, rows)) for dim, (model, rows) in fits.items()}

    def imported(self, path: Path, dim: int, keys: list[tuple[str, int]]) -> NoteVectors:
        """One import file's vectors at dim, holding a record for each of
        keys, the (patient_id, note_index) pairs the caller will read.

        A record for a note the corpus does not hold is a ConfigError, a
        key without a record MissingEmbedding, and vectors natively below
        dim a ConfigError; each is raised before any compression.
        """
        vectors = import_embeddings(path)
        patients = self.corpus.patients
        stray = [key for key in vectors.index if key[0] not in patients
                 or not 0 <= key[1] < len(patients[key[0]].notes)]
        if stray:
            raise ConfigError(f"{path}: {len(stray)} record(s) for notes the corpus "
                              f"lacks, the first {stray[0]}")
        absent = [key for key in keys if key not in vectors.index]
        if absent:
            raise MissingEmbedding(f"{path}: no record for {len(absent)} note(s), "
                                   f"the first {absent[0]}")
        native = vectors.rows.shape[1] if vectors.index else dim
        if native < dim:
            raise ConfigError(f"{path} holds dim-{native} vectors; need {dim}")
        return compress_embeddings(vectors, dim)


class _GridRunner:
    """The grid's similarity tables over the validation subset.

    The import tables are read once, here, so a bad import file, or one
    without a record for some note of a subset patient, fails before any
    scoring; a leg whose file is missing maps to None.
    """

    def __init__(self, legs: Legs, validation: ValidationSet, imports_dir: Path | None):
        self.legs = legs
        self.validation = validation
        self.exclusions: dict[str, list[str]] = {}

        corpus = legs.corpus
        missing = validation.patient_ids() - set(corpus.patients)
        if missing:
            raise ConfigError(
                f"validation references patients absent from the corpus: "
                f"{sorted(missing)[:5]}{'...' if len(missing) > 5 else ''}"
            )
        self.subset = sorted(validation.patient_ids())
        for cat in CATEGORIES:  # a missing map or category fails before any scoring
            legs.notes(cat.name)

        # the unfiltered context keeps every note, so each one needs a record
        keys = [(pid, k) for pid in self.subset
                for k in range(len(corpus.patients[pid].notes))]
        self.imports: dict[str, NoteVectors | None] = {}
        for vmethod in IMPORT_LEGS:
            path = None if imports_dir is None else imports_dir / f"{vmethod}.jsonl"
            self.imports[vmethod] = None if path is None or not path.exists() \
                else legs.imported(path, parse_vmethod(vmethod)[1], keys)

    def _matrices(self, context: str | None, vmethod: str, embedder: NoteVectors) -> dict:
        """Patient matrices for one leg; the patients it leaves out are
        recorded as exclusions."""
        notes = self.legs.notes(context)
        mats, absent = build_patient_matrices({pid: notes[pid] for pid in self.subset},
                                              embedder)
        if absent:
            tag = f"{'unfiltered' if context is None else 'filtered'}/{context or 'all'}/{vmethod}"
            self.exclusions[tag] = absent
        return mats

    def table(self, context: str | None) -> dict[tuple[str, str], SimilarityMatrix | None]:
        """Every (vmethod, mmethod) similarity of one context, None where
        the leg is unavailable. Each leg's matrices are built once, and
        only the validation's (pivot, candidate) pairs are scored, by one
        compute_legs call: every other pair of these matrices is
        undefined."""
        def config(vmethod: str, mmethod: str) -> RunConfig:
            return RunConfig(filter=context is not None, vmethod=vmethod, mmethod=mmethod,
                             category=context, workers=self.legs.options.workers,
                             seed=self.legs.options.seed)

        lsa = {dim: vectors for dim, (_, vectors) in self.legs.lsa(context, LSA_DIMS).items()}
        mats: dict[str, dict] = {}
        for vmethod in LEG_METHODS:
            family, dim = parse_vmethod(vmethod)
            embedder = lsa.get(dim) if family == "lsa" else self.imports[vmethod]
            if family == "lsa" and embedder is None:
                log.warning("lsa dim %d for %s: too few documents or terms",
                            dim, context or "all")
            if embedder is not None:
                mats[vmethod] = self._matrices(context, vmethod, embedder)
        scored = [(vmethod, mmethod) for vmethod, leg in mats.items() if len(leg) >= 2
                  for mmethod in MMETHODS]
        table: dict[tuple[str, str], SimilarityMatrix | None] = dict.fromkeys(
            ((vmethod, mmethod) for vmethod in LEG_METHODS for mmethod in MMETHODS), None)
        table.update(zip(scored, compute_legs(
            [(mats[vmethod], config(vmethod, mmethod)) for vmethod, mmethod in scored],
            self.validation.pairs())))
        for mmethod in MMETHODS:
            members = [table[vmethod_label(fam, 50), mmethod] for fam in MEMBER_FAMILIES]
            members = [m for m in members if m is not None]
            table["combined", mmethod] = \
                combine_similarities(members, config("combined", mmethod)) if members else None
        return table

    def cell(self, tables: dict, filtered: bool, vmethod: str, mmethod: str) -> GridCell:
        """One cell read from the tables of its contexts."""
        if vmethod in IMPORT_LEGS and self.imports[vmethod] is None:
            return GridCell(
                filtered, vmethod, mmethod, "skipped",
                {c.name: None for c in CATEGORIES},
                note=f"import file {vmethod}.jsonl not found",
            )
        by_category = {c.name: tables[c.name if filtered else None] for c in CATEGORIES}
        per_category: dict[str, float | None] = {}
        notes: list[str] = []
        for name, table in by_category.items():
            sim = table[vmethod, mmethod]
            result = None if sim is None else evaluate_config(sim, self.validation, name)
            per_category[name] = None if result is None else result.mean
            if result is None:
                notes.append(f"{name}: no usable leg")
            elif result.skipped_pivots:
                notes.append(f"{name}: {len(result.skipped_pivots)} pivot(s) skipped")
        if vmethod == "combined":
            members = sum(any(t[vmethod_label(fam, 50), mmethod] is not None
                              for t in by_category.values()) for fam in MEMBER_FAMILIES)
            if members == 0:
                status = "skipped"
                notes.append("no dim-50 member legs available")
            elif members < len(MEMBER_FAMILIES):
                status = "partial"
                notes.append(f"ensemble over {members} of 3 member legs")
            else:
                status = "ok"
        else:
            status = "ok" if any(v is not None for v in per_category.values()) else "skipped"
        return GridCell(filtered, vmethod, mmethod, status, per_category,
                        note="; ".join(notes))


def grid_search(
    corpus: Corpus,
    validation: ValidationSet,
    prototypes: dict | None = None,
    relevancy: RelevancyMap | None = None,
    imports_dir: str | Path | None = None,
    options: GridOptions = GridOptions(),
) -> EvalReport:
    """Build each context's similarity table, then read the 42 cells from them."""
    agreement = inter_annotator_agreement(validation)  # fails before any scoring
    runner = _GridRunner(
        Legs(corpus, relevancy, prototypes, options),
        validation,
        Path(imports_dir) if imports_dir is not None else None,
    )
    tables = {ctx: runner.table(ctx) for ctx in [None] + [c.name for c in CATEGORIES]}
    cells = []
    for mmethod in MMETHODS:
        for vmethod in VMETHODS:
            for filtered in (False, True):
                log.info("grid cell: %s %s filter=%s", mmethod, vmethod, filtered)
                cells.append(runner.cell(tables, filtered, vmethod, mmethod))
    return EvalReport(cells, agreement, runner.exclusions)


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

def _summary_table(report: EvalReport) -> list[list]:
    """Measures as rows, vectorizer x filter as columns, "skip" for skipped."""
    by_key = {(c.mmethod, c.vmethod, c.filter): c for c in report.cells}
    vorder = ("combined",) + LEG_METHODS
    table = [["mmethod"] + [v for v in vorder for _ in (0, 1)],
             ["filter"] + ["no", "yes"] * len(vorder)]
    for mmethod in MMETHODS:
        cells = [by_key[(mmethod, v, f)] for v in vorder for f in (False, True)]
        table.append([mmethod] + ["skip" if c.status == "skipped"
                                  else c.display_mean() for c in cells])
    return table


def _key(cell: GridCell) -> list[str]:
    return [cell.mmethod, cell.vmethod, "yes" if cell.filter else "no"]


def _category_values(cell: GridCell) -> list[float | None]:
    shown = cell.display_values()
    return [shown[c.name] for c in CATEGORIES]


def _top_cells(report: EvalReport, limit: int) -> list[GridCell]:
    """The valued cells, best printed mean first, ties broken by exact mean."""
    return sorted(
        (c for c in report.cells if c.status != "skipped" and c.mean is not None),
        key=lambda c: (-(c.display_mean() or 0.0), -(c.mean or 0.0),
                       c.mmethod, c.vmethod, c.filter),
    )[:limit]


def _top10_table(report: EvalReport, limit: int, category_prefix: str) -> list[list]:
    """Best configurations with one column per category, named prefix + id."""
    header = ["mmethod", "vmethod", "filter"] + \
        [f"{category_prefix}{c.id:02d}" for c in CATEGORIES] + ["mean"]
    return [header] + [_key(cell) + _category_values(cell) + [cell.display_mean()]
                       for cell in _top_cells(report, limit)]


def _agreement_table(report: EvalReport) -> list[list]:
    table = [["category", "pairs", "min", "median", "max"]]
    for cat in CATEGORIES:
        s = report.agreement[cat.name]
        table.append([cat.name, str(len(s.values)), s.minimum, s.median, s.maximum])
    return table


def render_summary(report: EvalReport) -> str:
    """Grid overview: measures as rows, vectorizer x filter as columns."""
    return formats.text_table(_summary_table(report), 2)


def render_top10(report: EvalReport, limit: int = 10) -> str:
    """Best configurations with per-category detail columns 01..10."""
    return formats.text_table(_top10_table(report, limit, ""), 2)


def top10_csv(report: EvalReport, limit: int = 10) -> str:
    return formats.csv_table(_top10_table(report, limit, "cat"), 2)


def render_agreement(report: EvalReport) -> str:
    return formats.text_table(_agreement_table(report), 2, left=True)


def cells_csv(report: EvalReport) -> str:
    header = ["mmethod", "vmethod", "filter", "status"] + \
        [f"cat{c.id:02d}" for c in CATEGORIES] + ["mean", "note"]
    return formats.csv_table([header] + [
        _key(cell) + [cell.status] + _category_values(cell)
        + [cell.display_mean(), cell.note] for cell in report.cells], 2)


def write_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write every table (text and CSV) plus the exclusion sidecar."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = [["mmethod", "vmethod", "filter", "status", "mean"]] + [
        _key(c) + [c.status, None if c.status == "skipped" else c.display_mean()]
        for c in report.cells]
    texts = {
        "summary.txt": render_summary(report),
        "top10.txt": render_top10(report),
        "agreement.txt": render_agreement(report),
        "exclusions.json": json.dumps(report.exclusions, indent=2, sort_keys=True),
    }
    csvs = {
        "summary.csv": formats.csv_table(summary, 2),
        "top10.csv": top10_csv(report),
        "agreement.csv": formats.csv_table(_agreement_table(report), 4),
        "cells.csv": cells_csv(report),
    }
    for name, text in texts.items():
        (out_dir / name).write_text(text + "\n", encoding="utf-8")
    for name, text in csvs.items():
        formats.write_csv(out_dir / name, [text])
    return [out_dir / name for name in (*texts, *csvs)]
