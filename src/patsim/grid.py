"""Grid search over (filter, vectorizer, measure) and report tables.

Runs every cell of the 2 x 7 x 3 grid end to end: filter notes,
vectorize, score all pairs, correlate with annotations per category.
Embedding models are fitted on the whole corpus; pair scoring covers the
patients the validation set actually ranks (pivots and their
candidates), which is what the evaluation consumes.

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
    compute_all_pairs,
    parse_vmethod,
    vmethod_label,
)
from .evaluation import (
    AgreementSummary,
    ValidationSet,
    evaluate_config,
    inter_annotator_agreement,
)
from .exceptions import ConfigError, DimTooLarge
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
    VectorizerConfig,
    build_patient_matrices,
    embeddings_at_dim,
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
    mean: float | None
    note: str = ""

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
    """Each patient's notes, and the LSA models, of one corpus's leg
    contexts; `vectorize` and the grid both build their legs here.

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

    def lsa(self, category: str | None, dim: int) -> LsaModel:
        """Fit one context's LSA model; raises DimTooLarge when the context
        is too small for dim. Not cached: each model feeds one leg."""
        docs = [fn.text for fns in self.notes(category).values() for fn in fns]
        return fit_lsa(docs, VectorizerConfig(
            dim=dim,
            min_doc_freq=self.options.min_doc_freq,
            sublinear_tf=self.options.sublinear_tf,
        ))


class _GridRunner:
    def __init__(self, legs: Legs, validation: ValidationSet, imports_dir: Path | None):
        self.legs = legs
        self.validation = validation
        self.imports_dir = imports_dir
        self.exclusions: dict[str, list[str]] = {}

        corpus = legs.corpus
        missing = validation.patient_ids() - set(corpus.patients)
        if missing:
            raise ConfigError(
                f"validation references patients absent from the corpus: "
                f"{sorted(missing)[:5]}{'...' if len(missing) > 5 else ''}"
            )
        self.subset = [corpus.patients[pid] for pid in sorted(validation.patient_ids())]
        for cat in CATEGORIES:  # a missing map or category fails before any scoring
            legs.notes(cat.name)

        self._imports: dict[str, dict | None] = {}
        self._matrices: dict[tuple[bool, str | None, str], dict | None] = {}
        self._sims: dict[tuple[bool, str | None, str, str], SimilarityMatrix | None] = {}

    # -- embedding legs ----------------------------------------------------

    def _import_map(self, family: str, dim: int) -> dict | None:
        leg = vmethod_label(family, dim)
        if leg not in self._imports:
            if self.imports_dir is None:
                self._imports[leg] = None
            else:
                path = self.imports_dir / f"{leg}.jsonl"
                if not path.exists():
                    self._imports[leg] = None
                else:
                    self._imports[leg] = embeddings_at_dim(
                        import_embeddings(path), dim, path)
        return self._imports[leg]

    def _matrices_for(
        self, filtered: bool, category: str | None, family: str, dim: int
    ) -> dict | None:
        """Patient matrices for one leg, or None when the leg is unavailable."""
        leg = vmethod_label(family, dim)
        key = (filtered, category, leg)
        if key in self._matrices:
            return self._matrices[key]
        if family == "lsa":
            try:
                embedder = self.legs.lsa(category, dim)
            except DimTooLarge as exc:
                log.warning("lsa dim %d for %s: %s", dim, category or "all", exc)
                embedder = None
        else:
            embedder = self._import_map(family, dim)
        if embedder is None:
            self._matrices[key] = None
            return None
        mats, absent = build_patient_matrices(self.subset, self.legs.notes(category), embedder)
        if absent:
            tag = f"{'filtered' if filtered else 'unfiltered'}/{category or 'all'}/{leg}"
            self.exclusions[tag] = absent
        self._matrices[key] = mats
        return mats

    # -- similarity matrices -----------------------------------------------

    def _similarity(
        self, filtered: bool, category: str | None, vmethod: str, mmethod: str
    ) -> SimilarityMatrix | None:
        key = (filtered, category, vmethod, mmethod)
        if key in self._sims:
            return self._sims[key]
        family, dim = parse_vmethod(vmethod)
        config = RunConfig(
            filter=filtered,
            vmethod=vmethod,
            mmethod=mmethod,
            category=category,
            workers=self.legs.options.workers,
            seed=self.legs.options.seed,
        )
        sim: SimilarityMatrix | None
        if family == "combined":
            members = []
            for fam in ("lsa",) + IMPORT_FAMILIES:
                member = self._similarity(filtered, category, vmethod_label(fam, 50), mmethod)
                if member is not None:
                    members.append(member)
            sim = combine_similarities(members, config) if members else None
        else:
            mats = self._matrices_for(filtered, category, family, dim)
            if mats is None or len(mats) < 2:
                sim = None
            else:
                sim = compute_all_pairs(mats, config)
        self._sims[key] = sim
        return sim

    def _family_present(self, filtered: bool, family: str, mmethod: str) -> bool:
        """Did this family's dim-50 leg score anything the cell needed?"""
        contexts = [None] if not filtered else [c.name for c in CATEGORIES]
        leg = vmethod_label(family, 50)
        return any(
            self._sims.get((filtered, ctx, leg, mmethod)) is not None
            for ctx in contexts
        )

    # -- cells ---------------------------------------------------------------

    def cell(self, filtered: bool, vmethod: str, mmethod: str) -> GridCell:
        family, dim = parse_vmethod(vmethod)
        if family in IMPORT_FAMILIES and self._import_map(family, dim) is None:
            return GridCell(
                filtered, vmethod, mmethod, "skipped",
                {c.name: None for c in CATEGORIES}, None,
                note=f"import file {vmethod}.jsonl not found",
            )
        per_category: dict[str, float | None] = {}
        notes: list[str] = []
        for cat in CATEGORIES:
            sim = self._similarity(
                filtered, cat.name if filtered else None, vmethod, mmethod
            )
            if sim is None:
                per_category[cat.name] = None
                notes.append(f"{cat.name}: no usable leg")
                continue
            result = evaluate_config(sim, self.validation, cat.name)
            per_category[cat.name] = result.mean
            if result.skipped_pivots:
                notes.append(
                    f"{cat.name}: {len(result.skipped_pivots)} pivot(s) skipped"
                )
        defined = [v for v in per_category.values() if v is not None]
        mean = sum(defined) / len(defined) if defined else None
        if family == "combined":
            members = sum(
                self._family_present(filtered, fam, mmethod)
                for fam in ("lsa",) + IMPORT_FAMILIES
            )
            if members == 0:
                status = "skipped"
                notes.append("no dim-50 member legs available")
            elif members < 1 + len(IMPORT_FAMILIES):
                status = "partial"
                notes.append(f"ensemble over {members} of 3 member legs")
            else:
                status = "ok"
        else:
            status = "ok" if defined else "skipped"
        return GridCell(
            filtered, vmethod, mmethod, status, per_category, mean,
            note="; ".join(notes),
        )


def grid_search(
    corpus: Corpus,
    validation: ValidationSet,
    prototypes: dict | None = None,
    relevancy: RelevancyMap | None = None,
    imports_dir: str | Path | None = None,
    options: GridOptions = GridOptions(),
) -> EvalReport:
    """Run all 42 grid cells and collect the evaluation report."""
    agreement = inter_annotator_agreement(validation)  # fails before any scoring
    runner = _GridRunner(
        Legs(corpus, relevancy, prototypes, options),
        validation,
        Path(imports_dir) if imports_dir is not None else None,
    )
    cells = []
    for mmethod in MMETHODS:
        for vmethod in VMETHODS:
            for filtered in (False, True):
                log.info("grid cell: %s %s filter=%s", mmethod, vmethod, filtered)
                cells.append(runner.cell(filtered, vmethod, mmethod))
    return EvalReport(cells, agreement, runner.exclusions)


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

def _summary_table(report: EvalReport) -> list[list]:
    """Measures as rows, vectorizer x filter as columns, "skip" for skipped."""
    by_key = {(c.mmethod, c.vmethod, c.filter): c for c in report.cells}
    vorder = ("combined",) + tuple(v for v in VMETHODS if v != "combined")
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
    agreement = _agreement_table(report)
    texts = {
        "summary.txt": render_summary(report),
        "top10.txt": render_top10(report),
        "agreement.txt": formats.text_table(agreement, 2, left=True),
        "exclusions.json": json.dumps(report.exclusions, indent=2, sort_keys=True),
    }
    csvs = {
        "summary.csv": formats.csv_table(summary, 2),
        "top10.csv": top10_csv(report),
        "agreement.csv": formats.csv_table(agreement, 4),
        "cells.csv": cells_csv(report),
    }
    for name, text in texts.items():
        (out_dir / name).write_text(text + "\n", encoding="utf-8")
    for name, text in csvs.items():
        formats.write_csv(out_dir / name, [text])
    return [out_dir / name for name in (*texts, *csvs)]
