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
from pathlib import Path

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


class _GridRunner:
    def __init__(
        self,
        corpus: Corpus,
        validation: ValidationSet,
        relevancy: RelevancyMap | None,
        prototypes: dict | None,
        imports_dir: Path | None,
        options: GridOptions,
    ):
        self.validation = validation
        self.options = options
        self.imports_dir = imports_dir
        self.exclusions: dict[str, list[str]] = {}

        missing = validation.patient_ids() - set(corpus.patients)
        if missing:
            raise ConfigError(
                f"validation references patients absent from the corpus: "
                f"{sorted(missing)[:5]}{'...' if len(missing) > 5 else ''}"
            )
        self.subset = [corpus.patients[pid] for pid in sorted(validation.patient_ids())]

        log.info("segmenting %d patients", len(corpus.patients))
        segments = {
            pid: segment_patient(p, options.inherit_untitled)
            for pid, p in corpus.patients.items()
        }

        if relevancy is None:
            if prototypes is None:
                raise ConfigError(
                    "grid search needs a relevancy map or prototype titles "
                    "for the filtered legs"
                )
            relevancy = relevancy_from_prototypes(
                prototypes, segments.values(),
                title_dim=options.title_dim, threshold=options.threshold,
            )
        self.relevancy = relevancy

        # filtered note text per category, full corpus (models fit on all of it)
        self.filtered: dict[str, dict[str, list[FilteredNote]]] = {}
        for cat in CATEGORIES:
            titles = relevancy.for_category(cat)
            self.filtered[cat.name] = {
                pid: filter_segments(segs, titles)
                for pid, segs in segments.items()
            }
        self.unfiltered = {
            pid: unfiltered_notes(p) for pid, p in corpus.patients.items()
        }

        self._imports: dict[str, dict | None] = {}
        self._matrices: dict[tuple[bool, str | None, str], dict | None] = {}
        self._sims: dict[tuple[bool, str | None, str, str], SimilarityMatrix | None] = {}

    # -- embedding legs ----------------------------------------------------

    def _lsa_model(self, category: str | None, dim: int) -> LsaModel | None:
        # not cached: each model feeds one leg, which _matrices_for caches
        notes = self.unfiltered if category is None else self.filtered[category]
        docs = [fn.text for fns in notes.values() for fn in fns]
        cfg = VectorizerConfig(
            dim=dim,
            min_doc_freq=self.options.min_doc_freq,
            sublinear_tf=self.options.sublinear_tf,
        )
        try:
            return fit_lsa(docs, cfg)
        except DimTooLarge as exc:
            log.warning("lsa dim %d for %s: %s", dim, category or "all", exc)
            return None

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
            embedder = self._lsa_model(category if filtered else None, dim)
        else:
            embedder = self._import_map(family, dim)
        if embedder is None:
            self._matrices[key] = None
            return None
        notes = self.unfiltered if not filtered else self.filtered[category]
        mats, absent = build_patient_matrices(self.subset, notes, embedder)
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
            workers=self.options.workers,
            seed=self.options.seed,
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
    runner = _GridRunner(
        corpus,
        validation,
        relevancy,
        prototypes,
        Path(imports_dir) if imports_dir is not None else None,
        options,
    )
    cells = []
    for mmethod in MMETHODS:
        for vmethod in VMETHODS:
            for filtered in (False, True):
                log.info("grid cell: %s %s filter=%s", mmethod, vmethod, filtered)
                cells.append(runner.cell(filtered, vmethod, mmethod))
    agreement = inter_annotator_agreement(validation)
    return EvalReport(cells, agreement, runner.exclusions)


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

def _fmt(v: float | None) -> str:
    return "-" if v is None else f"{v:.2f}"


def render_summary(report: EvalReport) -> str:
    """Grid overview: measures as rows, vectorizer x filter as columns."""
    by_key = {(c.mmethod, c.vmethod, c.filter): c for c in report.cells}
    vorder = ("combined",) + tuple(v for v in VMETHODS if v != "combined")
    header1 = ["mmethod"] + [v for v in vorder for _ in (0, 1)]
    header2 = ["filter"] + ["no", "yes"] * len(vorder)
    rows = [header1, header2]
    for mmethod in MMETHODS:
        row = [mmethod]
        for vmethod in vorder:
            for filtered in (False, True):
                cell = by_key[(mmethod, vmethod, filtered)]
                row.append("skip" if cell.status == "skipped"
                           else _fmt(cell.display_mean()))
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(val.rjust(w) for val, w in zip(r, widths)) for r in rows]
    return "\n".join(lines)


def summary_csv(report: EvalReport) -> str:
    out = ["mmethod,vmethod,filter,status,mean"]
    for c in report.cells:
        out.append(
            f"{c.mmethod},{c.vmethod},{'yes' if c.filter else 'no'},"
            f"{c.status},{_fmt(c.display_mean()) if c.status != 'skipped' else ''}"
        )
    return "\n".join(out) + "\n"


def _top_cells(report: EvalReport, limit: int) -> list[GridCell]:
    """The valued cells, best printed mean first, ties broken by exact mean."""
    return sorted(
        (c for c in report.cells if c.status != "skipped" and c.mean is not None),
        key=lambda c: (-(c.display_mean() or 0.0), -(c.mean or 0.0),
                       c.mmethod, c.vmethod, c.filter),
    )[:limit]


def render_top10(report: EvalReport, limit: int = 10) -> str:
    """Best configurations with per-category detail columns 01..10."""
    ranked = _top_cells(report, limit)
    header = ["mmethod", "vmethod", "filter"] + \
        [f"{c.id:02d}" for c in CATEGORIES] + ["mean"]
    rows = [header]
    for cell in ranked:
        shown = cell.display_values()
        rows.append(
            [cell.mmethod, cell.vmethod, "yes" if cell.filter else "no"]
            + [_fmt(shown[c.name]) for c in CATEGORIES]
            + [_fmt(cell.display_mean())]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(val.rjust(w) for val, w in zip(r, widths)) for r in rows]
    return "\n".join(lines)


def top10_csv(report: EvalReport, limit: int = 10) -> str:
    ranked = _top_cells(report, limit)
    cats = [f"cat{c.id:02d}" for c in CATEGORIES]
    out = ["mmethod,vmethod,filter," + ",".join(cats) + ",mean"]
    for cell in ranked:
        shown = cell.display_values()
        vals = [_fmt(shown[c.name]) for c in CATEGORIES]
        out.append(
            f"{cell.mmethod},{cell.vmethod},{'yes' if cell.filter else 'no'},"
            + ",".join(v if v != "-" else "" for v in vals)
            + f",{_fmt(cell.display_mean())}"
        )
    return "\n".join(out) + "\n"


def render_agreement(report: EvalReport) -> str:
    rows = [["category", "pairs", "min", "median", "max"]]
    for cat in CATEGORIES:
        s = report.agreement[cat.name]
        rows.append([
            cat.name, str(len(s.values)),
            _fmt(s.minimum), _fmt(s.median), _fmt(s.maximum),
        ])
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(val.ljust(w) for val, w in zip(r, widths)) for r in rows]
    return "\n".join(lines)


def agreement_csv(report: EvalReport) -> str:
    out = ["category,pairs,min,median,max"]
    for cat in CATEGORIES:
        s = report.agreement[cat.name]
        out.append(
            f"{cat.name},{len(s.values)},"
            f"{'' if s.minimum is None else f'{s.minimum:.4f}'},"
            f"{'' if s.median is None else f'{s.median:.4f}'},"
            f"{'' if s.maximum is None else f'{s.maximum:.4f}'}"
        )
    return "\n".join(out) + "\n"


def cells_csv(report: EvalReport) -> str:
    cats = [f"cat{c.id:02d}" for c in CATEGORIES]
    out = ["mmethod,vmethod,filter,status," + ",".join(cats) + ",mean,note"]
    for cell in report.cells:
        shown = cell.display_values()
        vals = [
            "" if shown[c.name] is None else f"{shown[c.name]:.2f}"
            for c in CATEGORIES
        ]
        mean = cell.display_mean()
        note = cell.note.replace(",", ";")
        out.append(
            f"{cell.mmethod},{cell.vmethod},{'yes' if cell.filter else 'no'},"
            f"{cell.status}," + ",".join(vals)
            + f",{'' if mean is None else f'{mean:.2f}'},{note}"
        )
    return "\n".join(out) + "\n"


def write_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write every table (text and CSV) plus the exclusion sidecar."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {
        "summary.txt": render_summary(report) + "\n",
        "summary.csv": summary_csv(report),
        "top10.txt": render_top10(report) + "\n",
        "top10.csv": top10_csv(report),
        "agreement.txt": render_agreement(report) + "\n",
        "agreement.csv": agreement_csv(report),
        "cells.csv": cells_csv(report),
        "exclusions.json": json.dumps(report.exclusions, indent=2, sort_keys=True) + "\n",
    }
    paths = []
    for name, text in artifacts.items():
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths
