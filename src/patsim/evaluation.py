"""Rank-correlation evaluation against annotator ground truth.

Annotators judge pivot/relevant patient pairs per similarity category on
a 0..10 scale (-1 = incomparable, excluded everywhere). Model rankings
are compared to mean annotations with the tie-adjusted Kendall
coefficient, per pivot, then averaged per category.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from . import formats
from .exceptions import ConfigError, LengthMismatch, ParseError, TooShort
from .segmenter import CATEGORIES, resolve_category

if TYPE_CHECKING:
    from .engine import SimilarityMatrix

__all__ = [
    "AnnotationRecord",
    "ValidationSet",
    "load_annotations",
    "save_annotations",
    "kendall_tau_b",
    "mean_annotation",
    "CategoryEvaluation",
    "evaluate_config",
    "AgreementSummary",
    "inter_annotator_agreement",
    "cluster_precision_at_k",
]


@dataclass(frozen=True)
class AnnotationRecord:
    """One annotator's judgment of one (pivot, relevant, category) triple."""

    annotator_id: str
    pivot_id: str
    relevant_id: str
    category: str  # canonical category name
    score: int     # -1 (incomparable) or 0..10

    def __post_init__(self):
        if not (self.score == -1 or 0 <= self.score <= 10):
            raise ValueError(f"score must be -1 or 0..10, got {self.score}")


@dataclass
class ValidationSet:
    """Pivot patients, their candidate lists, and all annotations."""

    pivots: list[str]
    relevants: dict[str, list[str]]
    annotations: list[AnnotationRecord]
    _scores: dict[tuple[str, str, str, str], int] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        if not self._scores:
            for rec in self.annotations:
                key = (rec.annotator_id, rec.pivot_id, rec.relevant_id, rec.category)
                if key in self._scores:
                    raise ParseError(f"duplicate annotation for {key}")
                self._scores[key] = rec.score
        self._annotators = sorted({r.annotator_id for r in self.annotations})
        for pivot, rels in self.relevants.items():
            if len(rels) < 2:
                raise ParseError(
                    f"pivot {pivot!r} has {len(rels)} relevant patients; need >= 2"
                )

    @property
    def annotators(self) -> list[str]:
        return self._annotators

    def score_of(
        self, annotator: str, pivot: str, relevant: str, category: str
    ) -> int | None:
        return self._scores.get((annotator, pivot, relevant, category))

    def patient_ids(self) -> set[str]:
        ids = set(self.pivots)
        for rels in self.relevants.values():
            ids.update(rels)
        return ids


def load_annotations(path: str | Path) -> ValidationSet:
    """Read the annotation CSV.

    Header: annotator_id,pivot_id,relevant_id,category,score. Category
    accepted by name or id 1..10; score must be an integer in -1..10.
    """
    path = Path(path)
    records: list[AnnotationRecord] = []
    pivots: list[str] = []
    relevants: dict[str, list[str]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"annotator_id", "pivot_id", "relevant_id", "category", "score"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ParseError(
                f"annotation file must have columns {sorted(required)}", path=path
            )
        for row in reader:
            try:
                category = resolve_category(row["category"]).name
                score = int(row["score"])
                rec = AnnotationRecord(
                    annotator_id=row["annotator_id"],
                    pivot_id=row["pivot_id"],
                    relevant_id=row["relevant_id"],
                    category=category,
                    score=score,
                )
            except (ConfigError, ValueError, KeyError, TypeError) as exc:
                raise ParseError(f"bad annotation row: {exc}", path=path,
                                 line=reader.line_num)
            records.append(rec)
            if rec.pivot_id not in relevants:
                relevants[rec.pivot_id] = []
                pivots.append(rec.pivot_id)
            if rec.relevant_id not in relevants[rec.pivot_id]:
                relevants[rec.pivot_id].append(rec.relevant_id)
    if not records:
        raise ParseError("no annotation rows", path=path)
    return ValidationSet(pivots, relevants, records)


def save_annotations(validation: ValidationSet, path: str | Path) -> None:
    q = {name: formats.csv_field(name) for r in validation.annotations
         for name in (r.annotator_id, r.pivot_id, r.relevant_id)}
    formats.write_csv(path, ["annotator_id,pivot_id,relevant_id,category,score\n"], (
        f"{q[r.annotator_id]},{q[r.pivot_id]},{q[r.relevant_id]},{r.category},{r.score}\n"
        for r in validation.annotations))


def kendall_tau_b(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Tie-adjusted Kendall rank correlation.

    tau_b = (C - D) / sqrt((n0 - Tx) (n0 - Ty)), where C and D count
    concordant and discordant pairs, n0 = n(n-1)/2, and Tx, Ty count
    pairs tied within each sequence. Returns None when either sequence
    is entirely tied (zero radicand). Invariant under strictly
    increasing transforms of either argument.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1 or xa.size != ya.size:
        raise LengthMismatch(f"shapes {xa.shape} vs {ya.shape}")
    n = xa.size
    if n < 2:
        raise TooShort(f"need at least 2 observations, got {n}")
    iu, ju = np.triu_indices(n, k=1)
    sx = np.sign(xa[iu] - xa[ju])
    sy = np.sign(ya[iu] - ya[ju])
    prod = sx * sy
    concordant = int(np.count_nonzero(prod > 0))
    discordant = int(np.count_nonzero(prod < 0))
    ties_x = int(np.count_nonzero(sx == 0))
    ties_y = int(np.count_nonzero(sy == 0))
    n0 = n * (n - 1) // 2
    denom_x = n0 - ties_x
    denom_y = n0 - ties_y
    if denom_x == 0 or denom_y == 0:
        return None
    return (concordant - discordant) / math.sqrt(denom_x * denom_y)


def mean_annotation(
    validation: ValidationSet, pivot: str, relevant: str, category
) -> float | None:
    """Mean over annotators, excluding incomparable (-1) judgments."""
    cat = resolve_category(category).name
    scores = []
    for annotator in validation.annotators:
        s = validation.score_of(annotator, pivot, relevant, cat)
        if s is not None and s >= 0:
            scores.append(s)
    if not scores:
        return None
    return sum(scores) / len(scores)


@dataclass
class CategoryEvaluation:
    """Per-pivot correlations of one similarity matrix in one category."""

    category: str
    per_pivot: dict[str, float | None]
    skipped_pivots: list[str]
    excluded_pairs: int
    mean: float | None


def evaluate_config(
    sim: "SimilarityMatrix", validation: ValidationSet, category
) -> CategoryEvaluation:
    """Correlate model scores with mean annotations, pivot by pivot.

    Pairs with an undefined model score or no usable annotation are
    excluded (and counted); pivots left with fewer than two usable
    candidates are skipped. The category value is the mean of the
    defined per-pivot correlations.
    """
    cat = resolve_category(category).name
    known = set(sim.patient_ids)
    per_pivot: dict[str, float | None] = {}
    skipped: list[str] = []
    excluded = 0
    for pivot in validation.pivots:
        xs: list[float] = []
        ys: list[float] = []
        for rel in validation.relevants[pivot]:
            ann = mean_annotation(validation, pivot, rel, cat)
            if ann is None:
                excluded += 1
                continue
            if pivot not in known or rel not in known:
                excluded += 1
                continue
            score, ok = sim.get(pivot, rel)
            if not ok:
                excluded += 1
                continue
            xs.append(ann)
            ys.append(score)
        if len(xs) < 2:
            skipped.append(pivot)
            continue
        per_pivot[pivot] = kendall_tau_b(xs, ys)
    defined = [t for t in per_pivot.values() if t is not None]
    mean = sum(defined) / len(defined) if defined else None
    return CategoryEvaluation(cat, per_pivot, skipped, excluded, mean)


@dataclass
class AgreementSummary:
    """Distribution of pairwise annotator correlations in one category."""

    values: list[float]
    minimum: float | None
    median: float | None
    maximum: float | None

    @classmethod
    def from_values(cls, values: list[float]) -> "AgreementSummary":
        if not values:
            return cls([], None, None, None)
        return cls(
            values,
            min(values),
            float(statistics.median(values)),
            max(values),
        )


def inter_annotator_agreement(
    validation: ValidationSet,
) -> dict[str, AgreementSummary]:
    """Pairwise annotator rank agreement, per category.

    For each annotator pair and pivot, correlate the two score vectors
    over candidates both annotators judged comparable; all-tied vectors
    yield no value. Needs at least two annotators.
    """
    annotators = validation.annotators
    if len(annotators) < 2:
        raise TooShort("agreement needs at least 2 annotators")
    out: dict[str, AgreementSummary] = {}
    for cat in CATEGORIES:
        values: list[float] = []
        for a_idx in range(len(annotators)):
            for b_idx in range(a_idx + 1, len(annotators)):
                a, b = annotators[a_idx], annotators[b_idx]
                for pivot in validation.pivots:
                    xs, ys = [], []
                    for rel in validation.relevants[pivot]:
                        sa = validation.score_of(a, pivot, rel, cat.name)
                        sb = validation.score_of(b, pivot, rel, cat.name)
                        if sa is None or sb is None or sa < 0 or sb < 0:
                            continue
                        xs.append(sa)
                        ys.append(sb)
                    if len(xs) >= 2:
                        tau = kendall_tau_b(xs, ys)
                        if tau is not None:
                            values.append(tau)
        out[cat.name] = AgreementSummary.from_values(values)
    return out


def cluster_precision_at_k(
    sim: "SimilarityMatrix", assignment: Mapping[str, int], k: int = 5
) -> float:
    """Fraction of each patient's top-k neighbours sharing its cluster.

    Used to validate pipelines on generated corpora where the true group
    structure is known. Undefined pairs never enter a ranking; ties are
    broken by patient order for reproducibility.
    """
    ids = sim.patient_ids
    precisions = []
    for i, pid in enumerate(ids):
        mask = sim.defined[i].copy()
        mask[i] = False
        cand = np.flatnonzero(mask)
        if cand.size == 0:
            continue
        order = cand[np.argsort(-sim.scores[i, cand], kind="stable")]
        top = order[:k]
        same = sum(1 for j in top if assignment[ids[j]] == assignment[pid])
        precisions.append(same / min(k, top.size))
    if not precisions:
        return float("nan")
    return float(np.mean(precisions))
