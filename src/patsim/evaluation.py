"""Rank-correlation evaluation against annotator ground truth.

Annotators judge pivot/relevant patient pairs per similarity category on
a 0..10 scale (-1 = incomparable, excluded everywhere). Model rankings
are compared to mean annotations with the tie-adjusted Kendall
coefficient, per pivot, then averaged per category.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from . import formats
from .exceptions import ConfigError, DegenerateInput, LengthMismatch, ParseError, TooShort
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
    """One annotator's judgment of one (pivot, relevant, category) triple;
    each id is a non-empty string."""

    annotator_id: str
    pivot_id: str
    relevant_id: str
    category: str  # canonical name; any name or id resolve_category takes
    score: int     # -1 (incomparable) or 0..10

    def __post_init__(self):
        for name in ("annotator_id", "pivot_id", "relevant_id"):
            if not (isinstance(getattr(self, name), str) and getattr(self, name)):
                raise ValueError(f"{name} must be a non-empty string")
        if not (type(self.score) is int and (self.score == -1 or 0 <= self.score <= 10)):
            raise ValueError(f"score must be an integer, -1 or 0..10, got {self.score!r}")
        try:
            object.__setattr__(self, "category", resolve_category(self.category).name)
        except ConfigError as exc:
            raise ValueError(str(exc)) from None


@dataclass(frozen=True)
class ValidationSet:
    """All annotations, and the pivots and candidate lists they name.

    pivots lists each record's pivot, and relevants each pivot's
    candidates, in the order the records first name them. Built once
    into grades shaped (categories, annotators, pivots, candidate slots):
    annotators sorted, categories in id order. A slot holds NaN when its
    candidate was not judged, was judged incomparable (-1), or is padding
    past the pivot's last candidate. A pivot with fewer than 2
    candidates, a pivot listed as its own candidate (whose score would
    read as the diagonal's 1), or a repeated annotation is rejected.
    Frozen with all it derives (tuples, read-only mappings and arrays),
    so the grades stay in step with the pivots that key them.
    """

    annotations: tuple[AnnotationRecord, ...]

    def __post_init__(self):
        annotations = tuple(self.annotations)
        lists: dict[str, list[str]] = {}
        for pivot, rel in dict.fromkeys((r.pivot_id, r.relevant_id) for r in annotations):
            lists.setdefault(pivot, []).append(rel)
        for pivot, rels in lists.items():
            if len(rels) < 2:
                raise ParseError(
                    f"pivot {pivot!r} has {len(rels)} relevant patients; need >= 2"
                )
            if pivot in rels:
                raise ParseError(f"pivot {pivot!r} is listed as its own candidate")
        annotators = tuple(sorted({r.annotator_id for r in annotations}))
        who = {a: k for k, a in enumerate(annotators)}
        cat = {c.name: c.id - 1 for c in CATEGORIES}
        slot = {(pivot, rel): (p, s) for p, (pivot, rels)
                in enumerate(lists.items()) for s, rel in enumerate(rels)}
        width = max(map(len, lists.values()), default=0)
        grades = np.full((len(cat), len(who), len(lists), width), np.nan)
        seen = set()
        for r in annotations:
            key = (r.annotator_id, r.pivot_id, r.relevant_id, r.category)
            if key in seen:
                raise ParseError(f"duplicate annotation for {key}")
            seen.add(key)
            if r.score >= 0:
                at = slot[r.pivot_id, r.relevant_id]
                grades[cat[r.category], who[r.annotator_id], at[0], at[1]] = r.score
        # grades are small integers, so the sum is exact in any order and
        # the mean is the correctly rounded quotient
        with np.errstate(invalid="ignore"):
            mean = np.nansum(grades, axis=1) / (~np.isnan(grades)).sum(axis=1)
        grades.setflags(write=False)
        mean.setflags(write=False)
        derived = dict(annotations=annotations, pivots=tuple(lists), annotators=annotators,
                       relevants=MappingProxyType({p: tuple(r) for p, r in lists.items()}),
                       _slot=MappingProxyType(slot), _grades=grades, _mean=mean)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        """Pickled and copied as its records, which it is rebuilt from."""
        return ValidationSet, (self.annotations,)

    def pairs(self) -> list[tuple[str, str]]:
        """The (pivot, candidate) pairs the evaluation reads, in slot order."""
        return list(self._slot)

    def patient_ids(self) -> set[str]:
        """The pivots and their candidates."""
        return set(self.pivots).union(*self.relevants.values())


_ANNOTATION_COLUMNS = ("annotator_id", "pivot_id", "relevant_id", "category", "score")


def load_annotations(path: str | Path) -> ValidationSet:
    """Read the annotation CSV.

    Header: annotator_id,pivot_id,relevant_id,category,score. Category
    accepted by name or id 1..10; score must be an integer in -1..10.
    Every fault names the file, and a bad or repeated row its line too.
    """
    path = Path(path)
    records: list[AnnotationRecord] = []
    seen: set[tuple[str, str, str, str]] = set()
    for lineno, (*ids, category, score) in formats.csv_rows(path, _ANNOTATION_COLUMNS,
                                                            "annotation"):
        try:
            rec = AnnotationRecord(*ids, category, int(score))
        except (ValueError, TypeError) as exc:
            raise ParseError(f"bad annotation row: {exc}", path=path, line=lineno)
        key = (rec.annotator_id, rec.pivot_id, rec.relevant_id, rec.category)
        if key in seen:
            raise ParseError(f"duplicate annotation for {key}", path=path, line=lineno)
        seen.add(key)
        records.append(rec)
    if not records:
        raise ParseError("no annotation rows", path=path)
    try:
        return ValidationSet(records)
    except ParseError as exc:
        raise ParseError(str(exc), path=path) from None


def save_annotations(validation: ValidationSet, path: str | Path) -> None:
    q = {name: formats.csv_field(name) for r in validation.annotations
         for name in (r.annotator_id, r.pivot_id, r.relevant_id)}
    formats.write_csv(path, [",".join(_ANNOTATION_COLUMNS) + "\n"], (
        f"{q[r.annotator_id]},{q[r.pivot_id]},{q[r.relevant_id]},{r.category},{r.score}\n"
        for r in validation.annotations))


def _tau_b(x: np.ndarray, y: np.ndarray, valid: np.ndarray):
    """Kendall tau-b of each row of x against the same row of y, counting
    only the slots that valid marks (pairs run over the last axis).

    Returns (tau, n): tau is NaN where a row has a zero radicand, n is
    each row's number of valid slots. Masked pairs get sign 0 rather
    than a product with False, which would keep a NaN grade NaN.
    """
    iu, ju = np.triu_indices(x.shape[-1], k=1)
    pair = valid[..., iu] & valid[..., ju]
    sx = np.where(pair, np.sign(x[..., iu] - x[..., ju]), 0.0)
    sy = np.where(pair, np.sign(y[..., iu] - y[..., ju]), 0.0)
    prod = sx * sy
    net = np.count_nonzero(prod > 0, axis=-1) - np.count_nonzero(prod < 0, axis=-1)
    # n0 - ties per side is the count of valid pairs with a nonzero sign
    radicand = np.count_nonzero(sx, axis=-1) * np.count_nonzero(sy, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.where(radicand > 0, net / np.sqrt(radicand), np.nan)
    return tau, np.count_nonzero(valid, axis=-1)


def kendall_tau_b(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Tie-adjusted Kendall rank correlation.

    tau_b = (C - D) / sqrt((n0 - Tx) (n0 - Ty)), where C and D count
    concordant and discordant pairs, n0 = n(n-1)/2, and Tx, Ty count
    pairs tied within each sequence. Returns None when either sequence
    is entirely tied (zero radicand). Invariant under strictly
    increasing transforms of either argument. A NaN or infinite value
    is DegenerateInput: a NaN has no rank, and two infinities no sign of
    difference.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1 or xa.size != ya.size:
        raise LengthMismatch(f"shapes {xa.shape} vs {ya.shape}")
    if xa.size < 2:
        raise TooShort(f"need at least 2 observations, got {xa.size}")
    if not np.isfinite((xa, ya)).all():
        raise DegenerateInput("tau-b needs finite values")
    tau, _ = _tau_b(xa, ya, np.ones(xa.size, bool))
    return None if np.isnan(tau) else float(tau)


def mean_annotation(
    validation: ValidationSet, pivot: str, relevant: str, category
) -> float | None:
    """Mean over annotators, excluding incomparable (-1) judgments; None
    when no judgment is usable or the pivot does not list the candidate."""
    row = validation._mean[resolve_category(category).id - 1]
    at = validation._slot.get((pivot, relevant))
    return None if at is None or math.isnan(row[at]) else float(row[at])


@dataclass
class CategoryEvaluation:
    """Per-pivot correlations of one similarity matrix in one category."""

    category: str
    per_pivot: dict[str, float | None]
    skipped_pivots: list[str]
    excluded_pairs: int

    @property
    def mean(self) -> float | None:
        defined = [t for t in self.per_pivot.values() if t is not None]
        return sum(defined) / len(defined) if defined else None


def evaluate_config(
    sim: "SimilarityMatrix", validation: ValidationSet, category
) -> CategoryEvaluation:
    """Correlate model scores with mean annotations, pivot by pivot.

    Pairs with an undefined model score or no usable annotation are
    excluded (and counted); pivots left with fewer than two usable
    candidates are skipped. The category value is the mean of the
    defined per-pivot correlations.
    """
    cat = resolve_category(category)
    grade = validation._mean[cat.id - 1]
    index = {pid: i for i, pid in enumerate(sim.patient_ids)}
    # -1 marks padding, or a pair with a patient the matrix lacks
    rows, cols = np.full((2, *grade.shape), -1)
    for (pivot, rel), at in validation._slot.items():
        if pivot in index and rel in index:
            rows[at], cols[at] = index[pivot], index[rel]
    usable = (cols >= 0) & ~np.isnan(grade)
    model = np.zeros(grade.shape)
    model[usable] = sim.lookup(rows[usable], cols[usable])
    usable &= ~np.isnan(model)  # _tau_b reads no slot that usable leaves out
    taus, counts = _tau_b(grade, model, usable)
    skipped = [pivot for pivot, n in zip(validation.pivots, counts) if n < 2]
    per_pivot = {pivot: None if math.isnan(tau) else tau for pivot, tau, n
                 in zip(validation.pivots, taus.tolist(), counts) if n >= 2}
    excluded = len(validation._slot) - int(np.count_nonzero(usable))
    return CategoryEvaluation(cat.name, per_pivot, skipped, excluded)


@dataclass
class AgreementSummary:
    """Distribution of pairwise annotator correlations in one category."""

    values: list[float]

    @property
    def minimum(self) -> float | None:
        return min(self.values) if self.values else None

    @property
    def median(self) -> float | None:
        return float(statistics.median(self.values)) if self.values else None

    @property
    def maximum(self) -> float | None:
        return max(self.values) if self.values else None


def inter_annotator_agreement(
    validation: ValidationSet,
) -> dict[str, AgreementSummary]:
    """Pairwise annotator rank agreement, per category.

    For each annotator pair and pivot, correlate the two score vectors
    over candidates both annotators judged comparable; all-tied vectors
    yield no value. Needs at least two annotators.
    """
    if len(validation.annotators) < 2:
        raise TooShort("agreement needs at least 2 annotators")
    a, b = np.triu_indices(len(validation.annotators), k=1)
    out: dict[str, AgreementSummary] = {}
    for cat in CATEGORIES:
        x, y = validation._grades[cat.id - 1, a], validation._grades[cat.id - 1, b]
        taus, _ = _tau_b(x, y, ~np.isnan(x) & ~np.isnan(y))
        out[cat.name] = AgreementSummary(taus[~np.isnan(taus)].tolist())
    return out


def cluster_precision_at_k(
    sim: "SimilarityMatrix", assignment: Mapping[str, int], k: int = 5
) -> float:
    """Fraction of each patient's top-k neighbours sharing its cluster.

    Used to validate pipelines on generated corpora where the true group
    structure is known. Undefined pairs never enter a ranking; ties are
    broken by patient order for reproducibility. k must be at least 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ids = sim.patient_ids
    everyone = np.arange(len(ids))
    precisions = []
    for i, pid in enumerate(ids):
        scores = sim.lookup(np.full(len(ids), i), everyone)
        scores[i] = np.nan
        cand = np.flatnonzero(~np.isnan(scores))
        if cand.size == 0:
            continue
        order = cand[np.argsort(-scores[cand], kind="stable")]
        top = order[:k]
        same = sum(1 for j in top if assignment[ids[j]] == assignment[pid])
        precisions.append(same / min(k, top.size))
    if not precisions:
        return float("nan")
    return float(np.mean(precisions))
