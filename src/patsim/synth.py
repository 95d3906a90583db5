"""Synthetic corpora with planted cluster structure.

Generated patients are assigned to clusters; their note text is built
from titled segments whose token distributions mix a cluster-specific
pool, a category-specific pool, and a common pool. Same-cluster patients
therefore share vocabulary, and the planted assignment serves as ground
truth for end-to-end pipeline checks. Generation is a pure function of
the spec (bitwise reproducible for a fixed seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from numbers import Integral
from pathlib import Path

import numpy as np

from . import formats
from .corpus import Corpus, NoteRecord, PatientRecord
from .evaluation import AnnotationRecord, ValidationSet
from .exceptions import ParseError
from .segmenter import CATEGORY_NAMES

__all__ = [
    "SynthSpec",
    "default_category_titles",
    "default_prototypes",
    "generate_synthetic",
    "write_assignment_csv",
    "load_assignment_csv",
    "synthesize_validation",
]


def default_category_titles() -> dict[str, list[str]]:
    """Two or three plausible segment titles per similarity category.

    The first entry doubles as the category's default prototype title.
    """
    return {
        "Age": ["age", "years"],
        "Family history": ["family history", "fh"],
        "Medical history": ["medical history", "anamnesis"],
        "Social history": ["social history", "sh"],
        "Medication": ["medication", "drugs", "m"],
        "Allergies": ["allergies", "aa"],
        "Type of tumor": ["tumor type", "diagnosis", "dg"],
        "Treatment": ["treatment", "plan"],
        "Treatment type": ["treatment type", "therapy"],
        "Side effects": ["side effects", "toxicity"],
    }


def default_prototypes() -> dict[str, list[str]]:
    return {name: [titles[0]] for name, titles in default_category_titles().items()}


# Generator settings no spec varies.
TOKENS_PER_SEGMENT = (6, 14)
UNTITLED_FRACTION = 0.05
# token source mix: the cluster pool carries the planted signal
P_CLUSTER = 0.45
P_CATEGORY = 0.35


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic corpus."""

    n_patients: int
    n_clusters: int
    notes_per_patient: tuple[int, int] = (6, 12)
    seed: int = 0
    vocab_size: int = 600
    segments_per_note: tuple[int, int] = (2, 4)

    def __post_init__(self):
        if self.n_patients < 1 or self.n_clusters < 1:
            raise ValueError("n_patients and n_clusters must be positive")
        if self.n_clusters > self.n_patients:
            raise ValueError("n_clusters cannot exceed n_patients")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral) \
                or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name, rng in (
            ("notes_per_patient", self.notes_per_patient),
            ("segments_per_note", self.segments_per_note),
        ):
            lo, hi = rng
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} range {rng} is empty or non-positive")
        if self.vocab_size < 10 * len(CATEGORY_NAMES):
            raise ValueError("vocab_size too small for the pool split")


def _pools(spec: SynthSpec) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Split the vocabulary into common, per-category and per-cluster pools."""
    vocab = np.arange(spec.vocab_size)
    n_common = max(1, spec.vocab_size // 5)
    n_cat_total = max(len(CATEGORY_NAMES), spec.vocab_size // 4)
    common = vocab[:n_common]
    cat_pools = np.array_split(
        vocab[n_common:n_common + n_cat_total], len(CATEGORY_NAMES)
    )
    cluster_pools = np.array_split(vocab[n_common + n_cat_total:], spec.n_clusters)
    return common, cat_pools, cluster_pools


def generate_synthetic(spec: SynthSpec) -> tuple[Corpus, dict[str, int]]:
    """Build a corpus plus its planted patient-to-cluster assignment."""
    rng = np.random.default_rng(spec.seed)
    common, cat_pools, cluster_pools = _pools(spec)
    category_titles = default_category_titles()
    width = max(4, len(str(spec.n_patients - 1)))
    base_date = datetime(2017, 1, 1, 8, 0, 0)

    patients: dict[str, PatientRecord] = {}
    assignment: dict[str, int] = {}
    for p in range(spec.n_patients):
        pid = f"p{p:0{width}d}"
        cluster = p % spec.n_clusters
        assignment[pid] = cluster
        lo, hi = spec.notes_per_patient
        n_notes = int(rng.integers(lo, hi + 1))
        day = int(rng.integers(0, 365))
        notes = []
        for _ in range(n_notes):
            day += int(rng.integers(1, 21))
            minute = int(rng.integers(0, 600))
            ts = base_date + timedelta(days=day, minutes=minute)
            slo, shi = spec.segments_per_note
            n_seg = int(rng.integers(slo, shi + 1))
            paragraphs = []
            for _ in range(n_seg):
                cat_idx = int(rng.integers(0, len(CATEGORY_NAMES)))
                titles = category_titles[CATEGORY_NAMES[cat_idx]]
                title = titles[int(rng.integers(0, len(titles)))]
                tlo, thi = TOKENS_PER_SEGMENT
                n_tok = int(rng.integers(tlo, thi + 1))
                tokens = []
                for _ in range(n_tok):
                    u = rng.random()
                    if u < P_CLUSTER:
                        pool = cluster_pools[cluster]
                    elif u < P_CLUSTER + P_CATEGORY:
                        pool = cat_pools[cat_idx]
                    else:
                        pool = common
                    tokens.append(f"w{pool[int(rng.integers(0, pool.size))]:04d}")
                body = " ".join(tokens)
                if rng.random() < UNTITLED_FRACTION:
                    paragraphs.append(body)
                else:
                    paragraphs.append(f"{title[:1].upper()}{title[1:]}:\n{body}")
            notes.append(NoteRecord(ts, "\n\n".join(paragraphs)))
        patients[pid] = PatientRecord(pid, notes)
    return Corpus(patients), assignment


def write_assignment_csv(assignment: dict[str, int], path: str | Path) -> None:
    formats.write_csv(path, ["patient_id,cluster\n"], (
        f"{formats.csv_field(pid)},{assignment[pid]}\n" for pid in sorted(assignment)))


def load_assignment_csv(path: str | Path) -> dict[str, int]:
    """Read a patient_id,cluster file as write_assignment_csv writes it.

    Raises ParseError, with the path and line, on a missing column, a
    cluster that is not an integer, or a patient listed twice.
    """
    out: dict[str, int] = {}
    for lineno, (pid, cluster) in formats.csv_rows(path, ("patient_id", "cluster"),
                                                   "assignment"):
        if pid in out:
            raise ParseError(f"patient {pid!r} is listed twice", path=path, line=lineno)
        try:
            out[pid] = int(cluster)
        except (TypeError, ValueError):
            raise ParseError(f"cluster {cluster!r} is not an integer", path=path,
                             line=lineno)
    return out


def synthesize_validation(
    assignment: dict[str, int],
    n_pivots: int = 10,
    per_pivot: int = 5,
    n_annotators: int = 3,
    noise: float = 1.0,
    incomparable_rate: float = 0.0,
    seed: int = 0,
) -> ValidationSet:
    """Fabricate annotator judgments from a planted cluster assignment.

    Each pivot gets per_pivot candidates mixing same-cluster and
    other-cluster patients. The underlying truth scores same-cluster
    pairs 9 and cross-cluster pairs 2; each annotator sees that truth
    through independent rounded Gaussian noise, optionally abstaining
    (-1) at the given rate.
    """
    rng = np.random.default_rng(seed)
    ids = sorted(assignment)
    if n_pivots > len(ids):
        raise ValueError(f"cannot pick {n_pivots} pivots from {len(ids)} patients")
    pivot_idx = rng.choice(len(ids), size=n_pivots, replace=False)
    pivots = [ids[i] for i in sorted(pivot_idx)]

    relevants: dict[str, list[str]] = {}
    for pivot in pivots:
        same = [p for p in ids if p != pivot and assignment[p] == assignment[pivot]]
        other = [p for p in ids if assignment[p] != assignment[pivot]]
        n_same = min(max(per_pivot // 2, 1), len(same))
        chosen = [same[int(i)] for i in rng.choice(len(same), n_same, replace=False)]
        n_other = min(per_pivot - n_same, len(other))
        chosen += [other[int(i)] for i in rng.choice(len(other), n_other, replace=False)]
        relevants[pivot] = chosen

    records: list[AnnotationRecord] = []
    for a in range(n_annotators):
        annotator = f"annotator{a + 1}"
        for pivot in pivots:
            for rel in relevants[pivot]:
                truth = 9.0 if assignment[rel] == assignment[pivot] else 2.0
                for cat in CATEGORY_NAMES:
                    if incomparable_rate > 0 and rng.random() < incomparable_rate:
                        score = -1
                    else:
                        score = int(np.clip(round(truth + rng.normal(0.0, noise)), 0, 10))
                    records.append(
                        AnnotationRecord(annotator, pivot, rel, cat, score)
                    )
    return ValidationSet(records)
