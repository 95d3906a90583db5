"""Note segmentation and per-category filtering.

Notes split into titled paragraph segments; a segment's note is its
list's position in segment_patient's output. Each similarity category
keeps only segments whose (normalized) title is relevant to it; the
relevancy sets are grown from a handful of prototype titles through a
latent title space, and can be hand-edited as a JSON file afterwards.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Iterable, Mapping

import numpy as np

from . import formats
from .exceptions import ConfigError, DimTooLarge, InsufficientTitles, UnknownTitle
from .vectorizer import fit_lsa

if TYPE_CHECKING:
    from .corpus import PatientRecord

__all__ = [
    "CATEGORY_NAMES",
    "CATEGORIES",
    "SimilarityCategory",
    "resolve_category",
    "Segment",
    "FilteredNote",
    "RelevancyMap",
    "normalize_title",
    "segment_note",
    "segment_patient",
    "build_title_space",
    "expand_prototypes",
    "relevancy_from_prototypes",
    "load_prototypes",
    "filter_segments",
    "unfiltered_notes",
    "UNTITLED",
]

CATEGORY_NAMES = (
    "Age",
    "Family history",
    "Medical history",
    "Social history",
    "Medication",
    "Allergies",
    "Type of tumor",
    "Treatment",
    "Treatment type",
    "Side effects",
)


@dataclass(frozen=True)
class SimilarityCategory:
    id: int
    name: str


CATEGORIES: tuple[SimilarityCategory, ...] = tuple(
    SimilarityCategory(i + 1, name) for i, name in enumerate(CATEGORY_NAMES)
)
_BY_NAME = {c.name.lower(): c for c in CATEGORIES}
_BY_ID = {c.id: c for c in CATEGORIES}

UNTITLED = "untitled"

# A title is at most this many whitespace-separated words, the last one
# ending in a colon. Longer colon-bearing lines are treated as prose.
TITLE_MAX_WORDS = 6

_WS_RE = re.compile(r"\s+")


def resolve_category(value) -> SimilarityCategory:
    """Accept a SimilarityCategory, its id (1..10), or its name."""
    if isinstance(value, SimilarityCategory):
        return value
    if isinstance(value, int):
        try:
            return _BY_ID[value]
        except KeyError:
            raise ConfigError(f"no similarity category with id {value}")
    if isinstance(value, str):
        key = value.strip().lower()
        if key in _BY_NAME:
            return _BY_NAME[key]
        if key.isdigit() and int(key) in _BY_ID:
            return _BY_ID[int(key)]
        raise ConfigError(f"unknown similarity category {value!r}")
    raise ConfigError(f"cannot interpret category {value!r}")


def normalize_title(title: str) -> str:
    """Lowercase, trim, drop trailing colons, collapse inner whitespace."""
    t = title.strip().lower().rstrip(":").strip()
    return _WS_RE.sub(" ", t)


@dataclass(frozen=True)
class Segment:
    """A titled fragment of one note."""

    title: str
    body: str


@dataclass(frozen=True)
class FilteredNote:
    """What remains of one note after category filtering.

    note_index points at the note's position in the patient's original
    chronological sequence, not the filtered one.
    """

    note_index: int
    text: str


def _paragraphs(text: str) -> list[list[str]]:
    """Group lines into maximal runs separated by blank lines."""
    runs: list[list[str]] = []
    current: list[str] = []
    for line in text.splitlines():
        if line.strip():
            current.append(line)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return runs


def _split_title(first_line: str) -> tuple[str | None, str]:
    words = first_line.split()
    for idx, word in enumerate(words[:TITLE_MAX_WORDS]):
        if word.endswith(":") and len(word) > 1:
            return " ".join(words[: idx + 1]), " ".join(words[idx + 1:])
    return None, first_line


def segment_note(text: str, inherit_untitled: bool = False) -> list[Segment]:
    """Split one note into titled segments.

    Paragraphs are blank-line separated. When the first line starts with
    a short colon-terminated prefix that prefix becomes the (normalized)
    title; otherwise, or when the title normalizes to the "untitled"
    sentinel itself, the whole paragraph is one untitled segment. With
    inherit_untitled, an untitled segment takes the title of the nearest
    preceding titled segment in the same note.
    """
    segments: list[Segment] = []
    for lines in _paragraphs(text):
        raw_title, rest = _split_title(lines[0])
        body_lines = ([rest] if rest.strip() else []) + lines[1:]
        body = "\n".join(body_lines).strip()
        title = normalize_title(raw_title) if raw_title is not None else ""
        if raw_title is None or title in ("", UNTITLED) or not body:
            segments.append(Segment(UNTITLED, "\n".join(lines).strip()))
        else:
            segments.append(Segment(title, body))
    if inherit_untitled:
        inherited: list[Segment] = []
        last_title: str | None = None
        for seg in segments:
            if seg.title == UNTITLED and last_title is not None:
                seg = Segment(last_title, seg.body)
            elif seg.title != UNTITLED:
                last_title = seg.title
            inherited.append(seg)
        segments = inherited
    return segments


def segment_patient(
    patient: "PatientRecord", inherit_untitled: bool = False
) -> list[list[Segment]]:
    """Segment every note of a patient, keeping chronological order: list
    k holds the segments of the patient's note k."""
    return [segment_note(note.text, inherit_untitled) for note in patient.notes]


@dataclass
class RelevancyMap:
    """Per-category sets of relevant (normalized) titles.

    A title may serve zero, one or many categories. Serialized as a JSON
    object mapping category name to a sorted list of titles, so the map
    can be reviewed and edited by hand between runs.
    """

    entries: dict[str, frozenset[str]]

    def for_category(self, category) -> frozenset[str]:
        cat = resolve_category(category)
        if cat.name not in self.entries:
            raise ConfigError(f"relevancy map has no entry for {cat.name!r}")
        return self.entries[cat.name]

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {name: sorted(titles) for name, titles in self.entries.items()}
        path.write_text(
            json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "RelevancyMap":
        return cls({
            resolve_category(name).name: frozenset(normalize_title(t) for t in titles)
            for name, titles in _load_title_lists(path, "relevancy").items()
        })


def load_prototypes(path: str | Path) -> dict[str, list[str]]:
    """A prototype titles file: a JSON object mapping categories to titles."""
    return _load_title_lists(path, "prototypes")


def _distinct_categories(keys: Iterable) -> None:
    """ConfigError when two keys name one category, as "5" and "Medication" do."""
    seen = set()
    for key in keys:
        name = resolve_category(key).name
        if name in seen:
            raise ConfigError(f"category {name!r} is given twice")
        seen.add(name)


def _load_title_lists(path: str | Path, what: str) -> dict[str, list[str]]:
    """A JSON object mapping distinct categories to lists of title strings,
    read through formats.utf8_lines: a byte that is not UTF-8 raises its
    ParseError, and any other fault ConfigError naming the file."""
    text = "".join(line for _, line in formats.utf8_lines(path))
    try:
        obj = json.loads(text, object_pairs_hook=formats.reject_duplicate_keys)
        if not isinstance(obj, dict):
            raise ConfigError(f"{what} file must be a JSON object")
        for name, titles in obj.items():
            if not (isinstance(titles, list)
                    and all(isinstance(t, str) for t in titles)):
                raise ConfigError(f"entry {name!r} must be a list of title strings")
        _distinct_categories(obj)
    except ValueError as exc:  # JSON syntax, or a key given twice
        raise ConfigError(f"{path}: {what} file is not valid JSON: {exc}")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return obj


def build_title_space(
    segments: Iterable[list[list[Segment]]], dim: int
) -> dict[str, np.ndarray]:
    """Embed every distinct segment title into a unit-vector latent space.

    segments holds every patient's segment_patient output, in corpus
    order. All bodies filed under a title form one document; the
    documents are run through the same TF-IDF + SVD used for notes, so
    titles heading similar content land close together. A title's vector
    is its document's row of the fit; a title whose document embeds to
    zero is left out. Raises DimTooLarge when the fit cannot carry dim.
    """
    bodies: dict[str, list[str]] = {}
    for patient in segments:
        for note in patient:
            for seg in note:
                bodies.setdefault(seg.title, []).append(seg.body)
    titles = sorted(bodies)
    if len(titles) < 2:
        raise InsufficientTitles(f"only {len(titles)} distinct title(s)")
    fit = fit_lsa(["\n".join(bodies[t]) for t in titles], (dim,)).get(dim)
    if fit is None:
        raise DimTooLarge(f"dim {dim}: {len(titles)} distinct titles carry too few "
                          "documents or terms")
    return {t: row for t, row in zip(titles, fit[1]) if row.any()}


def expand_prototypes(
    prototypes: Mapping[object, Iterable[str]],
    space: Mapping[str, np.ndarray],
    threshold: float = 0.7,
) -> RelevancyMap:
    """Grow each category's prototype titles into a full relevancy set.

    A title joins a category when its cosine similarity to any of the
    category's prototypes reaches the threshold; prototypes themselves
    are always kept. Lowering the threshold can only add titles. A
    category with no prototype title, or named by two keys, is rejected.
    """
    if not (0.0 < threshold <= 1.0):
        raise ConfigError(f"threshold must be in (0, 1], got {threshold}")
    _distinct_categories(prototypes)
    titles = sorted(space)
    matrix = np.stack([space[t] for t in titles]) if titles else np.empty((0, 0))
    entries: dict[str, frozenset[str]] = {}
    for key, protos in prototypes.items():
        cat = resolve_category(key)
        normed = {normalize_title(p) for p in protos}
        if not normed:
            raise ConfigError(f"category {cat.name!r} has no prototype title")
        for p in sorted(normed):
            if p not in space:
                raise UnknownTitle(f"prototype title {p!r} not in title space")
        pvecs = np.stack([space[p] for p in sorted(normed)])
        sims = matrix @ pvecs.T
        best = sims.max(axis=1)
        expanded = {t for t, s in zip(titles, best) if s >= threshold}
        entries[cat.name] = frozenset(normed | expanded)
    return RelevancyMap(entries)


def relevancy_from_prototypes(
    prototypes: Mapping[object, Iterable[str]],
    segments: Collection[list[list[Segment]]], title_dim: int = 16,
    threshold: float = 0.7,
) -> RelevancyMap:
    """Expand prototype titles through a title space fitted on the segments.

    segments is as in build_title_space. The space has title_dim
    dimensions, lowered to the number of distinct titles in segments but
    never below 2.
    """
    n_titles = len({s.title for patient in segments for note in patient for s in note})
    dim = min(title_dim, max(2, n_titles))
    space = build_title_space(segments, dim)
    return expand_prototypes(prototypes, space, threshold)


def filter_segments(
    segments_per_note: list[list[Segment]], titles: frozenset[str] | set[str]
) -> list[FilteredNote]:
    """Keep relevant segment bodies per note of a segment_patient output;
    drop notes left empty. An empty result leaves the patient out of the leg."""
    out: list[FilteredNote] = []
    for note_idx, segments in enumerate(segments_per_note):
        kept = [s.body for s in segments if s.title in titles]
        if kept:
            out.append(FilteredNote(note_idx, "\n".join(kept)))
    return out


def unfiltered_notes(patient: "PatientRecord") -> list[FilteredNote]:
    """The identity filter: every note kept whole."""
    return [
        FilteredNote(idx, note.text) for idx, note in enumerate(patient.notes)
    ]
