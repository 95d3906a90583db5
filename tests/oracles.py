"""Independent reference implementations used to pin expected values.

Everything here is deliberately brute force and shares no code with the
package: exhaustive path enumeration, a plain-loop Dinkelbach solver,
quadratic pair counting, straight-line formula evaluation, and a text-mode
json.loads reader of imported embeddings.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np


def enumerate_best_mean_path(c: np.ndarray) -> float:
    """Max mean over all monotone (0,0) -> (n1-1,n2-1) paths, by DFS.

    Steps are down, right, diagonal. Feasible up to about 7x7.
    """
    n1, n2 = c.shape
    best = -math.inf
    stack = [(0, 0, 0.0, 0)]
    while stack:
        i, j, total, length = stack.pop()
        total += c[i, j]
        length += 1
        if i == n1 - 1 and j == n2 - 1:
            mean = total / length
            if mean > best:
                best = mean
            continue
        if i + 1 < n1 and j + 1 < n2:
            stack.append((i + 1, j + 1, total, length))
        if i + 1 < n1:
            stack.append((i + 1, j, total, length))
        if j + 1 < n2:
            stack.append((i, j + 1, total, length))
    return best


def eds_loop_reference(c: np.ndarray, max_iters: int = 100) -> tuple[float, int]:
    """Max mean path score and level-update count, by plain loops.

    Dinkelbach iteration over a scalar max-sum DP, with ties broken
    diagonal > up > left. Unlike enumeration it scales to any shape.
    """
    n1, n2 = c.shape
    lam = c[0, 0]
    for i in range(n1):
        for j in range(n2):
            if c[i, j] < lam:
                lam = c[i, j]
    d_prev = np.empty(n2)
    s_prev = np.empty(n2)
    l_prev = np.empty(n2, dtype=np.int64)
    d_cur = np.empty(n2)
    s_cur = np.empty(n2)
    l_cur = np.empty(n2, dtype=np.int64)
    iters = 0
    for _ in range(max_iters):
        d_prev[0] = c[0, 0] - lam
        s_prev[0] = c[0, 0]
        l_prev[0] = 1
        for j in range(1, n2):
            d_prev[j] = d_prev[j - 1] + c[0, j] - lam
            s_prev[j] = s_prev[j - 1] + c[0, j]
            l_prev[j] = j + 1
        for i in range(1, n1):
            d_cur[0] = d_prev[0] + c[i, 0] - lam
            s_cur[0] = s_prev[0] + c[i, 0]
            l_cur[0] = l_prev[0] + 1
            for j in range(1, n2):
                best = d_prev[j - 1]
                bs = s_prev[j - 1]
                bl = l_prev[j - 1]
                if d_prev[j] > best:
                    best = d_prev[j]
                    bs = s_prev[j]
                    bl = l_prev[j]
                if d_cur[j - 1] > best:
                    best = d_cur[j - 1]
                    bs = s_cur[j - 1]
                    bl = l_cur[j - 1]
                d_cur[j] = best + c[i, j] - lam
                s_cur[j] = bs + c[i, j]
                l_cur[j] = bl + 1
            d_prev, d_cur = d_cur, d_prev
            s_prev, s_cur = s_cur, s_prev
            l_prev, l_cur = l_cur, l_prev
        ratio = s_prev[n2 - 1] / l_prev[n2 - 1]
        if not ratio > lam:
            break
        lam = ratio
        iters += 1
    return float(lam), iters


def kendall_counts(x, y) -> tuple[int, int, int, int]:
    """Concordant, discordant and per-sequence tie pair counts, by loops."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx == 0 or dy == 0:
                continue
            if (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    return concordant, discordant, ties_x, ties_y


def kendall_tau_b_reference(x, y) -> float | None:
    c, d, tx, ty = kendall_counts(x, y)
    n = len(x)
    n0 = n * (n - 1) // 2
    if n0 - tx == 0 or n0 - ty == 0:
        return None
    return (c - d) / math.sqrt((n0 - tx) * (n0 - ty))


def _category_grades(annotations, category: str):
    """Sorted annotator ids, and (annotator, pivot, relevant) -> score for
    one canonical category name, from plain records."""
    annotators = sorted({r.annotator_id for r in annotations})
    grades = {(r.annotator_id, r.pivot_id, r.relevant_id): r.score
              for r in annotations if r.category == category}
    return annotators, grades


def evaluate_reference(sim, validation, category: str):
    """Per-pivot tau-b of model scores against mean grades, by plain loops.

    A candidate's grade is the mean of its 0..10 judgments over sorted
    annotators; it is excluded when no such judgment exists, either
    patient is missing from sim, or their score is undefined. Pivots with
    fewer than two usable candidates are skipped. Returns (per_pivot,
    skipped, excluded, mean of the defined taus in pivot order).
    """
    annotators, grades = _category_grades(validation.annotations, category)
    index = {pid: i for i, pid in enumerate(sim.patient_ids)}
    scores, defined = sim.scores, sim.defined  # dense n x n arrays
    per_pivot, skipped, excluded = {}, [], 0
    for pivot in validation.pivots:
        xs, ys = [], []
        for rel in validation.relevants[pivot]:
            judged = [grades[(a, pivot, rel)] for a in annotators
                      if grades.get((a, pivot, rel), -1) >= 0]
            if (not judged or pivot not in index or rel not in index
                    or not defined[index[pivot], index[rel]]):
                excluded += 1
                continue
            xs.append(sum(judged) / len(judged))
            ys.append(float(scores[index[pivot], index[rel]]))
        if len(xs) < 2:
            skipped.append(pivot)
        else:
            per_pivot[pivot] = kendall_tau_b_reference(xs, ys)
    defined = [t for t in per_pivot.values() if t is not None]
    return per_pivot, skipped, excluded, sum(defined) / len(defined) if defined else None


def precision_at_k_reference(ids, scores, defined, assignment, k: int) -> float:
    """Mean share of each patient's top-k defined neighbours in its
    cluster, read from dense n x n arrays; ties go to the lower index."""
    precisions = []
    for i, pid in enumerate(ids):
        cand = [j for j in range(len(ids)) if j != i and defined[i, j]]
        if not cand:
            continue
        top = sorted(cand, key=lambda j: (-scores[i, j], j))[:k]
        precisions.append(sum(assignment[ids[j]] == assignment[pid] for j in top) / len(top))
    return float(np.mean(precisions)) if precisions else float("nan")


def agreement_reference(validation, category: str) -> list[float]:
    """Defined tau-b values of each annotator pair (sorted ids, a before b)
    on each pivot, over the candidates both judged 0..10, by plain loops."""
    annotators, grades = _category_grades(validation.annotations, category)
    values = []
    for i, a in enumerate(annotators):
        for b in annotators[i + 1:]:
            for pivot in validation.pivots:
                both = [(grades[(a, pivot, rel)], grades[(b, pivot, rel)])
                        for rel in validation.relevants[pivot]
                        if grades.get((a, pivot, rel), -1) >= 0
                        and grades.get((b, pivot, rel), -1) >= 0]
                if len(both) >= 2:
                    tau = kendall_tau_b_reference(*zip(*both))
                    if tau is not None:
                        values.append(tau)
    return values


def rv2_reference(a: np.ndarray, b: np.ndarray) -> float | None:
    """Straight-line evaluation of the diagonal-removed correlation."""
    sa = a.T @ a
    sb = b.T @ b
    sa = sa - np.diag(np.diag(sa))
    sb = sb - np.diag(np.diag(sb))
    denom = math.sqrt(np.trace(sa @ sa) * np.trace(sb @ sb))
    if denom == 0.0:
        return None
    return float(np.trace(sa @ sb) / denom)


def mms_reference(a: np.ndarray, b: np.ndarray) -> float:
    """Row/column maxima of the cosine matrix via explicit loops."""
    n1, n2 = a.shape[0], b.shape[0]
    cross = [[float(np.dot(a[i], b[j])) for j in range(n2)] for i in range(n1)]
    row_max = [max(row) for row in cross]
    col_max = [max(cross[i][j] for i in range(n1)) for j in range(n2)]
    values = row_max + col_max
    return sum(values) / len(values)


def tfidf_matrix_reference(docs: list[list[str]], sublinear: bool = True) -> np.ndarray:
    """Dense TF-IDF with unit rows, built with plain dict arithmetic."""
    n = len(docs)
    vocab = sorted({t for doc in docs for t in doc})
    index = {t: i for i, t in enumerate(vocab)}
    df = {t: 0 for t in vocab}
    for doc in docs:
        for t in set(doc):
            df[t] += 1
    x = np.zeros((n, len(vocab)))
    for r, doc in enumerate(docs):
        counts: dict[str, int] = {}
        for t in doc:
            counts[t] = counts.get(t, 0) + 1
        for t, cnt in counts.items():
            tf = 1.0 + math.log(cnt) if sublinear else float(cnt)
            idf = math.log((1 + n) / (1 + df[t])) + 1.0
            x[r, index[t]] = tf * idf
        norm = np.linalg.norm(x[r])
        if norm > 0:
            x[r] /= norm
    return x


def embed_reference(model, text: str) -> np.ndarray | None:
    """One text's LSA embedding by the per-text formula, or None.

    The text's known tokens (lowercased alphanumeric runs) get tf-idf
    weights, normalized; their projection rows are summed with those
    weights, and the sum is normalized. None when no known token is left
    or the sum has norm at most 1e-12.
    """
    counts: dict[str, int] = {}
    for t in re.findall(r"[^\W_]+", text.lower()):
        if t in model.vocabulary:
            counts[t] = counts.get(t, 0) + 1
    if not counts:
        return None
    terms = sorted(counts)
    cols = np.array([model.vocabulary[t] for t in terms])
    tf = [1.0 + math.log(counts[t]) if model.sublinear_tf else float(counts[t])
          for t in terms]
    weights = np.array(tf) * model.idf[cols]
    weights /= np.linalg.norm(weights)
    vec = model.projection[cols].T @ weights
    norm = np.linalg.norm(vec)
    return None if norm <= 1e-12 else vec / norm


def backtrack_reference(d) -> list[tuple[int, int]]:
    """The (0, 0) -> corner path that a backtrack through a max-sum table
    d takes from its corner, by plain loops.

    Each step goes to the greatest of the diagonal, upper and left
    neighbours that lie in the table, ties broken diagonal > up > left.
    """
    i, j = len(d) - 1, len(d[0]) - 1
    path = [(i, j)]
    while i or j:
        moves = [(i - 1, j - 1)] if i and j else []
        moves += [(i - 1, j)] if i else []
        moves += [(i, j - 1)] if j else []
        best = moves[0]
        for move in moves[1:]:
            if d[move[0]][move[1]] > d[best[0]][best[1]]:
                best = move
        i, j = best
        path.append(best)
    return path[::-1]


def eds_path_reference(c: np.ndarray, max_iters: int = 100
                       ) -> tuple[float, list[tuple[int, int]]]:
    """Max mean path score and the path the last level's table gives, by
    plain loops: Dinkelbach over a full max-sum table d, where d[i][j] is
    c[i, j] - lam plus the greatest of its in-table diagonal, upper and
    left neighbours, each table backtracked by backtrack_reference. The
    path mean is summed from (0, 0) forward."""
    n1, n2 = c.shape
    lam = min(float(v) for v in c.flat)
    for _ in range(max_iters):
        d = [[0.0] * n2 for _ in range(n1)]
        for i in range(n1):
            for j in range(n2):
                prior = [d[a][b] for a, b in ((i - 1, j - 1), (i - 1, j), (i, j - 1))
                         if a >= 0 and b >= 0]
                d[i][j] = (max(prior) if prior else 0.0) + (float(c[i, j]) - lam)
        path = backtrack_reference(d)
        total = 0.0
        for a, b in path:
            total += float(c[a, b])
        ratio = total / len(path)
        if not ratio > lam:
            break
        lam = ratio
    return lam, path


class ImportRejected(Exception):
    """A line import_embeddings_reference rejects: kind is the name of the
    package's error class, and the message is that error's text."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def import_embeddings_reference(path) -> tuple[dict, np.ndarray]:
    """(index, rows) of a JSONL embedding file, read line by line in text
    mode with json.loads, checked and L2-normalized in plain steps.

    Problems with a line raise ImportRejected, among them an integer past
    float range and nesting past the recursion limit; a non-UTF-8 byte
    escapes as the codec raises it.
    """
    index: dict = {}
    vecs: list = []

    def reject(kind, message, line=None):
        where = f" ({path}:{line})" if line is not None else ""
        raise ImportRejected(kind, message + where)

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                reject("ParseError", f"bad JSON: {exc}", lineno)
            try:
                key = (obj["patient_id"], obj["note_index"])
                vec = np.asarray(obj["vector"], dtype=np.float64)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                reject("ParseError", f"bad record: {exc}", lineno)
            if not isinstance(key[0], str) or key[0] == "":
                reject("ParseError", "patient_id must be a non-empty string", lineno)
            if type(key[1]) is not int:
                reject("ParseError", "note_index must be an integer", lineno)
            if vec.ndim != 1:
                reject("BadVector", f"vector for {key} is not one-dimensional")
            if vecs and vec.size != vecs[0].size:
                reject("DimMismatch",
                       f"vector for {key} has dim {vec.size}, expected {vecs[0].size}")
            for value in vec:
                if not math.isfinite(value):
                    reject("BadVector", f"non-finite value in vector for {key}")
            norm = np.linalg.norm(vec)
            if norm <= 1e-12:
                reject("BadVector", f"zero vector for {key}")
            if key in index:
                reject("DuplicateKey", f"duplicate embedding key {key}")
            index[key] = len(vecs)
            vecs.append(vec / norm)
    return index, np.stack(vecs) if vecs else np.zeros((0, 0))
