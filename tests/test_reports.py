"""Golden bytes of the report files: the grid tables, evaluate --out and
report --csv.

A hand-built grid report covers ok, partial and skipped cells, missing
per-category values, a combined cell that has no mean and an empty
agreement category. evaluate and report run on hand-built similarity
files, so every file's bytes are fixed and its sha256 pins them.
"""

from __future__ import annotations

import csv
import hashlib

import numpy as np
import pytest

from patsim.cli import main
from patsim.engine import MMETHODS, VMETHODS, RunConfig, SimilarityMatrix, persist_similarity
from patsim.evaluation import AgreementSummary
from patsim.formats import csv_table, text_table
from patsim.grid import EvalReport, GridCell, cells_csv, write_report
from patsim.segmenter import CATEGORIES

from conftest import dense_similarity

REPORT_SHA256 = {
    "summary.txt": "6cf57a39324e7a0f9a0f22cb04baee4cd399c2f9f68a423c8ebeac7450eecefd",
    "summary.csv": "76397f9b08eef1c7c2b5f4746eac5fe2d334f00f3ed4e097b5121ede150c3a70",
    "top10.txt": "59499dafe3301a4788bd097f2f7c5cc4b3ee5a7c1c9aea999b887e781388edbb",
    "top10.csv": "64114e4c0f0c7204c33e255b047a414ee038d487ce17c55f6dde31461bdd6e78",
    "agreement.txt": "c59efebf0d3bcd0297d3501dbd9055118efe85db90f793c9ea192538840fd90c",
    "agreement.csv": "e134c100192a8da7c2bd2dbcd81d4153e0b8ec2367fcb8e4a941cd328bf21663",
    "cells.csv": "f08ab5cf20de6384ccf1cc41ef19b05edc3921cce722bbf7a3b94f90c5d4c242",
    "exclusions.json": "2fe005031832a72717be61a4dbc641f7b25798ee9da0aeead357db2fa7c93d81",
}
EVALUATE_CSV_SHA256 = "5eb1262fa80977bedb291d5d3efd83e68fff3c965390ef386542580f50701371"
TIMING_CSV_SHA256 = "3f113d81b35b977de728c1c420f7c247a87ac2ebf60cbdc76846820727b61b87"


def _value(k: int, cat_id: int) -> float:
    return ((k * 37 + cat_id * 53) % 199 - 99) / 101


def hand_built_report() -> EvalReport:
    cells = []
    keys = [(m, v, f) for m in MMETHODS for v in VMETHODS for f in (False, True)]
    for k, (mmethod, vmethod, filtered) in enumerate(keys):
        values = {c.name: _value(k, c.id) for c in CATEGORIES}
        status, note = "ok", ""
        if vmethod == "d2v200" or (mmethod, vmethod, filtered) == ("mms", "combined", True):
            values = dict.fromkeys(values)
            status = "skipped"
            note = ("no dim-50 member legs available" if vmethod == "combined"
                    else "import file d2v200.jsonl not found")
        elif (mmethod, vmethod, filtered) == ("eds", "combined", False):
            values = dict.fromkeys(values)  # every pivot skipped: no mean
            status = "partial"
            note = "; ".join([f"{c.name}: 8 pivot(s) skipped" for c in CATEGORIES]
                             + ["ensemble over 1 of 3 member legs"])
        elif vmethod == "combined":
            status, note = "partial", "ensemble over 2 of 3 member legs"
        elif (mmethod, vmethod, filtered) == ("rv2", "lsa050", False):
            values["Age"] = -0.004  # rounds from below to 0.00
        elif vmethod == "rbc050" and filtered:
            values["Age"] = values["Allergies"] = None
            note = ("Age: no usable leg; Allergies: no usable leg; "
                    "Medication: 2 pivot(s) skipped")
        cells.append(GridCell(filtered, vmethod, mmethod, status, values, note))
    agreement = {
        c.name: AgreementSummary(
            [] if c.name == "Allergies"
            else [((c.id * 29 + j * 17) % 41 - 20) / 21 for j in range(c.id % 4 + 1)])
        for c in CATEGORIES
    }
    exclusions = {"filtered/Age/lsa200": ["p03", "p07"], "unfiltered/all/rbc200": ["p11"]}
    return EvalReport(cells, agreement, exclusions)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


IDS = [f"p{i:02d}" for i in range(8)]


def _similarity(mmethod: str, vmethod: str, wall: float) -> SimilarityMatrix:
    k = np.arange(len(IDS))
    scores = ((np.add.outer(k, k) * 13 + np.multiply.outer(k, k) * 7) % 23 - 11) / 12.0
    defined = np.ones(scores.shape, dtype=bool)
    defined[1, 2] = defined[2, 1] = False
    scores[~defined] = np.nan
    np.fill_diagonal(scores, 1.0)
    return dense_similarity(IDS, scores, defined,
                            RunConfig(False, vmethod, mmethod), wall)


def _annotations_csv() -> str:
    lines = ["annotator_id,pivot_id,relevant_id,category,score"]
    for a, annotator in enumerate(("a1", "a2")):
        for p, pivot in enumerate(IDS[:3]):
            for r, rel in enumerate(IDS[p + 1:p + 5]):
                for cat in CATEGORIES:
                    if cat.name == "Side effects" and p == 2:
                        continue  # pivot p02 has no Side effects judgments
                    score = (p * 7 + r * 3 + cat.id * 5 + a) % 11
                    lines.append(f"{annotator},{pivot},{rel},{cat.name},{score}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    write_report(hand_built_report(), out)
    return out


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_golden_bytes(report_dir, name):
    assert _sha256(report_dir / name) == REPORT_SHA256[name]


def test_summary_csv_leaves_a_missing_mean_empty(report_dir):
    # a combined cell whose pivots were all skipped is partial, not
    # skipped, and has no mean: its mean field is empty like every other
    # missing value in a CSV file
    lines = (report_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert "eds,combined,no,partial," in lines


def test_no_table_prints_negative_zero(report_dir):
    # the rv2/lsa050 cell's Age value is -0.004, and two cells' means
    # round from below to zero
    for name in REPORT_SHA256:
        assert "-0.00" not in (report_dir / name).read_text(encoding="utf-8")
    rows = list(csv.reader((report_dir / "cells.csv").read_text().splitlines()))
    assert rows[1][:5] == ["rv2", "lsa050", "no", "ok", "0.00"]


def test_no_text_line_ends_in_a_blank(report_dir):
    for name in ("summary.txt", "top10.txt", "agreement.txt"):
        lines = (report_dir / name).read_text(encoding="utf-8").splitlines()
        assert lines and all(line == line.rstrip() for line in lines)


def test_evaluate_out_golden_bytes(tmp_path, capsys):
    persist_similarity(_similarity("rv2", "lsa050", 0.5), tmp_path / "s.sim")
    (tmp_path / "ann.csv").write_text(_annotations_csv(), encoding="utf-8")
    assert main(["evaluate", "--sim", str(tmp_path / "s.sim"),
                 "--annotations", str(tmp_path / "ann.csv"),
                 "--out", str(tmp_path / "eval.csv")]) == 0
    assert _sha256(tmp_path / "eval.csv") == EVALUATE_CSV_SHA256
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split() == ["category", "tau", "pivots", "skipped", "excluded"]
    assert [line.split()[0] for line in printed[1:5]] == ["Age", "Family", "Medical",
                                                           "Social"]
    assert printed[-2].split()[0] == "mean"


def test_report_csv_golden_bytes(tmp_path, capsys):
    sims = []
    for mmethod, vmethod, wall in (("rv2", "lsa050", 0.123456789),
                                   ("mms", "lsa200", 1 / 3),
                                   ("eds", "combined", 2.5)):
        sims.append(tmp_path / f"{mmethod}.sim")
        persist_similarity(_similarity(mmethod, vmethod, wall), sims[-1])
    assert main(["report", "--sims", *map(str, sims),
                 "--csv", str(tmp_path / "t.csv")]) == 0
    assert _sha256(tmp_path / "t.csv") == TIMING_CSV_SHA256
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split() == ["dimension", "rv2", "mms", "eds"]
    assert printed[1].split() == ["50", "0.12", "-", "-"]
    assert printed[2].split() == ["200", "-", "0.33", "-"]
    assert printed[3] == "(seconds per run)"


def test_note_with_a_comma_is_quoted(tmp_path):
    report = hand_built_report()
    report.cells[0].note = 'Age: 2 pivot(s) skipped, "see" log'
    rows = list(csv.reader(cells_csv(report).splitlines()))
    assert rows[1][-1] == 'Age: 2 pivot(s) skipped, "see" log'
    assert {len(row) for row in rows} == {16}


class TestTableModel:
    ROWS = [["name", "x", "y"], ["a", 1.23456, None], ["long name", -0.5, "s,t"]]

    def test_text_right_aligned(self):
        assert text_table(self.ROWS, 2).splitlines() == [
            "     name      x    y",
            "        a   1.23    -",
            "long name  -0.50  s,t",
        ]

    def test_text_left_aligned(self):
        assert text_table(self.ROWS, 1, left=True).splitlines() == [
            "name       x     y",
            "a          1.2   -",
            "long name  -0.5  s,t",
        ]

    def test_csv(self):
        assert csv_table(self.ROWS, 3) == (
            'name,x,y\na,1.235,\nlong name,-0.500,"s,t"\n')

    def test_csv_empty_string_is_an_empty_field(self):
        assert csv_table([["a", "", None]], 2) == "a,,\n"

    def test_value_that_rounds_to_zero_prints_unsigned(self):
        assert text_table([[-0.004]], 2) == "0.00"
        assert csv_table([[-0.00004]], 4) == "0.0000\n"
