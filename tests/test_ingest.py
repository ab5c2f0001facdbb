"""File ingest: bid corpora and demographic tables."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fairmix.experiments import bundled_data_path
from fairmix.ingest import (
    ADULT_FEATURES,
    LABEL_WEIGHTS,
    BidCorpus,
    FeatureConfig,
    ParseError,
    bids_to_instance,
    parse_bids,
    parse_demographics,
    read_demographic_table,
)

from conftest import write_bids, write_demographics


def write_text(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


BIDS_BODY = """reviewer,paper,bid
r2,p1,yes
r1,p1,maybe
r1,p2,no
r3,p2,No Response
"""


class TestParseBids:
    def test_basic(self, tmp_path):
        corpus = parse_bids(write_text(tmp_path / "b.csv", BIDS_BODY))
        assert corpus.reviewers == ("r1", "r2", "r3")
        assert corpus.papers == ("p1", "p2")
        assert corpus.label("r2", "p1") == "yes"
        assert corpus.label("r3", "p2") == "no_response"
        # Absent pair falls back to no_response.
        assert corpus.label("r2", "p2") == "no_response"

    def test_header_optional(self, tmp_path):
        body = "r1,p1,yes\nr2,p1,no\n"
        corpus = parse_bids(write_text(tmp_path / "b.csv", body))
        assert corpus.reviewers == ("r1", "r2")

    def test_blank_lines_skipped(self, tmp_path):
        body = "r1,p1,yes\n\n\nr2,p1,no\n"
        corpus = parse_bids(write_text(tmp_path / "b.csv", body))
        assert len(corpus.labels) == 2

    def test_duplicate_pair_rejected_with_line_number(self, tmp_path):
        body = "r1,p1,yes\nr1,p1,no\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_bids(write_text(tmp_path / "b.csv", body))

    def test_unknown_label_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="label"):
            parse_bids(write_text(tmp_path / "b.csv", "r1,p1,definitely\n"))

    def test_empty_id_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_bids(write_text(tmp_path / "b.csv", "r1,,yes\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_bids(write_text(tmp_path / "b.csv", ""))

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            parse_bids("/nonexistent/bids.csv")

    def test_round_trip(self, tmp_path):
        corpus = parse_bids(write_text(tmp_path / "b.csv", BIDS_BODY))
        out = tmp_path / "out.csv"
        write_bids(corpus, str(out))
        again = parse_bids(str(out))
        assert again.reviewers == corpus.reviewers
        assert again.papers == corpus.papers
        assert dict(again.labels) == dict(corpus.labels)


class TestBidsToInstance:
    def test_weights_follow_labels(self, tmp_path):
        corpus = parse_bids(write_text(tmp_path / "b.csv", BIDS_BODY))
        inst = bids_to_instance(corpus, demand=1, load_cap=1)
        # Rows follow sorted reviewers, columns sorted papers.
        want = np.array(
            [
                [LABEL_WEIGHTS["maybe"], LABEL_WEIGHTS["no"]],
                [LABEL_WEIGHTS["yes"], 0.0],
                [0.0, LABEL_WEIGHTS["no_response"]],
            ]
        )
        assert np.allclose(inst.weights, want)

    def test_default_load_cap_covers_demand(self, tmp_path):
        corpus = parse_bids(write_text(tmp_path / "b.csv", BIDS_BODY))
        inst = bids_to_instance(corpus, demand=2)
        # Smallest uniform cap: ceil(demand * n_papers / n_reviewers).
        assert inst.load_cap == 2
        assert inst.demand == 2

    def test_bundled_file_parses(self):
        corpus = parse_bids(bundled_data_path("mini_bids.csv"))
        assert len(corpus.reviewers) == 12
        assert len(corpus.papers) == 9
        inst = bids_to_instance(corpus)
        assert inst.demand == 3 and inst.load_cap == 3


DEMO_BODY = """age,education_year,hours_per_week,marital_status,relationship,race,sex,income
30,10,40,married,husband,white,male,100
20,8,20,never_married,own_child,black,female,50
"""


class TestDemographics:
    def test_points_layout(self, tmp_path):
        pts = parse_demographics(write_text(tmp_path / "d.csv", DEMO_BODY))
        assert pts.shape == (2, 3 + 2 + 2 + 2 + 2)
        # Rows are sorted lexicographically by the projected string tuple:
        # ("20", ...) precedes ("30", ...).
        assert pts[0, 0] == 20.0 and pts[1, 0] == 30.0
        # One-hot blocks are indicator columns over sorted category values.
        row20 = pts[0, 3:]
        assert row20.tolist() == [0, 1, 0, 1, 1, 0, 1, 0]

    def test_extra_columns_ignored(self, tmp_path):
        table = read_demographic_table(write_text(tmp_path / "d.csv", DEMO_BODY))
        assert all(len(r) == 7 for r in table.rows)

    def test_missing_column_rejected(self, tmp_path):
        body = "age,hours_per_week\n30,40\n"
        with pytest.raises(ParseError, match="education_year"):
            read_demographic_table(write_text(tmp_path / "d.csv", body))

    def test_missing_marker_drops_row(self, tmp_path):
        body = DEMO_BODY + "40,?,50,married,husband,white,male,1\n"
        table = read_demographic_table(write_text(tmp_path / "d.csv", body))
        assert len(table.rows) == 2
        assert table.n_dropped == 1

    def test_non_numeric_value_rejected(self, tmp_path):
        body = "age,education_year,hours_per_week,marital_status,relationship,race,sex\nold,1,1,m,h,w,male\n"
        with pytest.raises(ParseError, match="line 2"):
            read_demographic_table(write_text(tmp_path / "d.csv", body))

    def test_dedup_and_order_independence(self, tmp_path):
        lines = DEMO_BODY.strip().split("\n")
        header, rows = lines[0], lines[1:]
        shuffled = "\n".join([header] + rows[::-1] + [rows[0]]) + "\n"
        t1 = read_demographic_table(write_text(tmp_path / "a.csv", DEMO_BODY))
        t2 = read_demographic_table(write_text(tmp_path / "b.csv", shuffled))
        assert t1.rows == t2.rows

    def test_scaling_standardizes_numeric_columns(self, tmp_path):
        cfg = dataclasses.replace(ADULT_FEATURES, scale=True)
        pts = parse_demographics(write_text(tmp_path / "d.csv", DEMO_BODY), cfg)
        assert np.allclose(pts[:, :3].mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(pts[:, :3].std(axis=0), 1.0, atol=1e-12)
        # One-hot block unaffected by scaling.
        assert set(np.unique(pts[:, 3:])) <= {0.0, 1.0}

    def test_constant_numeric_column_left_alone(self, tmp_path):
        body = (
            "age,education_year,hours_per_week,marital_status,relationship,race,sex\n"
            "30,10,40,m,h,w,male\n30,8,20,m,h,w,female\n"
        )
        cfg = dataclasses.replace(ADULT_FEATURES, scale=True)
        pts = parse_demographics(write_text(tmp_path / "d.csv", body), cfg)
        assert np.allclose(pts[:, 0], 30.0)

    def test_round_trip(self, tmp_path):
        table = read_demographic_table(write_text(tmp_path / "d.csv", DEMO_BODY))
        out = tmp_path / "out.csv"
        write_demographics(table, str(out))
        again = read_demographic_table(str(out))
        assert again.rows == table.rows

    def test_bundled_file_parses(self):
        pts = parse_demographics(bundled_data_path("demo_demographics.csv"))
        assert pts.shape[0] == 200

    def test_custom_config_columns(self, tmp_path):
        cfg = FeatureConfig(numeric=("age",), categorical=("sex",))
        pts = parse_demographics(write_text(tmp_path / "d.csv", DEMO_BODY), cfg)
        assert pts.shape == (2, 3)
