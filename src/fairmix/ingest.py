"""File ingest: reviewer bid CSVs and demographic CSVs.

Bid files are line-oriented CSV ``reviewer_id,paper_id,label`` with labels
``yes`` / ``maybe`` / ``no`` / ``no_response`` (case-insensitive, header
optional); pairs absent from the file default to ``no_response``.  Labels
map to edge weights 1, 1/2, 0, 0 for the reviewer-matching scenario.

Demographic files are header-full CSVs (RFC-4180 quoting).  A feature
configuration names the numeric and categorical columns to retain; rows
are projected onto those columns, rows containing the missing-value
marker ``?`` are dropped (and counted), categorical columns are one-hot
encoded over the categories present in the file, and duplicate projected
rows are deduplicated.  The result is a point cloud for the sortition
scenario.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from typing import Mapping

import numpy as np

from .assignment import BipartiteInstance

#: Canonical bid labels and their edge weights.
LABEL_WEIGHTS: dict[str, float] = {
    "yes": 1.0,
    "maybe": 0.5,
    "no": 0.0,
    "no_response": 0.0,
}

_BID_HEADER = ("reviewer", "paper", "bid")

#: Missing-value marker in demographic files; rows containing it are dropped.
MISSING_MARKER = "?"


class ParseError(ValueError):
    """Malformed input file; the message names the offending line."""


# ---------------------------------------------------------------------------
# bid files


@dataclasses.dataclass(frozen=True)
class BidCorpus:
    """Parsed bid file: reviewer/paper ids and their labeled pairs.

    ``labels`` holds only pairs present in the file; absent pairs read as
    ``no_response`` through :meth:`label`.
    """

    reviewers: tuple[str, ...]
    papers: tuple[str, ...]
    labels: Mapping[tuple[str, str], str]

    def label(self, reviewer: str, paper: str) -> str:
        return self.labels.get((reviewer, paper), "no_response")


def _normalize_label(raw: str) -> str | None:
    label = raw.strip().lower().replace(" ", "_")
    return label if label in LABEL_WEIGHTS else None


def parse_bids(path: str) -> BidCorpus:
    """Parse a bid CSV, validating labels line by line."""
    labels: dict[tuple[str, str], str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise ParseError(f"{path}: line {lineno}: expected 3 columns, got {len(row)}")
            reviewer, paper, raw = (cell.strip() for cell in row)
            if lineno == 1 and (reviewer.lower(), paper.lower(), raw.lower()) == _BID_HEADER:
                continue
            label = _normalize_label(raw)
            if label is None:
                raise ParseError(f"{path}: line {lineno}: unknown bid label {raw!r}")
            if not reviewer or not paper:
                raise ParseError(f"{path}: line {lineno}: empty reviewer or paper id")
            if (reviewer, paper) in labels:
                raise ParseError(
                    f"{path}: line {lineno}: duplicate bid for ({reviewer!r}, {paper!r})"
                )
            labels[(reviewer, paper)] = label
    if not labels:
        raise ParseError(f"{path}: no bids found")
    reviewers = tuple(sorted({r for r, _ in labels}))
    papers = tuple(sorted({p for _, p in labels}))
    return BidCorpus(reviewers=reviewers, papers=papers, labels=labels)


def bids_to_instance(
    corpus: BidCorpus, demand: int = 3, load_cap: int | None = None
) -> BipartiteInstance:
    """Build the reviewer-matching instance from a corpus.

    Reviewers are agents (rows, sorted by id), papers are items (columns,
    sorted by id), and weights follow :data:`LABEL_WEIGHTS`.  The default
    load cap spreads total demand evenly:
    ``ceil(demand * n_papers / n_reviewers)``.
    """
    n_left, n_right = len(corpus.reviewers), len(corpus.papers)
    weights = np.zeros((n_left, n_right), dtype=float)
    reviewer_row = {r: i for i, r in enumerate(corpus.reviewers)}
    paper_col = {p: j for j, p in enumerate(corpus.papers)}
    for (r, p), label in corpus.labels.items():
        weights[reviewer_row[r], paper_col[p]] = LABEL_WEIGHTS[label]
    if load_cap is None:
        load_cap = math.ceil(demand * n_right / n_left)
    return BipartiteInstance(weights=weights, demand=demand, load_cap=load_cap)


# ---------------------------------------------------------------------------
# demographic files


@dataclasses.dataclass(frozen=True)
class FeatureConfig:
    """Columns to retain from a demographic CSV.

    ``scale=True`` standardizes each numeric column to zero mean and unit
    variance (constant columns are left as-is); default is raw coordinates.
    """

    numeric: tuple[str, ...]
    categorical: tuple[str, ...]
    scale: bool = False

    @property
    def columns(self) -> tuple[str, ...]:
        return self.numeric + self.categorical


#: Default feature set for Adult-census-style files.
ADULT_FEATURES = FeatureConfig(
    numeric=("age", "education_year", "hours_per_week"),
    categorical=("marital_status", "relationship", "race", "sex"),
)


@dataclasses.dataclass(frozen=True)
class DemographicTable:
    """Demographic rows projected onto a feature configuration.

    Rows are deduplicated and sorted (so the table is independent of input
    row order); ``n_dropped`` counts rows discarded for missing values.
    """

    config: FeatureConfig
    rows: tuple[tuple[str, ...], ...]
    n_dropped: int

    def points(self) -> np.ndarray:
        """Encode rows as a point cloud: numeric coordinates first, then a
        one-hot block per categorical column (categories sorted)."""
        cfg = self.config
        n_num = len(cfg.numeric)
        columns = [np.array([row[k] for row in self.rows]) for k in range(len(cfg.columns))]
        blocks: list[np.ndarray] = []
        for k in range(n_num):
            coords = columns[k].astype(float)
            if cfg.scale:
                std = coords.std()
                if std > 0.0:
                    coords = (coords - coords.mean()) / std
            blocks.append(coords[:, None])
        for k in range(n_num, len(cfg.columns)):
            cats = np.unique(columns[k])
            blocks.append((columns[k][:, None] == cats[None, :]).astype(float))
        return np.hstack(blocks)


def read_demographic_table(path: str, config: FeatureConfig = ADULT_FEATURES) -> DemographicTable:
    """Read and project a demographic CSV (see module docstring)."""
    kept: set[tuple[str, ...]] = set()
    n_dropped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in config.columns if c not in header]
        if missing:
            raise ParseError(f"{path}: missing columns {missing!r} (header: {header!r})")
        for record in reader:
            lineno = reader.line_num
            cells = tuple((record[c] or "").strip() for c in config.columns)
            if MISSING_MARKER in cells:
                n_dropped += 1
                continue
            for c, cell in zip(config.numeric, cells):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}: column {c!r}: not numeric: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(f"{path}: line {lineno}: column {c!r}: non-finite value")
            kept.add(cells)
    if not kept:
        raise ParseError(f"{path}: no usable rows")
    return DemographicTable(config=config, rows=tuple(sorted(kept)), n_dropped=n_dropped)


def parse_demographics(path: str, config: FeatureConfig = ADULT_FEATURES) -> np.ndarray:
    """Point cloud from a demographic CSV: deduplicated, one-hot encoded."""
    return read_demographic_table(path, config).points()
