"""Ranking metrics for query atoms."""

from __future__ import annotations

import numpy as np


class MetricError(Exception):
    """Degenerate metric input."""


def auc_pr(scores, truths) -> float:
    """Area under the precision-recall curve with step interpolation.

    Thresholds sweep the distinct score values in decreasing order; tied
    scores enter together.  The area is the recall-weighted sum of the
    precision at each threshold (no trapezoids).
    """
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths, dtype=bool)
    if scores.shape != truths.shape or scores.ndim != 1 or scores.size == 0:
        raise MetricError("scores and truths must be equal-length non-empty vectors")
    if not np.all(np.isfinite(scores)):
        raise MetricError("scores must be finite")
    positives = int(truths.sum())
    if positives == 0:
        raise MetricError("no positive atoms in the truth set")

    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    # the last position of each run of equal scores, one per threshold
    ends = np.flatnonzero(np.append(scores[1:] != scores[:-1], True))
    tp = np.cumsum(truths[order])[ends]
    recall = tp / positives
    precision = tp / (ends + 1)
    # cumsum adds in order, as a loop over the thresholds would
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])
