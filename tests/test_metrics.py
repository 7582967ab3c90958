import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einlog.metrics import MetricError, auc_pr

from helpers import auc_pr_loop


def brute_force_auc(scores, truths):
    """Sweep every distinct threshold and accumulate recall-step areas."""
    pairs = sorted(zip(scores, truths), key=lambda p: -p[0])
    positives = sum(t for _, t in truths_pairs(pairs))
    area = prev_recall = 0.0
    thresholds = sorted({s for s, _ in pairs}, reverse=True)
    for th in thresholds:
        kept = [(s, t) for s, t in pairs if s >= th]
        tp = sum(t for _, t in kept)
        precision = tp / len(kept)
        recall = tp / positives
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def truths_pairs(pairs):
    return pairs


def test_perfect_separation_is_one():
    assert auc_pr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == pytest.approx(1.0)


def test_all_equal_scores_single_threshold():
    assert auc_pr([0.5] * 6, [1, 0, 0, 1, 0, 0]) == pytest.approx(2 / 6)


def test_four_item_hand_case_matches_threshold_sweep():
    scores = [0.9, 0.8, 0.7, 0.6]
    truths = [1, 0, 1, 0]
    want = brute_force_auc(scores, truths)
    got = auc_pr(scores, truths)
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))


@pytest.mark.parametrize("seed", range(6))
def test_random_cases_match_threshold_sweep(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)  # force ties
    truths = rng.random(n) < 0.4
    if not truths.any():
        truths[0] = True
    assert auc_pr(scores, truths) == pytest.approx(
        brute_force_auc(list(scores), list(truths.astype(int))), abs=1e-12)


@st.composite
def ranked_atoms(draw):
    """Scores with many ties (a few values, signed zeros among them) or
    none, and truths with at least one positive."""
    n = draw(st.integers(1, 60))
    values = st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, 1.0, -3.0, 5e-324])
    any_float = st.floats(-1e300, 1e300, allow_nan=False)
    scores = draw(st.lists(draw(st.sampled_from([values, any_float])), min_size=n, max_size=n))
    truths = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    truths[draw(st.integers(0, n - 1))] = True
    return scores, truths


@given(ranked_atoms())
@settings(max_examples=300, deadline=None)
def test_array_passes_equal_the_threshold_loop_bitwise(atoms):
    scores, truths = atoms
    got, want = auc_pr(scores, truths), auc_pr_loop(scores, truths)
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def test_ranking_only_depends_on_order():
    a = auc_pr([0.9, 0.5, 0.1], [1, 0, 1])
    b = auc_pr([100.0, 7.0, -3.0], [1, 0, 1])
    assert a == pytest.approx(b)


def test_errors():
    with pytest.raises(MetricError, match="no positive"):
        auc_pr([0.4, 0.2], [0, 0])
    with pytest.raises(MetricError):
        auc_pr([], [])
    with pytest.raises(MetricError):
        auc_pr([0.1, float("nan")], [1, 0])
    with pytest.raises(MetricError):
        auc_pr([0.1, 0.2], [1])
