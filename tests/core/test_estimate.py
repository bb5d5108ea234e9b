"""ProbabilityEstimator: pooling, refinement, running moments."""

import numpy as np
import pytest

from repro.core.config import WalkEstimateConfig
from repro.core.estimate import ProbabilityEstimate, ProbabilityEstimator
from repro.core.weighted import ForwardHistory
from repro.errors import EstimationError
from repro.markov.matrix import TransitionMatrix
from repro.walks.transitions import SimpleRandomWalk
from repro.walks.walker import run_walk


def test_probability_estimate_moments():
    record = ProbabilityEstimate(node=1)
    with pytest.raises(EstimationError):
        _ = record.mean
    for value in (1.0, 2.0, 3.0, 4.0):
        record.add(value)
    assert record.count == 4
    assert record.mean == pytest.approx(2.5)
    # Sample variance of [1,2,3,4] is 5/3; variance of the mean /4.
    assert record.variance_of_mean == pytest.approx(5.0 / 3.0 / 4.0)
    assert record.relative_std_error == pytest.approx(
        np.sqrt(5.0 / 3.0 / 4.0) / 2.5
    )


def test_relative_std_error_zero_mean():
    record = ProbabilityEstimate(node=1)
    record.add(0.0)
    record.add(0.0)
    assert record.relative_std_error == float("inf")


def make_estimator(graph, rng, **config_overrides):
    design = SimpleRandomWalk()
    config = WalkEstimateConfig(
        walk_length=4,
        crawl_hops=0,
        backward_repetitions=10,
        refine_repetitions=0,
        **config_overrides,
    )
    history = ForwardHistory(0, 4)
    for _ in range(20):
        history.record(run_walk(graph, design, 0, 4, seed=rng))
    return ProbabilityEstimator(
        graph, design, 0, 4, config, history=history, seed=rng
    )


def test_estimate_runs_base_repetitions(small_ba, rng):
    estimator = make_estimator(small_ba, rng)
    record = estimator.estimate(9)
    assert record.count == 10
    assert record.node == 9


def test_estimates_accumulate_for_repeat_candidates(small_ba, rng):
    estimator = make_estimator(small_ba, rng)
    first = estimator.estimate(9)
    count_after_first = first.count
    second = estimator.estimate(9)
    assert second is first  # same pooled record
    assert second.count == count_after_first  # base already satisfied


def test_lighter_repetitions_top_up_to_base(small_ba, rng):
    # The calibration phase asks for fewer repetitions first; a later
    # production estimate tops the same record up to the base count.
    estimator = make_estimator(small_ba, rng)
    record = estimator.estimate(9, repetitions=3, refine=False)
    assert record.count == 3
    assert estimator.estimate(9, refine=False).count == 10
    assert estimator.stats.walks == 10


def test_refine_spends_budget_on_pending_estimates(small_ba, rng):
    estimator = make_estimator(small_ba, rng)
    estimator.estimate(9)
    estimator.estimate(14)
    total_before = sum(
        estimator.current(n).count for n in estimator.estimated_nodes
    )
    estimator.refine(25)
    total_after = sum(
        estimator.current(n).count for n in estimator.estimated_nodes
    )
    assert total_after == total_before + 25
    with pytest.raises(ValueError):
        estimator.refine(-1)


def test_refine_without_estimates_is_noop(small_ba, rng):
    estimator = make_estimator(small_ba, rng)
    estimator.refine(10)  # must not raise
    assert estimator.estimated_nodes == ()


def test_estimator_tracks_backward_effort(small_ba, rng):
    estimator = make_estimator(small_ba, rng)
    estimator.estimate(9)
    assert estimator.stats.walks == 10
    assert estimator.stats.steps >= 10  # at least one step per walk here


def test_estimator_mean_tracks_truth(small_ba, rng):
    design = SimpleRandomWalk()
    matrix = TransitionMatrix(small_ba, design)
    truth = matrix.step_distribution(0, 4)
    config = WalkEstimateConfig(
        walk_length=4,
        crawl_hops=0,
        backward_repetitions=800,
        refine_repetitions=0,
    )
    estimator = ProbabilityEstimator(
        small_ba, design, 0, 4, config, history=None, seed=rng
    )
    node = 11
    record = estimator.estimate(node)
    standard_error = np.sqrt(record.variance_of_mean)
    assert abs(record.mean - truth[node]) < 6 * standard_error + 1e-9


def test_current_returns_none_for_unknown(small_ba, rng):
    estimator = make_estimator(small_ba, rng)
    assert estimator.current(3) is None
