"""Deviation curves and the replayable success test."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdecide.metrics import (captured_source, common_model,
                               evaluate_success, final_agreement_block,
                               msd_observed)
from netdecide.network import squared_distances
from netdecide.records import RunRecord


def observed_deviation(phi, models, assignment):
    """:func:`msd_observed` given the models and the assignment, from which
    the round loop makes its constants at each reassignment."""
    models, assignment = np.atleast_2d(models), np.asarray(assignment)
    return msd_observed(phi, models[assignment], assignment,
                        np.bincount(assignment, minlength=len(models)))


def make_record(mode="decide", n_iters=60, agreed_tail=55, final_w=None,
                models=None, assignment=None, target_agent=None,
                final_positions=None, threshold=0.08, t_hold=50):
    models = np.array([[0.0, 0.0], [1.0, 1.0]]) if models is None else models
    n = 4 if assignment is None else len(assignment)
    assignment = np.array([0, 0, 1, 1]) if assignment is None else assignment
    final_w = np.zeros((n, 2)) if final_w is None else final_w
    agreed = np.zeros(n_iters, dtype=bool)
    if agreed_tail:
        agreed[-agreed_tail:] = True
    return RunRecord(
        mode=mode, n_iters=n_iters,
        msd_observed=np.zeros((n_iters, len(models))),
        msd_desired=np.zeros(n_iters),
        all_agreed=agreed,
        n_desired_models=np.ones(n_iters, dtype=int),
        source_coverage=None,
        models=np.asarray(models, dtype=float),
        assignment=np.asarray(assignment),
        final_w=np.asarray(final_w, dtype=float),
        final_agreement=np.ones(n),
        switch_adopt=np.zeros(n, dtype=int),
        switch_random=np.zeros(n, dtype=int),
        success=False, final_model=None, target_agent=target_agent,
        threshold=threshold, t_hold=t_hold,
        final_positions=final_positions,
    )


def test_msd_observed_zero_on_exact_aggregates():
    models = np.array([[0.2, 0.2], [-0.5, 0.5]])
    assignment = np.array([0, 1, 1])
    phi = models[assignment]
    assert np.allclose(observed_deviation(phi, models, assignment), [0.0, 0.0])


def test_msd_observed_hand_values():
    one = observed_deviation(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]),
                             np.array([0]))
    assert one[0] == pytest.approx(1.0)
    # two followers deviating by 0.01 and 0.03 average to 0.02
    models = np.array([[0.0, 0.0]])
    phi = np.array([[0.1, 0.0], [np.sqrt(0.03), 0.0]])
    got = observed_deviation(phi, models, np.array([0, 0]))
    assert got[0] == pytest.approx(0.02)


def test_msd_observed_empty_cluster_is_nan():
    got = observed_deviation(np.zeros((2, 2)), np.array([[0.0, 0.0], [5.0, 5.0]]),
                             np.array([0, 0]))
    assert got[0] == 0.0
    assert np.isnan(got[1])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 5), st.integers(1, 9))
def test_msd_observed_has_the_bits_of_the_model_matrix(seed, n, n_models, dim):
    # each agent's term is its entry of the (N, C) matrix, and each model's
    # sum adds its followers' terms in agent order from +0.0; some models
    # may go unfollowed
    g = np.random.default_rng(seed)
    phi = g.normal(size=(n, dim))
    models = g.normal(size=(n_models, dim))
    assignment = g.integers(0, n_models, size=n)
    own = squared_distances(phi, models)[np.arange(n), assignment].tolist()
    want = []
    for j in range(n_models):
        followers = [d for d, a in zip(own, assignment.tolist()) if a == j]
        want.append(sum(followers, 0.0) / len(followers) if followers else np.nan)
    got = observed_deviation(phi, models, assignment)
    assert got.tobytes() == np.array(want).tobytes()


def test_final_agreement_block_cases():
    assert final_agreement_block([]) is None
    assert final_agreement_block([True, True, False]) is None
    assert final_agreement_block([True, True, True]) == 0
    assert final_agreement_block([False, False, True, True]) == 2
    assert final_agreement_block([True, False, True]) == 2


def test_common_model_detection():
    models = np.array([[0.0, 0.0], [1.0, 1.0]])
    near_zero = np.array([[0.01, 0.0], [0.0, 0.02]])
    assert common_model(near_zero, models, 0.08) == 0
    split = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert common_model(split, models, 0.08) is None
    far = np.full((2, 2), 9.0)
    assert common_model(far, models, 0.08) is None


def test_captured_source_radius():
    sources = np.array([[-50.0, -50.0], [50.0, 50.0]])
    parked = np.array([[48.0, 50.0], [50.0, 47.0]])
    assert captured_source(parked, sources) == 1
    spread = np.array([[48.0, 50.0], [-50.0, -50.0]])
    assert captured_source(spread, sources) is None
    assert captured_source(spread, sources, capture_radius=200.0) == 0


def test_success_requires_full_hold_window():
    ok = make_record(agreed_tail=55)
    assert evaluate_success(ok) == (True, 0)
    short = make_record(agreed_tail=10)
    success, model = evaluate_success(short)
    assert not success and model == 0
    assert evaluate_success(dataclasses.replace(short, t_hold=5)) == (True, 0)


def test_success_requires_one_common_model():
    split = make_record(final_w=np.array([[0.0, 0.0], [0.0, 0.0],
                                          [1.0, 1.0], [1.0, 1.0]]))
    assert evaluate_success(split) == (False, None)


def test_follow_success_requires_the_target_model():
    # the network agrees, but on model 0 while the target observes model 1
    wrong = make_record(mode="follow", target_agent=2)
    success, model = evaluate_success(wrong)
    assert not success and model == 0
    right = make_record(mode="follow", target_agent=0)
    assert evaluate_success(right) == (True, 0)


def test_mobile_success_reads_positions():
    models = np.array([[-50.0, -50.0], [50.0, 50.0]])
    parked = make_record(mode="mobile", models=models,
                         final_positions=np.array([[49.0, 50.0],
                                                   [50.0, 51.0],
                                                   [52.0, 50.0],
                                                   [50.0, 49.0]]))
    assert evaluate_success(parked) == (True, 1)
    missing = make_record(mode="mobile", models=models, final_positions=None)
    assert evaluate_success(missing) == (False, None)
    scattered = make_record(mode="mobile", models=models,
                            final_positions=np.array([[49.0, 50.0],
                                                      [-50.0, -50.0],
                                                      [52.0, 50.0],
                                                      [50.0, 49.0]]))
    assert evaluate_success(scattered) == (False, None)
