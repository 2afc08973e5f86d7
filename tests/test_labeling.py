"""Column labels, local model classes, and agreement degrees."""

import numpy as np
import pytest

from netdecide.labeling import agreement_vector, column_label, view_from_closeness
from netdecide.network import Topology, pairwise_close


def block_matrix(blocks, n):
    """Symmetric pairwise-match matrix for a partition of range(n)."""
    m = np.zeros((n, n), dtype=bool)
    for block in blocks:
        m[np.ix_(block, block)] = True
    return m


def test_column_label_values():
    assert column_label([1, 0, 0, 1, 0, 1]) == 37
    assert column_label([0, 0, 0, 0, 1, 0]) == 2
    assert column_label([0, 0, 0, 0, 0, 0]) == 0
    assert column_label([1]) == 1
    assert column_label([1, 1, 1, 1]) == 15


def test_six_member_view_worked_example():
    # three classes {0,3,5}, {1,2}, {4}: columns read 37, 24, 24, 37, 2, 37
    close = block_matrix([[0, 3, 5], [1, 2], [4]], 6)
    view = view_from_closeness(0, close, np.arange(6))
    assert np.array_equal(view.labels, [37, 24, 24, 37, 2, 37])
    assert view.model_count == 3
    assert [list(c) for c in view.classes] == [[0, 3, 5], [1, 2], [4]]
    assert np.array_equal(view.majority, [0, 3, 5])
    assert view.agreement == pytest.approx(0.5)


def test_unanimous_view_has_one_class():
    close = np.ones((6, 6), dtype=bool)
    view = view_from_closeness(2, close, np.arange(6))
    assert view.model_count == 1
    assert view.agreement == 1.0
    assert np.array_equal(view.majority, np.arange(6))


def test_all_distinct_view():
    close = np.eye(4, dtype=bool)
    view = view_from_closeness(1, close, np.arange(4))
    assert view.model_count == 4
    assert view.agreement == pytest.approx(0.25)
    # four singleton classes tie; the viewer's own class wins
    assert np.array_equal(view.majority, [1])


def test_majority_tie_without_viewer_prefers_first_class():
    close = block_matrix([[0, 1], [2, 3], [4]], 5)
    view = view_from_closeness(4, close, np.arange(5))
    assert np.array_equal(view.majority, [0, 1])


def test_same_class_members_share_labels():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        n_blocks = int(rng.integers(1, n + 1))
        blocks = [[] for _ in range(n_blocks)]
        for member, b in enumerate(rng.integers(0, n_blocks, size=n)):
            blocks[b].append(member)
        close = block_matrix([b for b in blocks if b], n)
        view = view_from_closeness(0, close, np.arange(n))
        for c in view.classes:
            assert len({view.labels[m] for m in c}) == 1
        flat = sorted(m for c in view.classes for m in c)
        assert flat == list(range(n))


def test_classes_match_pairwise_equality_oracle():
    """Class structure equals the brute-force relation "columns identical",
    checked member by member with nested loops."""
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        close = np.eye(n, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                close[i, j] = close[j, i] = rng.random() < 0.5
        view = view_from_closeness(0, close, np.arange(n))
        cls_of = {}
        for idx, c in enumerate(view.classes):
            for m in c:
                cls_of[m] = idx
        for a in range(n):
            for b in range(n):
                same_col = all(close[r, a] == close[r, b] for r in range(n))
                assert (cls_of[a] == cls_of[b]) == same_col
                assert (view.labels[a] == view.labels[b]) == same_col


def test_build_label_view_applies_threshold_gate():
    adj = np.ones((4, 4), dtype=bool)
    adj[0, 3] = adj[3, 0] = False
    topo = Topology(adj, np.zeros((4, 2)))
    w_prev = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [9.0, 9.0]])
    close = pairwise_close(w_prev, 0.08)
    view = view_from_closeness(1, close, topo.neighbors[1])
    assert np.array_equal(view.members, [0, 1, 2, 3])
    assert [list(c) for c in view.classes] == [[0, 1], [2], [3]]
    assert view.agreement == pytest.approx(0.5)
    # agent 0 sees only members {0, 1, 2}
    view0 = view_from_closeness(0, close, topo.neighbors[0])
    assert np.array_equal(view0.members, [0, 1, 2])
    assert view0.agreement == pytest.approx(2 / 3)


def test_agreement_vector_matches_per_view_values():
    rng = np.random.default_rng(4)
    n = 8
    adj = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            adj[i, j] = adj[j, i] = rng.random() < 0.5
    topo = Topology(adj, np.zeros((n, 2)))
    w_prev = rng.normal(size=(n, 2))
    close = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            close[i, j] = ((w_prev[i] - w_prev[j]) ** 2).sum() <= 0.5
    got = agreement_vector(close, adj, topo.degrees)
    for k in range(n):
        view = view_from_closeness(k, pairwise_close(w_prev, 0.5), topo.neighbors[k])
        assert got[k] == pytest.approx(view.agreement)
