"""Local model classes and agreement degrees."""

import numpy as np
import pytest

from netdecide.decision import apply_switching
from netdecide.labeling import agreement_vector, label_classes, view_from_closeness
from netdecide.network import pairwise_close
from test_links import estimates


# the closeness threshold of the label tests
THRESHOLD = 0.08


def block_matrix(blocks, n):
    """Symmetric pairwise-match matrix for a partition of range(n)."""
    m = np.zeros((n, n), dtype=bool)
    for block in blocks:
        m[np.ix_(block, block)] = True
    return m


def block_points(blocks, n):
    """Desired estimates whose closeness at ``THRESHOLD`` is
    ``block_matrix(blocks, n)``: block j sits at x = 3 j, and agent k at
    y = k / 1000, which names the agent."""
    points = np.zeros((n, 2))
    points[:, 1] = np.arange(n) / 1000
    for j, block in enumerate(blocks):
        points[block, 0] = 3.0 * j
    return points


def column_labels(matrix):
    """The paper's local labels: each column read as a binary number, top
    row most significant."""
    return [int("".join(str(int(b)) for b in col), 2) for col in np.asarray(matrix).T]


def view_classes(slots, same, v):
    """Members of view ``v`` grouped into its classes, ordered by smallest
    member."""
    valid = np.flatnonzero(slots[v] >= 0)
    return sorted({tuple(slots[v][same[v, a]]) for a in valid})


def whole_view(points, threshold=THRESHOLD):
    """The classes of one view holding every agent of ``points``."""
    slots, same = view_from_closeness(points, threshold, np.ones((1, len(points)), dtype=bool))
    return view_classes(slots, same, 0)


def relation_classes(close):
    """The classes of one view holding every agent, labeled from the
    symmetric relation ``close`` itself rather than from estimates."""
    n = len(close)
    same = label_classes(close[None].copy(), np.ones((1, n), dtype=bool))
    return view_classes(np.arange(n)[None], same, 0)


def switch_sources(blocks, n, pending, adjacency=None, equilibrium_break=True,
                   rngs=None):
    """Run the switch stage with ``pending`` agents (p_k < 1) on
    ``block_points(blocks, n)`` and return ``(sources, adopted, drawn)``:
    whose pre-switch estimate each agent holds afterwards, and the ids
    :func:`apply_switching` reports."""
    if adjacency is None:
        adjacency = np.ones((n, n), dtype=bool)
    if rngs is None:
        rngs = [np.random.default_rng(k) for k in range(n)]
    p = np.ones(n)
    p[pending] = 0.5
    w_prev = block_points(blocks, n)
    updated, adopted, drawn = apply_switching(w_prev, THRESHOLD, adjacency, p, rngs,
                                              equilibrium_break)
    sources = np.rint(updated[:, 1] * 1000).astype(int)
    return sources.tolist(), adopted.tolist(), drawn.tolist()


def test_block_points_realize_the_block_matrix():
    blocks = [[0, 3, 5], [1, 2], [4]]
    assert np.array_equal(pairwise_close(block_points(blocks, 6), THRESHOLD),
                          block_matrix(blocks, 6))


def test_six_member_view_worked_example():
    # three classes {0,3,5}, {1,2}, {4}: columns read 37, 24, 24, 37, 2, 37
    blocks = [[0, 3, 5], [1, 2], [4]]
    labels = column_labels(block_matrix(blocks, 6))
    assert labels == [37, 24, 24, 37, 2, 37]
    slots, same = view_from_closeness(block_points(blocks, 6), THRESHOLD,
                                      np.ones((1, 6), dtype=bool))
    assert slots.tolist() == [[0, 1, 2, 3, 4, 5]]
    assert np.array_equal(same[0], np.equal.outer(labels, labels))
    assert view_classes(slots, same, 0) == [(0, 3, 5), (1, 2), (4,)]
    # {0, 3, 5} is the majority: its members stay (three classes, no
    # draw) and the others adopt agent 0's estimate
    sources, adopted, drawn = switch_sources(blocks, 6, range(6))
    assert sources == [0, 0, 0, 3, 0, 5]
    assert adopted == [1, 2, 4] and drawn == []


def test_unanimous_view_has_one_class():
    assert whole_view(block_points([range(6)], 6)) == [tuple(range(6))]
    assert switch_sources([range(6)], 6, [2]) == (list(range(6)), [], [])


def test_all_distinct_view():
    singles = [[0], [1], [2], [3]]
    assert whole_view(block_points(singles, 4)) == [(0,), (1,), (2,), (3,)]
    # four singleton classes tie; the viewer's own class wins
    assert switch_sources(singles, 4, [1]) == ([0, 1, 2, 3], [], [])


def test_majority_tie_without_viewer_prefers_first_class():
    assert switch_sources([[0, 1], [2, 3], [4]], 5, [4]) == ([0, 1, 2, 3, 0], [4], [])


def test_same_class_members_share_labels():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        n_blocks = int(rng.integers(1, n + 1))
        blocks = [[] for _ in range(n_blocks)]
        for member, b in enumerate(rng.integers(0, n_blocks, size=n)):
            blocks[b].append(member)
        blocks = [b for b in blocks if b]
        classes = whole_view(block_points(blocks, n))
        labels = column_labels(block_matrix(blocks, n))
        for c in classes:
            assert len({labels[m] for m in c}) == 1
        flat = sorted(m for c in classes for m in c)
        assert flat == list(range(n))


def test_classes_match_pairwise_equality_oracle():
    """Class structure equals the brute-force relation "columns identical",
    checked member by member with nested loops: on every kind of symmetric
    relation with a unit diagonal, labeled as given, and on the closeness
    of grid and normal estimates, which need not be transitive."""
    rng = np.random.default_rng(31)
    for trial in range(2000):
        n = int(rng.integers(1, 7))
        if trial % 2:
            close = np.eye(n, dtype=bool)
            for i in range(n):
                for j in range(i + 1, n):
                    close[i, j] = close[j, i] = rng.random() < 0.5
            classes = relation_classes(close)
        else:
            points = estimates(rng, n)
            threshold = float(rng.choice([0.25, 0.5, 1.0]))
            close = pairwise_close(points, threshold)
            classes = whole_view(points, threshold)
        labels = column_labels(close)
        cls_of = {}
        for idx, c in enumerate(classes):
            for m in c:
                cls_of[m] = idx
        for a in range(n):
            for b in range(n):
                same_col = all(close[r, a] == close[r, b] for r in range(n))
                assert (cls_of[a] == cls_of[b]) == same_col
                assert (labels[a] == labels[b]) == same_col


def test_views_see_members_through_adjacency_gate():
    adj = np.ones((4, 4), dtype=bool)
    adj[0, 3] = adj[3, 0] = False
    w_prev = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [9.0, 9.0]])
    slots, same = view_from_closeness(w_prev, 0.08, adj[[1, 0]])
    assert slots.tolist() == [[0, 1, 2, 3], [0, 1, 2, -1]]
    assert view_classes(slots, same, 0) == [(0, 1), (2,), (3,)]
    # agent 0 sees only members {0, 1, 2}; its padding slot is in no class
    assert view_classes(slots, same, 1) == [(0, 1), (2,)]
    assert not same[1, 3].any() and not same[1, :, 3].any()
    close = pairwise_close(w_prev, 0.08)
    p = agreement_vector(close & adj, adj.sum(axis=0))
    assert p[1] == pytest.approx(0.5) and p[0] == pytest.approx(2 / 3)


def test_agreement_vector_matches_per_view_values():
    rng = np.random.default_rng(4)
    n = 8
    adj = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            adj[i, j] = adj[j, i] = rng.random() < 0.5
    w_prev = rng.normal(size=(n, 2))
    close = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            close[i, j] = ((w_prev[i] - w_prev[j]) ** 2).sum() <= 0.5
    got = agreement_vector(close & adj, adj.sum(axis=0))
    for k in range(n):
        # the share of k's closed neighborhood close to k
        assert got[k] == pytest.approx(close[k, np.flatnonzero(adj[k])].mean())
