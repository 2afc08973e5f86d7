"""Local labeling of desired models.

Each agent compares the previous-round desired estimates of its neighbors
pairwise and encodes who-matches-whom in a small symmetric boolean matrix.
Reading each column as a binary number (top row most significant) gives a
local label per neighbor; neighbors with identical columns carry the same
label and form one local model class. Label values depend on the viewing
agent's neighbor ordering and only the induced classes are meaningful
network-wide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def column_label(bits):
    """Binary-to-decimal label of one matrix column, first entry most
    significant: column_label([1,0,0,1,0,1]) == 37."""
    value = 0
    for b in np.asarray(bits).astype(int):
        value = (value << 1) | int(b)
    return value


@dataclass(eq=False)
class LabelView:
    """One agent's local picture of who desires which model.

    members : ndarray
        Global agent ids in the view, ascending, viewer included.
    matrix : ndarray of bool, shape (n, n)
        Symmetric pairwise match indicators with a True diagonal.
    classes : list of ndarray
        Members grouped by identical columns, ordered by smallest member.
    majority : ndarray
        Members of the winning class: the largest one, ties preferring the
        viewer's own class and then the smallest leading member.
    agreement : float
        Fraction of the view matching the viewer (viewer's row mean).
    """

    members: np.ndarray
    matrix: np.ndarray
    classes: list
    majority: np.ndarray
    agreement: float

    @property
    def model_count(self):
        return len(self.classes)

    @property
    def labels(self):
        """Column labels, one per member, computed on read."""
        return np.array([column_label(col) for col in self.matrix.T])


def view_from_closeness(agent, close, members):
    """Build a :class:`LabelView` from a global closeness matrix."""
    members = np.asarray(members)
    matrix = close[np.ix_(members, members)]
    n = len(members)
    groups = {}
    for pos in range(n):
        groups.setdefault(matrix[:, pos].tobytes(), []).append(pos)
    classes = sorted((np.sort(members[idx]) for idx in groups.values()),
                     key=lambda c: int(c[0]))
    best = max(len(c) for c in classes)
    candidates = [c for c in classes if len(c) == best]
    majority = next((c for c in candidates if agent in c), candidates[0])
    row = int(np.searchsorted(members, agent))
    return LabelView(
        members=members,
        matrix=matrix,
        classes=classes,
        majority=majority,
        agreement=float(matrix[row].sum() / n),
    )


def agreement_vector(close, adjacency, degrees):
    """All agreement degrees at once from a global closeness matrix."""
    return (close & adjacency).sum(axis=1) / degrees
