"""Local labeling of desired models.

Each agent compares the previous-round desired estimates of its neighbors
pairwise and encodes who-matches-whom in a small symmetric boolean matrix.
Reading each column as a binary number (top row most significant) gives a
local label per neighbor: the column [1, 0, 0, 1, 0, 1] reads 37. Equal
labels mean identical columns, so neighbors whose columns are identical
carry one label and form one local model class; the classes are built
from the columns directly. They depend on the viewing agent's
neighborhood only, and only the induced classes are meaningful
network-wide.

The agreement degree p_k of an agent is the share of its closed
neighborhood whose desired estimates are close to its own;
:func:`agreement_vector` computes every p_k at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class LabelView:
    """One agent's local picture of who desires which model.

    members : ndarray
        Global agent ids in the view, ascending, viewer included.
    classes : list of ndarray
        Members grouped by identical closeness columns, ordered by
        smallest member.
    majority : ndarray
        Members of the winning class: the largest one, ties preferring the
        viewer's own class and then the smallest leading member.
    """

    members: np.ndarray
    classes: list
    majority: np.ndarray

    @property
    def model_count(self):
        return len(self.classes)


def view_from_closeness(agent, close, members):
    """Build a :class:`LabelView` from a global closeness matrix."""
    members = np.asarray(members)
    matrix = close[np.ix_(members, members)]
    groups = {}
    for pos in range(len(members)):
        groups.setdefault(matrix[:, pos].tobytes(), []).append(pos)
    classes = sorted((np.sort(members[idx]) for idx in groups.values()),
                     key=lambda c: int(c[0]))
    best = max(len(c) for c in classes)
    candidates = [c for c in classes if len(c) == best]
    majority = next((c for c in candidates if agent in c), candidates[0])
    return LabelView(members=members, classes=classes, majority=majority)


def agreement_vector(close, adjacency, degrees):
    """All agreement degrees at once from a global closeness matrix."""
    return (close & adjacency).sum(axis=1) / degrees
