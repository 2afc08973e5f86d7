"""Local labeling of desired models.

Each agent compares the previous-round desired estimates of its neighbors
pairwise and encodes who-matches-whom in a small symmetric boolean matrix.
Reading each column as a binary number (top row most significant) gives a
local label per neighbor: the column [1, 0, 0, 1, 0, 1] reads 37. Equal
labels mean identical columns, so neighbors with equal labels form one
local model class. The classes depend on the viewing agent's neighborhood
only, and only the induced classes are meaningful network-wide.

:func:`view_from_closeness` labels many views at once: it gathers every
view's matrix into one padded block, packs each column into a byte string
label (a mobile neighborhood of 80 agents needs 10 bytes) and compares
the labels pairwise.

The agreement degree p_k of an agent is the share of its closed
neighborhood whose desired estimates are close to its own;
:func:`agreement_vector` computes every p_k at once.
"""

import numpy as np


def view_from_closeness(close, views):
    """Local model classes of the (P, N) boolean ``views``, one row of
    members per view, as ``(slots, same)``: (P, W) member ids ascending,
    padded with -1, and (P, W, W) ``same[v, a, b]``, true when slots ``a``
    and ``b`` of view ``v`` carry equal labels and neither is padding."""
    width = views.sum(axis=1)
    valid = np.arange(width.max()) < width[:, None]
    slots = np.full(valid.shape, -1)
    slots[valid] = np.nonzero(views)[1]
    # the -1 padding gathers the last agent's row and column; masking the
    # padded rows keeps it out of every label
    block = close[slots[:, :, None], slots[:, None, :]] & valid[:, :, None]
    packed = np.packbits(block, axis=1).transpose(0, 2, 1)
    labels = np.ascontiguousarray(packed).view(f"V{packed.shape[2]}")[..., 0]
    same = labels[:, :, None] == labels[:, None, :]
    return slots, same & valid[:, :, None] & valid[:, None, :]


def agreement_vector(close, adjacency, degrees):
    """All agreement degrees at once from a global closeness matrix."""
    return np.count_nonzero(close & adjacency, axis=1) / degrees
