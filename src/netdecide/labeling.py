"""Local labeling of desired models.

Each agent compares the previous-round desired estimates of its neighbors
pairwise and encodes who-matches-whom in a small symmetric boolean matrix.
Reading each column as a binary number (top row most significant) gives a
local label per neighbor: the column [1, 0, 0, 1, 0, 1] reads 37. Equal
labels mean identical columns, so neighbors with equal labels form one
local model class. The classes depend on the viewing agent's neighborhood
only, and only the induced classes are meaningful network-wide.

:func:`view_from_closeness` labels many views at once: it gathers every
view's members into one padded block and tests each pair of members'
desired estimates for closeness; :func:`label_classes` packs each column
of the block into a byte string label (a mobile neighborhood of 80 agents
needs 10 bytes) and compares the labels pairwise. The closeness is
computed on the views' member pairs only, with the per-pair arithmetic of
``netdecide.network.squared_distances``, so it has the bits of the N x N
relation without building it.

The agreement degree p_k of an agent is the share of its closed
neighborhood whose desired estimates are close to its own;
:func:`agreement_vector` computes every p_k at once.
"""

import numpy as np

from .network import _PAIRS_PER_STEP, squared_distances


def view_from_closeness(points, threshold, members, width):
    """Local model classes of P views as ``(slots, same)``: (P, W) member
    ids ascending, padded with -1, and (P, W, W) ``same[v, a, b]``, true
    when slots ``a`` and ``b`` of view ``v`` carry equal labels and neither
    is padding.

    ``members`` lists the members of every view, view by view, each view's
    ids ascending, and ``width`` (P,) says how many each view has, at least
    one. Members are close when their ``points`` (the desired estimates)
    lie within ``threshold`` (squared norm) of each other.
    """
    valid = np.arange(width.max()) < width[:, None]
    slots = np.full(valid.shape, -1)
    slots[valid] = members
    # a few views at a time, so the float distances stay small beside the
    # boolean block; the -1 padding reads the last agent's estimate, and
    # masking the padded rows keeps it out of every label. The kernel
    # gathers each coordinate at the slots, not the (P, W, M) rows.
    block = np.empty(slots.shape + slots.shape[1:], dtype=bool)
    step = max(1, _PAIRS_PER_STEP // slots.shape[1] ** 2)
    for i in range(0, len(slots), step):
        views = slots[i:i + step]
        block[i:i + step] = squared_distances(points, None, views[:, :, None],
                                              views[:, None, :]) <= threshold
    return slots, label_classes(block, valid)


def label_classes(block, valid):
    """``same`` of :func:`view_from_closeness` from the (P, W, W)
    closeness ``block`` of P views whose slots are ``valid`` (P, W): slots
    ``a`` and ``b`` of view ``v`` are of one class when columns ``a`` and
    ``b`` of ``block[v]`` agree on every valid row and neither slot is
    padding. Entries on padded rows or columns are ignored; ``block`` is
    overwritten.
    """
    block &= valid[:, :, None]
    packed = np.packbits(block, axis=1).transpose(0, 2, 1)
    labels = np.ascontiguousarray(packed).view(f"V{packed.shape[2]}")[..., 0]
    same = labels[:, :, None] == labels[:, None, :]
    same &= valid[:, :, None]
    same &= valid[:, None, :]
    return same


def agreement_vector(close, links):
    """All agreement degrees at once: the number of close agents in each
    closed neighborhood over its size. ``close`` is the closeness of the
    desired estimates at the links."""
    return links.counts(close, axis=1) / links.counts()
