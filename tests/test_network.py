"""Geometry, graph generation, model placement, and data streams."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdecide.network import (DataStream, ModelSet, TopologyError, Topology,
                               _exp, _log, build_streams, close_component_count,
                               component_count, corner_models,
                               draw_noise_profile, generate_models,
                               generate_topology, network_from_json,
                               network_to_json, pairwise_close,
                               random_assignment, squared_distances)

from conftest import NOISE_RANGES
from test_links import estimates


def two_clique_topology(clique_size=4):
    """Two complete cliques joined by a single bridge link, degree cap not
    applied."""
    c = int(clique_size)
    n = 2 * c
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[:c, :c] = True
    adjacency[c:, c:] = True
    adjacency[c - 1, c] = adjacency[c, c - 1] = True
    angles = np.linspace(0.0, 2 * np.pi, c, endpoint=False)
    blob = 0.1 * np.column_stack([np.cos(angles), np.sin(angles)])
    positions = np.vstack([blob + [0.25, 0.5], blob + [0.75, 0.5]])
    return Topology(adjacency, positions).validate()


def path_adjacency(n):
    adj = np.eye(n, dtype=bool)
    idx = np.arange(n - 1)
    adj[idx, idx + 1] = adj[idx + 1, idx] = True
    return adj


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 3))
def test_squared_distances_matches_loop(seed, nx, ny, dim):
    g = np.random.default_rng(seed)
    x = g.normal(size=(nx, dim)) * 10
    y = g.normal(size=(ny, dim)) * 10
    got = squared_distances(x, y)
    want = np.empty((nx, ny))
    for i in range(nx):
        for j in range(ny):
            want[i, j] = ((x[i] - y[j]) ** 2).sum()
    assert got.shape == (nx, ny)
    assert np.allclose(got, want, atol=1e-8)
    assert (got >= 0).all()


def test_squared_distances_self_diagonal_zero(rng):
    x = rng.normal(size=(7, 2)) * 100
    d = squared_distances(x)
    assert np.allclose(np.diagonal(d), 0.0)
    assert np.allclose(d, d.T)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 5),
       st.sampled_from(["C", "F", "strided"]))
def test_squared_distances_is_exactly_symmetric(seed, n, dim, layout):
    # pairwise_close relies on it: no guard makes its test symmetric
    x = estimates(np.random.default_rng(seed), n, dim)
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        wide = np.zeros((2 * n, 3 * dim))
        wide[::2, ::3] = x
        x = wide[::2, ::3]
    d2 = squared_distances(x)
    assert np.array_equal(d2, d2.T)


def test_pairwise_close_matches_brute_force(rng):
    pts = rng.uniform(-1, 1, size=(12, 2))
    thr = 0.3
    close = pairwise_close(pts, thr)
    for i in range(12):
        for j in range(12):
            assert close[i, j] == (((pts[i] - pts[j]) ** 2).sum() <= thr)
    assert close.diagonal().all()
    assert np.array_equal(close, close.T)


def test_connectivity_and_components(rng):
    assert component_count(path_adjacency(6)) == 1
    split = np.eye(6, dtype=bool)
    split[0, 1] = split[1, 0] = True
    split[3, 4] = split[4, 3] = True
    assert component_count(split) == 4
    # oracle: count components by a plain-Python graph search
    for _ in range(20):
        n = int(rng.integers(2, 9))
        adj = np.eye(n, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.25:
                    adj[i, j] = adj[j, i] = True
        assert component_count(adj) == oracle_component_count(adj)


def oracle_component_count(close):
    """Components of a symmetric relation by a plain-Python graph search."""
    n = len(close)
    seen = [False] * n
    count = 0
    for root in range(n):
        if seen[root]:
            continue
        count += 1
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            for w in range(n):
                if close[v][w] and not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


@st.composite
def closed_relations(draw):
    """Symmetric relations with a True diagonal: paths through the agents
    in a drawn order, cut into blocks, plus a few extra links."""
    n = draw(st.integers(1, 40))
    order = draw(st.permutations(range(n)))
    cut_after = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    close = np.eye(n, dtype=bool)
    for k, cut in enumerate(cut_after):
        if not cut:
            a, b = order[k], order[k + 1]
            close[a, b] = close[b, a] = True
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n))
    for a, b in extra:
        close[a, b] = close[b, a] = True
    return close


@settings(max_examples=200, deadline=None)
@given(closed_relations())
@example(np.eye(1, dtype=bool))
@example(np.eye(30, dtype=bool))
@example(path_adjacency(40))
@example(np.ones((5, 5), dtype=bool))
def test_component_count_matches_graph_search_oracle(close):
    want = oracle_component_count(close.tolist())
    assert component_count(close) == want
    # self-loops do not join anything: the count holds without them
    assert component_count(close & ~np.eye(len(close), dtype=bool)) == want


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), dim=st.integers(1, 4),
       cloud=st.sampled_from(["grid", "bunched", "clusters", "spread"]),
       coincident=st.floats(0.0, 0.5), exact=st.booleans())
@example(seed=0, n=1, dim=2, cloud="spread", coincident=0.0, exact=False)
@example(seed=0, n=40, dim=2, cloud="grid", coincident=0.5, exact=True)
@example(seed=3, n=60, dim=3, cloud="bunched", coincident=0.0, exact=True)
def test_close_component_count_matches_the_dense_relation(seed, n, dim, cloud,
                                                          coincident, exact):
    # half-grid points meet an exact threshold in many pairs; bunched
    # clouds fill few cells, spread ones many; dim 4 takes the dense path
    g = np.random.default_rng(seed)
    if cloud == "grid":
        points = g.integers(-3, 4, size=(n, dim)) / 2
    elif cloud == "bunched":
        points = g.normal(size=(n, dim)) * 0.15
    elif cloud == "clusters":
        points = g.uniform(-1, 1, size=(3, dim))[g.integers(0, 3, n)]
        points += g.normal(size=(n, dim)) * 0.1
    else:
        points = g.uniform(-3, 3, size=(n, dim))
    copies = g.random(n) < coincident
    points[copies] = points[g.integers(0, n, size=copies.sum())]
    d2 = squared_distances(points)
    positive = d2[d2 > 0]
    threshold = float(g.choice(positive)) if exact and positive.size else 0.08
    want = component_count(pairwise_close(points, threshold))
    assert close_component_count(points, threshold) == want


def test_close_component_count_splits_a_cell_that_is_not_a_clique():
    # the last two points fall in one cell of side 0.1 once (x - lo) / 0.1
    # is rounded, yet lie just over the threshold apart: the cell's box
    # fails the test and its points are settled one by one
    lo, a, b = -4.071587881110587, 3.4284121188894128, 3.528412118889413
    points = np.array([[lo, lo], [a, a], [b, b]])
    assert squared_distances(points)[1, 2] > 0.02
    assert close_component_count(points, 0.02) == 3


def test_close_component_count_takes_the_dense_path_off_the_grid():
    points = np.array([[0.0, 0.0], [0.1, 0.0], [np.nan, 0.0], [5.0, 5.0]])
    assert close_component_count(points, 0.08) == 3
    assert close_component_count(points[[0, 1, 3]], 0.0) == 3
    assert close_component_count(np.zeros((3, 2)), 0.0) == 1
    assert close_component_count(np.zeros((0, 2)), 0.08) == 0


def test_topology_validate_rejects_bad_shapes():
    good = Topology(path_adjacency(4), np.zeros((4, 2)))
    good.validate()
    asym = path_adjacency(4)
    asym[0, 3] = True
    with pytest.raises(TopologyError):
        Topology(asym, np.zeros((4, 2))).validate()
    open_diag = path_adjacency(4)
    open_diag[2, 2] = False
    with pytest.raises(TopologyError):
        Topology(open_diag, np.zeros((4, 2))).validate()
    with pytest.raises(TopologyError):
        Topology(path_adjacency(4), np.zeros((3, 2))).validate()


@pytest.mark.parametrize("seed", range(8))
def test_generate_topology_contract(seed):
    topo = generate_topology(30, max_degree=7, radius=0.35, seed=seed)
    topo.validate()
    assert component_count(topo.adjacency) == 1
    assert topo.degrees.max() <= 7
    assert (topo.positions >= 0).all() and (topo.positions <= 1).all()


def test_generate_topology_is_seed_deterministic():
    a = generate_topology(25, max_degree=7, radius=0.35, seed=42)
    b = generate_topology(25, max_degree=7, radius=0.35, seed=42)
    c = generate_topology(25, max_degree=7, radius=0.35, seed=43)
    assert np.array_equal(a.adjacency, b.adjacency)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def reference_prune(adjacency, sqdist, max_degree):
    """The degree prune as first written: a whole-graph connectivity check
    after every cut. Kept as the reference the local reroute test must
    reproduce."""
    deg = adjacency.sum(axis=0)
    if (deg <= max_degree).all():
        return True
    iu, ju = np.triu_indices_from(adjacency, k=1)
    present = adjacency[iu, ju]
    ea, eb = iu[present], ju[present]
    order = np.argsort(-sqdist[ea, eb], kind="stable")
    for t in order:
        a, b = ea[t], eb[t]
        if deg[a] <= max_degree and deg[b] <= max_degree:
            continue
        adjacency[a, b] = adjacency[b, a] = False
        if component_count(adjacency) != 1:
            adjacency[a, b] = adjacency[b, a] = True
            continue
        deg[a] -= 1
        deg[b] -= 1
    return bool((deg <= max_degree).all())


def reference_topology(n_agents, max_degree, radius, seed, max_tries=50):
    """generate_topology's placement loop around :func:`reference_prune`."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        positions = rng.random((n_agents, 2))
        d2 = squared_distances(positions)
        adjacency = d2 <= radius * radius
        np.fill_diagonal(adjacency, True)
        if component_count(adjacency) != 1:
            continue
        if reference_prune(adjacency, d2, max_degree):
            return adjacency, positions
    return None


@pytest.mark.parametrize("n_agents, radius", [(20, 0.4), (80, 0.22), (150, 0.18)])
def test_generate_topology_matches_global_check_prune(n_agents, radius):
    for seed in range(20):
        want = reference_topology(n_agents, 7, radius, seed)
        if want is None:
            with pytest.raises(TopologyError):
                generate_topology(n_agents, 7, radius, seed=seed)
            continue
        got = generate_topology(n_agents, 7, radius, seed=seed)
        assert np.array_equal(got.adjacency, want[0])
        assert np.array_equal(got.positions, want[1])


def test_generate_topology_gives_up_when_radius_too_small():
    with pytest.raises(TopologyError):
        generate_topology(40, max_degree=7, radius=0.01, seed=0, max_tries=5)


def test_two_clique_topology_structure():
    topo = two_clique_topology(clique_size=4)
    topo.validate()
    adj = topo.adjacency
    assert adj.shape == (8, 8)
    assert adj[:4, :4].all() and adj[4:, 4:].all()
    off = adj[:4, 4:].copy()
    assert off.sum() == 1 and off[3, 0]
    assert component_count(adj) == 1


def test_generate_models_respects_separation_and_range():
    for seed in range(6):
        ms = generate_models(3, dim=2, value_range=(-1.0, 1.0), seed=seed,
                             min_separation_sq=0.32)
        assert ms.models.shape == (3, 2)
        assert (np.abs(ms.models) <= 1.0).all()
        sep = squared_distances(ms.models)
        assert sep[~np.eye(3, dtype=bool)].min() >= 0.32
    with pytest.raises(ValueError):
        generate_models(2, dim=2, value_range=(1.0, -1.0), seed=0)
    with pytest.raises(RuntimeError):
        # cannot fit this separation inside the unit box
        generate_models(5, dim=2, value_range=(-1.0, 1.0), seed=0,
                        min_separation_sq=50.0, max_tries=10)


def test_corner_models_rows():
    ms = corner_models((-50.0, 50.0))
    want = [[-50, -50], [-50, 50], [50, -50], [50, 50]]
    assert np.array_equal(ms.models, np.array(want, dtype=float))


def test_random_assignment_covers_every_model(rng):
    for _ in range(30):
        assignment = random_assignment(12, 4, rng)
        assert assignment.shape == (12,)
        assert set(np.unique(assignment)) == {0, 1, 2, 3}


def test_noise_profile_stays_in_ranges():
    sigma_v2, reg_power = draw_noise_profile(
        200, 2, seed=9, sigma_v2_range=(1e-3, 1e-2), reg_power_range=(0.8, 1.2))
    assert sigma_v2.shape == (200,)
    assert reg_power.shape == (200, 2)
    assert (sigma_v2 >= 1e-3).all() and (sigma_v2 <= 1e-2).all()
    assert (reg_power >= 0.8).all() and (reg_power <= 1.2).all()


def test_portable_exp_and_log_match_the_math_library():
    # within two units in the last place over a range wider than any
    # noise-variance range
    x = np.linspace(-30.0, 30.0, 20001)
    want = np.exp(x)
    assert (np.abs(_exp(x) - want) <= 2 * np.spacing(want)).all()
    y = np.geomspace(1e-6, 1e6, 20001)
    assert np.allclose(_log(y), np.log(y), rtol=0.0, atol=4e-15)
    assert _log(1.0) == 0.0


def test_data_stream_observation_algebra():
    noise = draw_noise_profile(6, 2, seed=11, **NOISE_RANGES)
    stream = DataStream(*noise, np.random.SeedSequence(5).spawn(6), n_iters=40)
    w = np.arange(12, dtype=float).reshape(6, 2)
    d, u = stream.round(17, w)
    assert np.allclose(d, (u * w).sum(axis=1) + stream.v[16])
    assert np.array_equal(u, stream.u[16])


def test_build_streams_is_seed_deterministic():
    noise = draw_noise_profile(5, 2, seed=21, **NOISE_RANGES)
    a = build_streams(*noise, 30, seed=77)
    b = build_streams(*noise, 30, seed=77)
    c = build_streams(*noise, 30, seed=78)
    assert np.array_equal(a.data.u, b.data.u)
    assert np.array_equal(a.data.v, b.data.v)
    assert not np.array_equal(a.data.u, c.data.u)
    assert len(a.decision) == 5
    # sibling streams are independent draws
    assert a.decision[0].integers(0, 10**9) == b.decision[0].integers(0, 10**9)


def test_network_json_round_trip():
    topo = generate_topology(12, max_degree=7, radius=0.5, seed=2)
    models = generate_models(2, 2, (-1.0, 1.0), seed=3, min_separation_sq=0.32)
    models = ModelSet(models.models, random_assignment(12, 2, np.random.default_rng(4)))
    doc = network_to_json(topo, models)
    assert doc["schema"] == "netdecide.network/1"
    assert min(a["id"] for a in doc["agents"]) == 1
    assert all(1 <= a <= 12 and 1 <= b <= 12 for a, b in doc["links"])
    assert min(doc["assignment"]) >= 1
    topo2, models2 = network_from_json(doc)
    assert np.array_equal(topo2.adjacency, topo.adjacency)
    assert np.allclose(topo2.positions, topo.positions)
    assert np.allclose(models2.models, models.models)
    assert np.array_equal(models2.assignment, models.assignment)


def test_network_json_without_assignment():
    topo = two_clique_topology(3)
    doc = network_to_json(topo, ModelSet(np.zeros((2, 2)), None))
    assert "assignment" not in doc
    _, models = network_from_json(doc)
    assert models.assignment is None


def small_network_doc(**changes):
    """A valid three-agent, one-model network document with ``changes``."""
    doc = {"schema": "netdecide.network/1",
           "agents": [{"id": k, "x": 0.1 * k, "y": 0.0} for k in (1, 2, 3)],
           "links": [[1, 2], [2, 3]],
           "models": [[0.0, 0.0]],
           "assignment": [1, 1, 1]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("changes, bad_id", [
    (dict(links=[[1, 2], [0, 2]]), "link agent id 0 "),
    (dict(links=[[1, 2], [2, 4]]), "link agent id 4 "),
    (dict(agents=[{"id": k, "x": 0.1 * k, "y": 0.0} for k in (1, 2, 2)]),
     "agent id 2 repeats"),
    (dict(assignment=[1, 5, 1]), "label 5 "),
    (dict(assignment=[1, 1]), "2 labels for 3 agents"),
    (dict(links=[[1, 2, 1, 2]]), r"link \[1, 2, 1, 2\] is not a pair"),
    (dict(links=[[1, 2], [1]]), r"link \[1\] is not a pair"),
], ids=["link-below-1", "link-above-n", "repeated-agent", "label-above-m",
        "assignment-too-short", "link-of-four", "link-of-one"])
def test_network_from_json_rejects_bad_ids(changes, bad_id):
    network_from_json(small_network_doc())
    with pytest.raises(TopologyError, match=bad_id):
        network_from_json(small_network_doc(**changes))
