import numpy as np
import pytest

from conftest import complete_graph, path_graph
from fiedler.graphs import Graph, GraphGenConfig, generate_connected_graph
from fiedler.model import forward, init_params
from fiedler.simulation import NodeEstimateReport, run_simulation
from fiedler.spectral import algebraic_connectivity


def rand_graph(seed, n_lo=5, n_hi=10):
    cfg = GraphGenConfig(n_range=(n_lo, n_hi), p_range=(0.3, 0.7), seed=seed)
    return generate_connected_graph(cfg, 0)


def test_simulation_matches_monolithic_forward():
    params = init_params(16, seed=2)
    for trial, rounds in ((0, 2), (1, 4), (2, 8)):
        g = rand_graph(700 + trial)
        sim_est, _ = run_simulation(params, g, rounds)
        ref_est, _ = forward(params, g, rounds, "local")
        assert np.max(np.abs(sim_est - ref_est)) < 1e-12


def test_trace_counts():
    params = init_params(8, seed=3)
    g = rand_graph(711)
    rounds = 5
    _, trace = run_simulation(params, g, rounds)
    assert len(trace.rounds) == rounds
    for record in trace.rounds:
        assert len(record.messages) == 2 * len(g.edges)
        assert record.states.shape == (g.n, 8)
    assert trace.message_count() == rounds * 2 * len(g.edges)


def test_symmetric_graph_agents_agree_exactly():
    params = init_params(8, seed=4)
    est, _ = run_simulation(params, complete_graph(3), 4)
    assert est[0] == est[1] == est[2]


def test_empty_drop_set_is_identity():
    params = init_params(8, seed=5)
    g = rand_graph(712)
    base, _ = run_simulation(params, g, 4)
    dropped, _ = run_simulation(params, g, 4, set(), 1)
    assert np.array_equal(dropped, base)


def test_dropping_everything_isolates_all_agents():
    params = init_params(8, seed=6)
    g = rand_graph(713)
    est, _ = run_simulation(params, g, 4, set(g.edges), 1)
    # every agent then evolves identically on an empty inbox
    assert np.max(np.abs(est - est[0])) == 0.0


def test_drop_requires_subset_of_edges():
    params = init_params(8, seed=7)
    g = path_graph(4)
    with pytest.raises(ValueError):
        run_simulation(params, g, 2, {(0, 3)}, 1)


def test_drop_effect_is_confined_to_radius_T():
    params = init_params(8, seed=8)
    g = path_graph(10)
    rounds = 2
    base, _ = run_simulation(params, g, rounds)
    est, _ = run_simulation(params, g, rounds, {(0, 1)}, 1)
    # nodes farther than T from both endpoints cannot notice the drop
    for v in range(10):
        dist = min(abs(v - 0), abs(v - 1))
        if dist > rounds:
            assert abs(est[v] - base[v]) < 1e-12
    # the endpoints themselves do notice
    assert abs(est[0] - base[0]) > 0.0


def test_estimate_depends_only_on_radius_T_ball():
    params = init_params(8, seed=9)
    rounds = 2
    # two paths differing only by an extra edge far from node 0
    a = path_graph(6)
    b = Graph(6, list(a.edges) + [(3, 5)])
    est_a, _ = run_simulation(params, a, rounds)
    est_b, _ = run_simulation(params, b, rounds)
    assert abs(est_a[0] - est_b[0]) < 1e-12
    # forward sees the same locality
    fwd_a, _ = forward(params, a, rounds, "local")
    fwd_b, _ = forward(params, b, rounds, "local")
    assert abs(fwd_a[0] - fwd_b[0]) < 1e-12


def test_node_estimate_report_contents():
    params = init_params(8, seed=10)
    g = rand_graph(714, n_lo=8, n_hi=8)
    report = NodeEstimateReport.from_estimates(g, run_simulation(params, g, 8)[0])
    assert report.true_lambda2 == pytest.approx(algebraic_connectivity(g), abs=1e-12)
    assert report.estimates.shape == (8,)
    assert np.array_equal(report.errors, np.abs(report.estimates - report.true_lambda2))
    lines = report.text_lines()
    assert len(lines) == g.n + 1
    assert lines[0].startswith("true lambda2")
    csv = report.csv_text().splitlines()
    assert csv[0] == "node,estimate,abs_error"
    assert len(csv) == g.n + 2  # header, true row, one row per node


def test_rounds_must_be_positive():
    params = init_params(8, seed=11)
    with pytest.raises(ValueError):
        run_simulation(params, path_graph(4), 0)
