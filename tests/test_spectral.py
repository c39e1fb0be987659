import itertools
import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import complete_graph, cycle_graph, path_graph, star_graph
from fiedler import spectral
from fiedler.graphs import Graph, GraphArrays, GraphGenConfig, generate_connected_graph, laplacian
from fiedler.spectral import algebraic_connectivities, algebraic_connectivity, jacobi_eigensystem


def test_two_by_two_laplacian_block():
    # characteristic polynomial x^2 - 2x has roots 0 and 2
    ev = jacobi_eigensystem([[1.0, -1.0], [-1.0, 1.0]])
    assert ev == pytest.approx([0.0, 2.0], abs=1e-12)


def test_identity_matrix():
    ev = jacobi_eigensystem(np.eye(3))
    assert np.array_equal(ev, [1.0, 1.0, 1.0])


def test_path3_spectrum():
    ev = jacobi_eigensystem(laplacian(path_graph(3)))
    assert ev == pytest.approx([0.0, 1.0, 3.0], abs=1e-12)


def test_rejects_non_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigensystem([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="square"):
        jacobi_eigensystem(np.ones((2, 3)))


def test_rejects_non_finite_entries():
    """A NaN or infinite entry is rejected before the symmetry check, which
    would subtract infinities; in a stack the error names the first bad
    matrix."""
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^matrix has a non-finite entry$"):
            jacobi_eigensystem([[bad, 1.0], [1.0, 0.0]])
    raw = np.random.default_rng(79).normal(size=(40, 5, 5))
    stack = (raw + raw.transpose(0, 2, 1)) / 2.0
    stack[[6, 20], 1, 3] = stack[[6, 20], 3, 1] = math.nan
    with pytest.raises(ValueError, match=r"^matrix 6 has a non-finite entry$"):
        jacobi_eigensystem(stack)


def test_non_convergence_raises(monkeypatch):
    m = laplacian(complete_graph(5))
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
    with pytest.raises(RuntimeError, match="converge"):
        jacobi_eigensystem(m)


@pytest.mark.parametrize("n", range(3, 14))
def test_closed_form_families(n):
    assert algebraic_connectivity(complete_graph(n)) == pytest.approx(n, abs=1e-9)
    assert algebraic_connectivity(cycle_graph(n)) == pytest.approx(
        2.0 - 2.0 * math.cos(2.0 * math.pi / n), abs=1e-9
    )
    assert algebraic_connectivity(path_graph(n)) == pytest.approx(
        2.0 - 2.0 * math.cos(math.pi / n), abs=1e-9
    )
    if n >= 3:
        assert algebraic_connectivity(star_graph(n - 1)) == pytest.approx(1.0, abs=1e-9)


def test_star_with_five_leaves():
    assert algebraic_connectivity(star_graph(5)) == pytest.approx(1.0, abs=1e-9)


def test_eigenvalue_sum_matches_trace():
    cfg = GraphGenConfig(n_range=(4, 13), p_range=(0.2, 0.9), seed=17)
    for idx in range(100):
        lap = laplacian(generate_connected_graph(cfg, idx))
        ev = jacobi_eigensystem(lap)
        assert abs(ev.sum() - np.trace(lap)) <= 1e-8


def test_matches_lapack_on_random_symmetric():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 14))
        a = rng.normal(size=(n, n))
        m = (a + a.T) / 2.0
        ours = jacobi_eigensystem(m)
        ref = np.linalg.eigvalsh(m)
        assert ours == pytest.approx(ref, abs=1e-10)


def test_spectrum_invariants_on_generated_graphs():
    cfg = GraphGenConfig(n_range=(5, 12), p_range=(0.2, 0.7), seed=41)
    for idx in range(30):
        g = generate_connected_graph(cfg, idx)
        ev = jacobi_eigensystem(laplacian(g))
        assert abs(ev[0]) <= 1e-9
        assert ev.min() >= -1e-9
        assert 0.0 < ev[1] <= g.n + 1e-9


def test_edge_deletion_never_increases_lambda2():
    cfg = GraphGenConfig(n_range=(5, 10), p_range=(0.4, 0.8), seed=53)
    rng = np.random.default_rng(2)
    for idx in range(50):
        g = generate_connected_graph(cfg, idx)
        base = algebraic_connectivity(g)
        drop = tuple(g.edge_list()[rng.integers(len(g.edges))])
        smaller = Graph(g.n, set(g.edges) - {drop})
        assert algebraic_connectivity(smaller) <= base + 1e-9


def _mixed_graphs():
    graphs = [complete_graph(3), path_graph(3)]
    for n_lo, n_hi, count in [(3, 12, 30), (13, 40, 6)]:
        cfg = GraphGenConfig(n_range=(n_lo, n_hi), p_range=(0.2, 0.8), seed=n_lo)
        graphs += [generate_connected_graph(cfg, idx) for idx in range(count)]
    return graphs


def _scalar_jacobi(m, off_tol=1e-12):
    """One-matrix, pure-Python cyclic Jacobi in the same rotation order: the
    bitwise reference for the stacked solver's arithmetic. Returns the
    eigenvalues ascending."""
    n = len(m)
    a = [[float(m[i][k]) for k in range(n)] for i in range(n)]
    rotate_tol = off_tol / (2.0 * n * n)
    while True:
        off_sq = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off_sq += a[p][q] * a[p][q]
        if math.sqrt(2.0 * off_sq) <= off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= rotate_tol:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        akp, akq = a[k][p], a[k][q]
                        a[k][p] = a[p][k] = akp - s * (akq + tau * akp)
                        a[k][q] = a[q][k] = akq + s * (akp - tau * akq)
    return np.sort([a[i][i] for i in range(n)], kind="stable")


def _hex(values):
    return [float(v).hex() for v in values]


def _assert_matches_reference(ev, mat):
    assert _hex(ev) == _hex(_scalar_jacobi(mat))


def _signed_zero_matrix():
    """A symmetric matrix holding -0.0 entries, on and off the diagonal, in
    rows that rotate and in a row that never does (eigenvalue -0.0)."""
    m = np.array([
        [-0.0, -0.0, -0.0, 0.0, -0.0],
        [-0.0, 2.0, -1.0, -0.0, 0.5],
        [-0.0, -1.0, 3.0, -0.0, -0.0],
        [0.0, -0.0, -0.0, 1.0, -0.0],
        [-0.0, 0.5, -0.0, -0.0, -2.0],
    ])
    assert _hex(m.ravel()) == _hex(m.T.ravel())
    return m


def test_stacked_solver_is_bitwise_equal_to_scalar_reference():
    rng = np.random.default_rng(71)
    mats = [laplacian(g) for g in _mixed_graphs()[::4]]
    for n in (1, 2, 5, 9):
        raw = rng.normal(size=(3, n, n))
        mats += list((raw + raw.transpose(0, 2, 1)) / 2.0)
    mats.append(_signed_zero_matrix())
    for mat in mats:
        # one matrix: the scalar finish
        _assert_matches_reference(jacobi_eigensystem(mat), mat)
        # the same matrix in a stack too wide for it: stacked rotations
        copies = spectral.SCALAR_MAX_ENTRIES // len(mat) + 1
        for ev in jacobi_eigensystem(np.stack([mat] * copies)):
            _assert_matches_reference(ev, mat)


# SCALAR_MAX_ENTRIES values that send every sweep down the stacked path (0)
# or every sweep to the scalar finish (no stack here comes near 10**9 entries)
ALL_STACKED, ALL_SCALAR = 0, 10**9


@pytest.mark.parametrize("entries", [ALL_STACKED, ALL_SCALAR])
def test_both_paths_are_bitwise_equal_to_scalar_reference(monkeypatch, entries):
    monkeypatch.setattr(spectral, "SCALAR_MAX_ENTRIES", entries)
    rng = np.random.default_rng(72)
    raw = rng.normal(size=(14, 5, 5))
    # the -0.0 matrix rotates only at (1, 2) and (1, 4); at every other pair
    # it stays put while random matrices beside it rotate
    stack = np.concatenate([[_signed_zero_matrix()], (raw + raw.transpose(0, 2, 1)) / 2.0])
    singles = [np.array([[-0.0]]), np.array([[2.5]]), np.array([[1.0, -0.0], [-0.0, 1.0]]),
               np.array([[1.0, 0.5], [0.5, -3.0]])]
    for mats in [stack, *(m[None] for m in singles), np.stack([singles[3]] * 40)]:
        for mat, ev in zip(mats, jacobi_eigensystem(mats)):
            _assert_matches_reference(ev, mat)

    # a padded edgeless graph, and an edgeless graph alone
    graphs = [Graph(7, []), path_graph(3), cycle_graph(12), Graph(3, [])] + _mixed_graphs()[2:30:3]
    want = _hex(_scalar_jacobi(laplacian(g))[1] for g in graphs)
    assert _hex(algebraic_connectivities(GraphArrays.of(graphs))) == want
    assert _hex(algebraic_connectivity(g) for g in graphs) == want

    # too few sweeps raise the same error on either path
    hard = np.random.default_rng(75).normal(size=(12, 12))
    hard = (hard + hard.T) / 2.0
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 1)
    for mats in (hard, np.stack([hard] * 8)):
        with pytest.raises(RuntimeError, match="did not converge in 1 sweeps"):
            jacobi_eigensystem(mats)


def test_solver_reads_the_upper_triangle(monkeypatch):
    """A matrix symmetric within SYMMETRY_TOL but not exactly gives the bits
    of its upper triangle mirrored, alone on either path and in a stack of
    copies. Row 0 is zero off the diagonal, so no rotation writes column 0
    and a solver that read the lower triangle would meet its 5e-13 entries."""
    raw = np.random.default_rng(77).normal(size=(6, 6))
    raw[0, 1:] = 0.0
    mirrored = np.where(np.triu(np.ones((6, 6), dtype=bool)), raw, raw.T)
    near = mirrored.copy()
    near[np.tril_indices(6, -1)] += 5e-13
    assert 0.0 < np.abs(near - near.T).max() <= spectral.SYMMETRY_TOL
    copies = np.stack([near] * (spectral.SCALAR_MAX_ENTRIES // 6 + 1))
    for entries, mats in [(ALL_SCALAR, near[None]), (ALL_STACKED, near[None]),
                          (spectral.SCALAR_MAX_ENTRIES, copies)]:
        monkeypatch.setattr(spectral, "SCALAR_MAX_ENTRIES", entries)
        for ev in jacobi_eigensystem(mats):
            _assert_matches_reference(ev, mirrored)


def test_solver_keeps_its_floating_point_state_to_itself():
    """Stacked rotations compute parameters in every lane, and a lane that
    does not rotate divides by zero there: under the caller's
    ``errstate(all="raise")`` a padded stack with edgeless graphs and a stack
    whose matrices skip pairs neither raise nor warn, and the caller's state
    holds afterwards."""
    graphs = [Graph(7, []), path_graph(3), cycle_graph(12), Graph(3, [])] + _mixed_graphs()[2:30:3]
    raw = np.random.default_rng(78).normal(size=(16, 8, 8))
    stack = (raw + raw.transpose(0, 2, 1)) / 2.0
    stack[::2, 1, 5] = stack[::2, 5, 1] = 0.0
    stack[1::3, 2, :] = stack[1::3, :, 2] = 0.0
    sat_out = []
    rotate = spectral._rotate

    def counting(pair, work, rotate_tol):
        rotating = np.count_nonzero(np.abs(pair[0]) > rotate_tol)
        sat_out.append(0 < rotating < rotate_tol.size)
        return rotate(pair, work, rotate_tol)

    with pytest.MonkeyPatch.context() as mp, np.errstate(all="raise"):
        mp.setattr(spectral, "_rotate", counting)
        labels = algebraic_connectivities(GraphArrays.of(graphs))
        assert any(sat_out)  # a stacked rotation in which some matrices sat out
        sat_out.clear()
        evs = jacobi_eigensystem(stack)
        assert any(sat_out)
        assert np.geterr() == dict.fromkeys(("divide", "over", "under", "invalid"), "raise")
    assert _hex(labels) == _hex(algebraic_connectivity(g) for g in graphs)
    for mat, ev in zip(stack, evs):
        _assert_matches_reference(ev, mat)


def test_paths_switch_mid_solve_without_changing_a_bit(monkeypatch):
    """A stack that starts stacked and drops under SCALAR_MAX_ENTRIES as its
    matrices converge gives the bits of either path run throughout, and
    converges within the same sweep budget: one sweep fewer raises on every
    path."""
    # one of these 40 matrices needs 7 sweeps, the others 5 or 6; the 40
    # paper-law graphs need at most 6 and the two 24-node ones 7
    raw = np.random.default_rng(73).normal(size=(40, 12, 12))
    stack = (raw + raw.transpose(0, 2, 1)) / 2.0
    cfg = GraphGenConfig(n_range=(9, 11), p_range=(0.16, 0.95), seed=74)
    graphs = [generate_connected_graph(cfg, idx) for idx in range(40)]
    arrays = GraphArrays.of(graphs + [path_graph(24), cycle_graph(24)])

    finished = []
    finish = spectral._finish_alone

    def spy(a, rotate_tol, sweeps):
        finished.append(sweeps)
        return finish(a, rotate_tol, sweeps)

    def run(entries, max_sweeps=spectral.MAX_SWEEPS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "SCALAR_MAX_ENTRIES", entries)
            mp.setattr(spectral, "_finish_alone", spy)
            mp.setattr(spectral, "MAX_SWEEPS", max_sweeps)
            ev = jacobi_eigensystem(stack)
            labels = algebraic_connectivities(arrays)
            return _hex(ev.ravel()) + _hex(labels.ravel())

    want = run(ALL_STACKED)
    assert run(ALL_SCALAR) == want
    finished.clear()
    assert run(spectral.SCALAR_MAX_ENTRIES) == want
    # the stragglers, one 12 x 12 matrix and the two 24-node graphs, were
    # finished alone after six stacked sweeps
    assert finished == [spectral.MAX_SWEEPS - 6] * 3

    for entries in (ALL_STACKED, ALL_SCALAR, spectral.SCALAR_MAX_ENTRIES):
        assert run(entries, 7) == want
        with pytest.raises(RuntimeError, match="did not converge in 6 sweeps"):
            run(entries, 6)


def _count_rotations(monkeypatch):
    calls = []
    rotate = spectral._rotate

    def counting(pair, work, rotate_tol):
        calls.append(pair)
        return rotate(pair, work, rotate_tol)

    monkeypatch.setattr(spectral, "_rotate", counting)
    return calls


def test_small_calls_never_rotate_a_stack(monkeypatch):
    cfg = GraphGenConfig(n_range=(9, 11), p_range=(0.16, 0.95), seed=601)
    graphs = [generate_connected_graph(cfg, idx) for idx in range(100)]
    rotations = _count_rotations(monkeypatch)
    algebraic_connectivity(graphs[0])
    algebraic_connectivities(GraphArrays.of(graphs[:3]))
    jacobi_eigensystem(laplacian(graphs[1]))
    assert rotations == []
    algebraic_connectivities(GraphArrays.of(graphs))
    assert len(rotations) > 0


def test_stacked_oracle_is_bitwise_equal_to_single_calls(monkeypatch):
    graphs = _mixed_graphs()
    single = _hex(algebraic_connectivity(g) for g in graphs)
    assert _hex(algebraic_connectivities(GraphArrays.of(graphs))) == single
    assert _hex(algebraic_connectivities(GraphArrays.of(graphs[::-1]))) == single[::-1]
    monkeypatch.setattr(spectral, "ORACLE_CHUNK", 3)  # chunk boundaries inside each size
    assert _hex(algebraic_connectivities(GraphArrays.of(graphs))) == single


@st.composite
def _graphs(draw, n_max=40):
    """A graph on 3..n_max nodes with any edge set, disconnected ones included."""
    n = draw(st.integers(3, n_max))
    density = draw(st.floats(0.0, 1.0))
    pairs = list(itertools.combinations(range(n), 2))
    keep = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(len(pairs)) < density
    return Graph(n, [pair for pair, k in zip(pairs, keep) if k])


@settings(max_examples=20, deadline=None)
@given(st.lists(_graphs(), min_size=1, max_size=6))
def test_padded_stacks_are_bitwise_equal_to_single_calls(graphs):
    single = _hex(algebraic_connectivity(g) for g in graphs)
    for chunk in (1, 2, 3, 7, spectral.ORACLE_CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "ORACLE_CHUNK", chunk)
            assert _hex(algebraic_connectivities(GraphArrays.of(graphs))) == single


def _count_solver_calls(monkeypatch):
    calls = []
    solve = spectral._solve

    def counting(stack, sizes):
        calls.append(sorted(sizes.tolist()))
        return solve(stack, sizes)

    monkeypatch.setattr(spectral, "_solve", counting)
    return calls


def test_paper_law_reaches_the_solver_in_one_call(monkeypatch):
    cfg = GraphGenConfig(n_range=(9, 11), p_range=(0.16, 0.95), seed=601)
    graphs = [generate_connected_graph(cfg, idx) for idx in range(100)]
    calls = _count_solver_calls(monkeypatch)
    algebraic_connectivities(GraphArrays.of(graphs))
    assert len(calls) == 1 and len(calls[0]) == 100
    assert set(calls[0]) == {9, 10, 11}


def test_size_groups_join_a_chunk_only_whole(monkeypatch):
    graphs = [cycle_graph(9)] * 6 + [path_graph(4)] * 3 + [star_graph(4)] * 4
    monkeypatch.setattr(spectral, "ORACLE_CHUNK", 8)
    calls = _count_solver_calls(monkeypatch)
    algebraic_connectivities(GraphArrays.of(graphs))
    # 3 + 4 fit in 8; the group of 6 does not fit beside them
    assert calls == [[4, 4, 4, 5, 5, 5, 5], [9] * 6]
    calls.clear()
    # a group larger than a chunk is cut into chunks of its own, which no
    # later group joins
    algebraic_connectivities(GraphArrays.of([path_graph(4)] * 10 + [cycle_graph(9)] * 5 + [path_graph(10)] * 3))
    assert calls == [[4] * 8, [4] * 2, [9] * 5 + [10] * 3]


def test_stack_call_matches_per_matrix_calls():
    cfg = GraphGenConfig(n_range=(7, 7), p_range=(0.3, 0.9), seed=61)
    laps = np.stack([laplacian(generate_connected_graph(cfg, idx)) for idx in range(9)])
    ev = jacobi_eigensystem(laps)
    assert ev.shape == (9, 7)
    for lap, ev_one in zip(laps, ev):
        assert np.array_equal(ev_one, jacobi_eigensystem(lap))
    with pytest.raises(ValueError, match="matrix 1 is not symmetric"):
        jacobi_eigensystem(np.stack([np.eye(2), [[0.0, 1.0], [0.5, 0.0]]]))


@pytest.mark.parametrize("n_range, count, tol", [((9, 11), 300, 1e-12), ((12, 64), 16, 1e-11)])
def test_oracle_agrees_with_lapack_on_generated_graphs(n_range, count, tol):
    cfg = GraphGenConfig(n_range=n_range, p_range=(0.16, 0.95), seed=67)
    graphs = [generate_connected_graph(cfg, idx) for idx in range(count)]
    ours = algebraic_connectivities(GraphArrays.of(graphs))
    for g, value in zip(graphs, ours):
        assert abs(value - np.linalg.eigvalsh(laplacian(g))[1]) <= tol


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 12)).flatmap(
        lambda size: hnp.arrays(
            np.float64, (size[0], size[1], size[1]),
            elements=st.floats(-100.0, 100.0, allow_subnormal=False),
        )
    )
)
def test_random_symmetric_stacks_match_lapack(raw):
    stack = (raw + raw.transpose(0, 2, 1)) / 2.0
    ours = jacobi_eigensystem(stack)
    # LAPACK, not the oracle, goes wrong on entries near 1e-160 (see the test
    # below), so the reference drops them; by Weyl's bound that moves no
    # eigenvalue by more than n * 1e-100
    clean = np.where(np.abs(stack) < 1e-100, 0.0, stack)
    ref = np.linalg.eigvalsh(clean)
    scale = max(1.0, float(np.abs(stack).max()))
    assert np.max(np.abs(ours - ref)) <= 1e-12 * scale * stack.shape[1]


@pytest.mark.parametrize("filler", [1e-160, 9.855e-158])
def test_tiny_filler_matches_closed_form(filler):
    """One off-diagonal pair ``a`` has eigenvalues -|a|, 0 (n - 2 times), |a|;
    a filler of size f moves each by at most n * f. ``eigvalsh`` misses this by
    0.25 at f = 1e-160 and by 2e-7 at f = 9.855e-158."""
    a = -35.73805187207643
    matrix = np.full((6, 6), filler)
    matrix[0, 2] = matrix[2, 0] = a
    want = np.array([-abs(a), 0.0, 0.0, 0.0, 0.0, abs(a)])
    ours = jacobi_eigensystem(matrix)
    assert np.max(np.abs(ours - want)) <= 1e-12 * abs(a) * 6


def test_solver_leaves_its_input_unchanged():
    lap = laplacian(complete_graph(4))
    for matrix in (lap, lap[None]):
        before = matrix.copy()
        jacobi_eigensystem(matrix)
        assert np.array_equal(matrix, before)
