"""Exact dense symmetric eigensolver and the algebraic-connectivity oracle.

The solver is the cyclic Jacobi method in row-by-row pair order (Golub &
Van Loan, *Matrix Computations*, section 8.5), applied to a whole ``(B, n, n)``
stack of matrices at once: each rotation is a few elementwise updates of two
rows (and, by symmetry, the same two columns) of every matrix in the stack.
No operation mixes two matrices, so each matrix goes through exactly the
arithmetic of solving it alone: a matrix's result is bitwise the same whatever
else is in the stack, and equal to a scalar loop over the same rotations
(tests/test_spectral.py keeps one as the reference).

The oracle solves graphs of different sizes in one stack, each Laplacian
zero-padded to the stack's largest n (``graphs.laplacian_stack``), and a
graph's values stay bitwise those of solving it alone: a pair with a padded
index has ``a[p, q] = +0.0``, so it never rotates; padded entries stay ``+0.0``
through every rotation; a matrix's own pairs come in its own row order, with a
rotation threshold from its own size; the cumsum off-diagonal norm adds exact
zeros; and its eigenvalues are read from its leading diagonal entries, before
sorting. A sweep then costs the rotation steps of the largest matrix only: 55
for the paper's 9..11-node law, against 36 + 45 + 55 with one stack per size.

The parallel round-robin ordering of Brent & Luk (1985), n/2 disjoint
rotations per step, would need fewer steps per sweep, but it rounds
differently: labels move by up to 1e-13, and training runs amplify such
changes into different trajectories that can flip the acceptance criteria.
The row order keeps every label bitwise stable.

It is the ground truth every learned estimate is judged against, so it stays
self-contained and auditable rather than delegating to a LAPACK binding.
Intended for matrices up to 64x64; convergence is quadratic, typically well
under ten sweeps.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, GraphArrays, laplacian_stack

SYMMETRY_TOL = 1e-12
OFF_DIAGONAL_TOL = 1e-12
MAX_SWEEPS = 100

# Graphs per Laplacian stack handed to the solver by algebraic_connectivities.
# Larger stacks spread the per-rotation call overhead over more graphs; this
# size bounds a stack of 64-node Laplacians to 16 MiB per copy. Packing rule:
# size groups are walked in ascending n, and a group joins the open stack only
# if it fits there whole; a larger group is cut into stacks of its own. So sets
# whose groups each exceed half a stack get one stack per group: padding large
# groups into one stack cost more than the rotation steps it saved.
ORACLE_CHUNK = 512


def jacobi_eigensystem(
    matrix,
    need_vectors: bool = False,
    off_tol: float = OFF_DIAGONAL_TOL,
    max_sweeps: int = MAX_SWEEPS,
):
    """Eigenvalues (ascending) of a symmetric matrix, or of each matrix of a
    ``(B, n, n)`` stack, by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) where eigenvectors has the eigenvector
    for eigenvalues[..., k] in column k, or None unless ``need_vectors``.
    A matrix is converged when the Frobenius norm of its off-diagonal part
    drops to ``off_tol``, and then leaves the stack; raises RuntimeError if
    any matrix exhausts ``max_sweeps``.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"matrix must be square or a stack of squares, got shape {m.shape}")
    n = m.shape[-1]
    if n == 0:
        raise ValueError("matrix must be non-empty")
    stack = m.reshape(-1, n, n)
    asym = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    if np.any(asym > SYMMETRY_TOL):
        where = "" if m.ndim == 2 else f" {int(np.argmax(asym > SYMMETRY_TOL))}"
        raise ValueError(f"matrix{where} is not symmetric within 1e-12")
    eigenvalues, vectors = _solve(stack, np.full(len(stack), n), need_vectors, off_tol, max_sweeps)
    if m.ndim == 2:
        return eigenvalues[0], None if vectors is None else vectors[0]
    return eigenvalues, vectors


def _solve(stack, sizes, need_vectors: bool, off_tol: float, max_sweeps: int):
    """Cyclic Jacobi on a ``(B, n, n)`` stack whose matrix b is its leading
    ``sizes[b]``-square block, zero-padded. Row b of the eigenvalues holds
    that block's eigenvalues ascending, then +inf in each padded slot."""
    count, n = stack.shape[:2]
    # Batch-last layout: a[i, k] holds entry (i, k) of every active matrix and
    # vt[p] holds column p of every eigenvector matrix, so that a rotation
    # reads and writes contiguous rows.
    a = stack.transpose(1, 2, 0).copy()
    vt = np.repeat(np.eye(n)[:, :, None], count, axis=2) if need_vectors else None
    diag = np.empty((count, n))
    vectors = np.empty((count, n, n)) if need_vectors else None
    active = np.arange(count)
    upper = np.triu_indices(n, 1)
    diagonal = np.arange(n)
    # Once every pair of a matrix falls below this, its off-diagonal Frobenius
    # norm is guaranteed under off_tol, so a skip-only sweep cannot stall.
    rotate_tol = off_tol / (2.0 * sizes * sizes)

    for _ in range(max_sweeps + 1):
        off = a[upper]
        # cumsum adds the squares one after another in row order, as the
        # scalar method did; a pairwise sum would round differently.
        off_sq = np.cumsum(off * off, axis=0)[-1] if n > 1 else np.zeros(active.size)
        done = np.sqrt(2.0 * off_sq) <= off_tol
        if done.any():
            diag[active[done]] = a[diagonal, diagonal][:, done].T
            if vt is not None:
                vectors[active[done]] = vt[:, :, done].transpose(2, 1, 0)
            keep = ~done
            active, a, rotate_tol = active[keep], a[:, :, keep], rotate_tol[keep]
            vt = vt[:, :, keep] if vt is not None else None
        if active.size == 0:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(a, vt, p, q, rotate_tol)
    else:
        raise RuntimeError(f"Jacobi iteration did not converge in {max_sweeps} sweeps")

    diag[diagonal >= sizes[:, None]] = np.inf
    order = np.argsort(diag, axis=1, kind="stable")
    eigenvalues = np.take_along_axis(diag, order, axis=1)
    if vectors is not None:
        vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)
    return eigenvalues, vectors


def _rotate(a, vt, p: int, q: int, rotate_tol: float) -> None:
    """Apply the (p, q) rotation, in place, to every matrix whose |a[p, q]|
    exceeds its entry of rotate_tol; the others stay bitwise unchanged."""
    apq = a[p, q]
    rotate = np.abs(apq) > rotate_tol
    if not rotate.any():
        return
    app, aqq = a[p, p], a[q, q]
    theta = (aqq - app) / (2.0 * np.where(rotate, apq, 1.0))
    t = 1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
    t = np.where(theta < 0.0, -t, t)
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    tau = s / (1.0 + c)

    # Row p equals column p, so the rotated rows are also the new columns.
    rp, rq = a[p], a[q]
    new_p = rp - s * (rq + tau * rp)
    new_q = rq + s * (rp - tau * rq)
    new_p[p] = app - t * apq
    new_q[q] = aqq + t * apq
    new_p[q] = 0.0
    new_q[p] = 0.0
    new_p = np.where(rotate, new_p, rp)
    new_q = np.where(rotate, new_q, rq)
    a[p], a[q] = new_p, new_q
    a[:, p], a[:, q] = new_p, new_q
    if vt is not None:
        vp, vq = vt[p], vt[q]
        new_vp = np.where(rotate, vp - s * (vq + tau * vp), vp)
        new_vq = np.where(rotate, vq + s * (vp - tau * vq), vq)
        vt[p], vt[q] = new_vp, new_vq


def algebraic_connectivities(arrays: GraphArrays) -> np.ndarray:
    """Second-smallest Laplacian eigenvalue of each graph of ``arrays``, in
    their order, as a float64 array.

    Graphs are solved in zero-padded stacks packed by the rule at ORACLE_CHUNK;
    a graph's value does not depend on the others in the call.
    """
    sizes = arrays.sizes
    # graphs by ascending n, each size in input order: a chunk is a run of these
    order = np.argsort(sizes, kind="stable")
    bounds, open_count, pos = [0], 0, 0
    for count in np.unique(sizes, return_counts=True)[1].tolist():
        if open_count + count > ORACLE_CHUNK:
            bounds.append(pos)
            open_count = 0
        if count > ORACLE_CHUNK:
            bounds += range(pos + ORACLE_CHUNK, pos + count, ORACLE_CHUNK)
            bounds.append(pos + count)
        else:
            open_count += count
        pos += count
    bounds.append(pos)
    labels = np.empty(len(sizes))
    for start, stop in zip(bounds, bounds[1:]):
        if stop > start:
            chunk = order[start:stop]
            lap = laplacian_stack(arrays.take(chunk))
            ev, _ = _solve(lap, sizes[chunk], False, OFF_DIAGONAL_TOL, MAX_SWEEPS)
            labels[chunk] = ev[:, 1]
    return labels


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue; positive iff g is connected."""
    return float(algebraic_connectivities(GraphArrays.of([g]))[0])
