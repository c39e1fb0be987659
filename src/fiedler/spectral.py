"""The algebraic-connectivity oracle: exact eigenvalues of symmetric matrices.

The solver computes eigenvalues only, all that the oracle needs, by the
cyclic Jacobi method in row-by-row pair order (Golub & Van Loan, *Matrix
Computations*, section 8.5), applied to a whole ``(B, n, n)`` stack of
matrices at once: each rotation is a few elementwise updates of two rows
(and, by symmetry, the same two columns) of every matrix in the stack.
No operation mixes two matrices, and a matrix whose pair falls under its
rotation threshold is left untouched while others rotate, so each matrix goes
through exactly the arithmetic of solving it alone: a matrix's result is
bitwise the same whatever else is in the stack, and equal to a scalar loop
over the same rotations (tests/test_spectral.py keeps one as the reference).

The solver reads the upper triangle of each matrix: its working copy mirrors
that triangle into the lower one before either path runs, so every matrix is
exactly symmetric and every rotation keeps it so. An input within
SYMMETRY_TOL of symmetric but not exactly symmetric is solved as its mirrored
upper triangle.

The solver has two paths with that same arithmetic, entry for entry. While
the unconverged matrices times n exceed SCALAR_MAX_ENTRIES (64), a sweep
rotates the whole stack with numpy calls (_rotate). From the first sweep at
which they do not, each remaining matrix is finished alone in Python floats on
list rows (_finish_alone): one-graph calls take this path from the start, and
a large stack takes it for its last few stragglers. The switch is safe because
a matrix's values do not depend on its companions: the scalar finish applies
the same pair order, rotation threshold, formulas (operands of a sum or a
product may be swapped, which is exact), convergence sum in row order and
sweep budget, so a matrix's bits do not depend on the sweep at which it
changes paths.

A stacked rotation is 33 numpy calls on views and buffers that a sweep plan
(_sweep_plan) builds once per stack layout: the rotation parameters of every
matrix, then its two new rows, written back with one masked copy, and the two
columns copied from those rows unmasked (a matrix that did not rotate is
exactly symmetric, so its columns already equal its rows). That costs about 15 us per rotation for a stack of 100 matrices of
n 11, almost all of it call overhead whatever the stack's size, against a few
us for a small matrix in Python floats.

The oracle solves graphs of different sizes in one stack, each Laplacian
zero-padded to the stack's largest n (``graphs.laplacian_stack``), and a
graph's values stay bitwise those of solving it alone: a pair with a padded
index has ``a[p, q] = +0.0``, so it never rotates; padded entries stay ``+0.0``
through every rotation; a matrix's own pairs come in its own row order, with a
rotation threshold from its own size; the cumsum off-diagonal norm adds exact
zeros; and its eigenvalues are read from its leading diagonal entries, before
sorting. The same facts let the scalar finish work on a matrix's own block
only. A sweep then costs the rotation steps of the largest matrix only: 55
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

import math

import numpy as np

from .graphs import Graph, GraphArrays, laplacian, laplacian_stack

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

# A sweep whose unconverged matrices times n come to at most this many entries
# (the length of one row of the batch-last stack) finishes each of them alone
# in Python floats (_finish_alone); there a stacked rotation is mostly numpy
# call overhead. Full-solve time of paper-law Laplacians, Python floats over
# stacked, one core, median of 5 stacks: one matrix of n 4..40 0.17-0.40,
# n = 64 0.61; 5 of n 10 0.91, 3 of n 16 0.79, 3 of n 20 0.91, 2 of n 32
# 0.89; 6 of n 10 1.08, 4 of n 16 1.09, 16 of n 4 1.40; past 64 entries the
# stack wins: 8 of n 10 1.44, 4 of n 20 1.22, 3 of n 32 1.30, 3 of n 64 2.03.
# The crossover lies between 50 and 70 entries, lower for smaller n;
# this bound lies in that band, and it hands the paper law's stacks (padded
# to n 11) to the scalar finish at the same five stragglers as any bound from
# 55 to 65 would.
SCALAR_MAX_ENTRIES = 64


def jacobi_eigensystem(matrix) -> np.ndarray:
    """Eigenvalues (ascending) of a symmetric matrix, or of each matrix of a
    ``(B, n, n)`` stack, by cyclic Jacobi rotations.

    A matrix is converged when the Frobenius norm of its off-diagonal part
    drops to OFF_DIAGONAL_TOL, and then leaves the stack; raises RuntimeError
    if any matrix is still unconverged after MAX_SWEEPS sweeps. Both are read
    at call time.

    The solver reads the upper triangle: a matrix within SYMMETRY_TOL of
    symmetric but not exactly symmetric gives the bits of its upper triangle
    mirrored into the lower one. A matrix with a NaN or infinite entry is
    rejected.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"matrix must be square or a stack of squares, got shape {m.shape}")
    n = m.shape[-1]
    if n == 0:
        raise ValueError("matrix must be non-empty")
    stack = m.reshape(-1, n, n)

    def reject(bad, why):
        if np.any(bad):
            where = "" if m.ndim == 2 else f" {int(np.argmax(bad))}"
            raise ValueError(f"matrix{where} {why}")

    # checked first: the symmetry check would subtract infinities
    reject(~np.isfinite(stack).all(axis=(1, 2)), "has a non-finite entry")
    asym = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    reject(asym > SYMMETRY_TOL, "is not symmetric within 1e-12")
    eigenvalues = _solve(stack, np.full(len(stack), n))
    return eigenvalues[0] if m.ndim == 2 else eigenvalues


def _solve(stack, sizes) -> np.ndarray:
    """Cyclic Jacobi on a ``(B, n, n)`` stack whose matrix b is its leading
    ``sizes[b]``-square block, zero-padded. Row b of the result holds that
    block's eigenvalues ascending, then +inf in each padded slot."""
    count, n = stack.shape[:2]
    # Batch-last layout: a[i, k] holds entry (i, k) of every active matrix, so
    # that a rotation reads and writes contiguous rows.
    a = stack.transpose(1, 2, 0).copy()
    # The solver reads the upper triangle: mirrored once here, every matrix
    # is exactly symmetric, and every rotation keeps it so.
    upper = np.triu_indices(n, 1)
    a[upper[::-1]] = a[upper]
    diag = np.empty((count, n))
    active = np.arange(count)
    diagonal = np.arange(n)
    max_sweeps = MAX_SWEEPS
    # Once every pair of a matrix falls below this, its off-diagonal norm is
    # guaranteed under OFF_DIAGONAL_TOL, so a skip-only sweep cannot stall.
    rotate_tol = OFF_DIAGONAL_TOL / (2.0 * sizes * sizes)
    stalled = f"Jacobi iteration did not converge in {max_sweeps} sweeps"

    sweeps, plan = 0, None
    while active.size * n > SCALAR_MAX_ENTRIES:
        off = a[upper]
        # cumsum adds the squares one after another in row order, as the
        # scalar method did; a pairwise sum would round differently.
        off_sq = np.cumsum(off * off, axis=0)[-1] if n > 1 else np.zeros(active.size)
        done = np.sqrt(2.0 * off_sq) <= OFF_DIAGONAL_TOL
        if np.count_nonzero(done):
            diag[active[done]] = a[diagonal, diagonal][:, done].T
            # compress keeps the batch axis last in memory; a[:, :, keep]
            # would move it first and make every row a strided gather
            keep = ~done
            active, a, rotate_tol = active[keep], a.compress(keep, axis=2), rotate_tol[keep]
            plan = None
        if active.size * n <= SCALAR_MAX_ENTRIES:
            break
        if sweeps == max_sweeps:
            raise RuntimeError(stalled)
        if plan is None:
            plan = _sweep_plan(a)
        pairs, work = plan
        with np.errstate(all="ignore"):
            for pair in pairs:
                _rotate(pair, work, rotate_tol)
        sweeps += 1

    for j, b in enumerate(active.tolist()):
        # Padding is +0.0 and never rotates, so a padded matrix's own block
        # goes through the same arithmetic alone.
        size = int(sizes[b])
        rows = a[:size, :size, j].tolist()
        if not _finish_alone(rows, float(rotate_tol[j]), max_sweeps - sweeps):
            raise RuntimeError(stalled)
        diag[b, :size] = [rows[i][i] for i in range(size)]

    diag[diagonal >= sizes[:, None]] = np.inf
    return np.sort(diag, axis=1, kind="stable")


def _finish_alone(a, rotate_tol: float, sweeps: int) -> bool:
    """Cyclic Jacobi on one matrix held as lists of Python floats, with at
    most ``sweeps`` more sweeps: entry for entry the arithmetic that _solve and
    _rotate apply to it in a stack. ``a`` holds the matrix's rows and is
    updated in place. Returns whether the matrix converged."""
    n = len(a)
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    for _ in range(sweeps + 1):
        off_sq = 0.0
        for p, q in pairs:
            off_sq += a[p][q] * a[p][q]
        if math.sqrt(2.0 * off_sq) <= OFF_DIAGONAL_TOL:
            return True
        for p, q in pairs:
            rp, rq = a[p], a[q]
            apq = rp[q]
            if not abs(apq) > rotate_tol:
                continue
            app, aqq = rp[p], rq[q]
            theta = (aqq - app) / (2.0 * apq)
            t = 1.0 / (math.sqrt(theta * theta + 1.0) + abs(theta))
            if theta < 0.0:
                t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            tau = s / (c + 1.0)
            tapq = t * apq
            new_p = [x - s * (y + tau * x) for x, y in zip(rp, rq)]
            new_q = [y + s * (x - tau * y) for x, y in zip(rp, rq)]
            new_p[p] = app - tapq
            new_q[q] = aqq + tapq
            new_p[q] = new_q[p] = 0.0
            # Row p equals column p, so the rotated rows are also the new columns.
            a[p], a[q] = new_p, new_q
            for row, x, y in zip(a, new_p, new_q):
                row[p] = x
                row[q] = y
    return False


def _sweep_plan(a):
    """The views and buffers that the rotations of one stack layout reuse:
    for each pair (p, q) in row order, the views ``_rotate`` reads and writes
    in the batch-last stack ``a``, and one set of work buffers that every
    rotation overwrites. A plan holds until the stack is compressed."""
    n, _, count = a.shape
    new = np.empty((2, n, count))
    flat = new.reshape(2 * n, count)  # new[0, q] and new[1, p] are rows q and n + p
    rows = list(a)
    diagonal = [row[i] for i, row in enumerate(rows)]
    by_column = a.transpose(1, 0, 2)
    pairs = []
    for p in range(n - 1):
        for q in range(p + 1, n):
            pq = slice(p, q + 1, q - p)
            pairs.append((
                rows[p][q], diagonal[p], diagonal[q], rows[p], rows[q], a[pq], by_column[pq],
                new[0, p], new[1, q], flat[q : n + p + 1 : n + p - q],
            ))
    # ones and zeros as arrays: an operation on two arrays makes a shorter
    # numpy call than one on an array and a Python float, with the same bits
    work = (new, new[0], new[1], np.empty(count, dtype=bool), np.empty(count),
            np.empty(count), np.empty(count), np.ones(count), np.zeros(count))
    return pairs, work


def _rotate(pair, work, rotate_tol) -> None:
    """Apply a plan's (p, q) rotation (``_sweep_plan``), in place, to every
    matrix whose |a[p, q]| exceeds its entry of rotate_tol; the others stay
    bitwise unchanged. The stack must be exactly symmetric, and stays so.

    Every lane computes the rotation parameters; a lane that does not rotate
    may divide by zero or overflow there, and its values are never written,
    so the caller runs this under ``np.errstate(all="ignore")``."""
    apq, app, aqq, row_p, row_q, rows, cols, new_pp, new_qq, new_zeros = pair
    new, new_p, new_q, rotate, theta, t, c, one, zero = work
    np.greater(np.abs(apq, out=theta), rotate_tol, out=rotate)
    count = np.count_nonzero(rotate)
    if not count:
        return
    # Each entry takes the operations of the textbook formulas in their order;
    # only the operands of a sum or product are swapped, 2 apq is apq + apq,
    # and t takes the sign of theta by copysign, all of which is exact.
    np.add(apq, apq, out=theta)
    np.subtract(aqq, app, out=t)
    np.divide(t, theta, out=theta)
    np.multiply(theta, theta, out=t)
    t += one
    np.sqrt(t, out=t)
    t += np.abs(theta, out=c)
    np.divide(one, t, out=t)
    # as with "t = -t if theta < 0", t stays positive at theta = -0.0
    np.copysign(t, np.add(theta, zero, out=c), out=t)
    np.multiply(t, t, out=c)
    c += one
    np.sqrt(c, out=c)
    np.divide(one, c, out=c)
    s = np.multiply(t, c, out=theta)
    c += one
    tau = np.divide(s, c, out=c)
    t_apq = np.multiply(t, apq, out=t)

    # new = (new_p, new_q) = (r_p - s (r_q + tau r_p), r_q + s (r_p - tau r_q))
    np.multiply(rows, tau, out=new)
    new_p += row_q
    np.subtract(row_p, new_q, out=new_q)
    new *= s
    np.subtract(row_p, new_p, out=new_p)
    new_q += row_q
    np.subtract(app, t_apq, out=new_pp)
    np.add(aqq, t_apq, out=new_qq)
    new_zeros.fill(0.0)
    every = count == rotate.size
    np.copyto(rows, new, where=True if every else rotate)
    # A matrix that did not rotate is exactly symmetric, so its columns p and
    # q already equal its rows p and q, and the columns need no mask.
    np.copyto(cols, new if every else rows)


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
            labels[chunk] = _solve(lap, sizes[chunk])[:, 1]
    return labels


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue; positive iff g is connected."""
    return float(_solve(laplacian(g)[None], np.array([g.n]))[0, 1])
