"""The algebraic-connectivity oracle: exact eigenvalues of graph Laplacians.

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

Every input is a stack that ``graphs.laplacian_stack`` built, which writes
each edge's two entries alike, so every matrix is exactly symmetric and every
rotation keeps it so.

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
exactly symmetric, so its columns already equal its rows). A rotation costs
about 20 us for a stack of 100 matrices of n 9..11 (one BLAS thread, a 2-core
Xeon machine), almost all of it call overhead whatever the stack's size,
against a few us for a small matrix in Python floats.

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
Graphs have at most 64 nodes; convergence is quadratic, typically well
under ten sweeps.

A stored label is checked without an eigensolve (labels_within), so the
check does not depend on the Jacobi code that wrote it. On a graph's own
n x n block, M = L + (c/n) J (J all ones) has L's eigenvalues, except that
the null vector's 0 becomes c: J vanishes on the complement of the all-ones
vector, where L's other eigenvectors lie. With c > label + tol the smallest
eigenvalue of M is min(c, lambda2), so by Sylvester's law of inertia
label - tol < lambda2 exactly when M - (label - tol) I is positive definite,
and lambda2 <= label + tol exactly when M - (label + tol) I is not.

Cholesky factorization tests definiteness stably: whether it completes or
breaks down, its outcome is the exact one for some A + dA with
|dA| <= gamma_{n+1} |R^T| |R| (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., ch. 10), so ||dA||_2 is at most about
n gamma_{n+1} ||A||_2. For a label near lambda2, ||A||_2 is at most about n,
so at n = 64 a decision can differ from the exact one only when lambda2 lies
within about 3e-11 of label -/+ tol, a thirtieth of the dataset tolerance of
1e-9. Measured on 1,200 graphs of n 3 to 64, every label 3e-13 inside or
outside either bound of the oracle's value was decided as that value says; at
1e-13, one graph of n 62 (lambda2 about 39.5) was decided as if lambda2 lay
about 1e-13 above the oracle's value, within the oracle's own rounding. The
tests accept every label 0.999e-9 from the oracle's and reject every one
1.001e-9 away.

The factorization is written out in numpy, with no LAPACK call, like the
solver, and on the solver's batch-last layout: the shifted matrices of a stack
of B graphs are built directly as one (n, n, 2B) array, and row k of every
factor is a few numpy calls over contiguous rows of length 2B. The bound above
holds whatever order a row update adds its k products in, so factor entries
may differ in their last bits from a matrix-by-matrix factorization, but not
the decisions beyond the bound (tests/test_spectral.py keeps the (B, n, n)
row-by-row factorization as the reference).
"""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .graphs import Graph, GraphArrays, laplacian_stack

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


def _solve(stack, sizes) -> np.ndarray:
    """Cyclic Jacobi on an exactly symmetric ``(B, n, n)`` stack whose matrix
    b is its leading ``sizes[b]``-square block, zero-padded. Row b of the
    result holds that block's eigenvalues ascending, then +inf in each padded
    slot.

    A matrix is converged when the Frobenius norm of its off-diagonal part
    drops to OFF_DIAGONAL_TOL, and then leaves the stack; raises RuntimeError
    if any matrix is still unconverged after MAX_SWEEPS sweeps. Both are read
    at call time."""
    count, n = stack.shape[:2]
    # Batch-last layout: a[i, k] holds entry (i, k) of every active matrix, so
    # that a rotation reads and writes contiguous rows.
    a = stack.transpose(1, 2, 0).copy()
    upper = np.triu_indices(n, 1)
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


def _rotate(pair, work, rotate_tol, absolute=np.absolute, greater=np.greater,
            count_nonzero=np.count_nonzero, add=np.add, subtract=np.subtract,
            multiply=np.multiply, divide=np.divide, sqrt=np.sqrt, copysign=np.copysign,
            copyto=np.copyto) -> None:
    """Apply a plan's (p, q) rotation (``_sweep_plan``), in place, to every
    matrix whose |a[p, q]| exceeds its entry of rotate_tol; the others stay
    bitwise unchanged. The stack must be exactly symmetric, and stays so.

    Every lane computes the rotation parameters; a lane that does not rotate
    may divide by zero or overflow there, and its values are never written,
    so the caller runs this under ``np.errstate(all="ignore")``.

    The numpy functions are bound once, as default arguments, and each takes
    its output positionally: looking up ``np.<name>`` and parsing ``out=``
    cost about 6% of a rotation's time."""
    apq, app, aqq, row_p, row_q, rows, cols, new_pp, new_qq, new_zeros = pair
    new, new_p, new_q, rotate, theta, t, c, one, zero = work
    greater(absolute(apq, theta), rotate_tol, rotate)
    count = count_nonzero(rotate)
    if not count:
        return
    # Each entry takes the operations of the textbook formulas in their order;
    # only the operands of a sum or product are swapped, 2 apq is apq + apq,
    # and t takes the sign of theta by copysign, all of which is exact.
    add(apq, apq, theta)
    subtract(aqq, app, t)
    divide(t, theta, theta)
    multiply(theta, theta, t)
    t += one
    sqrt(t, t)
    t += absolute(theta, c)
    divide(one, t, t)
    # as with "t = -t if theta < 0", t stays positive at theta = -0.0
    copysign(t, add(theta, zero, c), t)
    multiply(t, t, c)
    c += one
    sqrt(c, c)
    divide(one, c, c)
    s = multiply(t, c, theta)
    c += one
    tau = divide(s, c, c)
    t_apq = multiply(t, apq, t)

    # new = (new_p, new_q) = (r_p - s (r_q + tau r_p), r_q + s (r_p - tau r_q))
    multiply(rows, tau, new)
    new_p += row_q
    subtract(row_p, new_q, new_q)
    new *= s
    subtract(row_p, new_p, new_p)
    new_q += row_q
    subtract(app, t_apq, new_pp)
    add(aqq, t_apq, new_qq)
    new_zeros.fill(0.0)
    if count == rotate.size:
        copyto(rows, new)
        copyto(cols, new)
    else:
        copyto(rows, new, where=rotate)
        # A matrix that did not rotate is exactly symmetric, so its columns p
        # and q already equal its rows p and q, and the columns need no mask.
        copyto(cols, rows)


def _stacks(sizes) -> Iterator[np.ndarray]:
    """The graph indices of each stack, packed from ``sizes`` by the rule at
    ORACLE_CHUNK: a run of the graphs sorted by ascending n, each size in
    input order."""
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
    for start, stop in zip(bounds, bounds[1:]):
        if stop > start:
            yield order[start:stop]


def algebraic_connectivities(arrays: GraphArrays) -> np.ndarray:
    """Second-smallest Laplacian eigenvalue of each graph of ``arrays``, in
    their order, as a float64 array.

    Graphs are solved in zero-padded stacks packed by the rule at ORACLE_CHUNK;
    a graph's value does not depend on the others in the call.
    """
    sizes = arrays.sizes
    labels = np.empty(len(sizes))
    for chunk in _stacks(sizes):
        labels[chunk] = _solve(laplacian_stack(arrays.take(chunk)), sizes[chunk])[:, 1]
    return labels


def labels_within(arrays: GraphArrays, labels, tol: float) -> np.ndarray:
    """Per graph of ``arrays``: whether its algebraic connectivity lies within
    ``tol`` of its entry of ``labels``, decided without an eigensolve (the
    certificate in the module docstring).

    Graphs are certified in the oracle's stacks (rule at ORACLE_CHUNK), two
    Cholesky factorizations each. A label that is not finite, or so far off
    that a factorization overflows, is rejected without a warning."""
    sizes = arrays.sizes
    labels = np.asarray(labels, dtype=float)
    within = np.empty(len(sizes), dtype=bool)
    with np.errstate(all="ignore"):
        for chunk in _stacks(sizes):
            n, label = sizes[chunk], labels[chunk]
            count, m = len(chunk), int(n.max())
            # Batch-last, as in _solve: shifted[i, k] holds entry (i, k) of
            # M - (label - tol) I for every graph, then of M - (label + tol) I
            shifted = np.empty((m, m, 2 * count))
            lower = shifted[:, :, :count]
            lower[...] = laplacian_stack(arrays.take(chunk)).transpose(1, 2, 0)
            own = np.arange(m)[:, None] < n
            # M = L + (c/n) J on the graph's own block, with c > label + tol,
            # moves the null vector's eigenvalue from 0 to c
            c = np.abs(label) + (tol + 1.0)
            np.add(lower, c / n, out=lower, where=own[:, None] & own)
            shifted[:, :, count:] = lower
            # a padded slot gets diagonal 0 - (-1) = 1
            diagonal = np.arange(m)
            shifted[diagonal, diagonal] -= np.where(
                np.hstack((own, own)), np.concatenate((label - tol, label + tol)), -1.0)
            definite = _positive_definite(shifted)
            # label - tol < lambda2, and not label + tol < lambda2
            within[chunk] = definite[:count] & ~definite[count:]
    return within


def _positive_definite(a) -> np.ndarray:
    """Per matrix of a symmetric batch-last ``(n, n, B)`` stack (``a[i, k]``
    holds entry (i, k) of every matrix): whether Cholesky factorization
    succeeds, i.e. every pivot is positive. Row by row: row k of the factor R
    (entries k..n-1) overwrites row k of the upper triangle, each step a few
    numpy calls over contiguous rows of length B. A matrix's entries after
    its first failed pivot may be nan or inf, so the caller silences numpy's
    floating-point warnings."""
    definite = np.ones(a.shape[2], dtype=bool)
    for k in range(a.shape[0]):
        row = a[k, k:]
        row -= (a[:k, k, None] * a[:k, k:]).sum(axis=0)
        definite &= row[0] > 0.0
        row /= np.sqrt(row[0])
    return definite


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue; positive iff g is connected."""
    return float(_solve(laplacian_stack(GraphArrays.of([g])), np.array([g.n]))[0, 1])
