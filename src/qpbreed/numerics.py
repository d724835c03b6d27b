"""Dense linear-algebra substrate.

Everything here is a pure function of immutable inputs, so results can be
shared freely. Vectors and matrices are plain numpy arrays, float64 where
the quantity is real (tridiagonal eigenvectors, real orthogonal
exponentials) and complex128 otherwise. Across the package a real state
stays real as long as every operator it meets is real. A failed
eigensolve raises :class:`NumericalError`, never numpy's LinAlgError, which
is a ValueError and would read as bad input.
"""

from __future__ import annotations

import numpy as np


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge."""


#: Largest skew-Hermiticity (or persymmetry) defect of a generator, relative
#: to its largest entry.
SKEW_HERMITIAN_TOL = 1e-12

#: Outcome probabilities at or below this are treated as underflowed.
PROBABILITY_FLOOR = 1e-300


def eig_hermitian_tridiagonal(diag, offdiag):
    """Eigendecomposition of a real symmetric tridiagonal matrix.

    Returns eigenvalues in ascending order and eigenvectors as the columns
    of a real (float64) matrix. The sign of each eigenvector is fixed by
    making its largest-magnitude entry positive, so repeated runs are
    bit-for-bit reproducible.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    if offdiag.shape[0] != diag.shape[0] - 1:
        raise ValueError("offdiag must be one entry shorter than diag")
    try:
        values, vectors = np.linalg.eigh(np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NumericalError(f"tridiagonal eigensolver did not converge: {exc}") from exc
    largest = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(len(values))]
    return values, vectors * np.where(largest < 0, -1.0, 1.0)


def expm_skew_hermitian(g: np.ndarray) -> np.ndarray:
    """Unitary exponential of a skew-Hermitian generator; a real generator
    gives a real orthogonal result.

    Rejects inputs whose skew-Hermiticity defect exceeds
    :data:`SKEW_HERMITIAN_TOL` (relative to the largest entry). Nothing in
    the package calls it; the benchmark's traced run still wraps it by name.
    """
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("generator must be a square matrix")
    scale = max(1.0, float(np.max(np.abs(g)))) if g.size else 1.0
    defect = float(np.max(np.abs(g + g.conj().T))) if g.size else 0.0
    if defect > SKEW_HERMITIAN_TOL * scale:
        raise ValueError(
            f"generator is not skew-Hermitian (defect {defect:.3e} "
            f"at scale {scale:.3e})"
        )
    values, vectors = np.linalg.eigh(1j * g)  # 1j·g = H Hermitian, exp(g) = V e^{−iλ} V†
    u = (vectors * np.exp(-1j * values)) @ vectors.conj().T
    return u.real if np.isrealobj(g) else u


def expm_skew_tridiagonals(couplings, out) -> None:
    """Real orthogonal exponentials of skew-symmetric tridiagonal
    generators, one for each coupling vector c of ``couplings``: the n × n
    generator G with G[j + 1, j] = −G[j, j + 1] = c[j], n = len(c) + 1. Every
    c must be persymmetric (equal to its own reverse). Each exponential is
    written to the n × n array at its place in ``out``, which may be a view.

    With D = diag(iʲ), G = −i·D·S·D†, where S = VΛVᵀ is the real symmetric
    tridiagonal matrix with the same couplings. So exp(G)[m, k] is
    ±F[m, k], F = V·diag(cos λ + sin λ)·Vᵀ, with + where (m − k) mod 4 is 0
    or 1. S commutes with the reversal of the index, so F is the sum of its
    parts on the mirror-symmetric and the mirror-antisymmetric vectors, each
    a function of a real symmetric tridiagonal matrix of half the size. For
    n = 2h + 1 those have sizes h + 1 and h, and the middle level couples
    only to the symmetric part. For n = 2h both have size h, and the
    antisymmetric one is −P·(the symmetric one)·P with P = diag((−1)ʲ), so
    its eigenpairs are (−λ, P·v) and need no eigensolve of their own.

    With A and M those functions of the symmetric and the antisymmetric
    matrix, the top h rows of F are (A + M)/2 on the first h columns and
    (A − M)/2, reversed, on the last h; an odd n adds the middle row and
    column, A's last row and column, divided by √2 off the centre. F
    commutes with the reversal too, so its bottom h rows are the 180°
    rotation of its top h.

    The half-size matrices of all generators are grouped by size: one
    stacked ``np.linalg.eigh`` per size diagonalizes them and one stacked
    matmul per size forms their functions. The sizes go in descending order,
    and each exponential is assembled as soon as its smaller half is formed,
    so only the halves of two sizes are held at a time. Raises ValueError
    for a coupling that is not a persymmetric vector and NumericalError for
    an eigensolve that does not converge; the exponentials whose halves are
    all larger are then already written.
    """
    couplings = [np.asarray(c, dtype=float) for c in couplings]
    if any(c.ndim != 1 for c in couplings):
        raise ValueError("each coupling must be a vector")
    _check_persymmetric(couplings)
    if [np.shape(o) for o in out] != [(c.size + 1, c.size + 1) for c in couplings]:
        raise ValueError("out must hold one n × n array for each coupling")
    # size: (off-diagonal, last diagonal entry, generator, 0 for its symmetric or 1 antisymmetric part)
    problems = {}
    ready = {}  # size: the generators whose smaller half has that size
    for index, c in enumerate(couplings):
        half, odd = divmod(c.size + 1, 2)
        if half == 0:
            out[index][...] = 1.0
            continue
        inner, middle = c[: half - 1], c[half - 1]
        if odd:
            coupled = np.append(inner, np.sqrt(2) * middle)
            problems.setdefault(half + 1, []).append((coupled, 0.0, index, 0))
            problems.setdefault(half, []).append((inner, 0.0, index, 1))
        else:
            problems.setdefault(half, []).append((inner, middle, index, 0))
        ready.setdefault(half, []).append(index)
    # signs[m, k] = line[m − k + largest − 1]: − where (m − k) mod 4 is 2 or 3
    largest = max((c.size + 1 for c in couplings), default=1)
    line = np.array([1.0, 1.0, -1.0, -1.0])[(np.arange(2 * largest - 1) - (largest - 1)) % 4]
    signs = np.lib.stride_tricks.sliding_window_view(line, largest)[:, ::-1].copy()
    halves = [[None, None] for _ in couplings]  # A/2 and M/2; the 1/2 is exact in the weights
    for size in sorted(problems, reverse=True):
        rows = problems[size]
        pairs = [i for i, row in enumerate(rows) if couplings[row[2]].size % 2]  # even n, symmetric part
        functions = _half_functions(size, rows, pairs)
        targets = [(row[2], row[3]) for row in rows] + [(rows[i][2], 1) for i in pairs]
        for (index, part), function in zip(targets, functions):
            halves[index][part] = function
        for index in ready.get(size, ()):
            out[index][...] = _assemble(*halves[index], signs)
            halves[index] = None


def _half_functions(size, rows, pairs):
    """(cos + sin)/2 of the size × size symmetric tridiagonal matrices with
    zero diagonal but for the last entry, given as (off-diagonal, last entry)
    ``rows``, followed by those of −P·M·P for the matrices M at ``pairs``:
    one stacked eigensolve and one stacked matmul."""
    matrices = np.zeros((len(rows), size, size))
    flat = matrices.reshape(len(rows), size * size)
    flat[:, 1 :: size + 1] = flat[:, size :: size + 1] = [row[0] for row in rows]
    flat[:, -1] = [row[1] for row in rows]
    try:
        values, vectors = np.linalg.eigh(matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"size-{size} half-generator eigensolve did not converge: {exc}") from exc
    if pairs:
        values = np.concatenate([values, -values[pairs]])
        vectors = np.concatenate([vectors, (-1.0) ** np.arange(size)[:, None] * vectors[pairs]])
    weights = (np.cos(values) + np.sin(values)) / 2
    return (vectors * weights[:, None, :]) @ vectors.transpose(0, 2, 1)


def _assemble(a, m, signs):
    """exp(G) from the halves A/2 and M/2 of :func:`expm_skew_tridiagonals`,
    mirror-symmetric ``a`` and mirror-antisymmetric ``m``; ``signs`` holds
    ±1 by (m − k) mod 4. It is built in a new contiguous array, where these
    steps run several times faster than in a strided view."""
    n = len(a) + len(m)
    half = n // 2
    block = np.empty((n, n))
    np.add(a[:half, :half], m, out=block[:half, :half])
    np.subtract(a[:half, :half], m, out=block[:half, : n - half - 1 : -1])
    if n % 2:
        block[:half, half] = np.sqrt(2) * a[:half, half]
        block[half, :half] = np.sqrt(2) * a[half, :half]
        block[half, half] = 2 * a[half, half]
        block[half, half + 1 :] = block[half, half - 1 :: -1]
    block[n - half :] = block[half - 1 :: -1, ::-1]
    block *= signs[:n, :n]
    return block


def _check_persymmetric(couplings):
    """Raise ValueError unless every vector of ``couplings`` equals its own
    reverse to within :data:`SKEW_HERMITIAN_TOL` of its largest entry."""
    sizes = np.array([c.size for c in couplings], dtype=int)
    starts = (np.cumsum(sizes) - sizes)[sizes > 0]
    if not starts.size:
        return
    flat = np.concatenate(couplings)
    defect = np.maximum.reduceat(np.abs(flat - np.concatenate([c[::-1] for c in couplings])), starts)
    scale = np.maximum(1.0, np.maximum.reduceat(np.abs(flat), starts))
    bad = np.flatnonzero(defect > SKEW_HERMITIAN_TOL * scale)
    if bad.size:
        raise ValueError(
            f"coupling is not persymmetric (defect {defect[bad[0]]:.3e} at scale {scale[bad[0]]:.3e})"
        )
