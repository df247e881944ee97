"""Symmetric tensors on R^3: class values inside, dense arrays at the edge.

A symmetric rank-``alpha`` tensor has one value per index-count class (the
indices with ``n0`` zeros, ``n1`` ones and ``n2`` twos, ordered by
``_classes``): C(alpha+2, 2) numbers instead of 3^alpha.  The class values of
``w^{x alpha}`` are the monomials ``w0^n0 w1^n1 w2^n2`` of
:func:`class_monomials`; every symmetrized power in the package is evaluated
through them, and differentiated by linear maps of its class values
(``embedding._tangent_operators``), up to rank ``MAX_CLASS_RANK``.  Dense
float64 arrays of shape ``(3,) * alpha`` are the public input/output form and
the test oracle; they hold 3^alpha entries, so they stop at ``MAX_RANK``
(``_check_rank``), and rotation acts on them mode by mode.

The rotation-invariant tensors returned by :func:`invariant_tensor` are the
full symmetrizations of ``I^{x alpha/2}``.  Their entries depend only on how
often each index value occurs and vanish unless every count is even; the
closed form used here is the pairing-count formula
``(alpha/2)! (2i)! (2j)! (2k)! / (alpha! i! j! k!)`` for an index with value
counts ``(2i, 2j, 2k)``, evaluated in exact rational arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "binom_identity_check",
    "class_monomial_sums",
    "class_monomials",
    "class_multiplicities",
    "class_sums",
    "inner",
    "invariant_class_values",
    "invariant_tensor",
    "outer_power",
    "rotate",
    "rotate_tuple",
    "sym_coordinates",
    "symmetrize",
    "tensor_from_class_values",
    "tuple_norm",
]

MAX_RANK = 12  # dense storage: a rank-alpha component is 3**alpha entries

# Class values: the largest multiplicity, 30!/(10!)^3 ~ 5.6e12, is exact in float64.
MAX_CLASS_RANK = 30


def _check_rank(alpha: int, limit: int = MAX_RANK) -> int:
    """``alpha`` as an int if it is a rank from 1 to ``limit``, ``MAX_RANK`` or ``MAX_CLASS_RANK``."""
    if not isinstance(alpha, (int, np.integer)) or not 1 <= alpha <= limit:
        kind = "the dense-storage limit" if limit == MAX_RANK else "the class-value limit"
        raise ValueError(f"tensor rank alpha must be an integer from 1 to {kind} {limit}, got {alpha!r}")
    return int(alpha)


def outer_power(v, alpha: int) -> np.ndarray:
    """``alpha``-fold outer power of a 3-vector, shape ``(3,) * alpha``."""
    alpha = _check_rank(alpha)
    v = np.asarray(v, dtype=float).reshape(3)
    out = v
    for _ in range(alpha - 1):
        # v (x) out equals out (x) v for a pure power; with the short factor
        # in front numpy's inner loop runs over the long contiguous axes.
        out = np.multiply.outer(v, out)
    return out


@lru_cache(maxsize=None)
def _classes(alpha: int):
    """Index-count classes of rank-``alpha`` tensors.

    Returns ``(ids, counts, mult)``: the value-count triple (n0, n1, n2) of every
    class, the number of indices in it and, only up to ``MAX_RANK`` (else ``None``),
    the dense map of each flat index to its class.  Rank 0 has one class, (0, 0, 0).
    """
    counts = tuple((a, b, alpha - a - b) for a in range(alpha + 1) for b in range(alpha + 1 - a))
    mult = np.array([math.comb(alpha, a) * math.comb(alpha - a, b) for a, b, _ in counts], dtype=np.int64)
    mult.setflags(write=False)
    if alpha > MAX_RANK:
        return None, counts, mult
    # zeros and ones among the digits of each flat index, in 16 bits, far from overflow
    n0 = n1 = np.zeros(1, dtype=np.uint16)
    for _ in range(alpha):  # prepend one digit: 0, 1 or 2
        n0 = (n0 + np.array([[1], [0], [0]], dtype=np.uint16)).ravel()
        n1 = (n1 + np.array([[0], [1], [0]], dtype=np.uint16)).ravel()
    ids = _class_index(n0, n1, alpha).astype(np.int64)
    ids.setflags(write=False)
    return ids, counts, mult


def _class_index(n0, n1, alpha: int):
    """Position of the class with ``n0`` zeros and ``n1`` ones (ints or integer arrays)
    among the classes of rank ``alpha``, ordered by ``n0``, then ``n1``."""
    return n0 * (2 * alpha + 3 - n0) // 2 + n1


def class_monomials(w, alpha: int) -> np.ndarray:
    """Class values of ``w^{x alpha}``, the monomials ``w0^n0 w1^n1 w2^n2``, for
    ``w`` of shape ``(3, ...)`` and any ``alpha >= 0``: shape ``(C(alpha+2, 2), ...)``.

    The block of each ``n0`` is written in place: ``w0^n0 w2^n2``, then times ``w1^n1``.
    """
    w = np.asarray(w, dtype=float)
    pw = np.empty((alpha + 1,) + w.shape)  # pw[k, d] = w[d] ** k
    pw[0] = 1.0
    for k in range(1, alpha + 1):
        np.multiply(pw[k - 1], w, out=pw[k])
    out = np.empty(((alpha + 1) * (alpha + 2) // 2,) + w.shape[1:])
    lo = 0
    for n0 in range(alpha + 1):
        m = alpha - n0 + 1  # n1 = 0 .. alpha - n0, n2 = alpha - n0 .. 0
        block = out[lo : lo + m]
        np.multiply(pw[n0, 0], pw[m - 1 :: -1, 2], out=block)
        block *= pw[:m, 1]
        lo += m
    return out


@lru_cache(maxsize=None)
def _class_pairs(alpha: int) -> np.ndarray:
    """Cached read-only flat indices, one per class of rank ``alpha``, into the
    ``(C(lo+2, 2), C(hi+2, 2))`` table of products of the classes of ranks
    ``lo = alpha // 2`` and ``hi = alpha - lo``: the pair whose counts add up to
    the class, its ``lo`` counts taken from ``n0`` first, then ``n1``, then ``n2``."""
    lo, hi = alpha // 2, alpha - alpha // 2
    n0, n1, _ = np.array(_classes(alpha)[1], dtype=np.int64).T
    a0 = np.minimum(n0, lo)
    a1 = np.minimum(n1, lo - a0)
    out = _class_index(a0, a1, lo) * math.comb(hi + 2, 2) + _class_index(n0 - a0, n1 - a1, hi)
    out.setflags(write=False)
    return out


def class_monomial_sums(w, weights, alpha: int) -> np.ndarray:
    """``sum_p weights[p] * class_monomials(w[:, p], alpha)`` for ``w`` of shape
    ``(3, P)`` and ``weights`` of shape ``(P,)``: shape ``(C(alpha+2, 2),)``.

    Every rank-``alpha`` monomial is the product of one of rank ``alpha // 2`` and
    one of rank ``alpha - alpha // 2``, so the sums are one GEMM of those two
    half-degree tables (the same table when ``alpha`` is even), gathered by
    ``_class_pairs``.  Ranks 0 and 1 sum :func:`class_monomials` directly.
    """
    w = np.asarray(w, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if alpha <= 1:
        return class_monomials(w, alpha) @ weights
    lo = class_monomials(w, alpha // 2)
    hi = lo if alpha % 2 == 0 else class_monomials(w, alpha - alpha // 2)
    return ((lo * weights) @ hi.T).ravel()[_class_pairs(alpha)]


@lru_cache(maxsize=None)
def invariant_class_values(alpha: int) -> np.ndarray:
    """Class values of :func:`invariant_tensor` (cached, read-only)."""
    alpha = _check_rank(alpha, MAX_CLASS_RANK)
    counts = _classes(alpha)[1]
    half = alpha // 2
    vals = np.zeros(len(counts))
    for ci, (a, b, c) in enumerate(counts):
        if a % 2 or b % 2 or c % 2:
            continue
        num = math.factorial(half) * math.factorial(a) * math.factorial(b) * math.factorial(c)
        den = (math.factorial(alpha) * math.factorial(a // 2)
               * math.factorial(b // 2) * math.factorial(c // 2))
        vals[ci] = num / den  # int division rounds correctly
    vals.setflags(write=False)
    return vals


@lru_cache(maxsize=None)
def invariant_tensor(alpha: int) -> np.ndarray:
    """The symmetrized identity power: rank-``alpha`` isotropic symmetric tensor.

    For even ``alpha`` this is ``symm(I^{x alpha/2})`` with
    ``<v^{x alpha}, M> = 1`` for every unit ``v`` and ``|M|^2 = alpha + 1``;
    odd ranks have no nonzero isotropic symmetric tensor and return zeros.
    The returned array is cached and read-only.
    """
    out = tensor_from_class_values(invariant_class_values(alpha), alpha)
    out.setflags(write=False)
    return out


def inner(a, b) -> float:
    """Euclidean inner product of two tensor tuples with matching signatures."""
    if len(a) != len(b):
        raise ValueError(f"tuple lengths differ: {len(a)} vs {len(b)}")
    total = 0.0
    for i, (x, y) in enumerate(zip(a, b)):
        if x.shape != y.shape:
            raise ValueError(f"component {i} rank mismatch: {x.shape} vs {y.shape}")
        total += float(np.dot(x.ravel(), y.ravel()))
    return total


def tuple_norm(a) -> float:
    return math.sqrt(max(0.0, inner(a, a)))


def rotate(r, t: np.ndarray) -> np.ndarray:
    """Apply ``R`` to every mode of ``t``: the action of ``R^{x rank}``.

    ``r`` may be a 3x3 array or anything with a ``matrix`` attribute.  Norm
    preserving (orthogonality of ``R`` carries over to the Kronecker power).
    """
    m = np.asarray(getattr(r, "matrix", r), dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 rotation matrix, got shape {m.shape}")
    t = np.asarray(t, dtype=float)
    if t.shape != (3,) * t.ndim:
        raise ValueError(f"expected a tensor with every mode of length 3, got shape {t.shape}")
    # Contract the leading mode and cycle it to the back, one GEMM per mode:
    # (3^(rank-1), 3) rows of the trailing modes times m^T.  After `rank`
    # rounds every mode has been hit once and the axis order is restored.
    flat = t
    for _ in range(t.ndim):
        flat = flat.reshape(3, -1).T @ m.T
    return flat.reshape(t.shape)


def rotate_tuple(r, tensors) -> tuple[np.ndarray, ...]:
    """Apply :func:`rotate` to every component of a tensor tuple."""
    return tuple(rotate(r, t) for t in tensors)


def symmetrize(t: np.ndarray) -> np.ndarray:
    """Full symmetrization over all index permutations.

    Entries within one index-count class are replaced by their class mean,
    which equals the average over all rank! permutations at 3^rank cost.
    """
    t = np.asarray(t, dtype=float)
    ids, _, mult = _classes(_check_rank(t.ndim))
    return (class_sums(t.reshape(1, -1), t.ndim)[0] / mult)[ids].reshape(t.shape)


def sym_coordinates(t: np.ndarray) -> np.ndarray:
    """Coordinates of a symmetric tensor in an orthonormal basis of its class space.

    The basis vector of a class is the normalized sum of the unit tensors of
    its indices, so this map is a linear isometry on symmetric tensors and
    shrinks rank-``alpha`` data from 3^alpha to (alpha+2)(alpha+1)/2 numbers.
    """
    return class_sums(np.reshape(t, (1, -1)), np.ndim(t))[0] / np.sqrt(class_multiplicities(np.ndim(t)))


def class_sums(rows, alpha: int) -> np.ndarray:
    """Entry sums per index class ``(N, C(alpha+2, 2))`` of flat rank-``alpha`` tensors
    ``(N, 3**alpha)``, each summed in index order: ``<t, s> = class_sums(t) @ v`` for
    the symmetric ``s`` with class values ``v``."""
    rows = np.asarray(rows, dtype=float)
    ids, _, mult = _classes(_check_rank(alpha))
    out = np.empty((len(rows), len(mult)))
    for row, sums in zip(rows, out):
        sums[:] = np.bincount(ids, weights=row, minlength=len(mult))
    return out


def class_multiplicities(alpha: int) -> np.ndarray:
    """Indices per class (read-only): symmetric tensors have inner product ``x @ (mult * y)``."""
    return _classes(_check_rank(alpha, MAX_CLASS_RANK))[2]


def tensor_from_class_values(vals: np.ndarray, alpha: int) -> np.ndarray:
    """Dense symmetric tensors whose entry at each index is its class value.

    ``vals`` has shape ``(..., C(alpha+2, 2))``; the result has shape
    ``(...) + (3,) * alpha``, one tensor per leading index.
    """
    ids, counts, _ = _classes(_check_rank(alpha))
    vals = np.asarray(vals, dtype=float)
    if vals.shape[-1:] != (len(counts),):
        raise ValueError(f"expected {len(counts)} class values, got shape {vals.shape}")
    return vals[..., ids].reshape(vals.shape[:-1] + (3,) * alpha)


def class_counts(alpha: int) -> tuple[tuple[int, int, int], ...]:
    """Value-count triples of all index classes of rank ``alpha``, fixed order."""
    return _classes(_check_rank(alpha, MAX_CLASS_RANK))[1]


def binom_identity_check(alpha: int) -> tuple[int, int]:
    """Exact integer check of the pairing-count identity behind the invariant tensors.

    For even rank the aggregate pairing count satisfies
    ``(alpha+1) C(alpha, alpha/2) = sum C(2i, i) C(2j, j) C(2k, k)`` over all
    ``i + j + k = alpha/2``.  Returns both sides as exact Python integers.
    """
    if not isinstance(alpha, (int, np.integer)) or alpha < 2 or alpha % 2:
        raise ValueError(f"the identity concerns even ranks >= 2, got {alpha!r}")
    alpha = int(alpha)
    half = alpha // 2
    lhs = (alpha + 1) * math.comb(alpha, half)
    rhs = 0
    for i in range(half + 1):
        for j in range(half + 1 - i):
            k = half - i - j
            rhs += math.comb(2 * i, i) * math.comb(2 * j, j) * math.comb(2 * k, k)
    return lhs, rhs
