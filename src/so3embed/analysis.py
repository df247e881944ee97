"""Isometry verification and distance-distortion analysis for coset embeddings.

The differential of an embedding at the identity coset maps the tangent basis
``TANGENT_BASIS`` to three tensor tuples; the embedding preserves geodesic
distance to first order exactly when their Gram matrix is the identity.
Tangent images (the identity's class values through the maps projection
differentiates with, ``embedding._tangent_operators``), means and rank samples
are class values (see ``tensors``), expanded to dense only where the API returns them.
Closed-form tangent norms exist for the rank-k cyclic component and yield the
registered isometric weights through :func:`derive_beta`.

Beyond the infinitesimal picture, :func:`global_bounds` estimates the global
distortion envelope ``c_min <= |E1 - E2| / d([R1], [R2]) <= c_max`` by Haar
sampling plus a deterministic near-identity ladder, and polishes the extreme
samples with a lockstep compass search.  By equivariance a pair reduces to
its relative rotation Q, and the polish, :func:`distance_scatter` and every
reported ratio take the distances of ``(N, 4)`` quaternions to the identity
coset from one kernel, :func:`_identity_distances`, on ``so3.quotient_angles``
and ``embedding.class_norms``.  Both work on differences, so the ratio stays
accurate down to tiny distances, and both are row-independent: a rotation's
distances have the same bits in any block of rotations.  The Haar sweep of the bounds
first screens chunks of ``_CHUNK`` rotations straight from their quaternions
with a Gram-power kernel, ``|E(Q) - E(I)|^2`` as a polynomial in the orbit
Gram entries ``v . Q w``, each a quadratic form in the quaternion (k^2
products per rotation instead of ``k C(alpha+2, 2)`` class monomials), and
the quotient angle ``2 arccos max_s |q . s|``.  Both are bounded within stated rounding
margins, so each ratio lies in a known interval; only the samples still able
to reach the 10 lowest or 10 highest ratios go through the class-value path,
so the selection and every printed number are those of an exhaustive sweep.

The Haar mean of a rank-``alpha`` component is a polynomial of degree
``alpha`` in the entries of R, a combination of Wigner D^l with ``l <= alpha``,
so :func:`_haar_design` integrates it exactly with a few hundred rotations at
most: a product rule in ZYZ Euler angles with ``L + 1`` equispaced nodes in
alpha and in gamma and ``ceil((L + 1) / 2)`` Gauss-Legendre nodes in cos(beta)
(Kostelec and Rockmore, J. Fourier Anal. Appl. 14, 2008).  ``verify --suite
mean`` reads these exact means through :func:`_mean_norm`.

Exact and Monte Carlo means share one per-spec sum, :func:`_class_mean`, which
never forms class values per rotation: each batch of rotations sums the orbit
images of each component, unweighted, through ``tensors.class_monomial_sums``,
one GEMM of two half-degree monomial tables, times the batch's weight (a
design slab's quadrature weight, 1 for a Haar draw).  Every orbit weight is
``1 / len(orbit)`` (orbit-stabilizer), so ``beta_i`` and that weight scale
each component once, at the end.  :func:`mean_check` and
:func:`empirical_embedding_mean` draw their Haar rotations in batches sized
by ``_MEAN_ENTRIES``, so memory stays flat in ``n_samples``;
:func:`mean_check` takes the norm of the class-value mean
(``embedding.class_norms``), so it takes every rank a spec does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .embedding import EmbeddingSpec, _row_blocks, _tangent_operators, centering_offsets, class_norms, class_values
from .embedding import registry_lookup
from .so3 import _quat_product, group_elements, quaternions_from_axis_angles, quaternions_from_euler_zyz
from .so3 import quaternions_to_matrices, quotient_angles, random_quaternions
from .tensors import class_monomial_sums, class_multiplicities
from .tensors import tensor_from_class_values

# Bound but not called: bench/spans.py traces these names in this module.
from .embedding import radius  # noqa: F401
from .tensors import class_counts, inner, invariant_tensor, sym_coordinates, tuple_norm  # noqa: F401

__all__ = [
    "BoundsEstimate",
    "IsometryReport",
    "b_norms_closed_form",
    "bound_ratio_table",
    "derive_beta",
    "differential_at_identity",
    "distance_scatter",
    "empirical_embedding_mean",
    "global_bounds",
    "isometry_check",
    "mean_check",
    "rank_check",
]


# ---------------------------------------------------------------------------
# differential and first-order isometry


def _tangent_class_values(spec: EmbeddingSpec) -> list[np.ndarray]:
    """Per component, the ``(3, C(alpha+2, 2))`` class values of the three tangent
    images at the identity: the identity's class values through ``L[l].T``
    (``embedding._tangent_operators``), which annihilates the centering."""
    return [(v @ _tangent_operators(a))[:, 0] for v, a in zip(spec.identity_class_values, spec.alpha)]


def differential_at_identity(spec: EmbeddingSpec) -> tuple[tuple[np.ndarray, ...], ...]:
    """Images of the three tangent basis directions under the differential,
    one dense tensor tuple each."""
    vals = _tangent_class_values(spec)
    return tuple(tuple(tensor_from_class_values(v[ell], a) for v, a in zip(vals, spec.alpha)) for ell in range(3))


@dataclass(frozen=True)
class IsometryReport:
    """Gram matrix of the tangent images and its distance from the identity."""

    gram: np.ndarray
    max_defect: float
    is_isometric: bool


def isometry_check(spec: EmbeddingSpec, tol: float = 1e-10) -> IsometryReport:
    """Whether the embedding preserves geodesic distance to first order.

    The Gram matrix of the differential images is always symmetric positive
    semidefinite; the spec is locally isometric at the identity coset (and by
    equivariance everywhere) exactly when it equals the identity within
    ``tol``.
    """
    gram = sum((v * class_multiplicities(a)) @ v.T for v, a in zip(_tangent_class_values(spec), spec.alpha))
    defect = float(np.abs(gram - np.eye(3)).max())
    return IsometryReport(gram=gram, max_defect=defect, is_isometric=defect < tol)


# ---------------------------------------------------------------------------
# closed-form tangent norms of the rank-k cyclic component


def _b_norms_exact(k: int):
    """``(|B_1|^2, |B_2|^2)`` as fractions; imported here, since nothing else needs them."""
    from fractions import Fraction

    if k < 3:
        raise ValueError(f"closed-form tangent norms need k >= 3, got {k}")
    if k % 2:
        b1 = Fraction(k * k, 2 ** (k - 1))
        b2 = Fraction(k, 2**k)
    else:
        b1 = (
            -Fraction(k * (k - 1), 2 ** (k - 2)) * math.comb(k - 2, k // 2 - 1)
            + Fraction(k * k, 2**k) * (math.comb(k, k // 2) + 2)
        )
        b2 = Fraction(k, 2 ** (k + 1)) * (2 + math.comb(k - 1, k // 2) + math.comb(k - 1, k // 2 - 1))
    return b1, b2


def b_norms_closed_form(k: int) -> tuple[float, float, float]:
    """Squared tangent norms of the unweighted rank-k cyclic component.

    For the C_k embedding component with direction e2 and rank k, returns
    ``(|B_1|^2, |B_2|^2, |B_3|^2)`` where ``B_l`` is the differential applied
    to the l-th tangent basis matrix.  The last two coincide by symmetry.
    Evaluated in exact rational arithmetic before conversion to float.
    """
    b1, b2 = _b_norms_exact(int(k))
    return float(b1), float(b2), float(b2)


def derive_beta(family: str, k: int) -> tuple[float, float]:
    """Locally isometric weights of the two-component cyclic or dihedral spec.

    Solves the Gram normalization for the spec ``u = (e1, e2)``,
    ``alpha = (1, k)`` (family ``"C"``) or ``alpha = (2, k)`` (family
    ``"D"``): ``beta_2 = 1 / |B_1|`` and
    ``beta_1^2 = (1 - |B_2|^2 / |B_1|^2) / m`` with ``m = 1`` for cyclic and
    ``m = 2`` for dihedral groups.

    Raises
    ------
    ValueError
        If ``|B_2|^2 > |B_1|^2``, in which case no real weight exists (this
        happens for even k >= 8).
    """
    if family not in ("C", "D"):
        raise ValueError(f"family must be 'C' or 'D', got {family!r}")
    b1, b2 = _b_norms_exact(int(k))
    beta1_sq = 1 - b2 / b1
    if family == "D":
        beta1_sq /= 2
    if beta1_sq <= 0:
        raise ValueError(f"no real isometric weights for {family}{k}: |B_2|^2 exceeds |B_1|^2")
    return math.sqrt(float(beta1_sq)), 1.0 / math.sqrt(float(b1))


# ---------------------------------------------------------------------------
# distances to the identity coset

# Rotations per block of ``_identity_distances``, whose class values stay in
# cache; fewer past 2^20 class monomials (``embedding._row_blocks``; Y takes
# 396 a rotation).
_BLOCK = 512

# Half-degree monomial table entries per batch of a Monte Carlo mean: a spec
# draws its Haar rotations in batches whose largest tables hold at most this
# many entries (0.5 MB), so memory stays flat in the sample count.
_MEAN_ENTRIES = 2**16

# Samples polished at each end of the ratio envelope, and compass passes each.
_POLISH_STARTS = 10
_POLISH_PASSES = 80

# Closest distance (rad) to the identity coset a polish trial may take.  Nearer,
# class-value round-off (about 2e-14 on rank 10) outgrows the ratio's true gap
# to its limit, and isometric specs would report c_max above 1.
_POLISH_FLOOR = 1e-5

# Compass axes: the six face and the eight corner directions of a cube.
_COMPASS = np.array([d for d in product((-1.0, 0.0, 1.0), repeat=3) if sum(map(abs, d)) in (1.0, 3.0)])

# Haar rotations drawn at a time by the bounds and scatter sweeps; the bounds
# sweep screens each chunk and keeps only its candidates.
_CHUNK = 2048

# Rounding margin of the Gram-power screen of the bounds sweep, relative to
# sum_i beta_i^2 (sum_v |wt_v|)^2 max(1, alpha_i / 10), the largest the
# kernel's terms can sum to, widened above rank 10, where the rounding of a
# component grows about with its rank.  Its error against the class-value
# d^2 measured at most 2.7e-15 of that on Haar rotations at ranks up to 10,
# and 2.3e-2 of the margin at rank 30 without the widening; near the identity
# the interval is wide against the ratio's gap to 1, so the ladder is always
# evaluated exactly.
_SCREEN_MARGIN = 1e-12

# Bound on the rounding error of the screen's cos(d/2) = max_s |q . s|: the
# norms of q and s are 1 within 2 ulps each and a 4-term dot product rounds
# within 4 more, about 1.8e-15 in all (3.3e-16 measured on Haar rotations).
_COS_ERROR = 4e-15

# Quotient angle (rad) below which a screened row gets the interval [0, inf]
# and is settled exactly: a Haar rotation lands there with probability about
# |S| 5e-8.
_NEAR_ANGLE = 1e-2


def _identity_distances(spec: EmbeddingSpec, quats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quotient geodesic and embedded distance from each rotation ``(N, 4)`` to the
    identity coset, ``_BLOCK`` at a time (see there); the ratio of the second to
    the first is the distortion ``|E(Q) - E(I)| / d([Q], [I])``."""
    d_geo, d_emb = np.empty(len(quats)), np.empty(len(quats))
    for at in _row_blocks(len(quats), spec.monomial_width, _BLOCK):
        block = quats[at]
        here = class_values(spec, quaternions_to_matrices(block))
        d_emb[at] = class_norms(spec, [v - v0 for v, v0 in zip(here, spec.identity_class_values)])
        d_geo[at] = quotient_angles(block, spec.group.quaternions)
    return d_geo, d_emb


def _polish(spec: EmbeddingSpec, quats: np.ndarray, values: np.ndarray, signs: np.ndarray):
    """Compass search that lowers ``signs * ratio`` from every start in lockstep.

    ``values`` holds the starts' ratios.  Each pass tries, on every live lane,
    the left multiplications by a rotation of ``step`` radians about each
    ``_COMPASS`` axis, all lanes' trials in one batch; the corner axes let a
    lane follow a crease of the ratio that no coordinate axis crosses.  A
    lane moves to its best trial when that lowers ``signs * ratio`` and keeps
    its step, or halves its step when no trial does.  The first step is an eighth of the
    start's distance to the identity coset, so starts close to it take steps
    at their own scale.  A lane stops once its step falls below 1e-9 rad, and
    every lane after ``_POLISH_PASSES`` passes.  Trials within
    ``_POLISH_FLOOR`` of the identity coset are never taken.

    Returns the polished ratios and the number of ratios evaluated.
    """
    quats, best = quats.copy(), signs * values
    step = quotient_angles(quats, spec.group.quaternions) / 8.0
    axes = _COMPASS / np.linalg.norm(_COMPASS, axis=-1, keepdims=True)  # as quaternions_from_axis_angles scales them
    evaluations = 0
    for _ in range(_POLISH_PASSES):
        live = np.flatnonzero(step >= 1e-9)
        if not live.size:
            break
        half = 0.5 * step[live]
        turns = np.empty((len(live), len(axes), 4))  # the turns by step about each axis
        turns[..., 0] = np.cos(half)[:, None]
        np.multiply(np.sin(half)[:, None, None], axes, out=turns[..., 1:])
        trials = _quat_product(turns, quats[live, None, :]).reshape(-1, 4)
        d_geo, d_emb = _identity_distances(spec, trials)  # 14 trials a lane, 20 lanes
        evaluations += len(trials)
        shape = (len(live), len(axes))
        scores = np.divide(
            d_emb.reshape(shape) * signs[live, None],  # exact: the signs are +-1
            d_geo.reshape(shape),
            out=np.full(shape, np.inf),
            where=(d_geo > _POLISH_FLOOR).reshape(shape),
        )
        pick = scores.argmin(axis=1)
        gain = scores[np.arange(len(live)), pick] < best[live]
        moved = live[gain]
        quats[moved] = trials.reshape(len(live), -1, 4)[gain, pick[gain]]
        best[moved] = scores[gain, pick[gain]]
        step[live[~gain]] *= 0.5
    return signs * best, evaluations


# ---------------------------------------------------------------------------
# global distortion bounds


@dataclass(frozen=True)
class BoundsEstimate:
    """Empirical envelope of the embedded-to-geodesic distance ratio."""

    c_min: float
    c_max: float
    sample_count: int
    refine_evaluations: int


def _ladder_quaternions(rng: np.random.Generator, n_axes: int = 48) -> np.ndarray:
    """Near-identity rotations: random axes at log-spaced angles 1e-4 .. 1e-1."""
    angles = np.logspace(-4.0, -1.0, 16)
    return quaternions_from_axis_angles(rng.standard_normal((n_axes, 3)), angles[:, None]).reshape(-1, 4)


def _rotation_quadratic() -> np.ndarray:
    """``A`` ``(4, 4, 3, 3)``, symmetric in its first two axes, with ``R(q)_ij =
    sum_ab A[a, b, i, j] q_a q_b`` for a unit quaternion ``q = (w, v)``:
    ``R = (w^2 - |v|^2) I + 2 v v^T + 2 w [v]_x``."""
    eye = np.eye(3)
    outer = np.einsum("ai,bj->abij", eye, eye)  # e_a e_b^T
    quad = np.zeros((4, 4, 3, 3))
    quad[0, 0] = eye
    quad[1:, 1:] = outer + outer.transpose(1, 0, 2, 3) - np.einsum("ab,ij->abij", eye, eye)
    quad[0, 1:] = quad[1:, 0] = np.cross(eye[:, None, :], eye[None, :, :]).transpose(0, 2, 1)  # [e_a]_x
    return quad


_ROTATION_QUADRATIC = _rotation_quadratic()

# The ten products q_a q_b, a <= b, that the quadratic forms of the screen read.
_PAIRS = np.triu_indices(4)


def _gram_tables(spec: EmbeddingSpec):
    """The orbit tables of the Gram-power screen, or ``None`` when class values are cheaper.

    Per component, ``|E(Q) - E(I)|^2`` is ``2 sum_{v,w} W[v, w] ((v.w)^alpha -
    (v.Qw)^alpha)`` over the orbit vectors, with ``W = beta^2 wt wt^T``
    (Arnold, Jupp, Schaeben 2018): k^2 Gram entries per rotation against the
    ``k C(alpha+2, 2)`` class monomials of ``class_values``.  Each Gram entry
    is a quadratic form in the unit quaternion, ``v . R(q) w = q^T M_vw q``,
    so the table of a component is ``(10, k^2)``: the coefficients of the
    products ``q_a q_b``, ``a <= b``, in each ``M_vw``.  Returns
    ``(components, tau)``, each component ``(table, W.ravel(), alpha, K0)``
    with ``K0 = sum W (V V^T)^alpha``, and ``tau`` the kernel's rounding
    margin on ``d^2``.  ``None`` when ``sum k_i^2`` exceeds ``sum k_i
    C(alpha_i+2, 2)``, a large orbit, where the screen would cost more than
    the exact path.
    """
    if sum(len(vecs) ** 2 for vecs, _ in spec.orbits) > spec.monomial_width:
        return None
    comps, scale = [], 0.0
    for (vecs, wts), a, b in zip(spec.orbits, spec.alpha, spec.beta):
        w = (b * b) * np.outer(wts, wts)
        m = np.einsum("abij,vi,wj->abvw", _ROTATION_QUADRATIC, vecs, vecs).reshape(4, 4, -1)
        table = np.where((_PAIRS[0] == _PAIRS[1])[:, None], 1.0, 2.0) * m[_PAIRS]
        comps.append((table, w.ravel(), a, float(np.sum(w * _int_power(vecs @ vecs.T, a)))))
        scale += b * b * float(np.abs(wts).sum()) ** 2 * max(1.0, a / 10)
    return comps, _SCREEN_MARGIN * scale


def _int_power(g: np.ndarray, a: int) -> np.ndarray:
    """``g ** a`` for an integer ``a >= 1`` by repeated squaring, in place: ``g``
    is overwritten.  numpy's ``**`` falls back to elementwise ``pow`` above the
    square, and fresh temporaries of a screen chunk's size cost page faults."""
    out = None
    while True:
        if a & 1:
            out = g.copy() if out is None else np.multiply(out, g, out=out)
        a >>= 1
        if not a:
            return out
        np.multiply(g, g, out=g)


def _gram_d2(comps, quats: np.ndarray) -> np.ndarray:
    """Squared embedded distances ``(N,)`` from unit quaternions ``(N, 4)`` to
    the identity coset by the Gram-power kernel of :func:`_gram_tables`, on
    row blocks of ``embedding._row_blocks``, ``k^2`` Gram entries a row."""
    d2 = np.zeros(len(quats))
    for at in _row_blocks(len(quats), sum(w.size for _, w, _, _ in comps)):
        q, out = quats[at], d2[at]
        qq = q[:, _PAIRS[0]]  # a copy, multiplied in place: one temporary fewer
        qq *= q[:, _PAIRS[1]]
        for table, w, a, k0 in comps:
            out += 2.0 * (k0 - _int_power(qq @ table, a) @ w)
    return d2


def _screen_angles(quats: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Quotient angles ``2 arccos(max_s |q . s|)`` ``(N,)`` of unit quaternions to
    the identity coset: one product with the group table, accurate to
    ``2 _COS_ERROR / sin(d/2)`` (see :func:`_screened_ratios`)."""
    dots = group @ quats.T  # (|S|, N): the maximum runs down long rows
    cos_half = np.abs(dots, out=dots).max(axis=0)
    return 2.0 * np.arccos(np.minimum(cos_half, 1.0))


def _screened_ratios(spec: EmbeddingSpec, tables, quats: np.ndarray):
    """``(lo, hi)`` for Haar rotations ``(N, 4)``: an interval around each
    distortion ratio as the class-value path computes it.

    With tables, ``d^2`` comes from :func:`_gram_d2` within ``tau`` and the
    angle ``d`` from :func:`_screen_angles`.  ``cos(d/2)`` is a 4-term dot
    product of vectors of norm 1 within a few ulps, so it is off by at most
    ``_COS_ERROR``, and ``d`` by at most ``2 _COS_ERROR / sin(d/2) <= 2 pi
    _COS_ERROR / d`` to first order; each ratio is widened by that relative
    margin.  The rounding of the class-value path's own angle and ratio, a
    few ulps, is covered by ``tau``, whose relative share of a ratio is at
    least 1e-13.  Below ``_NEAR_ANGLE`` the first-order bound is loose and
    the interval is ``[0, inf]``: such a row stays a candidate and is settled
    exactly, where a quotient angle below 1e-9 drops it as in
    :func:`distance_scatter`.  Without tables the intervals are the exact
    ratios, and ``[0, inf]`` for those dropped rows.
    """
    if tables is None:
        d_geo, d_emb = _identity_distances(spec, quats)
        near = d_geo <= 1e-9
        ratio = np.divide(d_emb, d_geo, out=np.zeros(len(quats)), where=~near)
        return ratio, np.where(near, np.inf, ratio)
    comps, tau = tables
    d = _screen_angles(quats, spec.group.quaternions)
    near = d < _NEAR_ANGLE
    d = np.maximum(d, _NEAR_ANGLE)
    margin = (2.0 * math.pi * _COS_ERROR) / (d * d)
    d2 = _gram_d2(comps, quats)
    lo = np.sqrt(np.maximum(d2 - tau, 0.0)) / (d * (1.0 + margin))
    hi = np.sqrt(d2 + tau) / (d * (1.0 - margin))
    lo[near], hi[near] = 0.0, np.inf
    return lo, hi


def _extreme_samples(spec: EmbeddingSpec, n_pairs: int, seed: int):
    """The rotations and ratios ``(quats, ratios)`` of the ``_POLISH_STARTS``
    lowest and then the ``_POLISH_STARTS`` highest distortion ratios among
    ``n_pairs`` Haar rotations and the ladder.

    The selection is that of a stable ``argsort`` of every ratio in draw
    order, the ladder last: ties go to the earlier draw at the low end and to
    the later one at the high end.  Rotations are drawn and screened by
    :func:`_screened_ratios` ``_CHUNK`` at a time, straight from their
    quaternions; a sample stays a candidate while its interval can still
    reach either end, against the candidates and the exact ladder ratios.
    Only the candidates' rotations are kept, in draw order, so memory stays
    flat in ``n_pairs``; at the end they get their exact ratios, the bits an
    exhaustive sweep gives them, since distances are row-independent.
    """
    n = _POLISH_STARTS
    pair_seq, ladder_seq = np.random.SeedSequence(seed).spawn(2)
    ladder = _ladder_quaternions(np.random.default_rng(ladder_seq))
    d_geo, d_emb = _identity_distances(spec, ladder)
    rungs = d_emb / d_geo
    low_rungs, high_rungs = np.sort(rungs)[:n], np.sort(rungs)[-n:]
    tables = _gram_tables(spec)
    rng = np.random.default_rng(pair_seq)
    quats, lo, hi = np.empty((0, 4)), np.empty(0), np.empty(0)  # candidates and their intervals
    # At least n ratios lie at or below t_low, so a row whose interval starts
    # above it has n strictly smaller ratios; the same holds at the high end.
    # Thresholds only tighten, so a dropped row never returns.
    t_low, t_high = low_rungs[-1], high_rungs[0]
    for start in range(0, n_pairs, _CHUNK):
        # Chunks draw from ``rng`` in turn: the stream of one draw of n_pairs.
        chunk = random_quaternions(rng, min(_CHUNK, n_pairs - start))
        c_lo, c_hi = _screened_ratios(spec, tables, chunk)
        new = (c_lo <= t_low) | (c_hi >= t_high)
        quats = np.concatenate([quats, chunk[new]])
        lo, hi = np.concatenate([lo, c_lo[new]]), np.concatenate([hi, c_hi[new]])
        t_low = np.partition(np.concatenate([hi, low_rungs]), n - 1)[n - 1]
        t_high = -np.partition(-np.concatenate([lo, high_rungs]), n - 1)[n - 1]
        live = (lo <= t_low) | (hi >= t_high)
        quats, lo, hi = quats[live], lo[live], hi[live]
    d_geo, d_emb = _identity_distances(spec, quats)
    keep = d_geo > 1e-9
    ratios = np.concatenate([d_emb[keep] / d_geo[keep], rungs])
    quats = np.concatenate([quats[keep], ladder])
    order = np.argsort(ratios, kind="stable")
    ends = np.concatenate([order[:n], order[::-1][:n]])  # lowest, then highest
    return quats[ends], ratios[ends]


def global_bounds(
    spec: EmbeddingSpec,
    n_pairs: int = 100_000,
    refine: bool = True,
    seed: int = 0,
) -> BoundsEstimate:
    """Estimate the global bounds on ``|E1 - E2| / d([R1], [R2])``.

    Haar pair sampling reduces to sampling the relative rotation, drawn in
    chunks; a deterministic near-identity ladder captures the small-distance
    limit.  Each chunk is screened from its quaternions, which puts every
    ratio in a known interval, and only the samples that can still be among
    the 10 lowest or the 10 highest ratios are kept; they and the ladder then
    get exact class-value ratios (see ``_screened_ratios`` and
    ``_extreme_samples``).  The selection, and so the result, is that of
    evaluating every sample exactly, and memory stays flat in ``n_pairs``.
    Optional refinement polishes the 10 lowest and the 10 highest samples
    together by a compass search over left-multiplied small rotations (see
    ``_polish``); ``refine_evaluations`` counts the ratios it evaluates.
    Deterministic given ``seed``, and the sample stream is nested: the first
    n draws of a 2n-pair run are the n-pair run's draws.

    Returns
    -------
    BoundsEstimate
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    quats, ratios = _extreme_samples(spec, n_pairs, seed)
    signs = np.repeat([1.0, -1.0], _POLISH_STARTS)
    evaluations = 0
    if refine:
        ratios, evaluations = _polish(spec, quats, ratios, signs)
    return BoundsEstimate(
        c_min=float(ratios[signs > 0].min()),
        c_max=float(ratios[signs < 0].max()),
        sample_count=int(n_pairs),
        refine_evaluations=evaluations,
    )


def bound_ratio_table(
    group_name: str,
    beta_override,
    n_pairs: int = 100_000,
    refine: bool = True,
    seed: int = 0,
) -> tuple[float, BoundsEstimate]:
    """Distortion ratio ``c_max / c_min`` of a registered spec with replaced weights."""
    base = registry_lookup(group_name, "isometric")
    spec = EmbeddingSpec(base.group, base.u, base.alpha, tuple(float(b) for b in beta_override))
    est = global_bounds(spec, n_pairs=n_pairs, refine=refine, seed=seed)
    return est.c_max / est.c_min, est


def distance_scatter(spec: EmbeddingSpec, n_pairs: int, seed: int = 0) -> np.ndarray:
    """Sampled (geodesic, embedded) distance pairs, shape (n, 2).

    Pairs whose cosets coincide numerically (quotient distance below 1e-9)
    are dropped, so the second column over the first is always well defined.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    rng, out = np.random.default_rng(seed), []
    for at in range(0, n_pairs, _CHUNK):  # chunks draw in turn: the stream of one draw of n_pairs
        d_geo, d_emb = _identity_distances(spec, random_quaternions(rng, min(_CHUNK, n_pairs - at)))
        out.append(np.column_stack([d_geo, d_emb])[d_geo > 1e-9])
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# push-forward mean and rank diagnostics


def _class_mean(spec: EmbeddingSpec, batches, size: int) -> list[np.ndarray]:
    """Class values ``(C(alpha_i + 2, 2),)`` per component of the mean embedding
    of weighted rotations.

    ``batches`` yields ``(rows, weight)``: the rows ``(3, N, 3)`` of ``N``
    rotation matrices (row ``d`` of every matrix) and their common weight.
    Each component sums the orbit images of a batch, unweighted, by
    :func:`tensors.class_monomial_sums`, times ``weight``.  The orbit weights
    of a component are all ``1 / len(orbit)`` (``EmbeddingSpec.orbits``), so
    the mean is that weighted sum times ``beta_i`` and the orbit weight over
    ``size``, less the centering term.
    """
    sums = [np.zeros(math.comb(a + 2, 2)) for a in spec.alpha]
    for rows, weight in batches:
        for acc, (vecs, _), a in zip(sums, spec.orbits, spec.alpha):
            acc += weight * class_monomial_sums((rows @ vecs.T).reshape(3, -1), a)
    means = []
    for acc, (_, wts), b, offset in zip(sums, spec.orbits, spec.beta, centering_offsets(spec)):
        mean = acc * (b * float(wts[0]) / size)
        if offset is not None:
            mean -= offset
        means.append(mean)
    return means


def _haar_mean(spec: EmbeddingSpec, n_samples: int, seed: int) -> list[np.ndarray]:
    """:func:`_class_mean` of ``n_samples`` Haar rotations from ``default_rng(seed)``.

    The rotations are drawn in batches of as many as keep the largest
    half-degree tables of the spec's components within ``_MEAN_ENTRIES``
    entries, so memory stays flat in ``n_samples``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    per_rotation = max(
        len(vecs) * sum(math.comb(h + 2, 2) for h in ({a // 2, a - a // 2} if a > 1 else {a}))
        for (vecs, _), a in zip(spec.orbits, spec.alpha)
    )
    step = max(1, _MEAN_ENTRIES // per_rotation)
    rng = np.random.default_rng(seed)
    # Batches draw from ``rng`` in turn: the stream of one draw of n_samples.
    batches = (
        (quaternions_to_matrices(random_quaternions(rng, min(step, n_samples - at))).transpose(1, 0, 2), 1.0)
        for at in range(0, n_samples, step)
    )
    return _class_mean(spec, batches, n_samples)


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``m`` Gauss-Legendre nodes on [-1, 1], ascending, and their weights
    for the uniform probability measure there, ``1 / ((1 - x^2) P_m'(x)^2)``,
    which sum to 1.

    Six Newton steps on ``P_m``, evaluated by the three-term recurrence, from
    the starting points ``cos(pi (i - 1/4) / (m + 1/2))``: at every ``m <= 16``
    (ranks up to 30) the fifth and sixth steps move no node by more than an
    ulp, so the weights may take ``P_m'`` from before the last.  Not the
    eigenvalues of the Jacobi matrix (Golub and Welsch): the first symmetric
    eigensolver call of a process (``np.linalg.eigh``) keeps 128 kB more
    resident, and numpy.polynomial costs an import.
    """
    x = np.cos(np.pi * (np.arange(m, 0, -1) - 0.25) / (m + 0.5))
    for _ in range(6):
        prev, value = np.ones(m), x  # P_{k-1} and P_k at the nodes
        for k in range(2, m + 1):
            prev, value = value, ((2 * k - 1) * x * value - (k - 1) * prev) / k
        slope = m * (x * value - prev) / (x * x - 1.0)
        x = x - value / slope
    return x, 1.0 / ((1.0 - x * x) * slope * slope)


def _haar_design(L: int) -> tuple[np.ndarray, np.ndarray]:
    """A product quadrature on SO(3), exact for every Wigner D^l with ``l <= L``.

    Rotations ``Rz(a) Ry(b) Rz(g)`` with ``a`` and ``g`` on ``L + 1`` equispaced
    angles and ``cos(b)`` on the ``m = ceil((L + 1) / 2)`` nodes of
    :func:`_gauss_legendre`.  ``D^l_{jk} = exp(-i j a) d^l_{jk}(b) exp(-i k
    g)``: the sums over ``a`` and ``g`` vanish unless ``j = k = 0``, since
    ``|j|, |k| <= L``, and ``d^l_{00}(b) = P_l(cos b)`` has degree ``l <= L
    <= 2m - 1``, which the Gauss rule integrates exactly.

    Returns ``(quats, weights)``: unit quaternions ``(m, (L + 1)^2, 4)``, one
    slab per node of ``cos(b)``, and that node's weight ``(m,)``.  A Haar mean
    is the sum over slabs of ``weight`` times the slab's plain average.
    """
    m = L // 2 + 1
    nodes, weights = _gauss_legendre(m)
    turns = 2.0 * np.pi * np.arange(L + 1) / (L + 1)
    angles = np.empty((m, L + 1, L + 1, 3))
    angles[..., 0] = turns[:, None]
    angles[..., 1] = np.arccos(nodes)[:, None, None]
    angles[..., 2] = turns
    return quaternions_from_euler_zyz(angles.reshape(-1, 3)).reshape(m, (L + 1) ** 2, 4), weights


def _mean_norm(spec: EmbeddingSpec) -> float:
    """Norm of the exact Haar mean embedding of ``spec``, from its class values
    (``embedding.class_norms``): any rank the spec takes, no dense tensor.

    :func:`_class_mean` sums the slabs of :func:`_haar_design` with ``L =
    max(alpha)``, each with its node weight, over the slab size.  An
    uncentered spec's mean keeps its isotropic part; a centered spec's is
    zero up to rounding, below ``1e-12 radius`` on every registered spec: a
    class value sums ``n = (L + 1)^2 k`` terms of a slab (``k`` orbit
    vectors), each a product of ``alpha`` entries of ``R v`` with ``|R v| =
    1`` within about 10 ulps, then ``m`` slabs with positive weights that sum
    to 1, so its error is at most about ``(n + m + 10 alpha) u beta_i`` in
    norm per component (``u = 2^-53``).  That is at most 3.4e-13 radius on
    the registered specs (Y); their measured norms are at most 2.2e-15 radius.
    """
    slabs, weights = _haar_design(max(spec.alpha))
    rows = quaternions_to_matrices(slabs).transpose(0, 2, 1, 3)  # (m, 3, N, 3): row d of every matrix
    means = _class_mean(spec, zip(rows, weights), slabs.shape[1])
    return float(class_norms(spec, [m[None] for m in means])[0])


def empirical_embedding_mean(spec: EmbeddingSpec, n_samples: int, seed: int = 0) -> tuple[np.ndarray, ...]:
    """Mean embedding of ``n_samples`` Haar rotations, one dense tensor per
    component (ranks up to ``tensors.MAX_RANK``): the class-value mean of
    :func:`_haar_mean`, expanded."""
    return tuple(map(tensor_from_class_values, _haar_mean(spec, n_samples, seed), spec.alpha))


def mean_check(spec: EmbeddingSpec, n_samples: int, seed: int = 0) -> float:
    """Norm of the empirical mean embedding under Haar sampling.

    Centered embeddings have expectation zero, so this norm shrinks like
    ``radius / sqrt(n)``; values beyond about five times that indicate a
    centering or orientation bug.  Uncentered specs have a nonzero mean by
    construction and are rejected.
    """
    if not spec.centered:
        raise ValueError("mean_check applies to centered specs only")
    means = _haar_mean(spec, n_samples, seed)
    return float(class_norms(spec, [m[None] for m in means])[0])


def rank_check(
    spec: EmbeddingSpec, n_samples: int = 500, seed: int = 0, symmetrized: bool = False
) -> int:
    """Numerical rank of the span of sampled centered embedding tensors.

    Embeddings are taken in orthonormal symmetric-class coordinates (class
    values times the square roots of the class sizes, a linear isometry),
    stacked into an ``n_samples`` row matrix (in the row blocks of
    ``embedding._row_blocks``), and the rank is the count of singular values
    above ``1e-8 sqrt(n_samples sum_i beta_i^2)``.  That scale is fixed in
    advance: a row's norm is the embedding radius, at most ``|beta|``, so it
    bounds the largest singular value, and an image that vanishes identically,
    whose samples are rounding noise, has rank 0.

    By default the component maps ``R -> (R u_i)^{x alpha_i}`` are sampled
    without group averaging; their span is exactly
    ``embedding.expected_hull_dimension``, which the result meets on every
    registered spec (D2, whose orthonormal directions obey ``sum_i (R
    e_i)^{x 2} = I``, spans 10).  With ``symmetrized=True`` the group-averaged map
    itself is sampled.  Averaging can annihilate harmonic blocks of a
    component (for example the rank-3 component of C3 loses its vector part
    because the orbit of ``u`` sums to zero), the whole image (T, O and Y act
    irreducibly on R^3, so by Schur's lemma their rank-2 averages are
    isotropic and center to zero) or tie blocks of different components
    together, so the symmetrized span can be strictly smaller.
    """
    if not spec.centered:
        raise ValueError("rank_check applies to centered specs only")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    sampled = spec
    if not symmetrized:
        sampled = EmbeddingSpec(group_elements("C1"), spec.u, spec.alpha, spec.beta)
    rng = np.random.default_rng(seed)
    mats = quaternions_to_matrices(random_quaternions(rng, n_samples))
    scale = np.concatenate([np.sqrt(class_multiplicities(a)) for a in spec.alpha])
    blocks = _row_blocks(n_samples, sampled.monomial_width)
    rows = np.concatenate([np.concatenate(class_values(sampled, mats[at]), axis=1) for at in blocks])
    rows *= scale
    svals = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(svals > 1e-8 * math.sqrt(n_samples * sum(b * b for b in spec.beta))))
