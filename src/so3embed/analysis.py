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
coset from the package's two distance kernels, ``so3.quotient_angles`` and
``embedding.class_norms``.  Both work on differences, so the ratio stays
accurate down to tiny distances, and both are row-independent: a rotation's
distances have the same bits in any batch.  The Haar sweep of the bounds
first screens chunks of ``_CHUNK`` rotations straight from their quaternions
with a Gram-power kernel, ``|E(Q) - E(I)|^2`` as a polynomial in the orbit
Gram entries ``v . Q w``, each a quadratic form in the quaternion (k^2
products per rotation instead of ``k C(alpha+2, 2)`` class monomials), and
the quotient angle ``2 arccos max_s |q . s|``.  Both are bounded within stated rounding
margins, so each ratio lies in a known interval; only the samples still able
to reach the 10 lowest or 10 highest ratios go through the class-value path,
so the selection and every printed number are those of an exhaustive sweep.

The Monte Carlo means of :func:`empirical_embedding_means` never form class
values per rotation, and one sweep serves a whole list of specs: each chunk
of ``_MEAN_CHUNK`` Haar rotations is drawn and turned into matrices once,
and each distinct (rank, orbit) pair sums the orbit images of the chunk,
unweighted, through ``tensors.class_monomial_sums``, one GEMM of two
half-degree monomial tables, in sub-blocks sized by ``_MEAN_ENTRIES``.  Every
orbit weight is ``1 / len(orbit)`` (orbit-stabilizer), so ``beta_i`` and the
weight scale each spec's component once, after the sweep, and an orbit that
specs with different ``beta`` share is summed once.  :func:`mean_check` takes
the norm of the class-value mean (``embedding.class_norms``), so it takes
every rank a spec does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .embedding import EmbeddingSpec, _tangent_operators, centering_offsets, class_norms, class_values, registry_lookup
from .so3 import _quat_product, group_elements, quaternions_from_axis_angles, quaternions_to_matrices
from .so3 import quotient_angles, random_quaternions
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
    "empirical_embedding_means",
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

# Rotations per block of ``_identity_distances``: a block's class values stay
# in cache, and memory stays bounded however large the orbits.
_BLOCK = 512

# Haar rotations per chunk of the mean sweep: each chunk is drawn and turned
# into matrices once, then summed by every component of every spec.
_MEAN_CHUNK = 4096

# Half-degree monomial table entries per sub-block of a component's share of a
# chunk.  A fixed entry count, not a fixed rotation count: a component with
# small tables sums its whole chunk at once, and the per-block overhead stays small.
# With the unweighted kernel, the mean sweep over the twelve registered specs
# (100,000 rotations, one BLAS thread, 2-vCPU host, 15 interleaved repeats)
# took a median of 0.151 s at 2**15 entries, 0.145 s at 2**16 and 0.159 s at
# 2**17, with quartiles about 0.05 s apart; 2**16 also keeps the tables at 0.5 MB.
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


def _block_distances(spec: EmbeddingSpec, quats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quotient geodesic and embedded distance from each of at most ``_BLOCK``
    rotations ``(N, 4)`` to the identity coset; the ratio of the second to the
    first is the distortion ``|E(Q) - E(I)| / d([Q], [I])``."""
    here = class_values(spec, quaternions_to_matrices(quats))
    d_emb = class_norms(spec, [v - v0 for v, v0 in zip(here, spec.identity_class_values)])
    return quotient_angles(quats, spec.group.quaternions), d_emb


def _identity_distances(spec: EmbeddingSpec, quats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_block_distances` of any number of rotations, ``_BLOCK`` at a time."""
    d_geo, d_emb = np.empty(len(quats)), np.empty(len(quats))
    for at in range(0, len(quats), _BLOCK):
        d_geo[at : at + _BLOCK], d_emb[at : at + _BLOCK] = _block_distances(spec, quats[at : at + _BLOCK])
    return d_geo, d_emb


def _sampled_distances(spec: EmbeddingSpec, rng: np.random.Generator, n: int):
    """Yield ``(quats, d_geo, d_emb)`` for ``n`` Haar rotations, ``_CHUNK`` at a time.

    Rotations whose coset coincides numerically with the identity coset
    (quotient distance below 1e-9) are dropped.  Chunks draw from ``rng`` in
    turn, so the stream is the one a single draw of ``n`` would give.
    """
    for lo in range(0, n, _CHUNK):
        quats = random_quaternions(rng, min(_CHUNK, n - lo))
        d_geo, d_emb = _identity_distances(spec, quats)
        keep = d_geo > 1e-9
        yield quats[keep], d_geo[keep], d_emb[keep]


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
        d_geo, d_emb = _block_distances(spec, trials)  # 14 trials a lane, 20 lanes: one block
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
    sizes = [len(vecs) for vecs, _ in spec.orbits]
    if sum(k * k for k in sizes) > sum(k * math.comb(a + 2, 2) for k, a in zip(sizes, spec.alpha)):
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
    the identity coset by the Gram-power kernel of :func:`_gram_tables`."""
    qq = quats[:, _PAIRS[0]] * quats[:, _PAIRS[1]]
    d2 = np.zeros(len(quats))
    for table, w, a, k0 in comps:
        d2 += 2.0 * (k0 - _int_power(qq @ table, a) @ w)
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
    :func:`_sampled_distances`.  Without tables the intervals are the exact
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
    chunks = _sampled_distances(spec, np.random.default_rng(seed), n_pairs)
    return np.concatenate([np.column_stack([d_geo, d_emb]) for _, d_geo, d_emb in chunks])


# ---------------------------------------------------------------------------
# push-forward mean and rank diagnostics


def _class_means(specs, n_samples: int, seed: int) -> list[list[np.ndarray]]:
    """Class values ``(C(alpha_i + 2, 2),)`` per component of the mean
    embedding of the same ``n_samples`` Haar rotations under each of ``specs``.

    One sweep serves every spec: the rotations are drawn from
    ``default_rng(seed)`` in chunks of ``_MEAN_CHUNK`` and converted to
    matrices once per chunk.  Each chunk then goes to every distinct
    component, keyed by its rank and orbit vectors only, and
    :func:`tensors.class_monomial_sums` sums the orbit images unweighted, so
    a component that several specs share is summed once, whatever their
    ``beta``.  A component sums its chunk in sub-blocks of at most
    ``_MEAN_ENTRIES`` half-degree table entries, so memory stays flat in
    ``n_samples``.  The orbit weights of a component are all ``1 / len(orbit)``
    (``EmbeddingSpec.orbits``), so each spec's mean is its components' sums
    times ``beta_i * weight / n_samples``, less its centering term.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    distinct: dict[tuple, int] = {}  # (rank, orbit vectors) -> index into ``terms``
    terms, owners = [], []  # terms: (orbit vectors, rank, sub-block rotations)
    for spec in specs:
        owned = []  # per component: (index into ``terms``, orbit weight)
        for (vecs, wts), a in zip(spec.orbits, spec.alpha):
            key = (a, vecs.tobytes())
            if key not in distinct:
                halves = {a // 2, a - a // 2} if a > 1 else {a}
                entries = len(vecs) * sum(math.comb(h + 2, 2) for h in halves)  # per rotation
                distinct[key] = len(terms)
                terms.append((vecs, a, min(_MEAN_CHUNK, max(1, _MEAN_ENTRIES // entries))))
            owned.append((distinct[key], float(wts[0])))
        owners.append(owned)
    sums = [np.zeros(math.comb(a + 2, 2)) for _, a, _ in terms]
    rng = np.random.default_rng(seed)
    for start in range(0, n_samples, _MEAN_CHUNK):
        # Chunks draw from ``rng`` in turn: the stream of one draw of n_samples.
        mats = quaternions_to_matrices(random_quaternions(rng, min(_MEAN_CHUNK, n_samples - start)))
        rows = np.ascontiguousarray(mats.transpose(1, 0, 2))  # (3, N, 3): row d of every matrix
        for acc, (vecs, a, step) in zip(sums, terms):
            for lo in range(0, len(mats), step):
                acc += class_monomial_sums((rows[:, lo : lo + step] @ vecs.T).reshape(3, -1), a)
    out = []
    for spec, owned in zip(specs, owners):
        means = []
        for (i, wt), b, offset in zip(owned, spec.beta, centering_offsets(spec)):
            mean = sums[i] * (b * wt / n_samples)
            if offset is not None:
                mean -= offset
            means.append(mean)
        out.append(means)
    return out


def _mean_norms(specs, n_samples: int, seed: int) -> list[float]:
    """Norms of the mean embeddings of :func:`_class_means`, from their class
    values (``embedding.class_norms``): any rank a spec takes, no dense tensor."""
    specs = list(specs)
    means = _class_means(specs, n_samples, seed)
    return [float(class_norms(spec, [m[None] for m in comps])[0]) for spec, comps in zip(specs, means)]


def empirical_embedding_means(specs, n_samples: int, seed: int = 0) -> list[tuple[np.ndarray, ...]]:
    """Mean embeddings of the same ``n_samples`` Haar rotations under each spec,
    one dense tensor per component (ranks up to ``tensors.MAX_RANK``): the
    class-value means of one sweep over all specs (:func:`_class_means`, which
    sums each distinct orbit once and applies ``beta_i`` at the end), expanded;
    per spec, the result is :func:`empirical_embedding_mean`."""
    specs = list(specs)
    means = _class_means(specs, n_samples, seed)
    return [tuple(map(tensor_from_class_values, comps, spec.alpha)) for spec, comps in zip(specs, means)]


def empirical_embedding_mean(spec: EmbeddingSpec, n_samples: int, seed: int = 0) -> tuple[np.ndarray, ...]:
    """Mean embedding of ``n_samples`` Haar rotations, one tensor per component:
    the one-spec sweep of :func:`empirical_embedding_means`."""
    return empirical_embedding_means([spec], n_samples, seed=seed)[0]


def mean_check(spec: EmbeddingSpec, n_samples: int, seed: int = 0) -> float:
    """Norm of the empirical mean embedding under Haar sampling.

    Centered embeddings have expectation zero, so this norm shrinks like
    ``radius / sqrt(n)``; values beyond about five times that indicate a
    centering or orientation bug.  Uncentered specs have a nonzero mean by
    construction and are rejected.
    """
    if not spec.centered:
        raise ValueError("mean_check applies to centered specs only")
    return _mean_norms([spec], n_samples, seed=seed)[0]


def rank_check(
    spec: EmbeddingSpec, n_samples: int = 500, seed: int = 0, symmetrized: bool = False
) -> int:
    """Numerical rank of the span of sampled centered embedding tensors.

    Embeddings are taken in orthonormal symmetric-class coordinates (class
    values times the square roots of the class sizes, a linear isometry),
    stacked into an ``n_samples`` row matrix, and the rank is the count of
    singular values above ``1e-8`` times the largest.

    By default the component maps ``R -> (R u_i)^{x alpha_i}`` are sampled
    without group averaging; the result then reaches the
    :func:`expected_hull_dimension` bound for every registered spec except
    D2, whose orthonormal directions obey ``sum_i (R e_i)^{x 2} = I`` and
    span 10 instead of 15.  With ``symmetrized=True`` the group-averaged map
    itself is sampled.  Averaging can annihilate harmonic blocks of a
    component (for example the rank-3 component of C3 loses its vector part
    because the orbit of ``u`` sums to zero) or tie blocks of different
    components together, so the symmetrized span can be strictly smaller.
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
    comps = class_values(sampled, mats)
    rows = np.concatenate([v * np.sqrt(class_multiplicities(a)) for v, a in zip(comps, spec.alpha)], axis=1)
    svals = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(svals > 1e-8 * svals[0]))
