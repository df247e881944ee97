"""Isometry verification and distance-distortion analysis for coset embeddings.

The differential of an embedding at the identity coset maps the tangent basis
``TANGENT_BASIS`` to three tensor tuples; the embedding preserves geodesic
distance to first order exactly when their Gram matrix is the identity.
Tangent images, means and rank samples are computed as class values (see
``tensors``) and expanded to dense tensors only where the API returns them.
Closed-form tangent norms exist for the rank-k cyclic component and yield the
registered isometric weights through :func:`derive_beta`.

Beyond the infinitesimal picture, :func:`global_bounds` estimates the global
distortion envelope ``c_min <= |E1 - E2| / d([R1], [R2]) <= c_max`` by Haar
sampling plus a deterministic near-identity ladder and local refinement.
Embedded distances are evaluated through the pairwise closed form

    <E(R1), E(R2)> = sum_i beta_i^2 sum_{j,j'} w_j w_j' <R1 v_j, R2 v_j'>^alpha_i

over the orbit vectors, which avoids materializing any tensors and makes
1e5-pair sweeps cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import optimize

from .embedding import EmbeddingSpec, class_values, registry_lookup
from .so3 import TANGENT_BASIS, group_elements, quaternions_to_matrices, random_quaternions
from .tensors import class_monomials, class_multiplicities, monomial_derivatives, tensor_from_class_values, tuple_norm

# Bound but not called: bench/spans.py traces these names in this module.
from .embedding import radius  # noqa: F401
from .tensors import class_counts, inner, invariant_tensor, sym_coordinates  # noqa: F401

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
    images at the identity: along the skew ``s`` the power ``v^{x alpha}`` moves
    by ``grad m(v) . (s v)`` for each class monomial ``m``.  Centering is a
    constant shift and drops out."""
    out = []
    for (vecs, wts), a, b in zip(spec.orbits, spec.alpha, spec.beta):
        grads = monomial_derivatives(a).transpose(0, 2, 1) @ class_monomials(vecs.T, a - 1)  # (3, C, orbit)
        moved = TANGENT_BASIS @ vecs.T  # (3 tangents, 3, orbit)
        out.append(b * np.einsum("ldj,dcj,j->lc", moved, grads, wts))
    return out


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


def _b_norms_exact(k: int) -> tuple[Fraction, Fraction]:
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
    beta1_sq = 1 - Fraction(b2, b1)
    if family == "D":
        beta1_sq /= 2
    if beta1_sq <= 0:
        raise ValueError(f"no real isometric weights for {family}{k}: |B_2|^2 exceeds |B_1|^2")
    return math.sqrt(float(beta1_sq)), 1.0 / math.sqrt(float(b1))


# ---------------------------------------------------------------------------
# fast pairwise distances through the orbit inner-product form


def _uncentered_radius_sq(spec: EmbeddingSpec) -> float:
    total = 0.0
    for (vecs, wts), a, b in zip(spec.orbits, spec.alpha, spec.beta):
        gram = vecs @ vecs.T
        total += b * b * float(wts @ (gram**a) @ wts)
    return total


def _pair_inner(spec: EmbeddingSpec, rel: np.ndarray) -> np.ndarray:
    """<E(I), E(Q)> for a batch of relative rotations Q, uncentered."""
    total = np.zeros(rel.shape[0])
    for (vecs, wts), a, b in zip(spec.orbits, spec.alpha, spec.beta):
        gram = np.einsum("ja,nab,kb->njk", vecs, rel, vecs, optimize=True)
        total += b * b * np.einsum("njk,j,k->n", gram**a, wts, wts, optimize=True)
    return total


def _embedded_distances(spec: EmbeddingSpec, rel: np.ndarray) -> np.ndarray:
    """|E(R1) - E(R2)| for relative rotations R1^T R2; centering cancels."""
    r_sq = _uncentered_radius_sq(spec)
    return np.sqrt(np.clip(2.0 * r_sq - 2.0 * _pair_inner(spec, rel), 0.0, None))


def _coset_angles(spec: EmbeddingSpec, quats: np.ndarray) -> np.ndarray:
    """Quotient geodesic distance of each rotation to the identity coset."""
    overlap = np.abs(quats @ spec.group.quaternions.T).max(axis=1)
    return 2.0 * np.arccos(np.clip(overlap, -1.0, 1.0))


def _ratio_batch(spec: EmbeddingSpec, quats: np.ndarray, floor: float = 1e-9):
    mats = quaternions_to_matrices(quats)
    d_geo = _coset_angles(spec, quats)
    d_emb = _embedded_distances(spec, mats)
    keep = d_geo > floor
    return d_geo[keep], d_emb[keep]


def _ratio_single(spec: EmbeddingSpec, rotvec: np.ndarray) -> float:
    angle = float(np.linalg.norm(rotvec))
    if angle < 1e-12:
        return math.nan
    axis = rotvec / angle
    angle = min(max(angle, 1e-7), math.pi)  # clamp away from the removable singularity
    q = np.concatenate([[math.cos(angle / 2.0)], math.sin(angle / 2.0) * axis])
    d_geo, d_emb = _ratio_batch(spec, q[None, :], floor=1e-12)
    if d_geo.size == 0:
        return math.nan
    return float(d_emb[0] / d_geo[0])


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
    axes = rng.standard_normal((n_axes, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    half = 0.5 * angles[:, None, None]
    w = np.broadcast_to(np.cos(half), (angles.size, n_axes, 1))
    xyz = np.sin(half) * axes[None, :, :]
    return np.concatenate([w, xyz], axis=2).reshape(-1, 4)


def global_bounds(
    spec: EmbeddingSpec,
    n_pairs: int = 100_000,
    refine: bool = True,
    seed: int = 0,
) -> BoundsEstimate:
    """Estimate the global bounds on ``|E1 - E2| / d([R1], [R2])``.

    Haar pair sampling reduces to sampling the relative rotation; a
    deterministic near-identity ladder captures the small-distance limit, and
    optional Nelder-Mead refinement polishes the 10 worst samples at each end
    (at most 200 ratio evaluations per start).  Deterministic given ``seed``,
    and the sample stream is nested: the first n draws of a 2n-pair run are
    the n-pair run's draws.

    Returns
    -------
    BoundsEstimate
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    ss = np.random.SeedSequence(seed)
    pair_seq, ladder_seq = ss.spawn(2)
    pair_rng = np.random.default_rng(pair_seq)

    geos = []
    embs = []
    done = 0
    while done < n_pairs:  # chunked to bound peak memory on large orbits
        block = min(20_000, n_pairs - done)
        d_geo, d_emb = _ratio_batch(spec, random_quaternions(pair_rng, block))
        geos.append(d_geo)
        embs.append(d_emb)
        done += block
    d_geo, d_emb = np.concatenate(geos), np.concatenate(embs)
    lad_geo, lad_emb = _ratio_batch(spec, _ladder_quaternions(np.random.default_rng(ladder_seq)))
    d_geo = np.concatenate([d_geo, lad_geo])
    d_emb = np.concatenate([d_emb, lad_emb])
    ratios = d_emb / d_geo

    c_min = float(ratios.min())
    c_max = float(ratios.max())
    evaluations = 0
    if refine:
        # Rebuild the rotation vectors of every probed rotation; the pair
        # stream is regenerated from its seed so the chunking above does not
        # have to retain the quaternions.
        rot_qs = np.concatenate(
            [
                random_quaternions(np.random.default_rng(pair_seq), n_pairs),
                _ladder_quaternions(np.random.default_rng(ladder_seq)),
            ]
        )
        mask = _coset_angles(spec, rot_qs) > 1e-9
        rot_qs = rot_qs[mask]
        halves = np.arccos(np.clip(np.abs(rot_qs[:, 0]), -1.0, 1.0))
        signs = np.where(rot_qs[:, 0] < 0.0, -1.0, 1.0)
        norms = np.linalg.norm(rot_qs[:, 1:], axis=1)
        safe = np.maximum(norms, 1e-300)
        rotvecs = (2.0 * halves * signs / safe)[:, None] * rot_qs[:, 1:]

        for which in ("min", "max"):
            sign = 1.0 if which == "min" else -1.0

            def penalized(x, s=sign):
                r = _ratio_single(spec, x)
                return 1e6 if math.isnan(r) else s * r

            order = np.argsort(sign * ratios)[:10]
            for idx in order:
                res = optimize.minimize(
                    penalized,
                    rotvecs[idx],
                    method="Nelder-Mead",
                    options={"maxfev": 200, "xatol": 1e-8, "fatol": 1e-13},
                )
                evaluations += int(res.nfev)
                val = sign * float(res.fun)
                if which == "min" and math.isfinite(val) and val < c_min:
                    c_min = val
                elif which == "max" and math.isfinite(val) and abs(val) < 1e5 and val > c_max:
                    c_max = val
    return BoundsEstimate(c_min=c_min, c_max=c_max, sample_count=int(n_pairs), refine_evaluations=evaluations)


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
    rng = np.random.default_rng(seed)
    d_geo, d_emb = _ratio_batch(spec, random_quaternions(rng, n_pairs))
    return np.column_stack([d_geo, d_emb])


# ---------------------------------------------------------------------------
# push-forward mean and rank diagnostics


def empirical_embedding_mean(spec: EmbeddingSpec, n_samples: int, seed: int = 0) -> tuple[np.ndarray, ...]:
    """Mean embedding of ``n_samples`` Haar rotations, one tensor per component.

    Summed as class values in blocks of 512 rotations, so the cost per sample
    is polynomial in the rank and memory stays flat.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    mats = quaternions_to_matrices(random_quaternions(rng, n_samples))
    sums = [np.zeros(math.comb(a + 2, 2)) for a in spec.alpha]
    for start in range(0, n_samples, 512):
        for acc, vals in zip(sums, class_values(spec, mats[start : start + 512])):
            acc += vals.sum(axis=0)
    return tuple(tensor_from_class_values(acc / n_samples, a) for acc, a in zip(sums, spec.alpha))


def mean_check(spec: EmbeddingSpec, n_samples: int, seed: int = 0) -> float:
    """Norm of the empirical mean embedding under Haar sampling.

    Centered embeddings have expectation zero, so this norm shrinks like
    ``radius / sqrt(n)``; values beyond about five times that indicate a
    centering or orientation bug.  Uncentered specs have a nonzero mean by
    construction and are rejected.
    """
    if not spec.centered:
        raise ValueError("mean_check applies to centered specs only")
    return tuple_norm(empirical_embedding_mean(spec, n_samples, seed=seed))


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
