"""Projection of ambient tensor tuples back onto an embedded quotient.

Given a target tuple T, the closest embedded point maximizes the linear
objective ``J(R) = <E([R]), T>`` because every embedded point has the same
norm.  Targets arrive as flat rows of dense tensors (``EmbeddingSpec.columns``).
By equivariance, ``J(exp(A) R) = <E(R), rho(exp A)^T T>``, so J, its gradient
and its Hessian are linear in the class values of ``E(R)``; each target is
turned once into those linear maps (see ``_Targets``), and no outer power is
ever materialized during the ascent.

The solver is a Riemannian Newton ascent with an exponential-map retraction:
the Newton step where the 3 x 3 Hessian in the tangent basis is negative
definite, a gradient step elsewhere, and Armijo backtracking on both.  It
runs from a small multi-start family: one seed from the Kabsch alignment of
two or more rank-1 components (when unique) plus low-discrepancy seeds from a
super-Fibonacci spiral on the quaternion sphere, turned as a whole by a Haar
rotation drawn from the seed.  Seeds are screened by their initial
objective, ascents run from the most promising ones, and a run that reaches
the Cauchy-Schwarz upper bound ``radius * |T|`` certifies global optimality
and stops the search early.  Everything is deterministic given the seed.

One array core projects a whole table: per row the answer's unit quaternion,
objective, residual, iteration count and converged flag, and a zero-row mask;
a row whose squared norm is not finite is rejected first.  :func:`project_many`
and :func:`project` build their objects from those arrays, the CLI writes its
rows from them.  Every (target, start) ascent is one lane of a lockstep
iteration over ``(M, 4)`` quaternion and ``(M, 3, 3)`` matrix arrays, with the
objective, gradient and Hessian of all lanes evaluated in one batch.  Each lane
keeps its own step, iteration count and stopping rule, and its products are
matrix products of its own, so no row's result depends on the other rows.  The
best screened start of every target runs first; the remaining starts of the
targets it did not certify then run together, and the runs are resolved in
screened order exactly as if run one after another.  A large table runs in
batches of rows whose lanes' power tables fit a fixed entry budget, so memory
stays bounded; one batch of image rows then gives their objectives and residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingSpec, _tangent_operators, class_values, dense_rows, embed, radius
from .so3 import Coset, Rotation, _quat_product, normalized_quaternions, quaternions_from_matrices
from .so3 import quaternions_to_matrices, random_quaternions
from .tensors import class_multiplicities, class_sums, inner

# Bound but not called: bench/spans.py traces this name in this module.
from .tensors import invariant_tensor  # noqa: F401

__all__ = [
    "DegenerateConfigurationError",
    "DegenerateInputError",
    "ProjectionResult",
    "gradient",
    "hessian",
    "kabsch",
    "objective",
    "project",
    "project_many",
]


class DegenerateConfigurationError(ValueError):
    """The alignment problem has no unique maximizer (correlation rank < 2)."""


class DegenerateInputError(ValueError):
    """The projection target carries no directional information."""


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of a projection.

    ``residual**2 = |target|**2 + radius**2 - 2 * objective`` holds up to
    round-off because embedded points all share the same norm.  ``iterations``
    counts ascent steps across all executed starts; ``converged`` says that the best
    run met the gradient tolerance: a stationary point, not necessarily the global maximum.
    """

    coset: Coset
    objective: float
    residual: float
    iterations: int
    converged: bool


def kabsch(us, vs) -> Rotation:
    """The rotation maximizing ``sum_i <R u_i, v_i>``.

    Standard singular-value alignment of the correlation matrix
    ``H = sum_i u_i v_i^T`` with the determinant sign fix that keeps the
    result a proper rotation.

    Raises
    ------
    DegenerateConfigurationError
        If H has rank below 2, in which case the maximizer is not unique.
    """
    us = np.atleast_2d(np.asarray(us, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    if us.shape != vs.shape or us.ndim != 2 or us.shape[1] != 3:
        raise ValueError(f"expected matching (n, 3) arrays, got {us.shape} and {vs.shape}")
    if us.shape[0] < 2:
        raise DegenerateConfigurationError("at least two vector pairs are required")
    q, unique = _kabsch_quaternions(us, vs[None])
    if not unique[0]:
        raise DegenerateConfigurationError("correlation matrix has rank < 2; alignment is not unique")
    return Rotation(q[0])


def _kabsch_quaternions(us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`kabsch` alignments of ``us`` ``(n, 3)`` with each of ``N`` tables
    ``vs`` ``(N, n, 3)``: unit quaternions ``(N, 4)`` and the mask of the tables whose
    maximizer is unique (correlation rank at least 2); other rows are not meaningful."""
    h = us.T @ vs
    u, s, vt = np.linalg.svd(h)
    unique = ~(s[:, 1] <= 1e-12 * np.maximum(s[:, 0], 1e-300))
    v, ut = np.swapaxes(vt, 1, 2), np.swapaxes(u, 1, 2)
    fix = np.repeat(np.eye(3)[None], len(h), axis=0)  # diag(1, 1, det): the proper rotation
    fix[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    return quaternions_from_matrices(v @ fix @ ut), unique


# ---------------------------------------------------------------------------
# fast objective/gradient evaluation

# Sum g_l s_l over the tangent basis is the cross-product matrix of (g1, -g2, g3).
_AXIS_SIGNS = np.array([1.0, -1.0, 1.0])


def _flatten(spec: EmbeddingSpec, target) -> np.ndarray:
    """One target tuple as a checked flat row (row-major components)."""
    target = [np.asarray(t, dtype=float) for t in target]
    if len(target) != spec.n_components:
        raise ValueError(f"target has {len(target)} components, spec expects {spec.n_components}")
    for a, t in zip(spec.alpha, target):
        if t.shape != (3,) * a:
            raise ValueError(f"target component has shape {t.shape}, expected {(3,) * a}")
    return np.concatenate([t.ravel() for t in target])


@dataclass(frozen=True)
class _Targets:
    """Per-target precomputation for batched objective evaluations and derivatives.

    ``P(w) = <w^{x a}, T>`` is a degree-a homogeneous polynomial whose monomial
    coefficients ``p`` are the index-class sums of T (so only the symmetric part
    of the target ever enters, as it must).  With ``v`` the class values of
    ``E(R)`` and ``L`` the cached ``embedding._tangent_operators``, the value,
    gradient and Hessian of ``J(exp(A) R)`` in the tangent basis are ``v . p``,
    ``v . L_l p`` and ``v . (L_k L_l + L_l L_k) p / 2``: ``maps`` holds those 13
    vectors.  Centered class values give the centered value; the isotropic
    offset is rotation invariant, so ``L[l].T`` annihilates it and no
    derivative sees it.

    Evaluations pair row ``m`` with rotation matrix ``mats[m]`` of an
    ``(N, 3, 3)`` stack; ``take`` selects and repeats rows.
    """

    spec: EmbeddingSpec
    maps: list  # per component, (N, classes, 13): value, gradient (3), Hessian (3 x 3)
    sym_norm: np.ndarray  # (N,), norm of the symmetric part of each target

    @classmethod
    def from_rows(cls, spec: EmbeddingSpec, rows: np.ndarray, scale=1.0) -> "_Targets":
        """From ``N`` flat target rows ``(N, ambient_dimension)``, each divided by
        its entry of ``scale`` ``(N,)``."""
        maps, sym_sq = [], np.zeros(len(rows))
        for a, cols in zip(spec.alpha, spec.columns):
            coeff = class_sums(rows[:, cols], a) / np.reshape(scale, (-1, 1))
            sym_sq += coeff**2 @ (1.0 / class_multiplicities(a))  # |sym(t)|^2
            turn = _tangent_operators(a).transpose(0, 2, 1)  # p @ turn[l] = (L_l p)^T
            first = coeff @ turn  # (3, N, C)
            second = first @ turn[:, None]  # [k, l] = L_k L_l p
            hess = 0.5 * (second + second.transpose(1, 0, 2, 3))
            maps.append(np.stack([coeff, *first, *hess.reshape(9, len(rows), -1)], axis=2))
        return cls(spec, maps, np.sqrt(sym_sq))

    def take(self, idx: np.ndarray) -> "_Targets":
        return _Targets(self.spec, [m[idx] for m in self.maps], self.sym_norm[idx])

    def derivatives(self, mats: np.ndarray):
        """Value ``(N,)``, gradient ``(N, 3)`` and Hessian ``(N, 3, 3)`` in the tangent basis."""
        # C-contiguous operands: each lane, alone or in any batch, takes the same matmul kernel
        vals = class_values(self.spec, mats)
        out = sum((np.ascontiguousarray(v)[:, None, :] @ m)[:, 0] for v, m in zip(vals, self.maps))
        return out[:, 0], out[:, 1:4], out[:, 4:].reshape(len(mats), 3, 3)


def objective(spec: EmbeddingSpec, r: Rotation, target) -> float:
    """``<embed(spec, [r]), target>``, the quantity projection maximizes.

    Centering only shifts the value by a target-dependent constant and never
    moves the argmax.  Bounded above by ``radius(spec) * |target|`` with
    equality exactly on the ray through the embedded coset.
    """
    return inner(embed(spec, r).value, tuple(np.asarray(t, dtype=float) for t in target))


def gradient(spec: EmbeddingSpec, r: Rotation, target) -> np.ndarray:
    """Gradient of the projection objective in the tangent basis at ``r``."""
    return _Targets.from_rows(spec, _flatten(spec, target)[None]).derivatives(r.matrix[None])[1][0]


def hessian(spec: EmbeddingSpec, r: Rotation, target) -> np.ndarray:
    """Hessian ``(3, 3)`` of the projection objective in the tangent basis at ``r``:
    the second derivatives of ``J(exp(sum_l e_l TANGENT_BASIS[l]) r)`` at ``e = 0``."""
    return _Targets.from_rows(spec, _flatten(spec, target)[None]).derivatives(r.matrix[None])[2][0]


# ---------------------------------------------------------------------------
# multi-start ascent

# Entries per lockstep batch of rows.  Every lane holds its orbit monomials and
# its 13 maps (``_Targets``) at once, so batching bounds the memory of a large
# table; rows are independent, so the batch size changes a result only by round-off.
_BLOCK_ENTRIES = 2**20

# Ascents run per target at most, taken from the starts in screened order.
_MAX_RUNS = 8

# Longest step of an ascent iteration, in radians.
_MAX_STEP = 0.5


# Super-Fibonacci spiral constants: sqrt(2) and the real root of psi^4 = psi + 4.
_PHI = math.sqrt(2.0)
_PSI = 1.533751168755204288118041


def _spiral_quaternions(n: int, seed: int) -> np.ndarray:
    """Low-discrepancy rotation seeds ``(n, 4)``: the super-Fibonacci spiral
    (M. Alexa, "Super-Fibonacci Spirals: Fast, Low-Discrepancy Sampling of
    SO(3)", CVPR 2022), turned as a whole by one Haar rotation drawn from
    ``seed``."""
    s = np.arange(n) + 0.5
    near, far = np.sqrt(s / n), np.sqrt(1.0 - s / n)
    alpha, beta = (2.0 * math.pi / _PHI) * s, (2.0 * math.pi / _PSI) * s
    spiral = np.column_stack([near * np.sin(alpha), near * np.cos(alpha), far * np.sin(beta), far * np.cos(beta)])
    return _quat_product(random_quaternions(np.random.default_rng(seed), 1), spiral)


def _ascent_steps(g: np.ndarray, h: np.ndarray, gn: np.ndarray) -> np.ndarray:
    """Tangent steps ``(M, 3)`` in radians from gradients ``g``, Hessians ``h`` and
    gradient norms ``gn``: the Newton step ``-h^{-1} g`` where ``-h`` is positive
    definite, elsewhere the gradient scaled to the maximum of ``J`` along it in the
    quadratic model, or to ``_MAX_STEP`` where that model has no maximum; no step is
    longer than ``_MAX_STEP``.

    ``-h`` is positive definite exactly where its Cholesky factor ``L`` has three
    positive pivots; the factor and the two triangular solves are written out
    entry by entry over all lanes, and a failed pivot leaves its lane nan.
    """
    a = -h
    with np.errstate(divide="ignore", invalid="ignore"):
        l00 = np.sqrt(a[:, 0, 0])
        l10, l20 = a[:, 1, 0] / l00, a[:, 2, 0] / l00
        l11 = np.sqrt(a[:, 1, 1] - l10 * l10)
        l21 = (a[:, 2, 1] - l20 * l10) / l11
        l22 = np.sqrt(a[:, 2, 2] - l20 * l20 - l21 * l21)
        y0 = g[:, 0] / l00  # L y = g
        y1 = (g[:, 1] - l10 * y0) / l11
        y2 = (g[:, 2] - l20 * y0 - l21 * y1) / l22
        x2 = y2 / l22  # L^T x = y
        x1 = (y1 - l21 * x2) / l11
        x0 = (y0 - l10 * x1 - l20 * x2) / l00
    newton = (l00 > 0.0) & (l11 > 0.0) & (l22 > 0.0)
    step = np.where(newton[:, None], np.column_stack([x0, x1, x2]), g)
    length = np.sqrt(np.add.reduce(step * step, axis=1))
    curv = (g[:, None, :] @ a @ g[:, :, None])[:, 0, 0]  # g^T (-h) g
    model = np.divide(gn**3, curv, out=np.full_like(curv, np.inf), where=curv > 0.0)
    return step * (np.minimum(np.where(newton, length, model), _MAX_STEP) / length)[:, None]


def _lockstep_ascent(ev: _Targets, q: np.ndarray, tol: float, max_iter: int):
    """Riemannian Newton ascent with a gradient fallback from the seed quaternions
    ``q`` ``(M, 4)``, one lane each; lane ``m`` climbs the target of row ``m``
    of ``ev``.

    Each iteration evaluates the value, gradient and 3 x 3 Hessian in the
    tangent basis and proposes a step (``_ascent_steps``): the Newton step where
    the Hessian is negative definite, a gradient step elsewhere.  The step
    rotates the iterate by ``exp(sum_l e_l TANGENT_BASIS[l])`` on the left
    (P.-A. Absil, R. Mahony, R. Sepulchre, *Optimization Algorithms on Matrix
    Manifolds*, 2008, ch. 6-7).  It is accepted when the objective rises by the
    Armijo fraction 1e-4 of its first-order prediction, and halved otherwise.
    Near the maximum the objective's gains drop below float resolution, so there
    a step that lowers the objective by no more than that resolution is
    accepted when it lowers the gradient norm; this lets the iteration contract
    down to the gradient tolerance instead of stalling at ~1e-9.  The rule
    holds for gradient steps too: at a degenerate maximum, such as a rank-1
    alignment that leaves one axis free, the Hessian is only semidefinite.

    Each pass of the loop evaluates one trial step on every live lane: a lane
    whose step is accepted opens its next iteration at the new point, whose
    derivatives the pass already gave, and a lane whose step is rejected halves
    it.  A lane leaves when it converges, reaches ``max_iter`` iterations or its
    step underflows or is nan, and the live state is compacted.

    Returns per lane the final quaternion, objective, iteration count and
    whether the gradient tolerance was met.
    """
    out_q, out_j = q.copy(), np.empty(len(q))
    out_iter, out_conv = np.zeros(len(q), dtype=np.int64), np.zeros(len(q), dtype=bool)
    ids = np.arange(len(q))
    j, g, h = ev.derivatives(quaternions_to_matrices(q))
    iters = np.zeros(len(q), dtype=np.int64)
    gn, step, angle = np.zeros(len(q)), np.zeros((len(q), 3)), np.zeros(len(q))
    opening = np.ones(len(q), dtype=bool)  # lanes that start a new iteration
    while True:
        gn = np.where(opening, np.sqrt(np.add.reduce(g * g, axis=1)), gn)
        converged = opening & (gn < tol)
        # A lane whose step underflowed is numerically stationary; one whose
        # step is nan (an overflowing gradient) has nowhere to go.
        leave = converged | (opening & (iters >= max_iter)) | (~opening & ~(angle > 1e-15))
        if leave.any():
            out = ids[leave]
            out_q[out], out_j[out], out_iter[out], out_conv[out] = q[leave], j[leave], iters[leave], converged[leave]
            keep = ~leave
            if not keep.any():
                return out_q, out_j, out_iter, out_conv
            ids, q, j, g, h, iters, gn, step, angle, opening = (
                x[keep] for x in (ids, q, j, g, h, iters, gn, step, angle, opening)
            )
            ev = ev.take(keep)
        iters += opening
        if opening.any():
            step = np.where(opening[:, None], _ascent_steps(g, h, gn), step)
            angle = np.sqrt(np.add.reduce(step * step, axis=1))

        rot = np.empty((len(q), 4))
        rot[:, 0] = np.cos(0.5 * angle)
        rot[:, 1:] = (np.sin(0.5 * angle) / angle)[:, None] * step * _AXIS_SIGNS
        q_new = _quat_product(rot, q)
        q_new /= np.sqrt(np.add.reduce(q_new * q_new, axis=1))[:, None]
        j_new, g_new, h_new = ev.derivatives(quaternions_to_matrices(q_new))
        gain = j_new - j
        resolution = 1e-13 * (1.0 + np.abs(j))
        rises = (gain > resolution) & (gain >= 1e-4 * np.add.reduce(g * step, axis=1))
        accepted = (gain >= -resolution) & (rises | (np.add.reduce(g_new * g_new, axis=1) < gn * gn))

        q = np.where(accepted[:, None], q_new, q)
        j = np.where(accepted, j_new, j)
        g = np.where(accepted[:, None], g_new, g)
        h = np.where(accepted[:, None, None], h_new, h)
        step = np.where(accepted[:, None], step, 0.5 * step)
        angle = np.where(accepted, angle, 0.5 * angle)
        opening = accepted


def project(
    spec: EmbeddingSpec,
    target,
    *,
    tol: float = 1e-10,
    max_iter: int = 200,
    starts: int | None = None,
    seed: int = 0,
) -> ProjectionResult:
    """Project an ambient tensor tuple onto the embedded quotient.

    Parameters
    ----------
    spec : EmbeddingSpec
    target : sequence of ndarray
        One tensor per component, shapes ``(3,) * alpha_i``.  Need not be
        symmetric or close to the image.
    tol : float
        Gradient norm below which a run counts as converged, relative to the
        target's norm: the ascent climbs ``target / |target|``.
    max_iter : int
        Ascent iteration cap per start.
    starts : int, optional
        Number of spiral seeds; defaults to ``max(8, |S|)``.
    seed : int
        Seed of the Haar rotation that turns the super-Fibonacci spiral of
        starts; the whole call is pure given it.

    Returns
    -------
    ProjectionResult
        Best run by objective (ties: lowest seed index) from the ``_MAX_RUNS``
        best screened seeds.  For a spec over the trivial group with all ranks
        1 the solution is the closed-form Kabsch alignment, unless that
        alignment is not unique (correlation rank below 2).

    Raises
    ------
    DegenerateInputError
        If the target is identically zero.
    ValueError
        If the target is not finite or its squared norm overflows.
    """
    result = project_many(spec, _flatten(spec, target)[None], tol=tol, max_iter=max_iter, starts=starts, seed=seed)[0]
    if isinstance(result, DegenerateInputError):
        raise result
    return result


def project_many(
    spec: EmbeddingSpec,
    targets,
    *,
    tol: float = 1e-10,
    max_iter: int = 200,
    starts: int | None = None,
    seed: int = 0,
) -> list[ProjectionResult | DegenerateInputError]:
    """Project every row of a table onto the embedded quotient.

    Parameters
    ----------
    spec : EmbeddingSpec
    targets : array_like
        Shape ``(N, spec.ambient_dimension)``: one target tuple per row in the
        layout of ``spec.columns``, as ``EmbeddedPoint.flatten`` gives it.
    tol, max_iter, starts, seed
        As for :func:`project`, shared by all rows.

    Returns
    -------
    list
        Per row, the :class:`ProjectionResult` that :func:`project` returns
        for that row alone, or a :class:`DegenerateInputError` for a row that
        is identically zero.

    Raises
    ------
    ValueError
        If a row is not finite or its squared norm overflows; the message
        names the first such row.
    """
    quats, *columns, zero = _project_table(spec, targets, tol, max_iter, starts, seed)
    return [
        DegenerateInputError(_ZERO_ROW) if z else ProjectionResult(Coset(Rotation(q), spec.group), j, d, k, c)
        for q, j, d, k, c, z in zip(quats, *(col.tolist() for col in columns), zero)
    ]


_ZERO_ROW = "cannot project the zero tuple: no direction is preferred"


class _NonFiniteRowError(ValueError):
    """A target row that is not finite or whose squared norm overflows; ``row`` is its index."""

    def __init__(self, row: int):
        super().__init__(f"target row {row} is not finite or its squared norm overflows")
        self.row = row


def _project_table(spec: EmbeddingSpec, targets, tol: float, max_iter: int, starts: int | None, seed: int):
    """The array core of :func:`project_many`: per target row, the answer's unit
    quaternion ``(N, 4)``, objective, residual, iteration count and converged
    flag, and the mask of zero rows, whose other entries are nan, 0 and false."""
    rows = np.asarray(targets, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != spec.ambient_dimension:
        raise ValueError(f"expected targets of shape (N, {spec.ambient_dimension}), got {rows.shape}")
    n_starts = max(8, len(spec.group)) if starts is None else int(starts)
    if n_starts < 1:
        raise ValueError("starts must be positive")
    squares = np.einsum("ij,ij->i", rows, rows)
    bad = np.flatnonzero(~np.isfinite(squares))
    if bad.size:
        raise _NonFiniteRowError(int(bad[0]))
    zero = squares == 0.0
    zero[zero] = ~rows[zero].any(axis=1)  # the squares of tiny entries underflow: those rows' entries decide
    # A row whose squared norm underflows is first scaled by 2**600, exactly, so
    # that its norm keeps full precision.
    norms = np.sqrt(squares)
    low = squares < np.finfo(float).tiny
    if low.any():
        up = rows[low] * 2.0**600
        norms[low] = np.sqrt(np.einsum("ij,ij->i", up, up)) * 2.0**-600
    out = (np.full((len(rows), 4), np.nan), np.full(len(rows), np.nan), np.full(len(rows), np.nan),
           np.zeros(len(rows), dtype=np.int64), np.zeros(len(rows), dtype=bool))
    live = np.flatnonzero(~zero)
    spiral = _spiral_quaternions(n_starts, seed)
    # A lane counts orbit * (alpha + 1)**2 entries per component.
    lane = sum(len(vecs) * (a + 1) ** 2 for (vecs, _), a in zip(spec.orbits, spec.alpha))
    size = max(1, _BLOCK_ENTRIES // ((n_starts + 1) * lane))
    for lo in range(0, len(live), size):
        block = live[lo : lo + size]
        sub = rows[lo : lo + size] if len(live) == len(rows) else rows[block]  # a view when no row is zero
        for column, part in zip(out, _project_block(spec, sub, norms[block], spiral, tol, max_iter)):
            column[block] = part
    return (*out, zero)


def _project_block(spec, rows, norms, spiral, tol, max_iter):
    """The columns of :func:`_project_table` for the nonzero rows ``rows`` of norms ``norms``,
    their ascents in lockstep."""
    rank1 = [i for i, a in enumerate(spec.alpha) if a == 1]
    # Each rank-1 component is beta_i * R v_mean with v_mean the orbit average, so two
    # or more make a Kabsch problem (one vector pair never has a unique alignment).
    # Over the trivial group with all ranks 1 that alignment is the answer itself.
    aligned, unique = np.empty((len(rows), 4)), np.zeros(len(rows), dtype=bool)
    if len(rank1) >= 2:
        us = np.array([spec.orbits[i][1] @ spec.orbits[i][0] for i in rank1])
        vs = np.stack([spec.beta[i] * rows[:, spec.columns[i]] for i in rank1], axis=1)
        aligned, unique = _kabsch_quaternions(us, vs)
        aligned[unique] = normalized_quaternions(aligned[unique])  # as Rotation does
    closed_form = len(spec.group) == 1 and len(rank1) == spec.n_components
    # per row: (quaternion, iterations, converged); a row without a unique alignment climbs like any other
    answers = [(aligned[t], 0, True) if closed_form and unique[t] else None for t in range(len(rows))]
    seeds = [np.concatenate([aligned[t : t + 1], spiral]) if unique[t] else spiral for t in range(len(rows))]

    # The ascents climb the unit targets T / |T|: the argmax is the same, ``tol``
    # is relative to |T|, and no target is small or large enough for its
    # derivatives to under- or overflow.
    ev = _Targets.from_rows(spec, rows, norms)
    counts = [len(s) for s in seeds]
    # The screen reads each start's value map (column 0 of ``maps``) alone, not a copy of all 13.
    lanes = np.repeat(np.arange(len(seeds)), counts)
    vals = class_values(spec, quaternions_to_matrices(np.concatenate(seeds)))
    initial = sum((np.ascontiguousarray(v)[:, None, :] @ m[lanes, :, :1])[:, 0, 0] for v, m in zip(vals, ev.maps))
    orders = [np.argsort(-v, kind="stable")[:_MAX_RUNS] for v in np.split(initial, np.cumsum(counts)[:-1])]
    certificate = radius(spec) * ev.sym_norm * (1.0 - 1e-10)

    # runs[t]: (seed index, quaternion, objective, iterations, converged) in screened order.
    runs = [[] for _ in seeds]

    def climb(lanes):
        if not lanes:
            return
        lane_t = np.array([t for t, _ in lanes], dtype=np.int64)
        q0 = np.array([seeds[t][k] for t, k in lanes])
        for (t, k), *run in zip(lanes, *_lockstep_ascent(ev.take(lane_t), q0, tol, max_iter)):
            runs[t].append((k, *run))

    # The best screened seed of every open target first, then all further
    # seeds of the targets that its run left uncertified.
    open_ = [t for t, answer in enumerate(answers) if answer is None]
    climb([(t, int(orders[t][0])) for t in open_])
    climb([(t, int(k)) for t in open_ if runs[t][0][2] < certificate[t] for k in orders[t][1:]])

    for t in open_:
        best, total = None, 0
        for k, q, j, iters, conv in runs[t]:
            total += int(iters)
            if best is None or j > best[0] or (j == best[0] and k < best[1]):
                best = (j, k, q, bool(conv))
            if j >= certificate[t]:
                # No other start can improve the objective by more than
                # 1e-10 * radius * |target|: stop searching.
                break
        answers[t] = (normalized_quaternions(best[2][None])[0], total, best[3])  # as Rotation does
    quats, iterations, converged = (np.array(column) for column in zip(*answers))
    images = dense_rows(spec, class_values(spec, quaternions_to_matrices(quats)))
    objectives = np.einsum("ij,ij->i", images, rows)
    residuals = np.sqrt(np.sum(np.square(np.subtract(images, rows, out=images), out=images), axis=1))
    return quats, objectives, residuals, iterations, converged
