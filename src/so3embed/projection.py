"""Projection of ambient tensor tuples back onto an embedded quotient.

Given a target tuple T, the closest embedded point maximizes the linear
objective ``J(R) = <E([R]), T>`` because every embedded point has the same
norm.  Targets arrive as flat rows of dense tensors (``EmbeddingSpec.columns``),
but J and its gradient are evaluated on the class sums of those rows (see
``_Targets``), so no outer power is ever materialized during the ascent.

The solver is projected gradient ascent with an exponential-map retraction
and Armijo backtracking, run from a small multi-start family: one seed from
the Kabsch alignment of the rank-1 components (when nondegenerate) plus
low-discrepancy seeds from a super-Fibonacci spiral on the quaternion sphere,
turned as a whole by a Haar rotation drawn from the seed.  Seeds are screened
by their initial objective, ascents run from the most promising ones, and a
run that reaches the Cauchy-Schwarz upper bound ``radius * |T|`` certifies
global optimality and stops the search early.  Everything is deterministic
given the seed.

:func:`project_many` projects a whole table at once.  Every (target, start)
ascent is one lane of a lockstep iteration over ``(M, 4)`` quaternion and
``(M, 3, 3)`` matrix arrays, with the objective and gradient of all lanes
evaluated in one batch.  Each lane keeps its own step size, iteration count
and stopping rule, so no row's result depends on the other rows.  The best
screened start of every target runs first; the remaining starts of the
targets it did not certify then run together, and the runs are resolved in
screened order exactly as if they had run one after another.  A large table
runs in batches of rows whose lanes' power tables fit a fixed entry budget,
so memory stays bounded however many rows there are; one batch of dense image
rows then gives their objectives and residuals.  :func:`project` is the
one-target call of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingSpec, class_values, dense_rows, embed, radius
from .so3 import TANGENT_BASIS, Coset, Rotation, _quat_product, quaternions_to_matrices, random_quaternions
from .tensors import class_monomials, class_multiplicities, class_sums, inner, monomial_derivatives

# Bound but not called: bench/spans.py traces this name in this module.
from .tensors import invariant_tensor  # noqa: F401

__all__ = [
    "DegenerateConfigurationError",
    "DegenerateInputError",
    "ProjectionResult",
    "gradient",
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
    counts ascent steps across all executed starts; ``converged`` reports
    whether the best run met the gradient tolerance.
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
    h = us.T @ vs
    u, s, vt = np.linalg.svd(h)
    if s[1] <= 1e-12 * max(s[0], 1e-300):
        raise DegenerateConfigurationError("correlation matrix has rank < 2; alignment is not unique")
    v = vt.T
    d = np.sign(np.linalg.det(v @ u.T))
    r = v @ np.diag([1.0, 1.0, d]) @ u.T
    return Rotation.from_matrix(r)


# ---------------------------------------------------------------------------
# fast objective/gradient evaluation

_TANGENT_ROWS = TANGENT_BASIS.reshape(3, 9)
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
    """Per-target precomputation for batched objective/gradient evaluations.

    ``P(w) = <w^{x a}, T>`` is a degree-a homogeneous polynomial whose monomial
    coefficients are the index-class sums of T (so only the symmetric part of
    the target ever enters, as it must).  The value dots these sums with the
    embedding's class values; the gradient evaluates the partials as
    rank-(a-1) monomials against the sums mapped through the derivative table.
    Each row costs O(orbit * classes) and never touches a rank-a tensor.

    Evaluations pair row ``m`` with rotation matrix ``mats[m]`` of an
    ``(N, 3, 3)`` stack; ``take`` selects and repeats rows.
    """

    spec: EmbeddingSpec
    coeffs: list  # per component, (N, classes)
    dcoeffs: list  # per component, (N, 3, classes of rank a - 1)
    sym_norm: np.ndarray  # (N,), norm of the symmetric part of each target

    @classmethod
    def from_rows(cls, spec: EmbeddingSpec, rows: np.ndarray) -> "_Targets":
        """From ``N`` flat target rows ``(N, ambient_dimension)``."""
        coeffs, dcoeffs = [], []
        sym_sq = np.zeros(len(rows))
        for a, cols in zip(spec.alpha, spec.columns):
            coeff = class_sums(rows[:, cols], a)
            sym_sq += coeff**2 @ (1.0 / class_multiplicities(a))  # |sym(t)|^2
            coeffs.append(coeff)
            dcoeffs.append((monomial_derivatives(a) @ coeff.T).transpose(2, 0, 1))
        return cls(spec, coeffs, dcoeffs, np.sqrt(sym_sq))

    def take(self, idx: np.ndarray) -> "_Targets":
        return _Targets(self.spec, [c[idx] for c in self.coeffs], [d[idx] for d in self.dcoeffs], self.sym_norm[idx])

    def values(self, mats: np.ndarray) -> np.ndarray:
        return sum(np.einsum("mc,mc->m", v, c) for v, c in zip(class_values(self.spec, mats), self.coeffs))

    def grads(self, mats: np.ndarray) -> np.ndarray:
        grad = np.zeros((len(mats), 3))
        for (vecs, wts), a, b, dcoeff in zip(self.spec.orbits, self.spec.alpha, self.spec.beta, self.dcoeffs):
            imgs = mats @ vecs.T  # (N, 3, orbit)
            mono = class_monomials(imgs.transpose(1, 0, 2), a - 1).transpose(1, 0, 2)
            dp = dcoeff @ mono  # grad P(w) at every orbit image, (N, 3, orbit)
            # sum_j wts_j <s_l w_j, grad P(w_j)> for the three tangent matrices
            grad += ((dp * (b * wts)) @ imgs.transpose(0, 2, 1)).reshape(-1, 9) @ _TANGENT_ROWS.T
        return grad


def objective(spec: EmbeddingSpec, r: Rotation, target) -> float:
    """``<embed(spec, [r]), target>``, the quantity projection maximizes.

    Centering only shifts the value by a target-dependent constant and never
    moves the argmax.  Bounded above by ``radius(spec) * |target|`` with
    equality exactly on the ray through the embedded coset.
    """
    return inner(embed(spec, r).value, tuple(np.asarray(t, dtype=float) for t in target))


def gradient(spec: EmbeddingSpec, r: Rotation, target) -> np.ndarray:
    """Gradient of the projection objective in the tangent basis at ``r``."""
    return _Targets.from_rows(spec, _flatten(spec, target)[None]).grads(r.matrix[None])[0]


# ---------------------------------------------------------------------------
# multi-start ascent

# Power-table entries per lockstep batch of rows.  Every lane of a batch holds
# its class monomials at once, so batching bounds the memory of a large table;
# rows are independent, so the batch size changes a result only by round-off.
_BLOCK_ENTRIES = 2**20

# Ascents run per target at most, taken from the starts in screened order.
_MAX_RUNS = 8


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


def _lockstep_ascent(ev: _Targets, q: np.ndarray, tol: float, max_iter: int):
    """Gradient ascent with Armijo backtracking from the seed quaternions
    ``q`` ``(M, 4)``, one lane each; lane ``m`` climbs the target of row
    ``m`` of ``ev``.

    The search direction is the Frobenius-normalized tangent combination, so
    a step tau rotates by tau / sqrt(2) radians; the initial step of each
    iteration warm-starts from twice the previously accepted one, which keeps
    the backtrack count O(1) per iteration near the optimum.

    Once the iterate is so close to the maximum that objective differences
    drop below float resolution, Armijo can no longer certify progress even
    though the analytic gradient is still accurate to ~1e-14.  In that flat
    regime a step is instead accepted when it at least halves the directional
    derivative (a curvature condition evaluated on gradients, not objective
    differences), which lets the iteration contract down to the gradient
    tolerance instead of stalling at ~1e-9.

    Each pass of the loop tries one step on every live lane: a lane whose
    step is accepted opens its next iteration, a lane whose step is rejected
    halves it.  A lane leaves when it converges, reaches ``max_iter``
    iterations or its step underflows, and the live state is compacted.

    Returns per lane the final quaternion, objective, iteration count and
    whether the gradient tolerance was met.
    """
    out_q, out_j = q.copy(), np.empty(len(q))
    out_iter, out_conv = np.zeros(len(q), dtype=np.int64), np.zeros(len(q), dtype=bool)
    ids = np.arange(len(q))
    mats = quaternions_to_matrices(q)
    j, g = ev.values(mats), ev.grads(mats)
    iters = np.zeros(len(q), dtype=np.int64)
    tau_prev = np.full(len(q), 0.5)
    gn, tau, flat, axis = np.zeros(len(q)), np.zeros(len(q)), np.zeros(len(q)), np.zeros((len(q), 3))
    opening = np.ones(len(q), dtype=bool)  # lanes that start a new iteration
    while True:
        gn = np.where(opening, np.sqrt(np.add.reduce(g * g, axis=1)), gn)
        converged = opening & (gn < tol)
        # A lane whose step underflowed is numerically stationary.
        leave = converged | (opening & (iters >= max_iter)) | (~opening & (tau <= 1e-17))
        if leave.any():
            out = ids[leave]
            out_q[out], out_j[out], out_iter[out], out_conv[out] = q[leave], j[leave], iters[leave], converged[leave]
            keep = ~leave
            if not keep.any():
                return out_q, out_j, out_iter, out_conv
            ids, q, j, g, iters, tau_prev, gn, tau, flat, axis, opening = (
                x[keep] for x in (ids, q, j, g, iters, tau_prev, gn, tau, flat, axis, opening)
            )
            ev = ev.take(keep)
        iters += opening
        axis = np.where(opening[:, None], g * _AXIS_SIGNS / gn[:, None], axis)
        tau = np.where(opening, np.minimum(0.5, 2.0 * tau_prev), tau)
        flat = np.where(opening, 1e-13 * (1.0 + np.abs(j)), flat)

        half = 0.5 * (tau / math.sqrt(2.0))
        step = np.empty((len(q), 4))
        step[:, 0] = np.cos(half)
        step[:, 1:] = np.sin(half)[:, None] * axis
        q_new = _quat_product(step, q)
        q_new /= np.sqrt(np.add.reduce(q_new * q_new, axis=1))[:, None]
        mats_new = quaternions_to_matrices(q_new)
        j_new = ev.values(mats_new)
        gain = j_new - j
        accepted = (gain >= flat) & (gain >= 1e-4 * tau * (gn / math.sqrt(2.0)))
        # Steps whose gain is unresolvable are certified by curvature instead;
        # accepted steps need the gradient at the new point anyway.
        need = accepted | (gain >= -flat)
        g_new = np.zeros((len(q), 3))
        if need.all():
            g_new = ev.grads(mats_new)
        elif need.any():
            g_new[need] = ev.take(need).grads(mats_new[need])
        accepted |= need & (np.abs(np.add.reduce(g_new * g, axis=1)) <= 0.5 * gn * gn)

        q = np.where(accepted[:, None], q_new, q)
        j = np.where(accepted, j_new, j)
        g = np.where(accepted[:, None], g_new, g)
        tau_prev = np.where(accepted, tau, tau_prev)
        tau = np.where(accepted, tau, 0.5 * tau)
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
        Gradient norm below which a run counts as converged.
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
    """
    rows = np.asarray(targets, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != spec.ambient_dimension:
        raise ValueError(f"expected targets of shape (N, {spec.ambient_dimension}), got {rows.shape}")
    n_starts = max(8, len(spec.group)) if starts is None else int(starts)
    if n_starts < 1:
        raise ValueError("starts must be positive")
    nonzero = np.einsum("ij,ij->i", rows, rows) != 0.0
    results: list = [
        None if ok else DegenerateInputError("cannot project the zero tuple: no direction is preferred")
        for ok in nonzero
    ]
    live = np.flatnonzero(nonzero)
    spiral = _spiral_quaternions(n_starts, seed)
    # A lane's power tables hold about orbit * (alpha + 1)**2 entries per component.
    lane = sum(len(vecs) * (a + 1) ** 2 for (vecs, _), a in zip(spec.orbits, spec.alpha))
    size = max(1, _BLOCK_ENTRIES // ((n_starts + 1) * lane))
    for lo in range(0, len(live), size):
        block = live[lo : lo + size]
        sub = rows[lo : lo + size] if len(live) == len(rows) else rows[block]  # a view when no row is zero
        for i, result in zip(block, _project_block(spec, sub, spiral, tol, max_iter)):
            results[i] = result
    return results


def _project_block(spec, rows, spiral, tol, max_iter) -> list[ProjectionResult]:
    """The projections of the nonzero target rows ``rows``, their ascents in lockstep."""
    rank1 = [i for i, a in enumerate(spec.alpha) if a == 1]
    # Each rank-1 component is beta_i * R v_mean with v_mean the orbit average,
    # so their joint alignment is a Kabsch problem.  Over the trivial group with
    # all ranks 1 that alignment is the answer itself.
    us = np.array([spec.orbits[i][1] @ spec.orbits[i][0] for i in rank1])
    closed_form = len(spec.group) == 1 and len(rank1) == spec.n_components
    answers = [None] * len(rows)  # per row: (rotation, iterations, converged)
    seeds = []
    for t, row in enumerate(rows):
        found = []
        if rank1:
            try:
                r = kabsch(us, np.array([spec.beta[i] * row[spec.columns[i]] for i in rank1]))
                found.append(r.quat)
                if closed_form:
                    answers[t] = (r, 0, True)
            except DegenerateConfigurationError:
                pass  # no unique alignment: the row climbs like any other
        seeds.append(np.concatenate([np.array(found).reshape(-1, 4), spiral]))

    ev = _Targets.from_rows(spec, rows)
    counts = [len(s) for s in seeds]
    initial = ev.take(np.repeat(np.arange(len(seeds)), counts)).values(quaternions_to_matrices(np.concatenate(seeds)))
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
        answers[t] = (Rotation(best[2]), total, best[3])
    return _finalize(spec, rows, answers)


def _finalize(spec: EmbeddingSpec, rows: np.ndarray, answers) -> list[ProjectionResult]:
    """The results of the target rows ``rows`` from their ``(rotation, iterations,
    converged)`` answers, objectives and residuals from one batch of image rows."""
    images = dense_rows(spec, class_values(spec, np.array([r.matrix for r, _, _ in answers])))
    objectives = np.einsum("ij,ij->i", images, rows).tolist()
    residuals = np.sqrt(np.sum(np.square(np.subtract(images, rows, out=images), out=images), axis=1)).tolist()
    return [
        ProjectionResult(Coset(r, spec.group), j, d, iterations, converged)
        for (r, iterations, converged), j, d in zip(answers, objectives, residuals)
    ]
