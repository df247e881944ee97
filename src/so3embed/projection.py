"""Projection of ambient tensor tuples back onto an embedded quotient.

Given a target tuple T, the closest embedded point maximizes the linear
objective ``J(R) = <E([R]), T>`` because every embedded point has the same
norm.  Targets arrive as dense tensors, but J and its gradient are evaluated
on class values (see ``_Evaluator``), so no outer power is ever materialized
during the ascent.

The solver is projected gradient ascent with an exponential-map retraction
and Armijo backtracking, run from a small multi-start family: one seed from
the Kabsch alignment of the rank-1 components (when nondegenerate) plus
quasi-random seeds from a scrambled Sobol sequence mapped uniformly onto the
quaternion sphere.  Seeds are screened by their initial objective, ascents
run from the most promising ones, and a run that reaches the Cauchy-Schwarz
upper bound ``radius * |T|`` certifies global optimality and stops the
search early.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .embedding import EmbeddingSpec, class_values, embed, radius
from .so3 import TANGENT_BASIS, Coset, Rotation, _quat_product
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


class _Evaluator:
    """Per-target precomputation for fast objective/gradient evaluations.

    ``P(w) = <w^{x a}, T>`` is a degree-a homogeneous polynomial whose monomial
    coefficients are the index-class sums of T (so only the symmetric part of
    the target ever enters, as it must).  The value dots these sums with the
    embedding's class values; the gradient evaluates the partials as
    rank-(a-1) monomials against the sums mapped through the derivative table.
    Each call costs O(orbit * classes) and never touches a rank-a tensor.
    """

    def __init__(self, spec: EmbeddingSpec, target):
        self.spec = spec
        self.coeffs = []
        self.dcoeffs = []
        sym_sq = 0.0
        for a, t in zip(spec.alpha, target):
            t = np.asarray(t, dtype=float)
            if t.shape != (3,) * a:
                raise ValueError(f"target component has shape {t.shape}, expected {(3,) * a}")
            coeff = class_sums(t)
            sym_sq += float(coeff**2 @ (1.0 / class_multiplicities(a)))  # |sym(t)|^2
            self.coeffs.append(coeff)
            self.dcoeffs.append(monomial_derivatives(a) @ coeff)
        self.sym_norm = math.sqrt(sym_sq)

    def value(self, rm: np.ndarray) -> float:
        return sum(float(v[0] @ c) for v, c in zip(class_values(self.spec, rm[None]), self.coeffs))

    def value_and_grad(self, rm: np.ndarray) -> tuple[float, np.ndarray]:
        grad = np.zeros(3)
        for (vecs, wts), a, b, dcoeff in zip(self.spec.orbits, self.spec.alpha, self.spec.beta, self.dcoeffs):
            imgs = rm @ vecs.T  # (3, orbit)
            dp = dcoeff @ class_monomials(imgs, a - 1)  # grad P(w) at every orbit image
            # sum_j wts_j <s_l w_j, grad P(w_j)> for the three tangent matrices
            grad += TANGENT_BASIS.reshape(3, 9) @ ((dp * (b * wts)) @ imgs.T).ravel()
        return self.value(rm), grad


def objective(spec: EmbeddingSpec, r: Rotation, target) -> float:
    """``<embed(spec, [r]), target>``, the quantity projection maximizes.

    Centering only shifts the value by a target-dependent constant and never
    moves the argmax.  Bounded above by ``radius(spec) * |target|`` with
    equality exactly on the ray through the embedded coset.
    """
    return inner(embed(spec, r).value, tuple(np.asarray(t, dtype=float) for t in target))


def gradient(spec: EmbeddingSpec, r: Rotation, target) -> np.ndarray:
    """Gradient of the projection objective in the tangent basis at ``r``."""
    return _Evaluator(spec, target).value_and_grad(r.matrix)[1]


# ---------------------------------------------------------------------------
# multi-start ascent


def _sobol_rotations(n: int, seed: int) -> list[Rotation]:
    """Low-discrepancy rotation seeds: scrambled Sobol points on [0,1)^3 pushed
    through the uniform cube-to-quaternion map."""
    engine = qmc.Sobol(d=3, scramble=True, seed=seed)
    m = max(1, math.ceil(math.log2(max(2, n))))
    pts = engine.random_base2(m)[:n]
    u1, u2, u3 = pts[:, 0], pts[:, 1], pts[:, 2]
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    quats = np.column_stack(
        [a * np.sin(2 * np.pi * u2), a * np.cos(2 * np.pi * u2), b * np.sin(2 * np.pi * u3), b * np.cos(2 * np.pi * u3)]
    )
    return [Rotation(q) for q in quats]


def _quat_from_step(direction: np.ndarray, angle: float) -> np.ndarray:
    """Unit quaternion of the retraction step exp(angle * [axis]x)."""
    half = 0.5 * angle
    return np.concatenate([[math.cos(half)], math.sin(half) * direction])


def _ascend(ev: _Evaluator, q0: np.ndarray, tol: float, max_iter: int):
    """Gradient ascent with Armijo backtracking from one seed quaternion.

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
    """
    q = q0
    rm = Rotation(q).matrix
    j, g = ev.value_and_grad(rm)
    tau_prev = 0.5
    iterations = 0
    converged = False
    for _ in range(max_iter):
        gn = float(np.linalg.norm(g))
        if gn < tol:
            converged = True
            break
        iterations += 1
        # Sum g_l s_l is the cross-product matrix of (g1, -g2, g3).
        axis = np.array([g[0], -g[1], g[2]]) / gn
        slope = gn / math.sqrt(2.0)
        tau = min(0.5, 2.0 * tau_prev)
        flat = 1e-13 * (1.0 + abs(j))
        accepted = False
        g_next = None
        while tau > 1e-17:
            step_q = _quat_from_step(axis, tau / math.sqrt(2.0))
            q_new = _quat_product(step_q, q)
            q_new /= np.linalg.norm(q_new)
            rm_new = Rotation(q_new).matrix
            gain = ev.value(rm_new) - j
            if gain >= flat and gain >= 1e-4 * tau * slope:
                accepted = True
                break
            if gain >= -flat:
                # Objective differences are unresolvable here; certify the
                # step by curvature instead.
                j_new, g_trial = ev.value_and_grad(rm_new)
                if abs(float(g_trial @ g)) <= 0.5 * gn * gn:
                    accepted = True
                    g_next = g_trial
                    break
            tau *= 0.5
        if not accepted:
            break  # step size underflow: numerically stationary
        tau_prev = tau
        q = q_new
        rm = rm_new
        if g_next is None:
            j, g = ev.value_and_grad(rm)
        else:
            j, g = j_new, g_next
    else:
        gn = float(np.linalg.norm(g))
        converged = gn < tol
    return q, j, iterations, converged


def project(
    spec: EmbeddingSpec,
    target,
    *,
    tol: float = 1e-10,
    max_iter: int = 200,
    starts: int | None = None,
    seed: int = 0,
    max_runs: int = 8,
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
        Number of quasi-random seeds; defaults to ``max(8, |S|)``.
    seed : int
        Seed of the quasi-random sequence; the whole call is pure given it.
    max_runs : int
        Ascents actually executed, taken from the seeds in screened order.

    Returns
    -------
    ProjectionResult
        Best run by objective (ties: lowest seed index).  For a spec over the
        trivial group with all ranks 1 the solution is the closed-form Kabsch
        alignment instead of an iterative ascent.

    Raises
    ------
    DegenerateInputError
        If the target is identically zero.
    """
    target = tuple(np.asarray(t, dtype=float) for t in target)
    if len(target) != spec.n_components:
        raise ValueError(f"target has {len(target)} components, spec expects {spec.n_components}")
    norm_sq = sum(float(np.sum(t**2)) for t in target)
    if norm_sq == 0.0:
        raise DegenerateInputError("cannot project the zero tuple: no direction is preferred")

    if len(spec.group) == 1 and all(a == 1 for a in spec.alpha):
        r = kabsch(spec.u_vectors, np.array([b * t for b, t in zip(spec.beta, target)]))
        return _finalize(spec, target, r, iterations=0, converged=True)

    ev = _Evaluator(spec, target)
    seeds: list[Rotation] = []
    rank1 = [i for i, a in enumerate(spec.alpha) if a == 1]
    if rank1:
        # Each rank-1 component is beta_i * R v_mean with v_mean the orbit
        # average, so their joint alignment is a Kabsch problem.
        us = np.array([spec.orbits[i][1] @ spec.orbits[i][0] for i in rank1])
        vs = np.array([spec.beta[i] * target[i] for i in rank1])
        try:
            seeds.append(kabsch(us, vs))
        except DegenerateConfigurationError:
            pass
    n_starts = max(8, len(spec.group)) if starts is None else int(starts)
    if n_starts < 1:
        raise ValueError("starts must be positive")
    seeds.extend(_sobol_rotations(n_starts, seed))

    initial = np.array([ev.value(s.matrix) for s in seeds])
    order = np.argsort(-initial, kind="stable")
    certificate = radius(spec) * ev.sym_norm * (1.0 - 1e-10)

    best = None  # (objective, seed_index, quaternion, iterations, converged)
    total_iter = 0
    for idx in order[: max(1, max_runs)]:
        q, j, iters, conv = _ascend(ev, seeds[int(idx)].quat, tol, max_iter)
        total_iter += iters
        if best is None or j > best[0] or (j == best[0] and int(idx) < best[1]):
            best = (j, int(idx), q, conv)
        if j >= certificate:
            # No other start can improve the objective by more than
            # 1e-10 * radius * |target|: stop searching.
            break
    return _finalize(spec, target, Rotation(best[2]), iterations=total_iter, converged=best[3])


def _finalize(spec: EmbeddingSpec, target, r: Rotation, iterations: int, converged: bool) -> ProjectionResult:
    image = embed(spec, r).value
    obj = inner(image, target)
    residual = math.sqrt(sum(float(np.sum((x - t) ** 2)) for x, t in zip(image, target)))
    return ProjectionResult(
        coset=Coset(r, spec.group),
        objective=obj,
        residual=residual,
        iterations=iterations,
        converged=converged,
    )
