import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from so3embed import projection
from so3embed.embedding import TABLE_GROUPS, EmbeddingSpec, _tangent_operators, centering_offsets, embed, radius
from so3embed.embedding import registry_lookup
from so3embed.projection import (
    DegenerateConfigurationError,
    DegenerateInputError,
    gradient,
    hessian,
    kabsch,
    objective,
    project,
    project_many,
)
from so3embed.so3 import (
    TANGENT_BASIS,
    Rotation,
    as_coset,
    coset_distance,
    geodesic_distance,
    group_elements,
    quaternions_to_matrices,
    random_quaternions,
    random_rotation,
)
from so3embed.tensors import class_monomials, class_sums, invariant_class_values, rotate_tuple, tuple_norm

from oracles import monomial_derivatives


def _noisy_target(spec, r, scale, rng):
    pt = embed(spec, r)
    noise = [rng.normal(size=t.shape) for t in pt.value]
    n = math.sqrt(sum(float(np.sum(x * x)) for x in noise))
    return tuple(t + (scale * radius(spec) / n) * x for t, x in zip(pt.value, noise))


# ---------------------------------------------------------------------------
# kabsch


def test_kabsch_identity_on_matching_sets(rng):
    us = rng.normal(size=(5, 3))
    r = kabsch(us, us)
    assert np.abs(r.matrix - np.eye(3)).max() < 1e-12


def test_kabsch_recovers_exact_rotation(rng):
    for _ in range(20):
        q = random_rotation(rng)
        us = rng.normal(size=(4, 3))
        r = kabsch(us, us @ q.matrix.T)
        assert np.abs(r.matrix - q.matrix).max() < 1e-12


def test_kabsch_two_point_minimal_case(rng):
    q = random_rotation(rng)
    us = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    r = kabsch(us, us @ q.matrix.T)
    assert np.abs(r.matrix - q.matrix).max() < 1e-12


def test_kabsch_beats_random_rotations(rng):
    # optimality: no sampled rotation aligns better than the returned one
    us = rng.normal(size=(6, 3))
    vs = us @ random_rotation(rng).matrix.T + 0.05 * rng.normal(size=(6, 3))
    best = kabsch(us, vs)
    score = float(np.sum((us @ best.matrix.T) * vs))
    for _ in range(300):
        other = random_rotation(rng)
        assert float(np.sum((us @ other.matrix.T) * vs)) <= score + 1e-12


def test_kabsch_quaternions_rows_equal_per_row_kabsch(rng):
    # full-rank tables, rank-1 ones (one v repeated, parallel vs) and zero
    # correlations, against spread and against parallel us: the batch flags
    # exactly the rows kabsch rejects and gives the others' rotations bit for bit
    parallel = np.outer([1.0, 2.0, -1.0], [0.3, -0.2, 0.9])  # three multiples of one vector
    for us, full in ((rng.normal(size=(3, 3)), True), (np.eye(3), True), (parallel, False)):
        vs = rng.normal(size=(20, 3, 3))
        vs[5:10] = vs[5:10, :1]
        vs[10:13] = vs[10:13, :1] * rng.normal(size=(3, 3, 1))
        vs[13:15] = 0.0
        vs[15] = us
        quats, unique = projection._kabsch_quaternions(us, vs)
        want = np.zeros(20, dtype=bool)
        want[:5] = want[15:] = full
        assert np.array_equal(unique, want)
        for v, q, ok in zip(vs, quats, unique):
            if ok:
                assert np.array_equal(kabsch(us, v).quat, Rotation(q).quat)
            else:
                with pytest.raises(DegenerateConfigurationError):
                    kabsch(us, v)


@pytest.mark.parametrize("name, calls", [("C2", 0), ("C4", 0), ("C6", 0), ("C1", 3)])
def test_only_tables_with_two_rank_1_components_run_kabsch(monkeypatch, rng, name, calls):
    # one vector pair never determines an alignment, so C2, C4 and C6 make no
    # Kabsch call; C1 makes one per lockstep batch, here three batches of one row
    spec = registry_lookup(name)
    seen = []
    original = projection._kabsch_quaternions

    def spy(us, vs):
        seen.append(len(vs))
        return original(us, vs)

    monkeypatch.setattr(projection, "_kabsch_quaternions", spy)
    if name == "C1":
        monkeypatch.setattr(projection, "_BLOCK_ENTRIES", 1)
    rows = np.array([embed(spec, random_rotation(rng)).flatten() for _ in range(3)])
    assert all(res.converged for res in project_many(spec, rows))
    assert len(seen) == calls
    assert sum(seen) == (3 if calls else 0)


def test_kabsch_rejects_degenerate_directions(rng):
    us = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])  # collinear
    with pytest.raises(DegenerateConfigurationError):
        kabsch(us, us)
    with pytest.raises(ValueError):
        kabsch(np.ones((1, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError):
        kabsch(np.ones((2, 3)), np.ones((3, 3)))


# ---------------------------------------------------------------------------
# objective and gradient


def test_objective_at_embedded_point_is_radius_squared(rng, registered_spec):
    r = random_rotation(rng)
    pt = embed(registered_spec, r)
    got = objective(registered_spec, r, pt.value)
    assert got == pytest.approx(radius(registered_spec) ** 2, rel=1e-12)


def test_objective_is_bounded_by_cauchy_schwarz(rng, registered_spec):
    target = _noisy_target(registered_spec, random_rotation(rng), 0.3, rng)
    bound = radius(registered_spec) * tuple_norm(target)
    for _ in range(10):
        assert objective(registered_spec, random_rotation(rng), target) <= bound + 1e-10


def test_gradient_matches_finite_differences(rng, registered_spec):
    # central differences along the tangent basis directions (rotations about
    # e1, -e2 and e3 composed on the left) at h = 1e-5
    h = 1e-5
    axes = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    for _ in range(5):
        r = random_rotation(rng)
        target = _noisy_target(registered_spec, random_rotation(rng), 0.2, rng)
        g = gradient(registered_spec, r, target)
        fd = np.empty(3)
        for ell in range(3):
            step = Rotation.from_axis_angle(axes[ell], h)
            fwd = objective(registered_spec, step @ r, target)
            bwd = objective(registered_spec, step.inverse() @ r, target)
            fd[ell] = (fwd - bwd) / (2.0 * h)
        assert np.abs(g - fd).max() < 1e-6


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_hessian_matches_second_differences(rng, name):
    # Central second differences along the tangent basis directions
    # (rotations about e1, -e2 and e3 composed on the left) give the diagonal;
    # along the sums and differences of two of them they give
    # H_kk + 2 H_kl + H_ll and H_kk - 2 H_kl + H_ll, so a quarter of their gap
    # is H_kl.  The truncation error, h^2 / 12 times a fourth derivative,
    # scales as h^2: at most 2.2e-6 at h = 1e-3 (D6), so 2.2e-8 at h = 1e-4.
    # The round-off, four objective errors of about 2e-16 each (|J| < 1)
    # over h^2, is about 1e-7 there; the largest gap seen over ten rotations
    # per group was 7.4e-8, so 1e-6 leaves a margin of more than 10.
    h = 1e-4
    spec = registry_lookup(name)
    axes = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])

    def second_difference(r, target, axis):
        step = Rotation.from_axis_angle(axis, h * np.linalg.norm(axis))
        fwd = objective(spec, step @ r, target)
        bwd = objective(spec, step.inverse() @ r, target)
        return (fwd - 2.0 * objective(spec, r, target) + bwd) / h**2

    for _ in range(4):
        r = random_rotation(rng)
        target = _noisy_target(spec, random_rotation(rng), 0.2, rng)
        fd = np.empty((3, 3))
        for k in range(3):
            fd[k, k] = second_difference(r, target, axes[k])
            for ell in range(k):
                plus = second_difference(r, target, axes[k] + axes[ell])
                minus = second_difference(r, target, axes[k] - axes[ell])
                fd[k, ell] = fd[ell, k] = 0.25 * (plus - minus)
        assert np.abs(hessian(spec, r, target) - fd).max() < 1e-6


def test_gradient_vanishes_at_perfect_alignment(rng, registered_spec):
    r = random_rotation(rng)
    g = gradient(registered_spec, r, embed(registered_spec, r).value)
    assert np.linalg.norm(g) < 1e-10


def _orbit_image_derivatives(spec, rows, mats):
    """Oracle: value, gradient (3) and Hessian (9) columns of ``J(exp(A) R)`` from
    the orbit images ``w = R v``, one at a time.  With ``P(w) = <w^{x a}, T>``
    the value is ``sum b wt P(w)`` less the centering, ``g_l = sum b wt grad P(w)
    . (s_l w)`` and ``H_kl = sum b wt [hess P(w)[s_k w, s_l w] + grad P(w) .
    ((s_k s_l + s_l s_k) / 2) w]``, with the partials of P from the monomial
    derivative tables at ranks a and a - 1."""
    s = TANGENT_BASIS
    sym = 0.5 * (np.einsum("kde,lef->kldf", s, s) + np.einsum("lde,kef->kldf", s, s))
    out = np.zeros((len(rows), 13))
    parts = zip(spec.orbits, spec.alpha, spec.beta, spec.columns, centering_offsets(spec))
    for (vecs, wts), a, b, cols, offset in parts:
        p = class_sums(rows[:, cols], a)
        first = np.einsum("dkc,nc->ndk", monomial_derivatives(a), p)  # coefficients of d_d P
        second = np.einsum("ejk,ndk->ndej", monomial_derivatives(a - 1), first) if a > 1 else None
        for v, wt in zip(vecs, wts):
            w = mats @ v
            value = np.einsum("nc,cn->n", p, class_monomials(w.T, a))
            grad = np.einsum("ndk,kn->nd", first, class_monomials(w.T, a - 1))
            hess = np.zeros((len(w), 3, 3))
            if a > 1:
                hess = np.einsum("ndej,jn->nde", second, class_monomials(w.T, a - 2))
            moved = np.einsum("ldf,nf->nld", s, w)  # s_l w
            g = np.einsum("nd,nld->nl", grad, moved)
            h = np.einsum("nkd,nde,nle->nkl", moved, hess, moved) + np.einsum("nd,kldf,nf->nkl", grad, sym, w)
            out += b * wt * np.concatenate([value[:, None], g, h.reshape(-1, 9)], axis=1)
        if offset is not None:
            out[:, 0] -= p @ offset
    return out


def _derivative_columns(ev, mats):
    j, g, h = ev.derivatives(mats)
    return np.concatenate([j[:, None], g, h.reshape(-1, 9)], axis=1)


def _unsymmetrized_targets(spec, rows):
    """``_Targets`` whose Hessian maps are ``L_k L_l p``, not symmetrized."""
    maps = []
    for a, cols in zip(spec.alpha, spec.columns):
        p = class_sums(rows[:, cols], a)
        first = np.einsum("lij,nj->lni", _tangent_operators(a), p)
        second = np.einsum("kij,lnj->klni", _tangent_operators(a), first)
        maps.append(np.stack([p, *first, *second.reshape(9, len(rows), -1)], axis=2))
    return projection._Targets(spec, maps, np.ones(len(rows)))


@pytest.mark.parametrize("variant", ["isometric", "arnold"])
@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_target_derivatives_match_the_orbit_image_formulas(name, variant):
    # 64 Gaussian target rows at 64 Haar rotations: the class-value maps give
    # the orbit-image value, gradient and Hessian to 1e-13 of their largest
    # entry.  Hessian maps left unsymmetrized are off by half the commutator
    # [L_k, L_l] p, a gradient-sized term, and must fail the same comparison.
    spec = registry_lookup(name, variant)
    rng = np.random.default_rng(17)
    rows = rng.standard_normal((64, spec.ambient_dimension))
    mats = quaternions_to_matrices(random_quaternions(rng, 64))
    oracle = _orbit_image_derivatives(spec, rows, mats)
    scale = np.abs(oracle).max()
    got = _derivative_columns(projection._Targets.from_rows(spec, rows), mats)
    assert np.abs(got - oracle).max() <= 1e-13 * scale
    assert np.abs(_derivative_columns(_unsymmetrized_targets(spec, rows), mats) - oracle).max() > 1e-3 * scale


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_target_derivatives_of_a_lane_do_not_depend_on_its_batch(name):
    # every lane evaluated alone gives its row of a 64-lane batch bit for bit
    spec = registry_lookup(name)
    rng = np.random.default_rng(23)
    ev = projection._Targets.from_rows(spec, rng.standard_normal((64, spec.ambient_dimension)))
    mats = quaternions_to_matrices(random_quaternions(rng, 64))
    batch = ev.derivatives(mats)
    for m in range(64):
        alone = ev.take(np.array([m])).derivatives(mats[m : m + 1])
        assert all(np.array_equal(part[m : m + 1], one) for part, one in zip(batch, alone)), m


@pytest.mark.parametrize("alpha", range(2, 13, 2))
def test_tangent_operators_annihilate_the_isotropic_class_values(alpha):
    # the centering offset is rotation invariant, so no derivative sees it
    assert np.abs(_tangent_operators(alpha).transpose(0, 2, 1) @ invariant_class_values(alpha)).max() < 1e-15


# ---------------------------------------------------------------------------
# projection


def test_project_round_trip(rng, registered_spec):
    for i in range(8):
        r = random_rotation(rng)
        pt = embed(registered_spec, r)
        result = project(registered_spec, pt.value, seed=i)
        err = coset_distance(as_coset(r, registered_spec.group), result.coset)
        assert err < 1e-8
        assert result.residual < 1e-7 * radius(registered_spec)
        assert result.converged


def test_project_result_objective_and_residual_are_consistent(rng):
    spec = registry_lookup("D3")
    target = _noisy_target(spec, random_rotation(rng), 0.1, rng)
    result = project(spec, target, seed=0)
    expect_sq = tuple_norm(target) ** 2 + radius(spec) ** 2 - 2.0 * result.objective
    assert result.residual**2 == pytest.approx(expect_sq, rel=1e-9)
    direct = embed(spec, result.coset)
    gap = math.sqrt(
        sum(float(np.sum((x - y) ** 2)) for x, y in zip(target, direct.value))
    )
    assert result.residual == pytest.approx(gap, rel=1e-12)


def test_project_is_stationary_at_the_result(rng, registered_spec):
    target = _noisy_target(registered_spec, random_rotation(rng), 0.05, rng)
    result = project(registered_spec, target, seed=3)
    g = gradient(registered_spec, result.coset.rep, target)
    assert np.linalg.norm(g) < 1e-8 * max(1.0, tuple_norm(target))


def test_project_handles_one_percent_noise(rng):
    spec = registry_lookup("T")
    hits = 0
    for i in range(25):
        r = random_rotation(rng)
        target = _noisy_target(spec, r, 0.01, rng)
        result = project(spec, target, seed=i)
        err = coset_distance(as_coset(r, spec.group), result.coset)
        hits += err < 0.05
    assert hits >= 24


def test_project_is_equivariant(rng):
    spec = registry_lookup("D4")
    target = _noisy_target(spec, random_rotation(rng), 0.05, rng)
    q = random_rotation(rng)
    plain = project(spec, target, seed=0)
    moved = project(spec, rotate_tuple(q, target), seed=0)
    expected = as_coset(q @ plain.coset.rep, spec.group)
    assert coset_distance(expected, moved.coset) < 1e-8


def test_project_c1_agrees_with_kabsch(rng):
    spec = registry_lookup("C1")
    target = _noisy_target(spec, random_rotation(rng), 0.02, rng)
    result = project(spec, target, seed=0)
    us = np.array(spec.u)
    vs = np.array([spec.beta[i] * target[i] for i in range(3)])
    direct = kabsch(us, vs)
    assert geodesic_distance(result.coset.rep, direct) < 1e-10
    assert result.iterations == 0


def test_project_deterministic_for_fixed_seed(rng):
    spec = registry_lookup("O")
    target = _noisy_target(spec, random_rotation(rng), 0.2, rng)
    a = project(spec, target, seed=5)
    b = project(spec, target, seed=5)
    assert np.array_equal(a.coset.rep.quat, b.coset.rep.quat)
    assert a.objective == b.objective and a.iterations == b.iterations


def test_project_rejects_zero_and_misshaped_targets():
    spec = registry_lookup("C4")
    zero = tuple(np.zeros((3,) * a) for a in spec.alpha)
    with pytest.raises(DegenerateInputError):
        project(spec, zero)
    with pytest.raises(ValueError):
        project(spec, (np.ones(3),))


def test_project_far_target_still_lands_on_manifold(rng):
    # a random tensor tuple far from the image still projects somewhere valid
    spec = registry_lookup("C6")
    target = tuple(rng.normal(size=(3,) * a) for a in spec.alpha)
    result = project(spec, target, seed=1)
    pt = embed(spec, result.coset)
    assert pt.norm == pytest.approx(radius(spec), rel=1e-10)
    assert result.residual > 0.0


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["C4", "O", "D6", "Y"]),
    q=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4),
)
def test_project_recovers_embedded_coset(name, q):
    assume(np.linalg.norm(q) > 1e-3)
    spec = registry_lookup(name)
    r = Rotation.from_quaternion(q)
    result = project(spec, embed(spec, r).value)
    assert coset_distance(as_coset(r, spec.group), result.coset) < 1e-8


@pytest.mark.parametrize("name", ["C4", "O", "D6", "T", "Y"])
def test_ascent_falls_back_to_gradient_steps_where_the_hessian_is_not_negative_definite(name):
    # 0.05 rad from the minimum of J on an exact target (the projection of the
    # negated target) the Hessian is positive definite, so a Newton step would
    # descend.  Running the ascent with max_iter = 0, 1, 2, ... replays its
    # accepted steps: none may lower J by more than the 1e-13 (1 + |J|)
    # resolution of an objective difference, and the climb must converge on
    # the Cauchy-Schwarz certificate.
    spec = registry_lookup(name)
    target = embed(spec, Rotation.from_axis_angle([1.0, 2.0, 3.0], 0.7)).value
    low = project(spec, tuple(-t for t in target), seed=0).coset.rep
    start = Rotation.from_axis_angle([0.3, -1.0, 0.5], 0.05) @ low
    assert np.linalg.eigvalsh(hessian(spec, start, target)).min() > 0.0

    ev = projection._Targets.from_rows(spec, projection._flatten(spec, target)[None])

    def climb(max_iter):
        return [x[0] for x in projection._lockstep_ascent(ev, start.quat[None].copy(), 1e-10, max_iter)]

    _, j_end, n_iter, converged = climb(200)
    assert converged
    assert j_end >= radius(spec) * tuple_norm(target) * (1.0 - 1e-10)
    path = [climb(k)[1] for k in range(n_iter)] + [j_end]
    for before, after in zip(path, path[1:]):
        assert after >= before - 1e-13 * (1.0 + abs(before))


# ---------------------------------------------------------------------------
# batched projection


@pytest.mark.parametrize("name", ["O", "C4"])
def test_project_many_rows_match_their_single_calls(rng, name):
    # exact and 5%-noisy targets, with a zero row between them; every row of
    # the batched call must come out as its own one-target call
    spec = registry_lookup(name)
    truth = [random_rotation(rng) for _ in range(8)]
    exact = [embed(spec, r).value for r in truth[:4]]
    noisy = [_noisy_target(spec, r, 0.05, rng) for r in truth[4:]]
    zero = tuple(np.zeros((3,) * a) for a in spec.alpha)
    targets = exact + [zero] + noisy
    table = np.array([np.concatenate([t.ravel() for t in target]) for target in targets])
    results = project_many(spec, table, seed=3)
    assert len(results) == len(targets)
    assert isinstance(results[4], DegenerateInputError)
    for i, (target, got) in enumerate(zip(targets, results)):
        if i == 4:
            continue
        alone = project(spec, target, seed=3)
        assert got.iterations == alone.iterations
        assert got.converged == alone.converged
        assert abs(got.residual - alone.residual) <= 1e-12
        assert coset_distance(got.coset, alone.coset) <= (1e-12 if i < 4 else 1e-8)


def test_project_many_batches_rows_without_changing_them(rng, monkeypatch):
    # one row per lockstep batch must give every row, the zero row in place
    # included, the same result as one batch for the whole table
    spec = registry_lookup("O")
    truth = [random_rotation(rng) for _ in range(6)]
    targets = [embed(spec, r).value for r in truth[:3]] + [_noisy_target(spec, r, 0.05, rng) for r in truth[3:]]
    table = np.array([np.concatenate([t.ravel() for t in target]) for target in targets])
    table = np.insert(table, 2, 0.0, axis=0)
    whole = project_many(spec, table, seed=5)
    monkeypatch.setattr(projection, "_BLOCK_ENTRIES", 1)
    split = project_many(spec, table, seed=5)
    assert isinstance(split[2], DegenerateInputError)
    for i, (got, ref) in enumerate(zip(split, whole)):
        if i == 2:
            continue
        assert got.iterations == ref.iterations
        assert got.converged == ref.converged
        assert abs(got.residual - ref.residual) <= 1e-12
        assert coset_distance(got.coset, ref.coset) <= (1e-12 if i < 2 else 1e-8)


@pytest.mark.parametrize(
    "quat,seed",
    [
        ((-0.739005371810822, -0.14788771049360827, 0.0641915695066222, -0.6541251622770552), 3),
        ((0.6321192709031239, 0.575739796327803, 0.33673715100509677, -0.39440715689537564), 13),
        ((0.6450485037803041, -0.24051111044607812, 0.013319943156665796, 0.7251823306156105), 41),
    ],
)
def test_project_counts_runs_up_to_the_first_certified_one(quat, seed, monkeypatch):
    # with four starts the best screened seeds of these C6 targets end on a
    # local maximum; later runs are resolved in screened order, and those
    # after the first certified one neither change the result nor count
    spec = registry_lookup("C6")
    target = embed(spec, Rotation.from_quaternion(quat)).value
    prefix = []
    for m in range(1, 6):
        monkeypatch.setattr(projection, "_MAX_RUNS", m)
        prefix.append(project(spec, target, seed=seed, starts=4))
    first = next(m for m, res in enumerate(prefix) if res.residual < 1e-8)
    assert first >= 1
    assert prefix[first].iterations > prefix[first - 1].iterations
    for res in prefix[first:]:
        assert res.iterations == prefix[first].iterations
        assert coset_distance(res.coset, prefix[first].coset) == 0.0


def test_project_many_climbs_c1_rows_without_a_unique_alignment():
    # e0 alone gives a rank-1 correlation, so the closed-form alignment is
    # not unique; the ascent still reaches the maximum beta_1 |t_0|
    spec = registry_lookup("C1")
    table = np.zeros((2, 9))
    table[0, 0] = 1.0
    table[1] = embed(spec, Rotation.from_axis_angle([1.0, 2.0, 3.0], 0.7)).flatten()
    degenerate, regular = project_many(spec, table)
    assert degenerate.converged
    assert degenerate.objective == pytest.approx(spec.beta[0], abs=1e-12)
    assert regular.iterations == 0


def test_project_many_rejects_misshaped_tables():
    spec = registry_lookup("O")
    with pytest.raises(ValueError):
        project_many(spec, np.ones((2, 80)))
    with pytest.raises(ValueError):
        project_many(spec, np.ones(81))


@pytest.mark.parametrize("name", ["C4", "O", "D6"])
def test_project_many_returns_on_rows_whose_gradient_overflows(name):
    # rows of norm 1e110 have a finite squared norm, but the gradients of the
    # raw targets and the curvature along them overflow, so every step is nan;
    # such a lane must leave instead of halving a nan step forever.  The
    # ascents of project_many climb the unit targets, so there the rows
    # converge without overflowing at all.
    spec = registry_lookup(name)
    rows = np.random.default_rng(0).standard_normal((3, spec.ambient_dimension))
    rows *= 1e110 / np.linalg.norm(rows, axis=1)[:, None]
    raw = projection._Targets.from_rows(spec, rows)
    starts = np.random.default_rng(1).standard_normal((3, 4))
    starts /= np.linalg.norm(starts, axis=1)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        quats, _, _, converged = projection._lockstep_ascent(raw, starts, 1e-10, 200)
    assert np.isfinite(quats).all()
    assert not converged.any()
    for res in project_many(spec, rows):
        assert np.isfinite(res.coset.rep.quat).all()
        assert res.converged


@pytest.mark.parametrize("name", ["C4", "O", "D6", "Y"])
def test_project_tolerance_is_relative_to_the_target_norm(name):
    # the ascent climbs T / |T|, so an exact target scaled far down neither
    # meets an absolute gradient tolerance at its start nor, scaled far up,
    # overflows its derivatives: every scale lands on the true coset, also
    # below 1e-162, where the squared norm underflows; an all-zero row, -0.0
    # entries included, is still rejected
    spec = registry_lookup(name)
    truth = [Rotation.from_axis_angle([1.0, 2.0, 3.0], 0.7), Rotation.from_axis_angle([-2.0, 0.5, 1.0], 2.4)]
    rows = np.array([embed(spec, r).flatten() for r in truth])
    for scale in (1e-300, 1e-170, 1e-12, 1.0, 1e110):
        for r, res in zip(truth, project_many(spec, rows * scale)):
            assert res.converged
            assert coset_distance(as_coset(r, spec.group), res.coset) < 1e-8
    zeros = np.zeros((2, spec.ambient_dimension))
    zeros[1, ::2] = -0.0
    assert all(isinstance(res, DegenerateInputError) for res in project_many(spec, zeros))


@pytest.mark.parametrize("name", ["C4", "O"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_project_rejects_rows_whose_squared_norm_is_not_finite(name, bad):
    # a nan or inf cell, or finite cells whose squared norm overflows, would
    # keep the ascent going without end; the row is named before any work
    spec = registry_lookup(name)
    table = np.ones((3, spec.ambient_dimension))
    table[1, 5] = bad
    with pytest.raises(ValueError, match="target row 1 "):
        project_many(spec, table)
    target = [table[1, cols].reshape((3,) * a) for cols, a in zip(spec.columns, spec.alpha)]
    with pytest.raises(ValueError, match="target row 0 "):
        project(spec, target)
