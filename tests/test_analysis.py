import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from so3embed import analysis
from so3embed.analysis import (
    b_norms_closed_form,
    bound_ratio_table,
    derive_beta,
    differential_at_identity,
    distance_scatter,
    empirical_embedding_mean,
    global_bounds,
    isometry_check,
    mean_check,
    rank_check,
)
from so3embed.embedding import (
    TABLE_GROUPS,
    EmbeddingSpec,
    centering_offsets,
    class_values,
    embed,
    embedded_distance,
    expected_hull_dimension,
    parse_spec_document,
    radius,
    registry_lookup,
)
from so3embed.so3 import (
    TANGENT_BASIS,
    Rotation,
    SymmetryGroup,
    _quat_product,
    geodesic_distance,
    group_elements,
    quaternions_from_axis_angles,
    quaternions_to_matrices,
    random_quaternions,
    random_rotation,
)
from so3embed.tensors import MAX_CLASS_RANK, class_monomial_sums, class_monomials, class_multiplicities, inner
from so3embed.tensors import invariant_class_values, invariant_tensor, outer_power, tuple_norm

from oracles import monomial_derivatives, orbit_gram

# measured affine-hull dimensions of the group-averaged (quotient) image;
# averaging can only lose harmonic content, so these never exceed the
# component-map values
QUOTIENT_RANKS = {
    "C1": 9, "C2": 13, "C3": 10, "C4": 17, "C6": 30, "D2": 10,
    "D3": 12, "D4": 14, "D6": 27, "T": 7, "O": 9, "Y": 34,
}

# component-map (unsymmetrized) hull dimensions, expected_hull_dimension's values
AMBIENT_RANKS = {
    "C1": 9, "C2": 13, "C3": 13, "C4": 17, "C6": 30, "D2": 10,
    "D3": 15, "D4": 19, "D6": 32, "T": 10, "O": 14, "Y": 65,
}

# component maps whose directions tie their zonal harmonics, spanning less
# than the count sum_i C(alpha_i + 2, 2) - #even alpha_i: (spec, span)
_C1 = group_elements("C1")
_E1, _E2, _E3 = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
TIED_SPECS = {
    "e1-e1-rank-2": (EmbeddingSpec(_C1, (_E1, _E1), (2, 2), (1.0, 1.0)), 5),  # count 10
    "frame-and-diagonal-rank-1": (
        EmbeddingSpec(_C1, (_E1, _E2, _E3, (1 / math.sqrt(2), 1 / math.sqrt(2), 0.0)), (1,) * 4, (1.0,) * 4), 9
    ),  # count 12
    "frame-and-body-diagonal-rank-2": (
        EmbeddingSpec(_C1, (_E1, _E2, _E3, (1 / math.sqrt(3),) * 3), (2,) * 4, (1.0,) * 4), 15
    ),  # count 20
}


def cyclic_spec(k, a, beta=None):
    """The C_k spec (e1 rank 1, e2 rank ``a``), weighted by ``beta`` or else locally
    isometric: at unit weight the rank-``a`` component's Gram matrix is ``diag(g1,
    g2, g2)`` and the rank-1 one's ``diag(0, 1, 1)``, so ``beta^2 = (1 - g2/g1, 1/g1)``."""
    if beta is None:
        g = isometry_check(EmbeddingSpec(group_elements("C", k), ((0.0, 1.0, 0.0),), (a,), (1.0,))).gram
        beta = (math.sqrt(1.0 - g[1, 1] / g[0, 0]), 1.0 / math.sqrt(g[0, 0]))
    return EmbeddingSpec(group_elements("C", k), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (1, a), beta)


# Locally isometric specs past the dense-storage limit (rank 12), up to the class-value limit.
HIGH_RANK_SPECS = {f"C{k}-{a}": (k, a) for k, a in ((10, 16), (12, 24), (6, 30))}


# ---------------------------------------------------------------------------
# tangent basis and differential


def test_tangent_basis_matrices():
    e1_cross = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    e2_cross = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    e3_cross = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(TANGENT_BASIS[0], e1_cross)
    assert np.array_equal(TANGENT_BASIS[1], -e2_cross)
    assert np.array_equal(TANGENT_BASIS[2], e3_cross)
    for s in TANGENT_BASIS:
        assert np.array_equal(s, -s.T)
        assert float(np.sum(s * s)) == 2.0


def test_tangent_basis_exponentials_rotate_by_t():
    t = 0.37
    for ell, axis in enumerate(np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, 1.0]])):
        expected = Rotation.from_axis_angle(axis, t).matrix
        # series for exp(t s) of a skew matrix with unit rotation rate
        s = TANGENT_BASIS[ell]
        got = np.eye(3) + math.sin(t) * s + (1 - math.cos(t)) * (s @ s)
        assert np.abs(got - expected).max() < 1e-12


def test_differential_matches_finite_differences(registered_spec):
    h = 1e-6
    tangents = differential_at_identity(registered_spec)
    axes = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    for ell in range(3):
        step = Rotation.from_axis_angle(axes[ell], h)
        fwd = embed(registered_spec, step).value
        bwd = embed(registered_spec, step.inverse()).value
        for got, a, b in zip(tangents[ell], fwd, bwd):
            fd = (a - b) / (2.0 * h)
            assert np.abs(got - fd).max() < 1e-7


# the registered specs, both variants, and the uncentered rank-k cyclic components
TANGENT_SPECS = [(name, variant) for name in TABLE_GROUPS for variant in ("isometric", "arnold")]
TANGENT_SPECS += [(f"C{k}", "uncentered") for k in range(3, 9)]


@pytest.mark.parametrize("name,variant", TANGENT_SPECS)
def test_tangent_class_values_match_the_orbit_formula(name, variant):
    # oracle: along s_l each orbit vector v moves by s_l v, and class monomial
    # m by grad m(v) . (s_l v), the derivatives from the monomial table
    if variant == "uncentered":
        k = int(name[1:])
        spec = EmbeddingSpec(group_elements("C", k), ((0.0, 1.0, 0.0),), (k,), (1.0,), centered=False)
    else:
        spec = registry_lookup(name, variant)
    for got, (vecs, wts), a, b in zip(analysis._tangent_class_values(spec), spec.orbits, spec.alpha, spec.beta):
        grads = monomial_derivatives(a).transpose(0, 2, 1) @ class_monomials(vecs.T, a - 1)  # (3, C, orbit)
        want = b * np.einsum("ldj,dcj,j->lc", TANGENT_BASIS @ vecs.T, grads, wts)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_differential_rank_one_component_is_cross_product():
    # a single rank-1 component: the derivative along s is just s u
    spec = EmbeddingSpec(group_elements("C1"), ((0.0, 1.0, 0.0),), (1,), (1.0,))
    tangents = differential_at_identity(spec)
    u = np.array([0.0, 1.0, 0.0])
    for ell in range(3):
        assert np.abs(tangents[ell][0] - TANGENT_BASIS[ell] @ u).max() < 1e-15


# ---------------------------------------------------------------------------
# local isometry


def test_isometry_check_all_registered_specs(registered_spec):
    report = isometry_check(registered_spec)
    assert report.is_isometric
    assert report.max_defect < 1e-10
    assert np.abs(report.gram - np.eye(3)).max() < 1e-10


@pytest.mark.parametrize("k", range(3, 13))
def test_isometry_gram_matches_the_orbit_formula_past_the_dense_limit(k):
    for a in range(13, 31):
        spec = cyclic_spec(k, a, (0.5, 1.0))
        want = orbit_gram(spec)
        assert np.abs(isometry_check(spec).gram - want).max() <= 1e-13 * np.abs(want).max(), a


def test_cyclic_specs_reach_local_isometry_past_the_dense_limit():
    for k, a in HIGH_RANK_SPECS.values():
        assert isometry_check(cyclic_spec(k, a)).is_isometric


def test_unit_weight_specs_are_not_isometric():
    report = isometry_check(registry_lookup("C6", "arnold"))
    assert not report.is_isometric


def test_unit_weight_octahedral_gram_is_scaled_identity():
    # the isometric weight is 3/(2 sqrt 2), so unit weights scale the Gram
    # matrix by its inverse square
    report = isometry_check(registry_lookup("O", "arnold"))
    want = (8.0 / 9.0) * np.eye(3)
    assert np.abs(report.gram - want).max() < 1e-12


def test_a_weight_sweep_keeps_no_spec_alive():
    # the identity class values are cached on the spec itself, not in a
    # module-level cache keyed by it, so specs of a sweep can be collected
    base = registry_lookup("C4")
    refs = []
    for b in (0.5, 0.6, 0.7):
        spec = EmbeddingSpec(base.group, base.u, base.alpha, (1.0, b))
        assert radius(spec) > 0.0
        global_bounds(spec, n_pairs=200)
        refs.append(weakref.ref(spec))
        del spec
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_isometry_gram_is_invariant_under_conjugation(rng):
    base = registry_lookup("D3")
    q = random_rotation(rng)
    elements = [Rotation(quat) for quat in base.group.quaternions]
    conj = SymmetryGroup.from_elements(
        "D3conj", [q @ s @ q.inverse() for s in elements]
    )
    u = tuple(tuple(q.apply(np.array(vec))) for vec in base.u)
    moved = EmbeddingSpec(conj, u, base.alpha, base.beta)
    g0 = isometry_check(base).gram
    g1 = isometry_check(moved).gram
    assert np.abs(g1 - g0).max() < 1e-10


@pytest.mark.parametrize("h", [1e-3, 1e-4])
def test_second_order_local_isometry_at_random_base_points(h, rng, registered_spec):
    # |E([exp(h s) R]) - E([R])| = h + O(h^2) in every tangent direction
    r = random_rotation(rng)
    base = embed(registered_spec, r)
    for axis in ([1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]):
        step = Rotation.from_axis_angle(np.array(axis), h)
        moved = embed(registered_spec, step @ r)
        gap = math.sqrt(
            sum(float(np.sum((a - b) ** 2)) for a, b in zip(moved.value, base.value))
        )
        assert abs(gap / h - 1.0) < 10.0 * h


# ---------------------------------------------------------------------------
# closed-form tangent norms and derived weights


def test_b_norms_small_cases_exact():
    assert b_norms_closed_form(3) == (9.0 / 4.0, 3.0 / 8.0, 3.0 / 8.0)
    assert b_norms_closed_form(4) == (2.0, 1.0, 1.0)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_b_norms_match_numerical_gram_diagonals(k):
    spec = EmbeddingSpec(
        group_elements("C", k), ((0.0, 1.0, 0.0),), (k,), (1.0,), centered=False
    )
    tangents = differential_at_identity(spec)
    diag = [inner(tangents[ell], tangents[ell]) for ell in range(3)]
    assert np.abs(np.array(diag) - b_norms_closed_form(k)).max() < 1e-10


def test_b_norms_reject_tiny_ranks():
    with pytest.raises(ValueError):
        b_norms_closed_form(2)


@pytest.mark.parametrize(
    "family,k,name",
    [("C", 3, "C3"), ("C", 4, "C4"), ("C", 6, "C6"),
     ("D", 3, "D3"), ("D", 4, "D4"), ("D", 6, "D6")],
)
def test_derive_beta_reproduces_registry_weights(family, k, name):
    got = derive_beta(family, k)
    assert np.abs(np.array(got) - registry_lookup(name).beta).max() < 1e-12


@pytest.mark.parametrize("k", [8, 10, 12])
def test_derive_beta_has_no_real_solution_for_large_even_k(k):
    with pytest.raises(ValueError):
        derive_beta("C", k)
    with pytest.raises(ValueError):
        derive_beta("D", k)


def test_derive_beta_rejects_unknown_family():
    with pytest.raises(ValueError):
        derive_beta("E", 3)


# ---------------------------------------------------------------------------
# global distance bounds


def test_global_bounds_c1_closed_form():
    est = global_bounds(registry_lookup("C1"), n_pairs=30_000, seed=0)
    assert est.c_min == pytest.approx(2.0 / math.pi, abs=5e-3)
    assert est.c_max == pytest.approx(1.0, abs=5e-3)
    assert est.sample_count == 30_000


def test_global_bounds_ladder_reaches_unit_slope(registered_spec):
    # near-identity pairs are injected explicitly, so c_max hits the local
    # slope 1 of isometric specs even with few uniform pairs
    est = global_bounds(registered_spec, n_pairs=2_000, seed=1, refine=False)
    assert est.c_max > 1.0 - 5e-3
    assert est.c_max < 1.0 + 5e-3


# (k, a) of C_k (e1 rank 1, e2 rank a) specs on both sides of the dense-storage limit
WITNESS_SPECS = [(4, 4), (6, 6), (8, 12), (10, 16), (12, 24), (6, 30)]


@pytest.mark.parametrize("k,a", WITNESS_SPECS)
def test_the_half_turn_about_e2_has_the_witness_ratio(k, a):
    # the half turn h about e2 maps the orbit of e2 onto itself and e1 to -e1:
    # only the rank-1 component moves, by 2 beta_1, over the quotient angle pi
    spec = cyclic_spec(k, a)
    d_geo, d_emb = analysis._identity_distances(spec, np.array([[0.0, 0.0, 1.0, 0.0]]))
    assert d_geo[0] == pytest.approx(math.pi, rel=1e-15)
    assert d_emb[0] / d_geo[0] == pytest.approx(2.0 * spec.beta[0] / math.pi, rel=1e-14)


@pytest.mark.parametrize("k,a", WITNESS_SPECS)
def test_sampled_c_min_reaches_the_witness_ratio(k, a):
    # the sampled minimum can only lie above the true one, which the witness
    # bounds; the polish stops at 1e-9 rad steps and lands within 1.2e-10 of
    # the witness, the unpolished samples 4e-3 or more above it
    spec = cyclic_spec(k, a)
    assert global_bounds(spec, n_pairs=20_000, seed=0).c_min <= 2.0 * spec.beta[0] / math.pi * (1.0 + 1e-9)


@pytest.mark.parametrize("seed", [0, 1])
def test_global_bounds_c_max_never_exceeds_one_on_isometric_specs(seed):
    # the exact c_max of a locally isometric spec is 1; the polish must not
    # walk so close to the identity coset that round-off lifts it above
    over = {}
    for name in TABLE_GROUPS:
        est = global_bounds(registry_lookup(name), n_pairs=20_000, seed=seed)
        if est.c_max > 1.0 + 1e-9:
            over[name] = est.c_max
    assert not over


def test_global_bounds_min_shrinks_under_nested_seeding():
    spec = registry_lookup("D4")
    small = global_bounds(spec, n_pairs=10_000, seed=7, refine=False)
    large = global_bounds(spec, n_pairs=20_000, seed=7, refine=False)
    assert large.c_min <= small.c_min + 1e-12


def test_global_bounds_refinement_only_improves():
    spec = registry_lookup("T")
    raw = global_bounds(spec, n_pairs=10_000, seed=3, refine=False)
    ref = global_bounds(spec, n_pairs=10_000, seed=3, refine=True)
    assert ref.c_min <= raw.c_min + 1e-12
    assert ref.c_max >= raw.c_max - 1e-12
    assert ref.refine_evaluations > 0


def test_bound_ratio_table_d4_row():
    ratio, est = bound_ratio_table("D4", (1.0, 1.11), n_pairs=30_000, seed=0)
    assert ratio == pytest.approx(1.80, abs=0.05)
    assert est.c_max / est.c_min == ratio


def _exhaustive_samples(spec, n_pairs, seed):
    """The selection of ``analysis._extreme_samples`` with every sample's ratio
    evaluated exactly: one draw of all ``n_pairs`` rotations through
    ``analysis.random_quaternions`` (the stream of its chunked draws), rows
    within 1e-9 of the identity coset dropped, then one stable argsort."""
    pair_seq, ladder_seq = np.random.SeedSequence(seed).spawn(2)
    ladder = analysis._ladder_quaternions(np.random.default_rng(ladder_seq))
    quats = np.concatenate([analysis.random_quaternions(np.random.default_rng(pair_seq), n_pairs), ladder])
    d_geo, d_emb = analysis._identity_distances(spec, quats)
    keep = d_geo > 1e-9  # never a rung: their angles are 1e-4 rad and more
    ratios = d_emb[keep] / d_geo[keep]
    order = np.argsort(ratios, kind="stable")
    ends = np.concatenate([order[:10], order[::-1][:10]])
    return quats[keep][ends], ratios[ends]


def _exhaustive_bounds(spec, n_pairs, seed, refine):
    quats, ratios = _exhaustive_samples(spec, n_pairs, seed)
    signs = np.repeat([1.0, -1.0], 10)
    evaluations = 0
    if refine:
        ratios, evaluations = analysis._polish(spec, quats, ratios, signs)
    return analysis.BoundsEstimate(ratios[signs > 0].min(), ratios[signs < 0].max(), n_pairs, evaluations)


def _screen_mismatches(specs, n_pairs, seeds):
    """(spec, seed) cases whose screened ends (rotations and ratios) differ from the exhaustive ones."""
    out = []
    for spec in specs:
        for seed in seeds:
            got, want = analysis._extreme_samples(spec, n_pairs, seed), _exhaustive_samples(spec, n_pairs, seed)
            if not all(np.array_equal(a, b) for a, b in zip(got, want)):
                out.append((spec.group.name, seed))
    return out


@pytest.mark.parametrize("n_pairs", [1, 700, 5_000])
def test_screened_selection_equals_the_exhaustive_one(n_pairs):
    specs = [registry_lookup(name) for name in TABLE_GROUPS]
    assert _screen_mismatches(specs, n_pairs, (0, 1, 12345)) == []


@pytest.mark.parametrize("refine", [False, True])
def test_screened_bounds_equal_the_exhaustive_ones(registered_spec, refine):
    for seed in (0, 1, 12345):
        got = global_bounds(registered_spec, n_pairs=2_000, refine=refine, seed=seed)
        assert got == _exhaustive_bounds(registered_spec, 2_000, seed, refine)


def test_screen_equality_fails_when_the_kernel_is_perturbed(monkeypatch):
    # the equality test has teeth: a kernel off by 1e-3 relative noise, more
    # than its margin, drops true extremes from the candidates
    exact, noise = analysis._gram_d2, np.random.default_rng(4)
    monkeypatch.setattr(
        analysis, "_gram_d2", lambda comps, quats: exact(comps, quats) * (1.0 + 1e-3 * noise.standard_normal(len(quats)))
    )
    specs = [registry_lookup(name) for name in TABLE_GROUPS]
    assert _screen_mismatches(specs, 5_000, (0, 1, 12345))


def _near_group_draws(group, angles):
    """A stand-in for ``random_quaternions``: Haar draws in which every row with
    ``|w| > 0.95`` (about 1.3% of them) becomes a rotation at one of ``angles``
    rad from an element of ``group``.  Angle, element and axis are read from
    the row itself, so chunks and blocks of the stream see the same rows."""
    angles = np.asarray(angles)

    def draw(rng, n):
        q = random_quaternions(rng, n)
        rows = np.flatnonzero(np.abs(q[:, 0]) > 0.95)
        pick = np.abs(q[rows, 1] * 1e9).astype(np.int64)
        turns = quaternions_from_axis_angles(q[rows, 1:], angles[pick % len(angles)])
        q[rows] = _quat_product(group[pick % len(group)], turns)
        return q

    return draw


def _near_group_mismatches(monkeypatch, angles):
    out = []
    for name in TABLE_GROUPS:
        spec = registry_lookup(name)
        monkeypatch.setattr(analysis, "random_quaternions", _near_group_draws(spec.group.quaternions, angles))
        out += _screen_mismatches([spec], 5_000, (0, 1))
    return out


def test_rows_near_a_group_element_select_as_the_exhaustive_path(monkeypatch):
    # rows 1e-10 rad from a group element are dropped (quotient angle below
    # 1e-9), rows 1e-6 and 5e-3 rad away are settled exactly in their block
    draw = _near_group_draws(group_elements("O").quaternions, (1e-10, 1e-6, 5e-3))
    d_geo = analysis.quotient_angles(draw(np.random.default_rng(0), 5_000), group_elements("O").quaternions)
    assert all(np.any(np.abs(d_geo / angle - 1.0) < 1e-3) for angle in (1e-6, 5e-3)) and np.any(d_geo < 1e-9)
    assert _near_group_mismatches(monkeypatch, (1e-10, 1e-6, 5e-3)) == []


def test_screen_equality_fails_with_an_inaccurate_angle(monkeypatch):
    # an angle 1e-6 too large: samples that tie the exact ladder to within
    # rounding lose to it (the ladder holds their coset copies)
    exact = analysis._screen_angles
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_screen_angles", lambda quats, group: exact(quats, group) * (1.0 + 1e-6))
        assert _coset_ladder_mismatches(patch)
    assert not _coset_ladder_mismatches(monkeypatch)
    # the first-order angle margin taken where it no longer holds: below about
    # 1.6e-7 rad it exceeds the angle itself, and near rows are dropped
    monkeypatch.setattr(analysis, "_NEAR_ANGLE", 1e-9)
    assert _near_group_mismatches(monkeypatch, (1e-10, 3e-8, 1e-7, 1e-6))


def _coset_ladder_mismatches(monkeypatch):
    out = []
    for name in TABLE_GROUPS[1:]:
        spec = registry_lookup(name)
        for seed in (0, 1):
            pair_seq, _ = np.random.SeedSequence(seed).spawn(2)
            first = random_quaternions(np.random.default_rng(pair_seq), 512)
            copies = np.concatenate([_quat_product(g, first) for g in spec.group.quaternions[1:6]])
            monkeypatch.setattr(analysis, "_ladder_quaternions", lambda rng, copies=copies: copies)
            out += _screen_mismatches([spec], 2_000, (seed,))
    return out


def test_rotation_quadratic_gives_the_rotation_matrices():
    quats = random_quaternions(np.random.default_rng(8), 200)
    mats = np.einsum("abij,na,nb->nij", analysis._ROTATION_QUADRATIC, quats, quats)
    assert np.abs(mats - quaternions_to_matrices(quats)).max() < 1e-15


def test_gram_kernel_error_is_far_below_its_margin():
    # the heavy specs, whose rank-a component takes the largest share of the
    # margin, over ten times the rotations: widening the margin above rank 10
    # keeps them 100x clear (C6 at rank 30: 177x, and 59x without it)
    rng = np.random.default_rng(77)
    cases = [((name, variant), registry_lookup(name, variant), 2_048)
             for name in TABLE_GROUPS for variant in ("isometric", "arnold")]
    cases += [(name, cyclic_spec(k, a), 2_048) for name, (k, a) in HIGH_RANK_SPECS.items()]
    cases += [(f"{name}-heavy", cyclic_spec(k, a, (0.1, 1.0)), 20_480) for name, (k, a) in HIGH_RANK_SPECS.items()]
    for case, spec, n in cases:
        comps, tau = analysis._gram_tables(spec)
        quats = random_quaternions(rng, n)
        d2 = analysis._gram_d2(comps, quats)
        _, d_emb = analysis._identity_distances(spec, quats)
        assert 100.0 * np.abs(d2 - d_emb**2).max() <= tau, case


# the high-rank specs again with weights that favour the rank-a component,
# where the kernel's rounding takes the largest share of its margin
SCREEN_SPECS = {name: registry_lookup(name) for name in TABLE_GROUPS}
SCREEN_SPECS.update({name: cyclic_spec(k, a) for name, (k, a) in HIGH_RANK_SPECS.items()})
SCREEN_SPECS.update({f"{name}-heavy": cyclic_spec(k, a, (0.1, 1.0)) for name, (k, a) in HIGH_RANK_SPECS.items()})


@pytest.mark.parametrize("spec", SCREEN_SPECS.values(), ids=SCREEN_SPECS.keys())
def test_screen_intervals_hold_the_exact_ratios(spec):
    quats = random_quaternions(np.random.default_rng(5), 1_000)
    lo, hi = analysis._screened_ratios(spec, analysis._gram_tables(spec), quats)
    d_geo, d_emb = analysis._identity_distances(spec, quats)
    ratio = d_emb / d_geo
    finite = np.isfinite(hi)
    assert finite.sum() > 990 and np.all(lo <= ratio) and np.all(ratio <= hi) and np.all((hi - lo)[finite] < 1e-9)


def test_screen_angles_are_the_quotient_angles_within_their_bound(registered_spec):
    group = registered_spec.group.quaternions
    quats = random_quaternions(np.random.default_rng(9), 20_000)
    d = analysis._screen_angles(quats, group)
    exact = analysis.quotient_angles(quats, group)
    bound = 2.0 * math.pi * analysis._COS_ERROR / exact
    assert np.all(np.abs(d - exact) <= bound) and np.abs(d - exact).max() < 1e-12


def test_int_power_is_the_elementwise_power():
    g = np.random.default_rng(6).uniform(-1.0, 1.0, (7, 5))
    for a in range(1, 13):
        assert np.allclose(analysis._int_power(g.copy(), a), g**a, rtol=1e-14, atol=0.0)


def test_large_orbit_spec_takes_the_exact_path():
    # a generic direction has a 12-vector orbit under C12: 144 Gram entries
    # against 12 * 10 class monomials, so the screen is not worth building
    spec = parse_spec_document("group = C\nk = 12\nu = 0.48 0.6 0.64\nalpha = 3\nbeta = 1\n")
    assert len(spec.orbits[0][0]) == 12 and analysis._gram_tables(spec) is None
    assert _screen_mismatches([spec], 3_000, (0, 1)) == []
    assert global_bounds(spec, n_pairs=3_000, seed=2) == _exhaustive_bounds(spec, 3_000, 2, True)


def _bounds_peak(spec, n_pairs):
    tracemalloc.start()
    try:
        global_bounds(spec, n_pairs=n_pairs, refine=False, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bounds_memory_stays_flat_in_the_pair_count():
    spec = registry_lookup("Y")
    global_bounds(spec, n_pairs=1_000, refine=False)  # cached orbit and class tables
    assert _bounds_peak(spec, 400_000) <= _bounds_peak(spec, 50_000) + 2**20


def test_memory_stays_flat_in_the_orbit():
    # C200 at rank 30: 100 orbit vectors up to sign, 49,600 class monomials and
    # 10,000 Gram entries a rotation.  Blocks of at most _BLOCK_ENTRIES entries
    # keep each peak near 10-17 MiB, where whole 512-rotation blocks and
    # 2,048-row screen chunks took 226-314 MiB.
    spec = parse_spec_document("group = C200\nu = 0 1 0\nalpha = 30\nbeta = 1\n")
    calls = {
        "scatter": lambda: distance_scatter(spec, 2048),
        "bounds": lambda: global_bounds(spec, 2048, refine=False),
        "rank": lambda: rank_check(spec, 500, symmetrized=True),
    }
    peaks = {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) < 40 * 2**20, peaks


# ---------------------------------------------------------------------------
# distance scatter


def test_distance_scatter_matches_embedded_distance(rng):
    spec = registry_lookup("C4")
    pts = distance_scatter(spec, 200, seed=11)
    assert pts.shape == (200, 2)
    assert (pts > 0).all()
    # spot-check one pair against the dense tensor computation
    r1, r2 = random_rotation(rng), random_rotation(rng)
    d = embedded_distance(spec, r1, r2)
    g = geodesic_distance(r1, r2)
    assert d <= 1.0001 * g  # c_max = 1 for the isometric spec


def test_distance_scatter_c1_lies_on_analytic_curve():
    pts = distance_scatter(registry_lookup("C1"), 500, seed=2)
    assert np.abs(pts[:, 1] - 2.0 * np.sin(pts[:, 0] / 2.0)).max() < 1e-10


# ---------------------------------------------------------------------------
# centered-measure mean


def test_mean_norm_shrinks_with_clt_rate(registered_spec):
    n = 20_000
    value = mean_check(registered_spec, n, seed=0)
    assert value < 5.0 * radius(registered_spec) / math.sqrt(n)


def test_mean_check_takes_a_rank_past_the_dense_storage_limit():
    # the norm comes from the mean's class values, so no 3^13-entry tensor is formed
    spec = cyclic_spec(8, 13, beta=(0.5, 0.7))
    n = 20_000
    value = mean_check(spec, n, seed=0)
    assert math.isfinite(value) and value < 5.0 * radius(spec) / math.sqrt(n)
    with pytest.raises(ValueError, match="dense-storage limit 12, got 13"):
        empirical_embedding_mean(spec, n, seed=0)  # the dense API edge keeps its limit


@pytest.mark.parametrize("spec", [registry_lookup(name) for name in TABLE_GROUPS] + [cyclic_spec(6, 12)],
                         ids=[*TABLE_GROUPS, "C6-12"])
def test_mean_check_is_the_norm_of_the_dense_mean(spec):
    value = mean_check(spec, 3000, seed=6)
    assert value == pytest.approx(tuple_norm(empirical_embedding_mean(spec, 3000, seed=6)), rel=1e-12, abs=0.0)


def test_mean_check_rejects_uncentered_specs():
    base = registry_lookup("O")
    spec = EmbeddingSpec(base.group, base.u, base.alpha, base.beta, centered=False)
    with pytest.raises(ValueError):
        mean_check(spec, 100)


def test_uncentered_octahedral_mean_is_invariant_tensor_multiple():
    base = registry_lookup("O")
    spec = EmbeddingSpec(base.group, base.u, base.alpha, base.beta, centered=False)
    beta = base.beta[0]
    mean = empirical_embedding_mean(spec, 200_000, seed=4)
    want = (beta / 5.0) * invariant_tensor(4)
    assert np.abs(mean[0] - want).max() < 2e-3
    assert tuple_norm(mean) == pytest.approx(beta * math.sqrt(5.0) / 5.0, abs=2e-3)


def _dense_mean(spec, n, seed):
    """The mean embedding of one draw of ``n`` Haar rotations, as dense outer powers."""
    mats = quaternions_to_matrices(random_quaternions(np.random.default_rng(seed), n))
    out = []
    for (vecs, wts), a, b in zip(spec.orbits, spec.alpha, spec.beta):
        mean = b * sum(wt * outer_power(m @ v, a) for m in mats for v, wt in zip(vecs, wts)) / n
        out.append(mean - (b / (a + 1)) * invariant_tensor(a) if a % 2 == 0 else mean)
    return out


def test_empirical_mean_agrees_with_dense_average():
    spec = registry_lookup("D3")
    for got, want in zip(empirical_embedding_mean(spec, 50, seed=9), _dense_mean(spec, 50, 9)):
        assert np.abs(got - want).max() < 1e-12


def _class_value_mean(spec, n, seed):
    """The mean embedding of one draw of ``n`` Haar rotations in class values,
    one rotation and orbit vector at a time."""
    mats = quaternions_to_matrices(random_quaternions(np.random.default_rng(seed), n))
    out = []
    for (vecs, wts), a, b, offset in zip(spec.orbits, spec.alpha, spec.beta, centering_offsets(spec)):
        mean = b * sum(wt * class_monomials(m @ v, a) for m in mats for v, wt in zip(vecs, wts)) / n
        out.append(mean if offset is None else mean - offset)
    return out


@pytest.mark.parametrize(
    "spec, budget",
    [(registry_lookup(name), 200) for name in ("C4", "D3", "T")] + [(cyclic_spec(8, 13, beta=(0.5, 0.7)), 2000)],
    ids=["C4", "D3", "T", "C8-13"],
)
def test_empirical_mean_over_several_blocks_agrees_with_dense_average(spec, budget, monkeypatch):
    # a small table budget splits the draw into batches, the last one partial,
    # and every call's half-degree tables stay within it; the batches draw one
    # stream, so the mean is that of the one-draw oracle (its dense expansion
    # is checked against dense outer powers above)
    sizes, entries = [], []

    def recorded(rng, n):
        sizes.append(n)
        return random_quaternions(rng, n)

    def counted(w, alpha):
        halves = {alpha // 2, alpha - alpha // 2} if alpha > 1 else {alpha}
        entries.append(w.shape[1] * sum(math.comb(h + 2, 2) for h in halves))
        return class_monomial_sums(w, alpha)

    monkeypatch.setattr(analysis, "_MEAN_ENTRIES", budget)
    monkeypatch.setattr(analysis, "random_quaternions", recorded)
    monkeypatch.setattr(analysis, "class_monomial_sums", counted)
    mean = analysis._haar_mean(spec, 47, seed=9)
    assert len(sizes) >= 3 and sum(sizes) == 47 and sizes[-1] < sizes[0]
    assert len(entries) == len(sizes) * spec.n_components and max(entries) <= budget
    for got, want in zip(mean, _class_value_mean(spec, 47, 9)):
        assert np.abs(got - want).max() < 1e-12


def test_empirical_mean_of_a_near_axis_orbit_agrees_with_dense_average():
    # u 7e-10 off the O 4-fold axis: neighbouring images of a cluster of four
    # lie 9.9e-10 apart and opposite ones 1.4e-9, so single linkage merges
    # each cluster whole: six near-axis vectors at 1/6 (rank 2, up to sign:
    # three at 1/3), where a greedy merge split them unevenly
    spec = EmbeddingSpec(group_elements("O"), ((7e-10, 0.0, 1.0),) * 2, (1, 2), (1.0, 0.8))
    assert [(len(vecs), wts.tolist()) for vecs, wts in spec.orbits] == [(6, [1 / 6] * 6), (3, [1 / 3] * 3)]
    for got, want in zip(empirical_embedding_mean(spec, 50, seed=9), _dense_mean(spec, 50, 9)):
        assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------------------
# exact Haar means by product quadrature


def _design_average(design, f):
    """The design's Haar mean of ``f(mats)``, ``f`` taken per slab of matrices
    ``(N, 3, 3)`` and averaged over the slab's first axis."""
    quats, weights = design
    return sum(w * f(mats).mean(axis=0) for w, mats in zip(weights, quaternions_to_matrices(quats)))


@pytest.mark.parametrize("L", range(2, 13))
def test_design_integrates_first_and_second_moments_of_the_rotation_matrix(L):
    # L up to the dense rank limit; at L = 16 and above, these plain slab
    # means of up to 961 rotations round past 1e-15 (1.6e-15 at L = 28)
    design = analysis._haar_design(L)
    assert design[0].shape == (L // 2 + 1, (L + 1) ** 2, 4)
    first = _design_average(design, lambda m: m)
    second = _design_average(design, lambda m: np.einsum("nij,nkl->nijkl", m, m))
    assert np.abs(first).max() <= 1e-15
    assert np.abs(second - np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3)) / 3).max() <= 1e-15


@pytest.mark.parametrize("m", range(1, MAX_CLASS_RANK // 2 + 2))
def test_gauss_legendre_nodes_and_weights_are_those_of_leggauss(m):
    from numpy.polynomial.legendre import leggauss  # the tests only; the package never imports it

    nodes, weights = analysis._gauss_legendre(m)
    want_nodes, want_weights = leggauss(m)
    assert np.abs(nodes - want_nodes).max() <= 1e-15
    assert np.abs(weights - want_weights / 2).max() <= 1e-15
    assert abs(weights.sum() - 1.0) <= 1e-15


_AXES = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.36, -0.48, 0.8)]


def _power_mean(L, alpha, u):
    """The design's class-value mean of ``(R u)^{x alpha}`` for a design of degree ``L``."""
    return _design_average(analysis._haar_design(L), lambda m: class_monomials((m @ np.array(u)).T, alpha).T)


@pytest.mark.parametrize("alpha", range(1, MAX_CLASS_RANK + 1))
def test_design_mean_of_a_tensor_power_is_the_isotropic_moment(alpha):
    # E[(R u)^{x alpha}] = I_alpha / (alpha + 1) at even alpha and 0 at odd alpha
    want = invariant_class_values(alpha) / (alpha + 1) if alpha % 2 == 0 else 0.0
    for u in _AXES:
        assert np.abs(_power_mean(alpha, alpha, u) - want).max() <= 1e-14
    # a design one degree short misses by far more than rounding (2.3e-10 at rank 30)
    assert min(np.abs(_power_mean(alpha - 1, alpha, u) - want).max() for u in _AXES) > 1e-12


def test_exact_mean_of_an_uncentered_spec_keeps_its_isotropic_part():
    base = registry_lookup("O")
    spec = EmbeddingSpec(base.group, base.u, base.alpha, base.beta, centered=False)
    value = analysis._mean_norm(spec)
    assert value == pytest.approx(base.beta[0] * math.sqrt(5.0) / 5.0, rel=1e-14, abs=0.0)
    assert value > 1e9 * 1e-12 * radius(spec)


def test_exact_mean_norms_of_registered_specs_are_rounding_level():
    for spec in [registry_lookup(name) for name in TABLE_GROUPS] + [cyclic_spec(8, 13, beta=(0.5, 0.7))]:
        assert analysis._mean_norm(spec) < 1e-14 * radius(spec)


# ---------------------------------------------------------------------------
# affine-hull dimension


@pytest.mark.parametrize("name", [*TABLE_GROUPS, *TIED_SPECS])
def test_rank_of_component_maps(name):
    spec, span = TIED_SPECS[name] if name in TIED_SPECS else (registry_lookup(name), AMBIENT_RANKS[name])
    got = rank_check(spec, n_samples=max(500, 2 * expected_hull_dimension(spec)), seed=0)
    assert got == expected_hull_dimension(spec) == span


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_rank_of_symmetrized_image(name):
    spec = registry_lookup(name)
    n = max(500, 2 * expected_hull_dimension(spec))
    got = rank_check(spec, n_samples=n, seed=0, symmetrized=True)
    assert got == QUOTIENT_RANKS[name]
    # stable under resampling, bounded by the component-map span
    again = rank_check(spec, n_samples=n + 100, seed=1, symmetrized=True)
    assert again == got
    assert got <= AMBIENT_RANKS[name] <= expected_hull_dimension(spec)


def _moment_eigenvalues(spec, design, symmetrized):
    """Ascending eigenvalues of the design's second moment of the centered
    embedding in orthonormal class coordinates (class values times the square
    roots of the class sizes), sampled as :func:`rank_check` samples it."""
    sampled = spec if symmetrized else EmbeddingSpec(group_elements("C1"), spec.u, spec.alpha, spec.beta)
    scale = np.concatenate([np.sqrt(class_multiplicities(a)) for a in spec.alpha])
    quats, weights = design
    moment = 0.0
    for weight, mats in zip(weights, quaternions_to_matrices(quats)):
        y = np.concatenate(class_values(sampled, mats), axis=1) * scale
        moment = moment + (weight / len(y)) * (y.T @ y)
    return np.linalg.eigvalsh(moment)  # the tests only; the package never calls a symmetric eigensolver


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_rank_check_is_the_rank_of_the_exact_second_moment(name):
    # the moment's entries have degree at most 2 max(alpha) in R, so a design of
    # that degree integrates them exactly, and its rank is the dimension of
    # the span rank_check samples; kept and dropped eigenvalues lie far apart
    spec = registry_lookup(name)
    design = analysis._haar_design(2 * max(spec.alpha))
    n = max(500, 2 * expected_hull_dimension(spec))
    for symmetrized in (False, True):
        eig = _moment_eigenvalues(spec, design, symmetrized)
        kept = eig > 1e-12 * eig[-1]
        assert kept.sum() == rank_check(spec, n_samples=n, seed=0, symmetrized=symmetrized)
        assert eig[kept].min() > 1e-3 * eig[-1] and eig[~kept].max(initial=0.0) < 1e-14 * eig[-1]


def test_a_design_too_short_for_the_second_moment_misses_the_rank():
    # a degree-1 design has 4 rotations, so the moment has rank at most 4
    eig = _moment_eigenvalues(registry_lookup("Y"), analysis._haar_design(1), False)
    assert (eig > 1e-12 * eig[-1]).sum() <= 4 < AMBIENT_RANKS["Y"]


def test_rank_check_rejects_uncentered_and_tiny_samples():
    base = registry_lookup("C2")
    spec = EmbeddingSpec(base.group, base.u, base.alpha, base.beta, centered=False)
    with pytest.raises(ValueError):
        rank_check(spec)
    with pytest.raises(ValueError):
        rank_check(base, n_samples=1)
