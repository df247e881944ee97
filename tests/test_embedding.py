import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from so3embed import embedding
from so3embed.embedding import (
    TABLE_GROUPS,
    EmbeddingSpec,
    class_norms,
    class_values,
    dense_class_columns,
    dense_rows,
    embed,
    embedded_distance,
    equivariance_defect,
    expected_hull_dimension,
    format_spec_document,
    parse_spec_document,
    radius,
    registry_lookup,
)
from so3embed.so3 import (
    Coset,
    Rotation,
    as_coset,
    coset_distance,
    geodesic_distance,
    group_elements,
    quaternions_to_matrices,
    random_quaternions,
    random_rotation,
)
from so3embed.tensors import class_monomials, class_multiplicities, invariant_class_values, invariant_tensor, outer_power
from so3embed.tensors import tuple_norm

SQ2 = math.sqrt(2.0)

# group -> (alpha, beta) of the locally isometric parameter set
ISOMETRIC_TABLE = {
    "C1": ((1, 1, 1), (1 / SQ2, 1 / SQ2, 1 / SQ2)),
    "C2": ((1, 2, 2), (1 / SQ2, 0.5, 0.5)),
    "C3": ((1, 3), (math.sqrt(5.0 / 6.0), 2.0 / 3.0)),
    "C4": ((1, 4), (1 / SQ2, 1 / SQ2)),
    "C6": ((1, 6), (1 / math.sqrt(12.0), 2.0 * SQ2 / 3.0)),
    "D2": ((2, 2, 2), (0.5, 0.5, 0.5)),
    "D3": ((2, 3), (math.sqrt(5.0 / 12.0), 2.0 / 3.0)),
    "D4": ((2, 4), (0.5, 1 / SQ2)),
    "D6": ((2, 6), (1 / math.sqrt(24.0), 2.0 * SQ2 / 3.0)),
    "T": ((3,), (3.0 / (2.0 * SQ2),)),
    "O": ((4,), (3.0 / (2.0 * SQ2),)),
    "Y": ((10,), (75.0 / (8.0 * math.sqrt(95.0)),)),
}

HULL_DIMENSIONS = {
    "C1": 9, "C2": 13, "C3": 13, "C4": 17, "C6": 30, "D2": 10,
    "D3": 15, "D4": 19, "D6": 32, "T": 10, "O": 14, "Y": 65,
}


# ---------------------------------------------------------------------------
# registry


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_registry_isometric_parameters(name):
    spec = registry_lookup(name)
    alpha, beta = ISOMETRIC_TABLE[name]
    assert spec.alpha == alpha
    assert spec.beta == pytest.approx(beta, abs=1e-15)
    assert spec.centered
    assert spec.group.name == name
    for vec in spec.u:
        assert sum(x * x for x in vec) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_registry_arnold_variant_has_unit_weights(name):
    spec = registry_lookup(name, "arnold")
    assert all(b == 1.0 for b in spec.beta)


def test_registry_rejects_unknown_entries():
    with pytest.raises(ValueError):
        registry_lookup("C5")
    with pytest.raises(ValueError):
        registry_lookup("O", "fast")


def test_registry_is_cached():
    assert registry_lookup("T") is registry_lookup("T")


# ---------------------------------------------------------------------------
# spec construction


def test_spec_renormalizes_slightly_off_unit_vectors():
    v = (1.0 + 5e-7, 0.0, 0.0)
    spec = EmbeddingSpec(group_elements("C1"), (v,), (2,), (1.0,))
    assert spec.u[0] == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)


@pytest.mark.parametrize(
    "u,alpha,beta",
    [
        (((2.0, 0.0, 0.0),), (2,), (1.0,)),       # far from unit
        (((1.0, 0.0, 0.0),), (0,), (1.0,)),       # rank zero
        (((1.0, 0.0, 0.0),), (2,), (0.0,)),       # zero weight
        (((1.0, 0.0, 0.0),), (2, 2), (1.0,)),     # length mismatch
        ((), (), ()),                             # empty
        (((1.0, 0.0),), (2,), (1.0,)),            # not a 3-vector
        (((math.nan, 0.0, 0.0),), (2,), (1.0,)),  # non-finite direction
        (((1.0, 0.0, 0.0),), (2,), (math.inf,)),  # non-finite weight
        (((1.0, 0.0, 0.0),), (31,), (1.0,)),      # rank past MAX_CLASS_RANK
    ],
)
def test_spec_validation_rejects_bad_parameters(u, alpha, beta):
    with pytest.raises(ValueError):
        EmbeddingSpec(group_elements("C1"), u, alpha, beta)


def test_a_rank_past_the_dense_limit_has_class_values_and_no_dense_layout():
    # ranks up to 30 are class values; the dense layout stores 3^alpha entries and stops at 12
    from so3embed.projection import project_many

    spec = EmbeddingSpec(group_elements("C", 5), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (1, 13), (0.5, 0.7))
    assert [v.shape for v in class_values(spec, np.eye(3)[None])] == [(1, 3), (1, 105)]
    assert radius(spec) > 0.0
    assert embedded_distance(spec, Rotation.identity(), random_rotation(np.random.default_rng(1))) > 0.0
    dense = [
        lambda: spec.columns,
        lambda: spec.ambient_dimension,
        lambda: dense_class_columns(spec),
        lambda: dense_rows(spec, class_values(spec, np.eye(3)[None])),
        lambda: embed(spec, Rotation.identity()),
        lambda: project_many(spec, np.ones((1, 3))),
    ]
    for call in dense:
        with pytest.raises(ValueError, match="dense-storage limit 12, got 13"):
            call()


def test_orbit_weights_sum_to_one(registered_spec):
    for vecs, wts in registered_spec.orbits:
        assert wts.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.abs(np.linalg.norm(vecs, axis=1) - 1.0).max() < 1e-12
        assert len(registered_spec.group) % len(vecs) == 0


REGISTERED_SPECS = {f"{name}-{variant}": (name, variant) for name in TABLE_GROUPS for variant in ("isometric", "arnold")}

# Unregistered even-rank specs: e1 is the C8 axis (an orbit of one) and e2
# sweeps the plane (eight vectors in four antipodal pairs); D4 takes a
# generic direction, whose orbit holds no antipodal pair.
EXTRA_SPECS = {
    "C8-alpha8": lambda: EmbeddingSpec(group_elements("C", 8), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (8, 8), (1.0, 0.7)),
    "D4-alpha6": lambda: EmbeddingSpec(group_elements("D", 4), ((0.48, 0.6, 0.64),), (6,), (0.9,)),
}


@pytest.mark.parametrize("key", REGISTERED_SPECS)
def test_even_rank_orbits_are_taken_up_to_sign(key):
    spec = registry_lookup(*REGISTERED_SPECS[key])
    for (vecs, wts), a in zip(spec.orbits, spec.alpha):
        if a % 2:
            continue
        gaps = np.abs(vecs[:, None, :] + vecs[None, :, :]).max(axis=2)
        assert gaps.min() > 1e-6  # no antipodal pair
        assert np.all(wts == wts[0])
        assert wts.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("key", REGISTERED_SPECS)
def test_odd_rank_orbits_keep_every_distinct_image(key):
    spec = registry_lookup(*REGISTERED_SPECS[key])
    for (vecs, wts), u, a in zip(spec.orbits, spec.u_vectors, spec.alpha):
        if a % 2 == 0:
            continue
        images = np.unique(np.round(spec.group.matrices @ u, 9) + 0.0, axis=0)
        assert np.array_equal(np.unique(np.round(vecs, 9) + 0.0, axis=0), images)
        assert np.all(wts == 1.0 / len(images))


def test_only_even_rank_orbits_fold_antipodal_images():
    # The O orbit of e1 is +-e1, +-e2, +-e3; the C8 orbit of e2 is eight plane vectors.
    for alpha, size in ((3, 6), (4, 3)):
        vecs, wts = EmbeddingSpec(group_elements("O"), ((1.0, 0.0, 0.0),), (alpha,), (1.0,)).orbits[0]
        assert len(vecs) == size and np.all(wts == 1.0 / size)
    vecs, wts = EXTRA_SPECS["C8-alpha8"]().orbits[1]
    assert len(vecs) == 4 and np.all(wts == 0.25)


@pytest.mark.parametrize("key", REGISTERED_SPECS)
def test_registered_orbit_weights_are_one_over_the_orbit_size(key):
    # the mean sweep sums an orbit unweighted and scales the sum by this one weight
    for vecs, wts in registry_lookup(*REGISTERED_SPECS[key]).orbits:
        assert np.array_equal(wts, np.full(len(vecs), 1.0 / len(vecs)))


@pytest.mark.parametrize("group", [*(f"{f}{k}" for f in "CD" for k in range(1, 13)), "T", "O", "Y"])
def test_orbit_weights_are_one_over_the_orbit_size(group, rng):
    # orbit-stabilizer: every image of u is met |S| / len(orbit) times, so
    # each weight is (|S| / k) / |S|, which rounds to exactly 1 / k
    random = rng.normal(size=3)
    dirs = (*np.eye(3), np.ones(3) / math.sqrt(3.0), random / np.linalg.norm(random))
    ranks = range(1, 7)
    us = [u for u in dirs for _ in ranks]
    spec = EmbeddingSpec(group_elements(group), us, [*ranks] * len(dirs), [1.0] * len(us))
    for vecs, wts in spec.orbits:
        assert np.array_equal(wts, np.full(len(vecs), 1.0 / len(vecs)))


ORBIT_SPECS = {
    "O near an axis": ("O", ((7e-10, 0.0, 1.0), (7e-10, 0.0, 1.0)), (1, 2)),
    "C12 on its axis": ("C12", ((1.0, 0.0, 0.0), (0.0, 0.6, 0.8)), (3, 4)),
    "D37 generic": ("D37", ((0.48, 0.6, 0.64), (0.0, 1.0, 0.0)), (2, 3)),
    "Y generic": ("Y", ((0.48, 0.6, 0.64), (0.0, 0.0, 1.0)), (5, 10)),
}


@pytest.mark.parametrize("key", ORBIT_SPECS)
def test_orbits_do_not_depend_on_their_row_blocks(key, monkeypatch):
    # registered orders take one block; one image a block must link the same clusters
    group, us, alpha = ORBIT_SPECS[key]
    whole = EmbeddingSpec(group_elements(group), us, alpha, (1.0,) * len(us)).orbits
    monkeypatch.setattr(embedding, "_BLOCK_ENTRIES", 1)
    split = EmbeddingSpec(group_elements(group), us, alpha, (1.0,) * len(us)).orbits
    for (v1, w1), (v2, w2) in zip(whole, split, strict=True):
        assert np.array_equal(v1, v2) and np.array_equal(w1, w2)


def test_orbit_memory_stays_bounded_in_the_group_order():
    # D1000 has 2,000 images; all their differences at once took 248 MiB
    spec = EmbeddingSpec(group_elements("D1000"), ((0.48, 0.6, 0.64),), (2,), (1.0,))
    tracemalloc.start()
    try:
        assert len(spec.orbits[0][0]) == 2000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_row_blocks_keep_at_least_one_row_and_at_most_the_cap():
    row_blocks, budget = embedding._row_blocks, embedding._BLOCK_ENTRIES
    assert row_blocks(0, 5) == [] and row_blocks(10, 1) == [slice(0, budget)]
    assert row_blocks(3, budget + 1) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert row_blocks(5, budget // 2) == [slice(0, 2), slice(2, 4), slice(4, 6)]
    assert row_blocks(5, 1, cap=2) == row_blocks(5, budget // 2, cap=3)
    assert row_blocks(1000, 4, cap=512) == [slice(0, 512), slice(512, 1024)]


@pytest.mark.parametrize("key", [*REGISTERED_SPECS, *EXTRA_SPECS])
def test_class_values_match_plain_group_average(key, rng):
    # The folded orbit sum against the plain average of class_monomials(R s u)
    # over all |S| group elements, which needs no orbit bookkeeping.
    spec = EXTRA_SPECS[key]() if key in EXTRA_SPECS else registry_lookup(*REGISTERED_SPECS[key])
    mats = np.array([random_rotation(rng).matrix for _ in range(5)])
    got = class_values(spec, mats)
    for vals, u, a, b in zip(got, spec.u_vectors, spec.alpha, spec.beta):
        want = (b / len(spec.group)) * sum(class_monomials((mats @ s @ u).T, a) for s in spec.group.matrices).T
        if spec.centered and a % 2 == 0:
            want = want - (b / (a + 1)) * invariant_class_values(a)
        assert np.abs(vals - want).max() <= 1e-14


# ---------------------------------------------------------------------------
# the embedding map


def test_c1_identity_embedding_is_scaled_basis():
    spec = registry_lookup("C1")
    pt = embed(spec, Rotation.identity())
    for i, comp in enumerate(pt.value):
        expected = np.zeros(3)
        expected[i] = 1.0 / SQ2
        assert np.abs(comp - expected).max() < 1e-15


def test_o_identity_embedding_matches_hand_average():
    spec = registry_lookup("O")
    beta = spec.beta[0]
    pt = embed(spec, Rotation.identity())
    axes = np.vstack([np.eye(3), -np.eye(3)])
    hand = sum(outer_power(v, 4) for v in axes) / 6.0
    hand = beta * hand - (beta / 5.0) * invariant_tensor(4)
    assert np.abs(pt.value[0] - hand).max() < 1e-14


@pytest.mark.parametrize("variant", ["isometric", "arnold"])
@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_embed_matches_dense_orbit_average(name, variant, rng):
    # Against the deduplicated orbit average, and against the plain average
    # over all |S| elements, which needs no orbit bookkeeping.
    spec = registry_lookup(name, variant)
    r = random_rotation(rng)
    got = embed(spec, r).value
    for i, ((vecs, wts), u, a, b) in enumerate(zip(spec.orbits, spec.u_vectors, spec.alpha, spec.beta)):
        orbit = b * sum(wt * outer_power(r.matrix @ v, a) for v, wt in zip(vecs, wts))
        plain = (b / len(spec.group)) * sum(outer_power(r.matrix @ s @ u, a) for s in spec.group.matrices)
        for want in (orbit, plain):
            if a % 2 == 0:
                want = want - (b / (a + 1)) * invariant_tensor(a)
            assert np.abs(got[i] - want).max() < 1e-14


def test_embedding_is_well_defined_on_cosets(rng, registered_spec):
    g = registered_spec.group
    r = random_rotation(rng)
    s = Rotation(g.quaternions[len(g) // 2])
    a = embed(registered_spec, Coset(r, g))
    b = embed(registered_spec, Coset(r @ s, g))
    for x, y in zip(a.value, b.value):
        assert np.abs(x - y).max() < 1e-13


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(TABLE_GROUPS),
    q=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4),
)
def test_embed_does_not_depend_on_the_representative(name, q):
    # embed(R s) = embed(R) for every element s.
    assume(np.linalg.norm(q) > 1e-3)
    spec = registry_lookup(name)
    r = Rotation.from_quaternion(q)
    want = embed(spec, r).flatten()
    for s in spec.group:
        assert np.abs(embed(spec, r @ s).flatten() - want).max() < 1e-13


def test_embed_coerces_rotations(rng):
    spec = registry_lookup("C3")
    r = random_rotation(rng)
    a = embed(spec, r)
    b = embed(spec, as_coset(r, spec.group))
    for x, y in zip(a.value, b.value):
        assert np.array_equal(x, y)


def test_flatten_concatenates_row_major(rng):
    spec = registry_lookup("C2")
    pt = embed(spec, random_rotation(rng))
    flat = pt.flatten()
    assert flat.shape == (3 + 9 + 9,)
    assert np.array_equal(flat[3:12], pt.value[1].ravel())


# ---------------------------------------------------------------------------
# sphere radius and equivariance


@pytest.mark.parametrize("key", [("C1", "isometric"), ("C2", "isometric"), ("D2", "arnold"), ("Y", "isometric")])
def test_dense_class_columns_take_the_dense_rows_from_class_values(key, rng):
    spec = registry_lookup(*key)
    comps = class_values(spec, quaternions_to_matrices(random_quaternions(rng, 3)))
    assert np.array_equal(np.concatenate(comps, axis=1)[:, dense_class_columns(spec)], dense_rows(spec, comps))


def test_c1_radius_closed_form():
    assert radius(registry_lookup("C1")) == pytest.approx(math.sqrt(1.5), abs=1e-14)


def test_radius_is_constant_on_the_quotient(rng, registered_spec):
    r0 = radius(registered_spec)
    for _ in range(20):
        pt = embed(registered_spec, random_rotation(rng))
        assert abs(pt.norm - r0) < 1e-10


def test_centering_shrinks_radius_by_invariant_part(registered_spec):
    uncentered = EmbeddingSpec(
        registered_spec.group,
        registered_spec.u,
        registered_spec.alpha,
        registered_spec.beta,
        centered=False,
    )
    gap = radius(uncentered) ** 2 - radius(registered_spec) ** 2
    # the invariant part of each even component has squared norm b^2/(a+1)
    want = sum(
        b * b / (a + 1)
        for a, b in zip(registered_spec.alpha, registered_spec.beta)
        if a % 2 == 0
    )
    assert gap == pytest.approx(want, abs=1e-12)


def test_equivariance_defect_is_tiny(rng, registered_spec):
    for _ in range(5):
        d = equivariance_defect(registered_spec, random_rotation(rng), random_rotation(rng))
        assert d < 1e-10


# ---------------------------------------------------------------------------
# hull dimension and distances


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_expected_hull_dimension_formula(name):
    assert expected_hull_dimension(registry_lookup(name)) == HULL_DIMENSIONS[name]


def test_embedded_distance_c1_curve(rng):
    spec = registry_lookup("C1")
    for _ in range(10):
        r1, r2 = random_rotation(rng), random_rotation(rng)
        d = geodesic_distance(r1, r2)
        got = embedded_distance(spec, r1, r2)
        assert got == pytest.approx(2.0 * math.sin(d / 2.0), abs=1e-12)


def test_embedded_distance_vanishes_only_on_equal_cosets(rng, registered_spec):
    g = registered_spec.group
    r = random_rotation(rng)
    s = Rotation(g.quaternions[-1])
    assert embedded_distance(registered_spec, r, r @ s) < 1e-10
    # distinct cosets stay separated: the embedding is injective
    for _ in range(10):
        r2 = random_rotation(rng)
        c1, c2 = Coset(r, g), Coset(r2, g)
        if coset_distance(c1, c2) > 0.1:
            assert embedded_distance(registered_spec, c1, c2) > 1e-3


def test_class_norms_give_a_row_the_same_bits_in_any_batch():
    # A BLAS product or a numpy reduction sums a row in an order the batch
    # shape picks; every row of a 512-row batch must match its norm alone.
    quats = random_quaternions(np.random.default_rng(19), 512)
    mats = quaternions_to_matrices(quats)
    mismatched = {}
    for name in TABLE_GROUPS:
        for variant in ("isometric", "arnold"):
            spec = registry_lookup(name, variant)
            comps = [v - v0 for v, v0 in zip(class_values(spec, mats), spec.identity_class_values)]
            batch = class_norms(spec, comps)
            alone = np.array([class_norms(spec, [v[i : i + 1] for v in comps])[0] for i in range(len(quats))])
            if not np.array_equal(batch, alone):
                mismatched[name, variant] = int(np.count_nonzero(batch != alone))
            want = np.sqrt(sum((v * v) @ class_multiplicities(a) for v, a in zip(comps, spec.alpha)))
            np.testing.assert_allclose(batch, want, rtol=1e-14)
    assert not mismatched


# ---------------------------------------------------------------------------
# spec documents


def test_spec_document_round_trip(registered_spec):
    text = format_spec_document(registered_spec)
    back = parse_spec_document(text)
    assert back.group.matches(registered_spec.group)
    assert back.alpha == registered_spec.alpha
    assert back.beta == registered_spec.beta
    assert np.abs(np.array(back.u) - np.array(registered_spec.u)).max() < 1e-15
    assert back.centered == registered_spec.centered


def test_spec_document_defaults_from_registry():
    spec = parse_spec_document("group = D4\n")
    assert spec.alpha == registry_lookup("D4").alpha


def test_spec_document_overrides_and_comments():
    text = "# comment line\ngroup = C2\nbeta = 1 0.5 0.5\ncentered = false\n"
    spec = parse_spec_document(text)
    assert spec.beta == (1.0, 0.5, 0.5)
    assert not spec.centered


@pytest.mark.parametrize(
    "text",
    [
        "alpha = 2\n",                          # missing group
        "group = C2\ngroup = C3\n",             # duplicate key
        "group = C4\nGROUP = O\n",              # duplicate key in another case
        "group = C2\nwhat = 1\n",               # unknown key
        "group = C2\ncentered = maybe\n",       # bad boolean
        "group = C2\nno equals sign here\n",    # malformed line
    ],
)
def test_spec_document_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        parse_spec_document(text)
