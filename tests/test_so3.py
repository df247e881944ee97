import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from so3embed.embedding import TABLE_GROUPS
from so3embed.so3 import (
    GOLDEN_RATIO,
    Coset,
    Rotation,
    SymmetryGroup,
    _quat_product,
    as_coset,
    canonical_quaternion,
    coset_distance,
    fundamental_quaternions,
    fundamental_representative,
    geodesic_distance,
    group_elements,
    normalized_quaternions,
    quaternions_from_axis_angles,
    quaternions_from_matrices,
    quaternions_to_matrices,
    random_quaternions,
    random_rotation,
)
from so3embed import so3

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# rotations


def test_identity_quaternion_gives_identity_matrix():
    r = Rotation.from_quaternion([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(r.matrix, np.eye(3), atol=1e-15)
    assert r.angle == 0.0


def test_axis_angle_quarter_turn_about_z_moves_x_to_y():
    r = Rotation.from_axis_angle(E3, math.pi / 2)
    assert np.allclose(r.apply(E1), E2, atol=1e-15)


def test_quaternion_matrix_round_trip(rng):
    for _ in range(50):
        r = random_rotation(rng)
        back = Rotation.from_matrix(r.matrix)
        assert np.abs(back.matrix - r.matrix).max() < 1e-14


def _half_turns() -> np.ndarray:
    """Half turns about the axes, face diagonals and body diagonals, both signs."""
    axes = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, -1], [0, 1, 1], [1, 1, 1], [1, -1, 1]])
    q = np.column_stack([np.zeros(len(axes)), axes / np.linalg.norm(axes, axis=1)[:, None]])
    return np.concatenate([q, -q])


def _special_quaternions(rng) -> np.ndarray:
    """Haar samples, the identity, half turns and every registered group's elements."""
    groups = [group_elements(name).quaternions for name in TABLE_GROUPS]
    return np.concatenate([random_quaternions(rng, 500), [[1.0, 0.0, 0.0, 0.0]], _half_turns()] + groups)


def _shepperd_scalar(m: np.ndarray) -> np.ndarray:
    """The one-matrix Shepperd conversion the batched one replaced, kept as the
    reference: its branch and expressions, normalized as before."""
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        return normalized_quaternions([q])[0]
    i = int(np.argmax([m[0, 0], m[1, 1], m[2, 2]]))
    if i == 0:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
    elif i == 1:
        s = math.sqrt(1.0 - m[0, 0] + m[1, 1] - m[2, 2]) * 2.0
        q = [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
    else:
        s = math.sqrt(1.0 - m[0, 0] - m[1, 1] + m[2, 2]) * 2.0
        q = [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
    return normalized_quaternions([q])[0]


def test_quaternions_from_matrices_keep_the_bits_of_the_one_matrix_conversion(rng):
    # Haar samples, the identity, half turns about e1, e2, e3 and the diagonals,
    # and every element of every registered group (O and Y among them)
    mats = quaternions_to_matrices(_special_quaternions(rng))
    diag = mats.reshape(-1, 9)[:, ::4]
    trace = diag.sum(axis=1)
    branches = np.where(trace > 0.0, 0, 1 + diag.argmax(axis=1))
    assert set(branches.tolist()) == {0, 1, 2, 3}  # every Shepperd branch is taken
    got = quaternions_from_matrices(mats)
    for m, q in zip(mats, got):
        assert np.array_equal(q, _shepperd_scalar(m))
        assert np.array_equal(q, quaternions_from_matrices(m[None])[0])
        assert np.array_equal(Rotation.from_matrix(m).quat, Rotation(q).quat)


@pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (2, 2, 3, 3)])
def test_quaternions_from_matrices_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match=r"shape \(N, 3, 3\)"):
        quaternions_from_matrices(np.zeros(shape))


def test_quaternions_from_axis_angles_broadcast_and_match_their_one_row_calls(rng):
    axes, angles = rng.normal(size=(5, 3)), rng.uniform(-7.0, 7.0, size=4)
    grid = quaternions_from_axis_angles(axes, angles[:, None])  # (4, 5, 4)
    assert grid.shape == (4, 5, 4)
    assert quaternions_from_axis_angles(axes, 0.3).shape == (5, 4)
    assert quaternions_from_axis_angles(axes[0], angles).shape == (4, 4)
    for i, angle in enumerate(angles):
        for j, axis in enumerate(axes):
            q = quaternions_from_axis_angles(axis, angle)
            assert q.shape == (4,)
            assert np.array_equal(grid[i, j], q)
            assert np.array_equal(Rotation.from_axis_angle(axis, angle).quat, Rotation(q).quat)
            r = Rotation(q)
            assert np.abs(r.apply(axis) - axis).max() < 1e-14
            assert abs(r.angle - abs(math.remainder(angle, 2.0 * math.pi))) < 1e-12
    with pytest.raises(ValueError, match="numerically zero"):
        quaternions_from_axis_angles(np.zeros((2, 3)), 1.0)


def test_quaternions_to_matrices_keeps_the_bits_of_the_entrywise_formula(rng):
    # the formula before its products were shared, entry by entry
    q = _special_quaternions(rng)
    w, x, y, z = q.T
    ref = np.empty((len(q), 3, 3))
    ref[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    ref[:, 0, 1] = 2.0 * (x * y - z * w)
    ref[:, 0, 2] = 2.0 * (x * z + y * w)
    ref[:, 1, 0] = 2.0 * (x * y + z * w)
    ref[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    ref[:, 1, 2] = 2.0 * (y * z - x * w)
    ref[:, 2, 0] = 2.0 * (x * z - y * w)
    ref[:, 2, 1] = 2.0 * (y * z + x * w)
    ref[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    got = quaternions_to_matrices(q)
    assert np.array_equal(got, ref) and got.flags.c_contiguous  # the layout decides BLAS results downstream
    assert np.array_equal(quaternions_to_matrices(q[7]), ref[7])
    assert np.array_equal(quaternions_to_matrices(q[:6].reshape(2, 3, 4)), ref[:6].reshape(2, 3, 3, 3))


def test_axis_angle_round_trip(rng):
    for _ in range(25):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.05, math.pi - 0.05)
        r = Rotation.from_axis_angle(axis, angle)
        got_axis, got_angle = r.as_axis_angle()
        assert abs(got_angle - angle) < 1e-12
        assert min(np.linalg.norm(got_axis - axis), np.linalg.norm(got_axis + axis)) < 1e-10


def test_euler_zyz_matches_explicit_composition(rng):
    for _ in range(20):
        a, c = rng.uniform(0.0, 2 * math.pi, size=2)
        b = rng.uniform(0.0, math.pi)
        r = Rotation.from_euler_zyz(a, b, c)
        prod = (
            Rotation.from_axis_angle(E3, a)
            @ Rotation.from_axis_angle(E2, b)
            @ Rotation.from_axis_angle(E3, c)
        )
        assert np.abs(r.matrix - prod.matrix).max() < 1e-13


def test_euler_zyz_round_trip(rng):
    for _ in range(20):
        r = random_rotation(rng)
        back = Rotation.from_euler_zyz(*r.as_euler_zyz())
        assert np.abs(back.matrix - r.matrix).max() < 1e-12


def test_from_matrix_rejects_non_rotation():
    with pytest.raises(ValueError):
        Rotation.from_matrix(np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        Rotation.from_matrix(np.diag([1.0, 1.0, -1.0]))  # determinant -1


def test_inverse_and_composition(rng):
    r1 = random_rotation(rng)
    r2 = random_rotation(rng)
    prod = r1 @ r2
    assert np.abs(prod.matrix - r1.matrix @ r2.matrix).max() < 1e-14
    assert np.abs((r1 @ r1.inverse()).matrix - np.eye(3)).max() < 1e-14


def test_apply_matches_matrix_vector_product(rng):
    r = random_rotation(rng)
    v = rng.normal(size=3)
    assert np.allclose(r.apply(v), r.matrix @ v, atol=1e-15)


def test_canonical_quaternion_fixes_sign():
    q = np.array([-0.5, 0.5, 0.5, -0.5])
    assert canonical_quaternion(q)[0] > 0
    # w = 0: first nonzero entry becomes positive
    q0 = np.array([0.0, -1.0, 0.0, 0.0])
    assert canonical_quaternion(q0)[1] > 0


def _canonical_scalar(q: np.ndarray) -> np.ndarray:
    """The one-quaternion sign rule the batched one replaced, kept as the reference."""
    for c in q:
        if c != 0.0:
            return q if c > 0.0 else -q
    return q


def test_canonical_quaternion_batches_rows_bit_for_bit(rng):
    # signed zeros in every position, the zero quaternion and both signs of
    # each special quaternion; -0.0 counts as zero and keeps its sign bit
    zeros = np.array(list(itertools.product((0.0, -0.0), repeat=4)))
    special = _special_quaternions(rng)
    q = np.concatenate([zeros, special, -special, [[-0.0, -0.0, 0.5, -0.5], [0.0, -0.0, -1.0, 0.0]]])
    got = canonical_quaternion(q)
    for row, out in zip(q, got):
        want = _canonical_scalar(row)
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(canonical_quaternion(row).view(np.uint64), want.view(np.uint64))
    stacked = canonical_quaternion(q.reshape(-1, 2, 4))  # any leading shape
    assert np.array_equal(stacked.reshape(-1, 4).view(np.uint64), got.view(np.uint64))


# ---------------------------------------------------------------------------
# geodesic distance


@pytest.mark.parametrize("angle", [1e-9, 1e-4, 0.3, 2.0, math.pi - 1e-3])
def test_geodesic_distance_recovers_rotation_angle(angle, rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    r = Rotation.from_axis_angle(axis, angle)
    d = geodesic_distance(Rotation.identity(), r)
    assert abs(d - angle) < 1e-12 * max(1.0, angle / 1e-9)
    assert abs(d - angle) / angle < 1e-6


def test_geodesic_distance_resolves_tiny_angles():
    # the arccos form loses everything below ~1e-8; the quaternion
    # difference form must not
    r = Rotation.from_axis_angle(E1, 3e-11)
    assert abs(geodesic_distance(Rotation.identity(), r) - 3e-11) < 1e-16


@pytest.mark.parametrize("n", [280, 5_000])
@pytest.mark.parametrize("name", ["C4", "O", "D6", "Y"])
def test_quotient_angles_keep_the_bits_of_linalg_norm(name, n):
    # the column sums of so3._row_norms against np.linalg.norm(axis=1), on
    # Haar rows, exact group elements and elements perturbed by 1e-9
    rng = np.random.default_rng(n)
    group = group_elements(name).quaternions
    exact = np.tile(group, (-(-n // len(group)), 1))[:n]
    perturbed = normalized_quaternions(exact + 1e-9 * rng.standard_normal(exact.shape))
    for rel in (random_quaternions(rng, n), exact, perturbed):
        near = group[np.abs(rel @ group.T).argmax(axis=1)]
        gap = np.minimum(np.linalg.norm(rel - near, axis=1), np.linalg.norm(rel + near, axis=1))
        assert np.array_equal(so3.quotient_angles(rel, group), 4.0 * np.arcsin(np.minimum(1.0, 0.5 * gap)))


def test_geodesic_distance_is_bi_invariant(rng):
    r1, r2, q = (random_rotation(rng) for _ in range(3))
    d = geodesic_distance(r1, r2)
    assert abs(geodesic_distance(q @ r1, q @ r2) - d) < 1e-12
    assert abs(geodesic_distance(r1 @ q, r2 @ q) - d) < 1e-12


def test_geodesic_distance_symmetry_and_triangle(rng):
    r1, r2, r3 = (random_rotation(rng) for _ in range(3))
    assert abs(geodesic_distance(r1, r2) - geodesic_distance(r2, r1)) < 1e-14
    assert geodesic_distance(r1, r3) <= geodesic_distance(r1, r2) + geodesic_distance(r2, r3) + 1e-12


# ---------------------------------------------------------------------------
# symmetry groups


@pytest.mark.parametrize(
    "name,order",
    [("C1", 1), ("C2", 2), ("C3", 3), ("C4", 4), ("C6", 6),
     ("D2", 4), ("D3", 6), ("D4", 8), ("D6", 12), ("T", 12), ("O", 24), ("Y", 60)],
)
def test_group_orders(name, order):
    g = group_elements(name)
    assert len(g) == order
    assert g.name == name


@pytest.mark.parametrize("name", ["C4", "D3", "T", "O", "Y"])
def test_group_closure_inverses_identity(name):
    g = group_elements(name)
    quats = g.quaternions
    assert np.abs(np.linalg.norm(quats, axis=1) - 1.0).max() < 1e-14
    elements = [Rotation(q) for q in quats]
    assert any(r.angle < 1e-12 for r in elements)
    for r in elements:
        assert g.contains(r.inverse())
        for s in elements:
            assert g.contains(r @ s)


# (axis, angle) of two rotations that generate each polyhedral group in the
# orientation of so3embed.so3
POLYHEDRAL_GENERATORS = {
    "T": [(E1, math.pi), ((1.0, 1.0, 1.0), 2.0 * math.pi / 3.0)],
    "O": [(E1, math.pi / 2.0), ((1.0, 1.0, 1.0), 2.0 * math.pi / 3.0)],
    "Y": [((0.0, 1.0, GOLDEN_RATIO), 2.0 * math.pi / 5.0), (E3, math.pi)],
}


@pytest.mark.parametrize("name", sorted(POLYHEDRAL_GENERATORS))
def test_polyhedral_table_holds_its_generators_and_closes_exactly(name):
    # The tables are closed-form, not closures of these generators; a table in
    # another orientation (Y from even permutations, say) misses them.
    g = group_elements(name)
    for axis, angle in POLYHEDRAL_GENERATORS[name]:
        assert g.contains(Rotation.from_axis_angle(axis, angle), tol=1e-14)
    q = g.quaternions
    prods = _quat_product(q[:, None, :], q[None, :, :]).reshape(-1, 4)
    near = q[np.abs(prods @ q.T).argmax(axis=1)]
    gap = np.minimum(np.abs(prods - near).max(axis=1), np.abs(prods + near).max(axis=1))
    assert gap.max() <= 4.4e-16


@pytest.mark.parametrize("name,size", [("T", 12), ("O", 24), ("Y", 60)])
def test_polyhedral_table_rows_are_unique_and_descending(name, size):
    # np.unique, which imports numpy.ma, as the oracle of the table's own deduplication
    q = so3._polyhedral_table(name)
    assert len(q) == size and np.array_equal(q, np.unique(q, axis=0)[::-1])


def test_cyclic_group_axis_is_e1():
    g = group_elements("C6")
    for q in g.quaternions:
        # rotations about e1 have zero y and z quaternion components
        assert abs(q[2]) < 1e-14 and abs(q[3]) < 1e-14


def test_dihedral_group_contains_flip_about_e2():
    g = group_elements("D4")
    assert g.contains(Rotation.from_axis_angle(E2, math.pi))


def test_tetrahedral_orbit_of_diagonal():
    g = group_elements("T")
    d = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    orbit = np.unique(np.round(g.matrices @ d, 12), axis=0)
    assert len(orbit) == 4
    dots = np.abs(orbit @ orbit.T)
    off = dots[~np.eye(len(orbit), dtype=bool)]
    assert np.abs(off - 1.0 / 3.0).max() < 1e-12


def test_octahedral_orbit_of_e1_is_signed_axes():
    g = group_elements("O")
    orbit = np.unique(np.round(g.matrices @ E1, 12), axis=0)
    expected = np.array([-E3, -E2, -E1, E1, E2, E3])
    assert np.abs(np.sort(orbit, axis=0) - np.sort(expected, axis=0)).max() < 1e-12


def test_icosahedral_orbit_of_vertex_axis():
    g = group_elements("Y")
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    v = np.array([0.0, 1.0, phi])
    v /= np.linalg.norm(v)
    images = g.matrices @ v
    orbit: list[np.ndarray] = []
    for w in images:
        if all(np.linalg.norm(w - o) > 1e-9 for o in orbit):
            orbit.append(w)
    orbit = np.array(orbit)
    # 12 icosahedron vertices; distinct axes meet at arccos(1/sqrt(5))
    assert len(orbit) == 12
    dots = np.abs(orbit @ orbit.T)
    off = dots[~np.eye(12, dtype=bool)]
    good = np.abs(off - 1.0 / math.sqrt(5.0)) < 1e-12
    antipodal = np.abs(off - 1.0) < 1e-12
    assert np.all(good | antipodal)


def test_group_elements_accepts_family_and_size():
    assert group_elements("C", 4).matches(group_elements("C4"))
    with pytest.raises(ValueError):
        group_elements("C", 0)
    with pytest.raises(ValueError):
        group_elements("Q3")


def test_from_elements_rejects_non_closed_set():
    gens = [Rotation.identity(), Rotation.from_axis_angle(E1, 2 * math.pi / 5)]
    with pytest.raises(ValueError):
        SymmetryGroup.from_elements("bad", gens)


def test_d1000_builds_and_closes(rng):
    g = group_elements("D1000")
    assert len(g) == 2000
    q = g.quaternions
    pairs = rng.integers(0, len(q), size=(500, 2))
    prods = _quat_product(q[pairs[:, 0]], q[pairs[:, 1]])
    assert np.abs(np.abs(prods @ q.T).max(axis=1) - 1.0).max() < 1e-10


def test_from_elements_rejects_one_element_off_a_large_table():
    rows = list(group_elements("D40"))
    rows[17] = rows[17] @ Rotation.from_axis_angle(E3, 1e-4)
    with pytest.raises(ValueError, match="not closed"):
        SymmetryGroup.from_elements("bad", rows)


def test_from_elements_rejects_a_table_without_the_identity():
    with pytest.raises(ValueError, match="does not contain the identity"):
        SymmetryGroup.from_elements("bad", [Rotation.from_axis_angle(E1, math.pi)])


def test_from_elements_rejects_one_element_off_in_the_last_block_of_products():
    # the products are checked a block of table rows at a time; D200 spans
    # several blocks, and its turned element sits in the last one
    rows = list(group_elements("D200"))
    step = so3._CHECK_PRODUCTS // len(rows)
    assert len(rows) > 2 * step
    rows[-1] = rows[-1] @ Rotation.from_axis_angle(E3, 1e-4)
    with pytest.raises(ValueError, match="not closed"):
        SymmetryGroup.from_elements("bad", rows)


def test_closure_check_forms_every_product_once_in_blocks(monkeypatch):
    formed = []

    def product(q1, q2):
        out = _quat_product(q1, q2)
        formed.append(out.shape[:-1])
        return out

    monkeypatch.setattr(so3, "_quat_product", product)
    qs = group_elements("D200").quaternions
    so3._check_table("D200", qs)
    assert len(formed) > 2 and all(rows * cols <= so3._CHECK_PRODUCTS for rows, cols in formed)
    assert sum(rows for rows, _ in formed) == len(qs) and {cols for _, cols in formed} == {len(qs)}


@pytest.mark.parametrize("name", TABLE_GROUPS + ("D13",))
def test_group_table_is_the_field_and_elements_its_edge_view(name):
    g = group_elements(name)
    assert not g.quaternions.flags.writeable
    assert len(g) == len(g.quaternions)
    assert np.array_equal(np.array([e.quat for e in g.elements]), g.quaternions)
    again = SymmetryGroup.from_elements(name, list(g))
    assert np.array_equal(again.quaternions, g.quaternions)
    assert again.matches(g)


def test_building_a_group_creates_no_rotation(monkeypatch):
    def refuse(self):
        raise AssertionError("a Rotation was built")

    monkeypatch.setattr(Rotation, "__post_init__", refuse)
    for family, k, order in (("C", 7, 7), ("D", 5, 10), ("T", 0, 12), ("O", 0, 24), ("Y", 0, 60)):
        assert len(so3._build_group.__wrapped__(family, k)) == order


@pytest.mark.parametrize("name, k", [("C1001", None), ("D1001", None), ("C", 1500)])
def test_group_elements_rejects_fold_counts_past_the_limit(name, k):
    with pytest.raises(ValueError, match="at most 1000"):
        group_elements(name, k)


def test_from_elements_compares_all_elements_when_keys_tie(monkeypatch):
    # with every key equal the sorted neighbours are arbitrary elements, so
    # each product falls back to the full comparison, which must still decide
    monkeypatch.setattr(so3, "_KEY", np.zeros((4, 4)))
    assert len(SymmetryGroup.from_elements("D6", group_elements("D6"))) == 12
    with pytest.raises(ValueError, match="not closed"):
        SymmetryGroup.from_elements("bad", [Rotation.identity(), Rotation.from_axis_angle(E1, 2 * math.pi / 5)])


# ---------------------------------------------------------------------------
# cosets


def test_coset_distance_quarter_turn_is_zero_for_c4():
    g = group_elements("C4")
    c1 = Coset(Rotation.identity(), g)
    c2 = Coset(Rotation.from_axis_angle(E1, math.pi / 2), g)
    assert coset_distance(c1, c2) < 1e-12
    assert c1 == c2


def test_coset_distance_eighth_turn_for_c4():
    g = group_elements("C4")
    c1 = Coset(Rotation.identity(), g)
    c2 = Coset(Rotation.from_axis_angle(E1, math.pi / 4), g)
    assert abs(coset_distance(c1, c2) - math.pi / 4) < 1e-12


def test_coset_distance_independent_of_representative(rng):
    g = group_elements("D3")
    r1, r2 = random_rotation(rng), random_rotation(rng)
    d = coset_distance(Coset(r1, g), Coset(r2, g))
    s = Rotation(g.quaternions[3])
    assert abs(coset_distance(Coset(r1 @ s, g), Coset(r2, g)) - d) < 1e-12


def test_coset_distance_triangle_inequality(rng):
    g = group_elements("O")
    for _ in range(20):
        c1, c2, c3 = (Coset(random_rotation(rng), g) for _ in range(3))
        d13 = coset_distance(c1, c3)
        assert d13 <= coset_distance(c1, c2) + coset_distance(c2, c3) + 1e-12


_QUATERNION = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(TABLE_GROUPS), q1=_QUATERNION, q2=_QUATERNION, q3=_QUATERNION)
def test_coset_distance_is_a_symmetric_metric(name, q1, q2, q3):
    for q in (q1, q2, q3):
        assume(np.linalg.norm(q) > 1e-3)
    g = group_elements(name)
    tol = 1e-12
    c1, c2, c3 = (Coset(Rotation.from_quaternion(q), g) for q in (q1, q2, q3))
    d12 = coset_distance(c1, c2)
    assert abs(d12 - coset_distance(c2, c1)) <= tol
    assert coset_distance(c1, c3) <= d12 + coset_distance(c2, c3) + tol


def test_coset_distance_rejects_mismatched_groups(rng):
    c1 = Coset(random_rotation(rng), group_elements("C2"))
    c2 = Coset(random_rotation(rng), group_elements("C3"))
    with pytest.raises(ValueError):
        coset_distance(c1, c2)


def test_fundamental_representative_picks_smallest_angle():
    g = group_elements("C4")
    c = Coset(Rotation.from_axis_angle(E1, 3 * math.pi / 4), g)
    rep = fundamental_representative(c)
    # 3pi/4 minus the quarter turn is a -pi/4 rotation about e1
    assert abs(rep.angle - math.pi / 4) < 1e-12
    assert coset_distance(Coset(rep, g), c) < 1e-12


def test_fundamental_representative_is_representative_invariant(rng):
    g = group_elements("T")
    r = random_rotation(rng)
    rep1 = fundamental_representative(Coset(r, g))
    s = Rotation(g.quaternions[7])
    rep2 = fundamental_representative(Coset(r @ s, g))
    assert np.abs(rep1.quat - rep2.quat).max() < 1e-12


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_fundamental_quaternions_match_the_scalar_tie_rule(rng, name):
    # The scalar rule as it was: the largest |w| among the products, ties within
    # 1e-9 broken by the lexicographically smallest sign-canonical quaternion,
    # normalized as a Rotation.  The identity, half turns and the group's own
    # elements make ties; the written bits must not change.
    group = group_elements(name)
    q = np.concatenate([_special_quaternions(rng), -_half_turns(), -group.quaternions])
    q = np.concatenate([q, _quat_product(random_rotation(rng).quat, group.quaternions)])
    reps = [Rotation(row) for row in q]
    got = normalized_quaternions(fundamental_quaternions(np.array([r.quat for r in reps]), group))
    for rep, out in zip(reps, got):
        prods = _quat_product(rep.quat, group.quaternions)
        overlap = np.abs(prods[:, 0])
        tied = np.nonzero(overlap >= overlap.max() - 1e-9)[0]
        want = Rotation(np.array(min(tuple(canonical_quaternion(prods[i])) for i in tied))).quat
        assert np.array_equal(out, want)
        assert np.array_equal(np.signbit(out), np.signbit(want))
        assert np.array_equal(fundamental_representative(Coset(rep, group)).quat, want)


@pytest.mark.parametrize("name", ["O", "Y", "D37"])
def test_fundamental_quaternions_do_not_depend_on_their_row_blocks(rng, name, monkeypatch):
    # rows are independent, so blocks of 1 or 7 rows give the bits of one block
    group = group_elements(name)
    q = np.concatenate([_special_quaternions(rng), -group.quaternions])
    assert len(q) * len(group) <= so3._CHECK_PRODUCTS  # one block unpatched
    whole = fundamental_quaternions(q, group)
    for products in (1, 7 * len(group)):
        monkeypatch.setattr(so3, "_CHECK_PRODUCTS", products)
        split = fundamental_quaternions(q, group)
        assert np.array_equal(split, whole) and np.array_equal(np.signbit(split), np.signbit(whole))


def test_fundamental_quaternions_memory_stays_bounded_in_the_table(rng):
    # 1,000 rows against the 2,000 elements of D1000: all products at once took 200 MiB
    group, q = group_elements("D1000"), random_quaternions(rng, 1000)
    tracemalloc.start()
    try:
        fundamental_quaternions(q, group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_as_coset_coercion(rng):
    g = group_elements("C2")
    r = random_rotation(rng)
    c = as_coset(r, g)
    assert isinstance(c, Coset)
    assert as_coset(c, g) is c
    with pytest.raises(ValueError):
        as_coset(Coset(r, group_elements("C3")), g)
    with pytest.raises(TypeError):
        as_coset("not a rotation", g)


# ---------------------------------------------------------------------------
# sampling


def test_random_quaternions_are_unit_and_deterministic():
    q1 = random_quaternions(np.random.default_rng(5), 100)
    q2 = random_quaternions(np.random.default_rng(5), 100)
    assert np.array_equal(q1, q2)
    assert np.abs(np.linalg.norm(q1, axis=1) - 1.0).max() < 1e-14


def test_random_quaternions_normalize_bit_for_bit_as_linalg_norm():
    # drawn in chunks, as the sweeps draw them: the rows of one draw
    rng = np.random.default_rng(17)
    got = np.concatenate([random_quaternions(rng, n) for n in (1, 7, 512, 2048, 97_432)])
    q = np.random.default_rng(17).standard_normal((100_000, 4))
    assert np.array_equal(got, q / np.linalg.norm(q, axis=1)[:, None])


def test_random_rotations_follow_haar_angle_law(rng):
    # under Haar measure the rotation angle has CDF (x - sin x) / pi; the
    # Kolmogorov-Smirnov statistic is the largest gap between it and the
    # empirical CDF, taken on both sides of each step
    angles = np.sort([random_rotation(rng).angle for _ in range(4000)])
    cdf = (angles - np.sin(angles)) / math.pi
    steps = np.arange(len(angles) + 1) / len(angles)
    statistic = max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max())
    assert statistic < 0.03
