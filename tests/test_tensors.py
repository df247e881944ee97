import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3embed.so3 import random_rotation
from so3embed.tensors import (
    MAX_CLASS_RANK,
    MAX_RANK,
    _class_index,
    _class_pairs,
    _classes,
    binom_identity_check,
    class_counts,
    class_monomial_sums,
    class_monomials,
    class_multiplicities,
    class_sums,
    inner,
    invariant_class_values,
    invariant_tensor,
    outer_power,
    rotate,
    rotate_tuple,
    sym_coordinates,
    symmetrize,
    tensor_from_class_values,
    tuple_norm,
)

from oracles import monomial_derivatives


# ---------------------------------------------------------------------------
# outer powers and index classes


def test_outer_power_matches_explicit_products(rng):
    v = rng.normal(size=3)
    t = outer_power(v, 3)
    for i, j, k in itertools.product(range(3), repeat=3):
        assert t[i, j, k] == pytest.approx(v[i] * v[j] * v[k], abs=1e-15)


def test_outer_power_rank_one_is_the_vector(rng):
    v = rng.normal(size=3)
    assert np.array_equal(outer_power(v, 1), v)


@pytest.mark.parametrize("bad", [0, -1, MAX_RANK + 1, 2.5])
def test_rank_validation(bad):
    with pytest.raises(ValueError):
        outer_power(np.ones(3), bad)


@pytest.mark.parametrize("alpha", [1, 2, 3, 5, 8])
def test_index_classes_partition_all_indices(alpha):
    counts = class_counts(alpha)
    assert len(counts) == (alpha + 2) * (alpha + 1) // 2
    ids = [counts.index(_value_counts(idx)) for idx in itertools.product(range(3), repeat=alpha)]
    sizes = np.bincount(ids, minlength=len(counts))
    assert np.array_equal(sizes, class_multiplicities(alpha))
    # class size is the multinomial coefficient of its count triple
    for ci, (a, b, c) in enumerate(counts):
        assert a + b + c == alpha
        expected = math.factorial(alpha) // (
            math.factorial(a) * math.factorial(b) * math.factorial(c)
        )
        assert sizes[ci] == expected
    assert sizes.sum() == 3**alpha


@pytest.mark.parametrize("alpha", range(1, MAX_RANK + 1))
def test_class_map_matches_the_digit_counts_of_every_index(alpha):
    ids, counts, _ = _classes(alpha)
    assert counts == tuple((a, b, alpha - a - b) for a in range(alpha + 1) for b in range(alpha + 1 - a))
    digits = np.unravel_index(np.arange(3**alpha), (3,) * alpha)
    occ = np.stack([sum((d == v).astype(np.int64) for d in digits) for v in range(3)], axis=1)
    assert ids.shape == (3**alpha,)
    assert np.array_equal(np.array(counts)[ids], occ)


@settings(max_examples=40, deadline=None)
@given(
    v=st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=3, max_size=3),
    alpha=st.integers(1, 8),
)
def test_class_monomials_expand_to_outer_power_and_derivatives_match(v, alpha):
    v = np.array(v)
    mono = class_monomials(v, alpha)
    assert mono.shape == (len(class_counts(alpha)),)
    scale = max(1.0, float(np.abs(v).max())) ** alpha  # bounds every monomial
    assert np.abs(tensor_from_class_values(mono, alpha) - outer_power(v, alpha)).max() <= 1e-14 * scale
    # partials from the derivative table against central differences, whose
    # truncation error is below h^2 alpha^3 scale / 6
    table = monomial_derivatives(alpha)
    lower = class_monomials(v, alpha - 1)
    h = 1e-5
    for d in range(3):
        step = np.zeros(3)
        step[d] = h
        fd = (class_monomials(v + step, alpha) - class_monomials(v - step, alpha)) / (2 * h)
        assert np.abs(table[d].T @ lower - fd).max() <= 1e-8 * alpha**3 * scale


def test_class_monomials_are_batched_over_trailing_axes(rng):
    w = rng.normal(size=(3, 4, 2))
    mono = class_monomials(w, 5)
    assert mono.shape == (21, 4, 2)
    assert np.array_equal(mono[:, 2, 1], class_monomials(w[:, 2, 1], 5))
    assert np.array_equal(class_monomials(w, 0), np.ones((1, 4, 2)))


@pytest.mark.parametrize("alpha", range(13))
def test_class_monomial_sums_equal_the_weighted_monomial_table(alpha, rng):
    # each sum against its own scale, the sum of its terms' magnitudes, so a
    # sum that cancels is held to the round-off its terms allow
    w = rng.normal(size=(3, 300))
    weights = rng.normal(size=300)
    table = class_monomials(w, alpha)
    got = class_monomial_sums(w, weights, alpha)
    assert got.shape == (math.comb(alpha + 2, 2),)
    assert np.all(np.abs(got - table @ weights) <= 1e-13 * (np.abs(table) @ np.abs(weights)))


@pytest.mark.parametrize("alpha", range(2, MAX_RANK + 1))
def test_class_pairs_split_every_class_into_its_two_halves(alpha):
    lower, upper = _classes(alpha // 2)[1], _classes(alpha - alpha // 2)[1]
    rows, cols = np.divmod(_class_pairs(alpha), len(upper))
    assert rows.max() < len(lower)
    for n, i, j in zip(_classes(alpha)[1], rows, cols):
        assert tuple(a + b for a, b in zip(lower[i], upper[j])) == n


@pytest.mark.parametrize("alpha", range(MAX_RANK + 1, MAX_CLASS_RANK + 1))
def test_classes_past_the_dense_limit_have_counts_and_exact_multiplicities_only(alpha):
    ids, counts, mult = _classes(alpha)
    assert ids is None
    assert counts == class_counts(alpha)
    assert counts == tuple((a, b, alpha - a - b) for a in range(alpha + 1) for b in range(alpha + 1 - a))
    assert [_class_index(a, b, alpha) for a, b, _ in counts] == list(range(len(counts)))
    assert sum(mult.tolist()) == 3**alpha and np.array_equal(mult.astype(float).astype(np.int64), mult)
    lower, upper = _classes(alpha // 2)[1], _classes(alpha - alpha // 2)[1]
    rows, cols = np.divmod(_class_pairs(alpha), len(upper))
    for n, i, j in zip(counts, rows, cols):
        assert tuple(a + b for a, b in zip(lower[i], upper[j])) == n


def test_dense_paths_reject_a_rank_past_the_storage_limit_and_class_values_take_it():
    rank = MAX_RANK + 1
    dense = [
        lambda: outer_power(np.ones(3), rank),
        lambda: tensor_from_class_values(np.zeros(math.comb(rank + 2, 2)), rank),
        lambda: symmetrize(np.broadcast_to(0.0, (3,) * rank)),  # a view: no 3^13 entries
        lambda: class_sums(np.zeros((1, 3)), rank),
        lambda: invariant_tensor(rank + 1),
    ]
    for call in dense:
        with pytest.raises(ValueError, match="alpha must be an integer from 1 to the dense-storage limit 12"):
            call()
    assert len(class_counts(MAX_CLASS_RANK)) == len(class_multiplicities(MAX_CLASS_RANK)) == 496
    assert invariant_class_values(MAX_CLASS_RANK)[0] == 1.0
    for call in (class_counts, class_multiplicities, invariant_class_values):
        with pytest.raises(ValueError, match="class-value limit 30"):
            call(MAX_CLASS_RANK + 1)


# ---------------------------------------------------------------------------
# invariant tensors


def test_invariant_tensor_rank_two_is_identity():
    assert np.array_equal(invariant_tensor(2), np.eye(3))


def test_invariant_tensor_rank_four_entries():
    m = invariant_tensor(4)
    assert m[0, 0, 0, 0] == 1.0
    assert m[0, 0, 1, 1] == pytest.approx(1.0 / 3.0, abs=1e-16)
    assert m[0, 1, 0, 1] == pytest.approx(1.0 / 3.0, abs=1e-16)
    assert m[0, 1, 1, 0] == pytest.approx(1.0 / 3.0, abs=1e-16)
    # any odd index count vanishes
    assert m[0, 0, 0, 1] == 0.0
    assert m[0, 1, 2, 2] == 0.0


@pytest.mark.parametrize("alpha", [1, 3, 5, 7])
def test_invariant_tensor_odd_ranks_vanish(alpha):
    assert not invariant_tensor(alpha).any()


@pytest.mark.parametrize("alpha", [2, 4, 6, 8, 10])
def test_invariant_tensor_norm_squared_is_rank_plus_one(alpha):
    m = invariant_tensor(alpha)
    assert float(np.sum(m * m)) == pytest.approx(alpha + 1, abs=1e-12)


@pytest.mark.parametrize("alpha", [2, 4, 6, 8, 10])
def test_unit_power_pairs_to_one_with_invariant_tensor(alpha, rng):
    m = invariant_tensor(alpha)
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        r = random_rotation(rng)
        t = outer_power(r.apply(u), alpha)
        assert float(np.sum(t * m)) == pytest.approx(1.0, abs=1e-11)


def test_invariant_tensor_is_rotation_invariant(rng):
    m = invariant_tensor(4)
    r = random_rotation(rng)
    assert np.abs(rotate(r, m) - m).max() < 1e-13


def test_invariant_tensor_is_fully_symmetric():
    m = invariant_tensor(6)
    assert np.abs(symmetrize(m) - m).max() < 1e-15


# ---------------------------------------------------------------------------
# rotation action


def test_rotate_on_outer_power_commutes_with_vector_rotation(rng):
    v = rng.normal(size=3)
    r = random_rotation(rng)
    assert np.abs(rotate(r, outer_power(v, 4)) - outer_power(r.apply(v), 4)).max() < 1e-13


def test_rotate_preserves_norm_and_composes(rng):
    t = rng.normal(size=(3, 3, 3))
    r1, r2 = random_rotation(rng), random_rotation(rng)
    assert np.linalg.norm(rotate(r1, t)) == pytest.approx(np.linalg.norm(t), rel=1e-13)
    assert np.abs(rotate(r1, rotate(r2, t)) - rotate(r1 @ r2, t)).max() < 1e-13


def _rotate_by_tensordot(m, t):
    # the former rotate: contract the leading mode by tensordot, cycle it back
    for _ in range(t.ndim):
        t = np.moveaxis(np.tensordot(m, t, axes=(1, 0)), 0, -1)
    return t


@pytest.mark.parametrize("rank", range(1, MAX_RANK + 1))
def test_rotate_is_bit_equal_to_one_tensordot_per_mode(rank, rng):
    m = random_rotation(rng).matrix
    t = rng.standard_normal((3,) * rank)
    assert np.array_equal(rotate(m, t), _rotate_by_tensordot(m, t))


def test_rotate_rejects_a_mode_not_of_length_three():
    with pytest.raises(ValueError, match="every mode of length 3"):
        rotate(np.eye(3), np.zeros((3, 4)))


def test_rotate_accepts_plain_matrix(rng):
    t = rng.normal(size=(3, 3))
    r = random_rotation(rng)
    assert np.array_equal(rotate(r.matrix, t), rotate(r, t))
    with pytest.raises(ValueError):
        rotate(np.eye(4), t)


def test_rotate_tuple_maps_componentwise(rng):
    r = random_rotation(rng)
    ts = (rng.normal(size=3), rng.normal(size=(3, 3)))
    out = rotate_tuple(r, ts)
    assert np.array_equal(out[0], rotate(r, ts[0]))
    assert np.array_equal(out[1], rotate(r, ts[1]))


# ---------------------------------------------------------------------------
# symmetrization and coordinates


@pytest.mark.parametrize("alpha", [2, 3, 4])
def test_symmetrize_matches_permutation_average(alpha, rng):
    t = rng.normal(size=(3,) * alpha)
    brute = np.zeros_like(t)
    perms = list(itertools.permutations(range(alpha)))
    for p in perms:
        brute += np.transpose(t, p)
    brute /= len(perms)
    assert np.abs(symmetrize(t) - brute).max() < 1e-13


def test_symmetrize_is_idempotent_orthogonal_projection(rng):
    t = rng.normal(size=(3, 3, 3))
    s = symmetrize(t)
    assert np.abs(symmetrize(s) - s).max() < 1e-15
    # projection: the residual is orthogonal to the symmetric part
    assert float(np.sum((t - s) * s)) == pytest.approx(0.0, abs=1e-12)


def test_sym_coordinates_is_an_isometry_on_symmetric_tensors(rng):
    t = symmetrize(rng.normal(size=(3, 3, 3, 3)))
    coords = sym_coordinates(t)
    assert coords.shape == (15,)
    assert np.linalg.norm(coords) == pytest.approx(np.linalg.norm(t), rel=1e-13)
    u = symmetrize(rng.normal(size=(3, 3, 3, 3)))
    assert float(np.sum(t * u)) == pytest.approx(float(coords @ sym_coordinates(u)), rel=1e-12)


@pytest.mark.parametrize("alpha", range(1, MAX_RANK + 1))
def test_batched_class_sums_equal_the_per_tensor_sums_bitwise(alpha, rng):
    # every row's sums are its entries added in index order, class by class,
    # exactly as a one-row call and a sequential sum per class give them
    rows = rng.normal(size=(3, 3**alpha))
    got = class_sums(rows, alpha)
    assert got.shape == (3, math.comb(alpha + 2, 2))
    ids = tensor_from_class_values(np.arange(got.shape[1], dtype=float), alpha).ravel().astype(int)
    for row, sums in zip(rows, got):
        assert np.array_equal(sums, class_sums(row[None], alpha)[0])
        sequential = [np.add.accumulate(row[ids == c])[-1] for c in range(got.shape[1])]
        assert np.array_equal(sums, sequential)


def _value_counts(idx):
    return tuple(idx.count(v) for v in range(3))


def test_tensor_from_class_values_round_trip(rng):
    counts = class_counts(3)
    vals = rng.normal(size=len(counts))
    t = tensor_from_class_values(vals, 3)
    assert np.abs(symmetrize(t) - t).max() < 1e-14
    for idx in itertools.product(range(3), repeat=3):
        assert t[idx] == vals[counts.index(_value_counts(idx))]
    with pytest.raises(ValueError):
        tensor_from_class_values(vals[:-1], 3)
    with pytest.raises(ValueError):
        tensor_from_class_values(1.0, 3)


def test_tensor_from_class_values_takes_leading_batch_axes(rng):
    vals = rng.normal(size=(2, 5, len(class_counts(4))))
    batch = tensor_from_class_values(vals, 4)
    assert batch.shape == (2, 5) + (3,) * 4
    for i, j in itertools.product(range(2), range(5)):
        assert np.array_equal(batch[i, j], tensor_from_class_values(vals[i, j], 4))


# ---------------------------------------------------------------------------
# tuples


def test_inner_and_norm_on_tuples(rng):
    a = (rng.normal(size=3), rng.normal(size=(3, 3)))
    b = (rng.normal(size=3), rng.normal(size=(3, 3)))
    want = float(a[0] @ b[0]) + float(np.sum(a[1] * b[1]))
    assert inner(a, b) == pytest.approx(want, rel=1e-14)
    assert tuple_norm(a) == pytest.approx(math.sqrt(inner(a, a)), rel=1e-15)


def test_inner_rejects_mismatched_signatures(rng):
    with pytest.raises(ValueError):
        inner((np.zeros(3),), (np.zeros(3), np.zeros(3)))
    with pytest.raises(ValueError):
        inner((np.zeros(3),), (np.zeros((3, 3)),))


# ---------------------------------------------------------------------------
# exact combinatorics


@pytest.mark.parametrize("alpha", [2, 4, 6, 10, 30])
def test_binom_identity_holds_exactly(alpha):
    lhs, rhs = binom_identity_check(alpha)
    assert lhs == rhs


def test_binom_identity_small_values():
    assert binom_identity_check(2) == (6, 6)
    assert binom_identity_check(4) == (30, 30)


@pytest.mark.parametrize("bad", [1, 3, 0, -2])
def test_binom_identity_rejects_odd_ranks(bad):
    with pytest.raises(ValueError):
        binom_identity_check(bad)


def test_invariant_class_values_are_the_rounded_fractions():
    # int true division rounds correctly, as float(Fraction) does
    from fractions import Fraction

    for alpha in range(1, MAX_RANK + 1):
        half, want = alpha // 2, []
        for a, b, c in _classes(alpha)[1]:
            if a % 2 or b % 2 or c % 2:
                want.append(0.0)
                continue
            num = math.factorial(half) * math.factorial(a) * math.factorial(b) * math.factorial(c)
            den = math.factorial(alpha) * math.factorial(a // 2) * math.factorial(b // 2) * math.factorial(c // 2)
            want.append(float(Fraction(num, den)))
        assert np.array_equal(invariant_class_values(alpha), want)
