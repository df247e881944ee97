"""Rotations, finite rotational point groups, and distances on SO(3) and its quotients.

Rotations are stored as unit quaternions (scalar first) and renormalized after
every composition, so long product chains cannot drift away from SO(3).
Symmetry groups are explicit quaternion tables, each built in closed form
(no products of generators, so no accumulated round-off), in a fixed
orientation:

* cyclic C_k: (cos(pi j/k), sin(pi j/k), 0, 0), major rotation axis along e1,
* dihedral D_k: C_k and (0, 0, cos(pi j/k), sin(pi j/k)), a two-fold axis
  along e2,
* tetrahedral T: the 8 units and 16 half-units (+-1/2, +-1/2, +-1/2, +-1/2),
  a three-fold axis along (1, 1, 1),
* octahedral O: T and the signed permutations of (1, 1, 0, 0)/sqrt(2),
* icosahedral Y: T and the signed odd permutations of (phi, 1, 1/phi, 0)/2,
  phi the golden ratio; the vertex direction (0, 1, phi) is a five-fold axis.

Batched functions on quaternion arrays ``(N, 4)`` convert ZYZ Euler angles,
matrices and axis-angle pairs, normalize, fix signs and give relative rotations
and quotient angles; the Rotation and Coset API makes their N = 1 calls.

All functions are pure; groups and rotations are immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "GOLDEN_RATIO",
    "TANGENT_BASIS",
    "Coset",
    "Rotation",
    "SymmetryGroup",
    "coset_distance",
    "fundamental_quaternions",
    "fundamental_representative",
    "geodesic_distance",
    "group_elements",
    "normalized_quaternions",
    "quaternions_from_axis_angles",
    "quaternions_from_euler_zyz",
    "quaternions_from_matrices",
    "quotient_angles",
    "random_quaternions",
    "random_rotation",
    "relative_quaternions",
]

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

# Basis of the tangent space at the identity: skew-symmetric generators of
# rotations about e1, -e2 and e3.  Each has Frobenius norm sqrt(2) and
# exp(t * TANGENT_BASIS[l]) rotates by the angle t, so coefficients in this
# basis are measured in radians.
TANGENT_BASIS = np.array(
    [
        [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
)
TANGENT_BASIS.setflags(write=False)


def normalized_quaternions(q) -> np.ndarray:
    """Quaternions ``(N, 4)`` scaled to unit norm; a zero norm raises ValueError."""
    q = np.asarray(q, dtype=float)
    norms = np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    if (norms < 1e-12).any():
        raise ValueError("quaternion norm is numerically zero")
    return q / norms


def quaternions_from_euler_zyz(angles) -> np.ndarray:
    """Unit quaternions ``(N, 4)`` of the rotations ``Rz(alpha) Ry(beta) Rz(gamma)``
    for ZYZ Euler angles ``(N, 3)`` in radians."""
    a, b, g = 0.5 * np.asarray(angles, dtype=float).T
    cb, sb = np.cos(b), np.sin(b)
    q = [cb * np.cos(a + g), sb * np.sin(g - a), sb * np.cos(g - a), cb * np.sin(a + g)]
    return normalized_quaternions(np.column_stack(q))


def _quat_product(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion arrays (..., 4), broadcasting."""
    w1, x1, y1, z1 = q1[..., 0], q1[..., 1], q1[..., 2], q1[..., 3]
    w2, x2, y2, z2 = q2[..., 0], q2[..., 1], q2[..., 2], q2[..., 3]
    out = np.empty(np.broadcast_shapes(q1.shape, q2.shape))
    out[..., 0] = w1 * w2 - (x1 * x2 + y1 * y2 + z1 * z2)
    out[..., 1] = w1 * x2 + w2 * x1 + (y1 * z2 - z1 * y2)
    out[..., 2] = w1 * y2 + w2 * y1 + (z1 * x2 - x1 * z2)
    out[..., 3] = w1 * z2 + w2 * z1 + (x1 * y2 - y1 * x2)
    return out


def quaternions_to_matrices(q) -> np.ndarray:
    """Rotation matrices ``(..., 3, 3)`` of unit quaternions ``(..., 4)``.

    Each of the nine products the entries need (the vector part with itself
    and with the scalar part) is formed once; every entry is ``1 - 2 (a + b)``
    or ``2 (a -+ b)`` of two of them, written in place.
    """
    q = np.asarray(q, dtype=float)
    w, x, y, z = q.reshape(-1, 4).T
    m = np.empty((len(w), 3, 3))
    xx, yy, zz = x * x, y * y, z * z
    np.add(yy, zz, out=m[:, 0, 0])
    np.add(xx, zz, out=m[:, 1, 1])
    np.add(xx, yy, out=m[:, 2, 2])
    for i, j, a, b, c, d in ((0, 1, x, y, z, w), (2, 0, x, z, y, w), (1, 2, y, z, x, w)):
        ab, cd = a * b, c * d
        np.subtract(ab, cd, out=m[:, i, j])
        np.add(ab, cd, out=m[:, j, i])
    m *= 2.0
    diag = m.reshape(-1, 9)[:, ::4]
    np.subtract(1.0, diag, out=diag)
    return m.reshape(q.shape[:-1] + (3, 3))


def quaternions_from_matrices(m) -> np.ndarray:
    """Unit quaternions ``(N, 4)`` of rotation matrices ``(N, 3, 3)`` by Shepperd's method (S. W.
    Shepperd, *J. Guidance and Control* 1(3), 1978, 223-224), stable for all traces: per row, the
    scalar part where the trace is positive, else the component of the largest diagonal entry, gives
    ``s = 4 q_b`` from a square root, and the others are off-diagonal sums and differences over s."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 3 or m.shape[1:] != (3, 3):
        raise ValueError(f"expected rotation matrices of shape (N, 3, 3), got {m.shape}")
    d0, d1, d2 = m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]
    t = d0 + d1 + d2
    squares = np.column_stack([t + 1.0, 1.0 + d0 - d1 - d2, 1.0 - d0 + d1 - d2, 1.0 - d0 - d1 + d2])  # 4 q_b^2
    pairs = np.zeros((len(m), 4, 4))  # 4 q_i q_j for i != j
    for i, j, value in ((0, 1, m[:, 2, 1] - m[:, 1, 2]), (0, 2, m[:, 0, 2] - m[:, 2, 0]), (0, 3, m[:, 1, 0] - m[:, 0, 1]),
                        (1, 2, m[:, 0, 1] + m[:, 1, 0]), (1, 3, m[:, 0, 2] + m[:, 2, 0]), (2, 3, m[:, 1, 2] + m[:, 2, 1])):
        pairs[:, i, j] = pairs[:, j, i] = value
    branch = np.where(t > 0.0, 0, 1 + np.argmax(np.column_stack([d0, d1, d2]), axis=1))
    rows = np.arange(len(m))
    s = np.sqrt(squares[rows, branch]) * 2.0
    q = pairs[rows, branch] / s[:, None]
    q[rows, branch] = 0.25 * s
    return normalized_quaternions(q)


def quaternions_from_axis_angles(axes, angles) -> np.ndarray:
    """Unit quaternions ``(..., 4)`` of the rotations by ``angles`` radians about the nonzero
    ``axes`` ``(..., 3)``; ``angles`` broadcasts against the leading axes of ``axes``."""
    axes = np.asarray(axes, dtype=float)
    norms = np.linalg.norm(axes, axis=-1, keepdims=True)
    if (norms < 1e-12).any():
        raise ValueError("rotation axis is numerically zero")
    half = 0.5 * np.asarray(angles, dtype=float)[..., None]
    xyz = np.sin(half) * (axes / norms)
    return np.concatenate([np.broadcast_to(np.cos(half), xyz.shape[:-1] + (1,)), xyz], axis=-1)


def canonical_quaternion(q) -> np.ndarray:
    """Quaternions ``(..., 4)`` with the sign ambiguity fixed: the first nonzero
    component of (w, x, y, z) positive; a zero quaternion stays as it is."""
    q = np.asarray(q, dtype=float)
    first = np.take_along_axis(q, (q != 0.0).argmax(axis=-1)[..., None], axis=-1)
    return np.where(first < 0.0, -q, q)


@dataclass(frozen=True, eq=False)
class Rotation:
    """A proper rotation of R^3, stored as a unit quaternion (w, x, y, z).

    Construct through the ``from_*`` classmethods or :func:`random_rotation`.
    Instances are immutable; composition is ``r1 @ r2`` (apply ``r2`` first).
    """

    quat: np.ndarray

    def __post_init__(self):
        q = normalized_quaternions(np.reshape(self.quat, (1, 4)))[0]
        q.setflags(write=False)
        object.__setattr__(self, "quat", q)

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]))

    @classmethod
    def from_quaternion(cls, q) -> "Rotation":
        """From any nonzero quaternion; the input is normalized."""
        return cls(np.asarray(q, dtype=float))

    @classmethod
    def from_matrix(cls, m, tol: float = 1e-12) -> "Rotation":
        """From a rotation matrix.

        Raises
        ------
        ValueError
            If ``m`` fails ``m.T @ m = I`` or ``det m = 1`` within ``tol``
            (scaled by a small safety factor for accumulated round-off).
        """
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        if not np.allclose(m.T @ m, np.eye(3), atol=max(tol, 1e-12) * 10.0):
            raise ValueError("matrix is not orthogonal within tolerance")
        if abs(np.linalg.det(m) - 1.0) > max(tol, 1e-12) * 100.0:
            raise ValueError("matrix determinant is not +1: not a proper rotation")
        return cls(quaternions_from_matrices(m[None])[0])

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Rotation":
        """Rotation by ``angle`` radians about ``axis`` (any nonzero vector)."""
        return cls(quaternions_from_axis_angles(np.asarray(axis, dtype=float).reshape(3), angle))

    @classmethod
    def from_euler_zyz(cls, alpha: float, beta: float, gamma: float) -> "Rotation":
        """Rotation Rz(alpha) Ry(beta) Rz(gamma) from ZYZ Euler angles in radians."""
        return cls(quaternions_from_euler_zyz([[alpha, beta, gamma]])[0])

    # -- conversions --------------------------------------------------------

    @cached_property
    def matrix(self) -> np.ndarray:
        """The 3x3 rotation matrix (read-only)."""
        m = quaternions_to_matrices(self.quat)
        m.setflags(write=False)
        return m

    def canonical_quaternion(self) -> np.ndarray:
        """Quaternion with the sign fixed so the scalar part is nonnegative."""
        return canonical_quaternion(self.quat)

    def as_axis_angle(self) -> tuple[np.ndarray, float]:
        """Unit axis and angle in [0, pi]; the axis defaults to e1 at angle 0."""
        q = self.canonical_quaternion()
        s = np.linalg.norm(q[1:])
        if s < 1e-15:
            return np.array([1.0, 0.0, 0.0]), 0.0
        return q[1:] / s, 2.0 * math.atan2(s, q[0])

    def as_euler_zyz(self) -> tuple[float, float, float]:
        """ZYZ Euler angles (alpha, beta, gamma) with beta in [0, pi].

        At the gimbal configurations beta = 0 or pi only alpha + gamma (resp.
        alpha - gamma) is determined; gamma is then reported as 0.
        """
        m = self.matrix
        sb = math.hypot(m[0, 2], m[1, 2])
        if sb > 1e-10:
            alpha = math.atan2(m[1, 2], m[0, 2])
            beta = math.atan2(sb, m[2, 2])
            gamma = math.atan2(m[2, 1], -m[2, 0])
        elif m[2, 2] > 0.0:
            alpha, beta, gamma = math.atan2(m[1, 0], m[0, 0]), 0.0, 0.0
        else:
            alpha, beta, gamma = math.atan2(-m[0, 1], -m[0, 0]), math.pi, 0.0
        return alpha, beta, gamma

    # -- algebra ------------------------------------------------------------

    def __matmul__(self, other: "Rotation") -> "Rotation":
        if not isinstance(other, Rotation):
            return NotImplemented
        return Rotation(_quat_product(self.quat, other.quat))

    def inverse(self) -> "Rotation":
        return Rotation(self.quat * np.array([1.0, -1.0, -1.0, -1.0]))

    def apply(self, v) -> np.ndarray:
        """Rotate one vector (3,) or a stack of vectors (..., 3)."""
        return np.asarray(v, dtype=float) @ self.matrix.T

    @property
    def angle(self) -> float:
        """Rotation angle in [0, pi] (geodesic distance to the identity)."""
        return 2.0 * math.atan2(np.linalg.norm(self.quat[1:]), abs(self.quat[0]))

    def __repr__(self) -> str:
        w, x, y, z = self.quat
        return f"Rotation(w={w:+.6f}, x={x:+.6f}, y={y:+.6f}, z={z:+.6f})"


_IDENTITY = np.array([[1.0, 0.0, 0.0, 0.0]])

# q^T _KEY q is even in q, so it keys rotations.  On T, O, Y and every C_k, D_k
# with k <= 1000, distinct elements' keys lie at least 4e-9 apart, far above round-off.
_KEY = np.sin(np.arange(1.0, 17.0)).reshape(4, 4)

# Largest fold count of C_k and D_k: the key separation above holds up to it, and
# the closure check of a table costs O(k^2 log k).
MAX_FOLD = 1000

# Products of group elements the closure check and ``fundamental_quaternions``
# form at a time: blocks of rows keep their arrays near 2 MB each whatever |S|.
_CHECK_PRODUCTS = 2**16


def _row_norms(q: np.ndarray) -> np.ndarray:
    """The norms of the rows of ``q`` ``(N, 4)``, summed column by column: the
    bits of ``np.linalg.norm(q, axis=1)``, without its overhead."""
    w, x, y, z = q.T
    return np.sqrt(((w * w + x * x) + y * y) + z * z)


def relative_quaternions(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """``conj(q2) q1`` for unit quaternions ``(N, 4)``, renormalized, so that
    equal rows give the identity exactly and so a quotient angle of 0."""
    return normalized_quaternions(_quat_product(q2 * np.array([1.0, -1.0, -1.0, -1.0]), q1))


def quotient_angles(rel: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Geodesic distance from each unit quaternion of ``rel`` ``(N, 4)`` to the
    identity coset of the group with quaternions ``group`` ``(|S|, 4)``; for
    ``rel = conj(q2) q1``, the distance between the cosets of q1 and q2.

    The angle ``4 arcsin(|rel -+ s| / 2)`` to the nearest element ``s`` works
    on component differences, so it resolves small angles to machine
    precision where ``2 arccos |rel . s|`` saturates.
    """
    near = group[np.abs(rel @ group.T).argmax(axis=1)]
    gap = np.minimum(_row_norms(rel - near), _row_norms(rel + near))
    return 4.0 * np.arcsin(np.minimum(1.0, 0.5 * gap))


def geodesic_distance(r1: Rotation, r2: Rotation) -> float:
    """Geodesic (misorientation) angle between two rotations.

    Equals ``arccos((tr(r1^T r2) - 1) / 2)``, evaluated through the unit
    quaternions for full precision near zero.  Bi-invariant: composing both
    arguments with a fixed rotation on either side leaves the value
    unchanged.
    """
    return float(quotient_angles(relative_quaternions(r1.quat[None], r2.quat[None]), _IDENTITY)[0])


# ---------------------------------------------------------------------------
# symmetry groups


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """A finite subgroup of SO(3): the unit quaternions ``(|S|, 4)`` of its elements
    (read-only), whose edge view as Rotation objects is ``elements``."""

    name: str
    quaternions: np.ndarray

    def __post_init__(self):
        qs = np.array(self.quaternions, dtype=float).reshape(-1, 4)
        qs.setflags(write=False)
        object.__setattr__(self, "quaternions", qs)

    def __len__(self) -> int:
        return len(self.quaternions)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def elements(self) -> tuple[Rotation, ...]:
        """The elements as Rotation objects, built on first use."""
        return tuple(map(Rotation, self.quaternions))

    @cached_property
    def matrices(self) -> np.ndarray:
        """All element matrices stacked into shape (|S|, 3, 3) (read-only)."""
        m = quaternions_to_matrices(self.quaternions)
        m.setflags(write=False)
        return m

    @classmethod
    def from_elements(cls, name: str, elements, tol: float = 1e-10) -> "SymmetryGroup":
        """Build a group from an explicit element list, checked as the built-in tables are."""
        qs = np.array([e.quat for e in elements]).reshape(-1, 4)
        _check_table(name, qs, tol)
        return cls(name, qs)

    def contains(self, r: Rotation, tol: float = 1e-9) -> bool:
        return bool(np.abs(np.abs(self.quaternions @ r.quat) - 1.0).min() <= tol)

    def matches(self, other: "SymmetryGroup") -> bool:
        """Whether the two groups have the same name and element set."""
        if self is other:
            return True
        if self.name != other.name or len(self) != len(other):
            return False
        dots = np.abs(self.quaternions @ other.quaternions.T)
        return bool(np.abs(dots.max(axis=1) - 1.0).max() <= 1e-9)

    def __repr__(self) -> str:
        return f"SymmetryGroup({self.name!r}, order={len(self)})"


def _check_table(name: str, qs: np.ndarray, tol: float = 1e-10) -> None:
    """Raise ValueError unless the unit quaternions ``qs`` ``(|S|, 4)`` contain the
    identity and are closed under composition within ``tol`` (``1 - |p . q|`` for a
    product ``p`` and its nearest element ``q``).  The products are formed
    ``_CHECK_PRODUCTS`` at a time, a block of rows of the product table.  A product is
    compared with its two neighbours by rotation key ``p^T _KEY p``, and with every
    element only if neither matches."""
    if not len(qs):
        raise ValueError("a symmetry group needs at least the identity element")
    if np.abs(np.abs(qs[:, 0]) - 1.0).min() > tol:
        raise ValueError(f"group {name!r} does not contain the identity")
    keys = np.einsum("ni,ni->n", qs @ _KEY, qs)
    order = np.argsort(keys)
    keys, by_key = keys[order], qs[order]
    step = max(1, _CHECK_PRODUCTS // len(qs))  # rows of the table, or unmatched products, per block
    for lo in range(0, len(qs), step):
        prod = _quat_product(qs[lo : lo + step, None], qs).reshape(-1, 4)
        pos = np.searchsorted(keys, np.einsum("mi,mi->m", prod @ _KEY, prod))
        near = by_key[np.clip([pos - 1, pos], 0, len(qs) - 1)]  # (2, block products, 4)
        miss = prod[np.abs(np.abs(np.einsum("md,kmd->km", prod, near)).max(axis=0) - 1.0) > tol]
        for at in range(0, len(miss), step):
            if np.abs(np.abs(miss[at : at + step] @ qs.T).max(axis=1) - 1.0).max() > tol:
                raise ValueError(f"group {name!r} is not closed under composition")


def _signed_rows(v, perms) -> np.ndarray:
    """The rows ``v[p]`` for each permutation ``p`` in ``perms``, under all 16
    sign patterns."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=4)))
    rows = np.asarray(v, dtype=float)[np.array(perms)]
    return (rows[:, None, :] * signs).reshape(-1, 4)


def _polyhedral_table(family: str) -> np.ndarray:
    """Closed-form unit quaternions of T, O or Y (J. H. Conway and D. A. Smith,
    *On Quaternions and Octonions*, 2003, ch. 3), one per rotation.

    T is the 8 units and 16 half-units; O adds the signed permutations of
    (1, 1, 0, 0)/sqrt(2); Y adds the signed odd permutations of
    (phi, 1, 1/phi, 0)/2, whose five-fold axes include (0, 1, phi).  Rows are
    sign-canonical and sorted in descending lexicographic order, identity first.
    """
    perms = list(itertools.permutations(range(4)))
    parts = [_signed_rows((1.0, 0.0, 0.0, 0.0), perms), _signed_rows((0.5,) * 4, perms[:1])]
    if family == "O":
        parts.append(_signed_rows(np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0), perms))
    if family == "Y":
        odd = [p for p in perms if np.linalg.det(np.eye(4)[list(p)]) < 0.0]
        parts.append(_signed_rows(np.array([GOLDEN_RATIO, 1.0, 1.0 / GOLDEN_RATIO, 0.0]) / 2.0, odd))
    q = canonical_quaternion(np.concatenate(parts)) + 0.0  # + 0.0 turns -0.0 into 0.0
    q = q[np.lexsort(q.T[::-1])[::-1]]  # first column most significant; np.unique would import numpy.ma
    return q[np.r_[True, np.any(q[1:] != q[:-1], axis=1)]]


@lru_cache(maxsize=None)
def _build_group(family: str, k: int) -> SymmetryGroup:
    if family in ("C", "D"):
        # Rotations by 2 pi j / k about e1; D_k appends each of them composed
        # with the half turn about e2, (c, s, 0, 0) (0, 0, 1, 0) = (0, 0, c, s).
        rows = [(math.cos(math.pi * j / k), math.sin(math.pi * j / k), 0.0, 0.0) for j in range(k)]
        if family == "D":
            rows += [(0.0, 0.0, c, s) for c, s, _, _ in rows]
        name = f"{family}{k}"
    elif family in ("T", "O", "Y"):
        rows, name = _polyhedral_table(family), family
    else:
        raise ValueError(f"unknown group family {family!r}")
    qs = normalized_quaternions(np.array(rows))
    _check_table(name, qs)
    return SymmetryGroup(name, qs)


def group_elements(name: str, k: int | None = None) -> SymmetryGroup:
    """Look up a finite rotational point group by name.

    Parameters
    ----------
    name : str
        ``"C<k>"``, ``"D<k>"``, ``"T"``, ``"O"`` or ``"Y"``; alternatively a
        bare family letter ``"C"``/``"D"`` combined with the ``k`` argument.
    k : int, optional
        Fold count for the cyclic and dihedral families, from 1 to
        ``MAX_FOLD``.

    Returns
    -------
    SymmetryGroup
        Cached immutable instance; repeated lookups return the same object.
    """
    name = name.strip()
    if name in ("T", "O", "Y"):
        if k is not None:
            raise ValueError(f"group {name!r} does not take a fold count")
        return _build_group(name, 0)
    m = re.fullmatch(r"([CD])([0-9]*)", name)  # \d would take non-ASCII digits
    if not m:
        raise ValueError(f"unknown symmetry group {name!r}")
    family, digits = m.groups()
    if digits:
        if k is not None and k != int(digits):
            raise ValueError(f"conflicting fold counts: name {name!r} vs k={k}")
        k = int(digits)
    if k is None:
        raise ValueError(f"group family {family!r} needs a fold count")
    if k < 1:
        raise ValueError(f"fold count must be at least 1, got {k}")
    if k > MAX_FOLD:
        raise ValueError(f"fold count must be at most {MAX_FOLD}, got {k}")
    return _build_group(family, k)


# ---------------------------------------------------------------------------
# cosets


@dataclass(frozen=True, eq=False)
class Coset:
    """The set {rep * s : s in group}: one orientation modulo a point group."""

    rep: Rotation
    group: SymmetryGroup

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coset):
            return NotImplemented
        if not self.group.matches(other.group):
            return False
        return coset_distance(self, other) < 1e-10

    __hash__ = None  # tolerance-based equality is incompatible with hashing

    def __repr__(self) -> str:
        return f"Coset({self.rep!r}, {self.group.name})"


def as_coset(c, group: SymmetryGroup) -> Coset:
    """Coerce a Rotation or Coset to a coset of ``group`` (groups must match)."""
    if isinstance(c, Rotation):
        return Coset(c, group)
    if isinstance(c, Coset):
        if not c.group.matches(group):
            raise ValueError(f"coset group {c.group.name!r} does not match {group.name!r}")
        return c
    raise TypeError(f"expected Rotation or Coset, got {type(c).__name__}")


def coset_distance(c1: Coset, c2: Coset) -> float:
    """Geodesic distance between two cosets of the same group.

    The exhaustive minimum ``min_s d(c1.rep s, c2.rep)`` over all group
    elements.  Symmetric, satisfies the triangle inequality, and does not
    depend on the chosen representatives.
    """
    if not c1.group.matches(c2.group):
        raise ValueError(f"cannot compare cosets of {c1.group.name!r} and {c2.group.name!r}")
    rel = relative_quaternions(c1.rep.quat[None], c2.rep.quat[None])
    return float(quotient_angles(rel, c1.group.quaternions)[0])


def fundamental_quaternions(q, group: SymmetryGroup) -> np.ndarray:
    """The representatives of smallest rotation angle of the cosets of the unit
    quaternions ``q`` ``(N, 4)`` modulo ``group``, as sign-canonical products
    ``q s`` ``(N, 4)``: unit up to round-off, which ``Rotation`` and
    :func:`normalized_quaternions` remove.

    Among ``{q s}`` each row takes the element closest to the identity (largest
    ``|w|``); products within 1e-9 of that overlap tie, and ties are broken by
    lexicographic order of the sign-canonical quaternion, which makes the
    choice deterministic.
    """
    q = np.asarray(q, dtype=float)
    out, step = np.empty((len(q), 4)), max(1, _CHECK_PRODUCTS // len(group))  # rows per block of products
    for lo in range(0, len(q), step):
        prods = canonical_quaternion(_quat_product(q[lo : lo + step, None, :], group.quaternions))
        overlap = np.abs(prods[:, :, 0])
        tied = overlap >= overlap.max(axis=1, keepdims=True) - 1e-9
        for d in range(4):  # keep the tied rows that are smallest in component d
            value = np.where(tied, prods[:, :, d], np.inf)
            tied &= value == value.min(axis=1, keepdims=True)
        out[lo : lo + step] = prods[np.arange(len(prods)), tied.argmax(axis=1)]
    return out


def fundamental_representative(c: Coset) -> Rotation:
    """The representative of smallest rotation angle: the N = 1 call of
    :func:`fundamental_quaternions`."""
    return Rotation(fundamental_quaternions(c.rep.quat[None], c.group)[0])


# ---------------------------------------------------------------------------
# sampling


def random_quaternions(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` unit quaternions drawn from the uniform (Haar) distribution."""
    q = rng.standard_normal((n, 4))
    while True:
        norms = _row_norms(q)
        bad = norms < 1e-12
        if not bad.any():
            return q / norms[:, None]
        q[bad] = rng.standard_normal((int(bad.sum()), 4))  # pragma: no cover - probability ~ 0


def random_rotation(rng: np.random.Generator) -> Rotation:
    """One Haar-distributed rotation from a caller-owned generator.

    The caller controls reproducibility through ``rng``; two generators
    seeded identically yield identical rotation streams.
    """
    return Rotation(random_quaternions(rng, 1)[0])
