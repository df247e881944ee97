"""Rotations, finite rotational point groups, and distances on SO(3) and its quotients.

Rotations are stored as unit quaternions (scalar first) and renormalized after
every composition, so long product chains cannot drift away from SO(3).
Symmetry groups are explicit element lists in a fixed orientation:

* cyclic C_k: major rotation axis along e1,
* dihedral D_k: major axis along e1, a two-fold axis along e2,
* tetrahedral T and octahedral O: a three-fold axis along (1, 1, 1),
* icosahedral Y: the vertex direction (0, 1, phi), phi the golden ratio,
  is a five-fold axis.

All functions are pure; groups and rotations are immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "GOLDEN_RATIO",
    "TANGENT_BASIS",
    "ConsistencyError",
    "Coset",
    "Rotation",
    "SymmetryGroup",
    "coset_distance",
    "fundamental_representative",
    "geodesic_distance",
    "group_elements",
    "random_quaternions",
    "random_rotation",
    "safe_arccos",
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


class ConsistencyError(ArithmeticError):
    """An exact mathematical bound was violated by more than round-off allows."""


def safe_arccos(x: float, tol: float = 1e-9) -> float:
    """arccos that clamps round-off but rejects genuinely out-of-range input.

    Arguments farther than ``tol`` outside [-1, 1] indicate corrupted data
    (for example a matrix that is not a rotation) and raise
    :class:`ConsistencyError` instead of being silently clamped.
    """
    if x > 1.0 + tol or x < -1.0 - tol:
        raise ConsistencyError(f"arccos argument {x!r} is out of range beyond tolerance {tol}")
    return math.acos(min(1.0, max(-1.0, x)))


def _normalized(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(4)
    n = math.sqrt(float(q @ q))
    if n < 1e-12:
        raise ValueError("quaternion norm is numerically zero")
    return q / n


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


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices from unit quaternions (..., 4) -> (..., 3, 3)."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    m = np.empty(q.shape[:-1] + (3, 3))
    m[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    m[..., 0, 1] = 2.0 * (x * y - z * w)
    m[..., 0, 2] = 2.0 * (x * z + y * w)
    m[..., 1, 0] = 2.0 * (x * y + z * w)
    m[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    m[..., 1, 2] = 2.0 * (y * z - x * w)
    m[..., 2, 0] = 2.0 * (x * z - y * w)
    m[..., 2, 1] = 2.0 * (y * z + x * w)
    m[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return m


def _quat_from_matrix(m: np.ndarray) -> np.ndarray:
    """Unit quaternion from a rotation matrix, numerically stable for all traces."""
    m = np.asarray(m, dtype=float)
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        return _normalized(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
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
    return _normalized(q)


def canonical_quaternion(q: np.ndarray) -> np.ndarray:
    """Fix the sign ambiguity: first nonzero component of (w, x, y, z) positive."""
    q = np.asarray(q, dtype=float)
    for c in q:
        if c != 0.0:
            return q if c > 0.0 else -q
    return q


@dataclass(frozen=True, eq=False)
class Rotation:
    """A proper rotation of R^3, stored as a unit quaternion (w, x, y, z).

    Construct through the ``from_*`` classmethods or :func:`random_rotation`.
    Instances are immutable; composition is ``r1 @ r2`` (apply ``r2`` first).
    """

    quat: np.ndarray

    def __post_init__(self):
        q = _normalized(self.quat)
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
        return cls(_quat_from_matrix(m))

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Rotation":
        """Rotation by ``angle`` radians about ``axis`` (any nonzero vector)."""
        axis = np.asarray(axis, dtype=float).reshape(3)
        n = np.linalg.norm(axis)
        if n < 1e-12:
            raise ValueError("rotation axis is numerically zero")
        half = 0.5 * angle
        return cls(np.concatenate([[math.cos(half)], math.sin(half) / n * axis]))

    @classmethod
    def from_euler_zyz(cls, alpha: float, beta: float, gamma: float) -> "Rotation":
        """Rotation Rz(alpha) Ry(beta) Rz(gamma) from ZYZ Euler angles in radians."""
        rz1 = cls.from_axis_angle([0.0, 0.0, 1.0], alpha)
        ry = cls.from_axis_angle([0.0, 1.0, 0.0], beta)
        rz2 = cls.from_axis_angle([0.0, 0.0, 1.0], gamma)
        return rz1 @ ry @ rz2

    # -- conversions --------------------------------------------------------

    @cached_property
    def matrix(self) -> np.ndarray:
        """The 3x3 rotation matrix (read-only)."""
        m = _quat_to_matrix(self.quat)
        m.setflags(write=False)
        return m

    def as_quaternion(self) -> np.ndarray:
        """Copy of the unit quaternion (w, x, y, z)."""
        return self.quat.copy()

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

    def isclose(self, other: "Rotation", tol: float = 1e-12) -> bool:
        """Whether the two rotations agree up to quaternion sign within ``tol``."""
        return bool(min(np.abs(self.quat - other.quat).max(), np.abs(self.quat + other.quat).max()) <= tol)

    def __repr__(self) -> str:
        w, x, y, z = self.quat
        return f"Rotation(w={w:+.6f}, x={x:+.6f}, y={y:+.6f}, z={z:+.6f})"


def _quaternion_angle(q1: np.ndarray, q2: np.ndarray) -> float:
    """Rotation angle between two unit quaternions, resolved for tiny angles.

    ``2 arccos |q1 . q2|`` saturates near zero (the overlap cannot exceed
    1 - eps/2), so angles below ~2e-8 would all collapse.  The equivalent
    ``4 arcsin(|q1 -+ q2| / 2)`` works on component differences instead and
    resolves small angles to machine precision.
    """
    d = float(min(np.linalg.norm(q1 - q2), np.linalg.norm(q1 + q2)))
    return 4.0 * math.asin(min(1.0, 0.5 * d))


def geodesic_distance(r1: Rotation, r2: Rotation) -> float:
    """Geodesic (misorientation) angle between two rotations.

    Equals ``arccos((tr(r1^T r2) - 1) / 2)``, evaluated through the unit
    quaternions for full precision near zero.  Bi-invariant: composing both
    arguments with a fixed rotation on either side leaves the value
    unchanged.
    """
    return _quaternion_angle(r1.quat, r2.quat)


# ---------------------------------------------------------------------------
# symmetry groups


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """A finite subgroup of SO(3) given by its explicit element list."""

    name: str
    elements: tuple[Rotation, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def quaternions(self) -> np.ndarray:
        """All element quaternions stacked into shape (|S|, 4) (read-only)."""
        q = np.array([e.quat for e in self.elements])
        q.setflags(write=False)
        return q

    @cached_property
    def matrices(self) -> np.ndarray:
        """All element matrices stacked into shape (|S|, 3, 3) (read-only)."""
        m = _quat_to_matrix(self.quaternions)
        m.setflags(write=False)
        return m

    @classmethod
    def from_elements(cls, name: str, elements, check: bool = True, tol: float = 1e-10) -> "SymmetryGroup":
        """Build a group from an explicit element list.

        With ``check=True`` the list must contain the identity and be closed
        under composition within ``tol`` (geodesic distance to the nearest
        listed element), which guards against hand-built lists that are not
        actually groups.
        """
        elems = tuple(elements)
        if not elems:
            raise ValueError("a symmetry group needs at least the identity element")
        group = cls(name, elems)
        if check:
            qs = group.quaternions
            if np.abs(np.abs(qs @ np.array([1.0, 0.0, 0.0, 0.0])) - 1.0).min() > tol:
                raise ValueError(f"group {name!r} does not contain the identity")
            for e in elems:
                prod = np.abs(_quat_product(e.quat, qs) @ qs.T)
                if np.abs(prod.max(axis=1) - 1.0).max() > tol:
                    raise ValueError(f"group {name!r} is not closed under composition")
        return group

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


_E1 = np.array([1.0, 0.0, 0.0])
_E2 = np.array([0.0, 1.0, 0.0])
_E3 = np.array([0.0, 0.0, 1.0])


def _closure(name: str, generators: list[Rotation], expected: int) -> tuple[Rotation, ...]:
    """Close a generator list under composition; |S| is verified afterwards."""
    elems: list[Rotation] = [Rotation.identity()]
    quats = np.empty((4 * expected, 4))  # quats[:len(elems)] are the elements found so far
    quats[0] = elems[0].quat
    frontier = list(generators)
    while frontier:
        r = frontier.pop()
        if (np.abs(quats[: len(elems)] @ r.quat) > 1.0 - 1e-12).any():
            continue
        if len(elems) == 4 * expected:
            raise ConsistencyError(f"closure of {name} generators exceeded {4 * expected} elements")
        quats[len(elems)] = r.quat
        elems.append(r)
        frontier.extend(r @ e for e in elems)
        frontier.extend(e @ r for e in elems)
    if len(elems) != expected:
        raise ConsistencyError(f"group {name} closed with {len(elems)} elements, expected {expected}")
    # Deterministic element order: sort by sign-canonical quaternion, identity first.
    keyed = sorted(elems, key=lambda e: tuple(-canonical_quaternion(e.quat)))
    return tuple(keyed)


@lru_cache(maxsize=None)
def _build_group(family: str, k: int) -> SymmetryGroup:
    if family == "C":
        elems = tuple(Rotation.from_axis_angle(_E1, 2.0 * math.pi * j / k) for j in range(k))
        return SymmetryGroup(f"C{k}", elems)
    if family == "D":
        flip = Rotation.from_axis_angle(_E2, math.pi)
        axial = [Rotation.from_axis_angle(_E1, 2.0 * math.pi * j / k) for j in range(k)]
        return SymmetryGroup(f"D{k}", tuple(axial + [r @ flip for r in axial]))
    three_fold = Rotation.from_axis_angle([1.0, 1.0, 1.0], 2.0 * math.pi / 3.0)
    if family == "T":
        gens = [Rotation.from_axis_angle(_E1, math.pi), three_fold]
        return SymmetryGroup("T", _closure("T", gens, 12))
    if family == "O":
        gens = [Rotation.from_axis_angle(_E1, math.pi / 2.0), three_fold]
        return SymmetryGroup("O", _closure("O", gens, 24))
    if family == "Y":
        # Icosahedron with vertices (0, +-1, +-Phi) and cyclic permutations.
        # The two-fold must not be perpendicular to the five-fold axis, or the
        # pair only spans the pentagon dihedral subgroup of order 10.
        vertex = np.array([0.0, 1.0, GOLDEN_RATIO])
        gens = [
            Rotation.from_axis_angle(vertex, 2.0 * math.pi / 5.0),
            Rotation.from_axis_angle(_E3, math.pi),
        ]
        return SymmetryGroup("Y", _closure("Y", gens, 60))
    raise ValueError(f"unknown group family {family!r}")


def group_elements(name: str, k: int | None = None) -> SymmetryGroup:
    """Look up a finite rotational point group by name.

    Parameters
    ----------
    name : str
        ``"C<k>"``, ``"D<k>"``, ``"T"``, ``"O"`` or ``"Y"``; alternatively a
        bare family letter ``"C"``/``"D"`` combined with the ``k`` argument.
    k : int, optional
        Fold count for the cyclic and dihedral families, at least 1.

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
    m = re.fullmatch(r"([CD])(\d*)", name)
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
    # d(r1 s, r2) = 2 arccos |<q(r1 s), q(r2)>|; the scalar part of
    # q(r2)^-1 q(r1 s) is the dot product below, so one pass over the group
    # quaternions suffices to pick the minimizing element.
    prods = _quat_product(c1.rep.quat, c1.group.quaternions)
    overlaps = prods @ c2.rep.quat
    best = int(np.abs(overlaps).argmax())
    if abs(float(overlaps[best])) > 1.0 + 1e-9:
        raise ConsistencyError(f"quaternion overlap {overlaps[best]!r} exceeds 1 beyond tolerance")
    return _quaternion_angle(prods[best], c2.rep.quat)


def fundamental_representative(c: Coset) -> Rotation:
    """The representative of smallest rotation angle.

    Among ``{c.rep s}`` this returns the element closest to the identity;
    exact ties are broken by lexicographic order of the sign-canonical
    quaternion, which makes the choice deterministic.
    """
    prods = _quat_product(c.rep.quat, c.group.quaternions)
    overlap = np.abs(prods[:, 0])
    best = overlap.max()
    tied = np.nonzero(overlap >= best - 1e-9)[0]
    key = min(tuple(canonical_quaternion(prods[i])) for i in tied)
    return Rotation(np.array(key))


# ---------------------------------------------------------------------------
# sampling


def random_quaternions(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` unit quaternions drawn from the uniform (Haar) distribution."""
    q = rng.standard_normal((n, 4))
    norms = np.linalg.norm(q, axis=1)
    bad = norms < 1e-12
    while bad.any():  # pragma: no cover - probability ~ 0
        q[bad] = rng.standard_normal((int(bad.sum()), 4))
        norms = np.linalg.norm(q, axis=1)
        bad = norms < 1e-12
    return q / norms[:, None]


def random_rotation(rng: np.random.Generator) -> Rotation:
    """One Haar-distributed rotation from a caller-owned generator.

    The caller controls reproducibility through ``rng``; two generators
    seeded identically yield identical rotation streams.
    """
    return Rotation(random_quaternions(rng, 1)[0])


def quaternions_to_matrices(q: np.ndarray) -> np.ndarray:
    """Vectorized conversion of unit quaternions (..., 4) to matrices (..., 3, 3)."""
    return _quat_to_matrix(np.asarray(q, dtype=float))
