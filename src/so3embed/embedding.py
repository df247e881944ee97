"""Symmetrized tensor embeddings of rotation cosets.

An embedding is specified by unit vectors ``u_i``, tensor ranks ``alpha_i``
and positive weights ``beta_i``.  A coset ``[R]`` of a finite point group S
maps to the tuple with components

    beta_i / |S| * sum_{s in S} (R s u_i)^{x alpha_i},

optionally recentered by subtracting ``beta_i / (alpha_i + 1)`` times the
isotropic tensor for every even rank, which gives the push-forward of the
uniform orientation distribution mean zero.  The map is well defined on
cosets, equivariant under left multiplication, and its image lies on a sphere
whose radius depends only on the spec.

Components are computed as class values (see ``tensors``) by
:func:`class_values`; :func:`dense_rows` expands them to flat rows of dense
tensors, the public layout, for :func:`embed` and projection (the CLI takes
its columns, :func:`dense_class_columns`).

Two named parameter sets are registered per group: ``"arnold"`` (the classic
unit-weight vectors and ranks) and ``"isometric"`` (weights chosen so the
embedding preserves geodesic distance to first order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .so3 import GOLDEN_RATIO, TANGENT_BASIS, Rotation, SymmetryGroup, as_coset, group_elements
from .tensors import MAX_CLASS_RANK, _check_rank, _class_index, _classes, class_counts, class_monomials
from .tensors import class_multiplicities, invariant_class_values, rotate_tuple, tensor_from_class_values, tuple_norm

# Bound but not called: bench/spans.py traces these names in this module.
from .tensors import invariant_tensor, outer_power  # noqa: F401

__all__ = [
    "EmbeddedPoint",
    "EmbeddingSpec",
    "TABLE_GROUPS",
    "centering_offsets",
    "class_norms",
    "class_values",
    "dense_class_columns",
    "dense_rows",
    "embed",
    "equivariance_defect",
    "expected_hull_dimension",
    "format_spec_document",
    "parse_spec_document",
    "radius",
    "registry_lookup",
]

TABLE_GROUPS = ("C1", "C2", "C3", "C4", "C6", "D2", "D3", "D4", "D6", "T", "O", "Y")


@dataclass(frozen=True, eq=False)
class EmbeddingSpec:
    """Parameters of one symmetrized tensor embedding.

    Parameters
    ----------
    group : SymmetryGroup
        The point group being quotiented out.
    u : tuple of 3-vectors
        Directions, one per component.  Vectors within 1e-6 of unit length
        are renormalized; anything farther off is rejected.
    alpha : tuple of int
        Tensor rank of each component, from 1 to ``tensors.MAX_CLASS_RANK`` (30);
        the dense layout (``columns``) stops at ``tensors.MAX_RANK`` (12).
    beta : tuple of float
        Positive component weights.
    centered : bool
        Subtract the isotropic mean from even-rank components (default).
    """

    group: SymmetryGroup
    u: tuple[tuple[float, float, float], ...]
    alpha: tuple[int, ...]
    beta: tuple[float, ...]
    centered: bool = True

    def __post_init__(self):
        u = tuple(tuple(float(x) for x in vec) for vec in self.u)
        alpha = tuple(int(a) for a in self.alpha)
        beta = tuple(float(b) for b in self.beta)
        if not (len(u) == len(alpha) == len(beta)) or not u:
            raise ValueError("u, alpha and beta must have equal nonzero lengths")
        fixed = []
        for i, vec in enumerate(u):
            if len(vec) != 3:
                raise ValueError(f"u[{i}] is not a 3-vector")
            n = math.sqrt(sum(x * x for x in vec))
            if not math.isfinite(n) or abs(n - 1.0) > 1e-6:
                raise ValueError(f"u[{i}] has norm {n:.8f}, more than 1e-6 away from 1")
            fixed.append(tuple(x / n for x in vec))
        for i, a in enumerate(alpha):
            if not 1 <= a <= MAX_CLASS_RANK:
                raise ValueError(f"alpha[{i}] must lie between 1 and {MAX_CLASS_RANK}, got {a}")
        for i, b in enumerate(beta):
            if not (b > 0.0 and math.isfinite(b)):
                raise ValueError(f"beta[{i}] must be positive and finite, got {b}")
        object.__setattr__(self, "u", tuple(fixed))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def n_components(self) -> int:
        return len(self.alpha)

    @cached_property
    def u_vectors(self) -> np.ndarray:
        out = np.array(self.u, dtype=float)
        out.setflags(write=False)
        return out

    @cached_property
    def orbits(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per component: the distinct group-orbit vectors of ``u_i`` and their weights.

        The images ``s u_i`` merge into clusters by single linkage: two within
        1e-9 of each other (Euclidean) are one vector, kept as the first image
        of its cluster.  An even power does not see the sign of its vector,
        so for even ``alpha_i`` the orbit is taken up to sign: ``w`` and
        ``-w`` count as within.  The group permutes the clusters, so each
        holds ``|S| / len(orbit)`` images and every weight is ``1 /
        len(orbit)`` (orbit-stabilizer): the symmetrized outer power is the
        plain average over these vectors.
        """
        out = []
        for vec, a in zip(self.u_vectors, self.alpha):
            imgs = self.group.matrices @ vec
            near = np.linalg.norm(imgs[:, None] - imgs, axis=2) < 1e-9
            if a % 2 == 0:
                near |= np.linalg.norm(imgs[:, None] + imgs, axis=2) < 1e-9
            first = np.arange(len(imgs))  # per image: the first image of its cluster, once settled
            while not np.array_equal(settled := np.where(near, first, len(imgs)).min(axis=1), first):
                first = settled
            v = imgs[first == np.arange(len(imgs))]
            wts = np.full(len(v), 1.0 / len(v))
            v.setflags(write=False)
            wts.setflags(write=False)
            out.append((v, wts))
        return tuple(out)

    @cached_property
    def monomial_width(self) -> int:
        """Class monomials per rotation of :func:`class_values`, ``sum_i len(orbit_i)
        C(alpha_i + 2, 2)``; ``cli`` and ``analysis`` size their blocks by it."""
        return sum(len(vecs) * math.comb(a + 2, 2) for (vecs, _), a in zip(self.orbits, self.alpha))

    @cached_property
    def columns(self) -> tuple[slice, ...]:
        """The flat-row layout: where each component's entries, row-major, sit in a row."""
        ends = np.cumsum([3 ** _check_rank(a) for a in self.alpha]).tolist()
        return tuple(slice(end - 3**a, end) for end, a in zip(ends, self.alpha))

    @property
    def ambient_dimension(self) -> int:
        """Total entry count of the dense embedding tuple, sum of 3^alpha_i (see ``columns``)."""
        return self.columns[-1].stop

    @cached_property
    def identity_class_values(self) -> tuple[np.ndarray, ...]:
        """Class values ``(1, C(alpha_i + 2, 2))`` per component of the identity
        coset's embedding (read-only); :func:`radius` and the distance sweeps of
        ``analysis`` read them."""
        vals = tuple(class_values(self, np.eye(3)[None]))
        for v in vals:
            v.setflags(write=False)
        return vals


@dataclass(frozen=True)
class EmbeddedPoint:
    """The image of one coset: a tensor tuple plus the spec that produced it."""

    value: tuple[np.ndarray, ...]
    spec: EmbeddingSpec

    @property
    def norm(self) -> float:
        return tuple_norm(self.value)

    def flatten(self) -> np.ndarray:
        """Row-major concatenation of all components into one vector."""
        return np.concatenate([t.ravel() for t in self.value])


# ---------------------------------------------------------------------------
# registry

_E1 = (1.0, 0.0, 0.0)
_E2 = (0.0, 1.0, 0.0)
_E3 = (0.0, 0.0, 1.0)
_DIAG = tuple(np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0))
_VERTEX = tuple(np.array([0.0, 1.0, GOLDEN_RATIO]) / math.sqrt(1.0 + GOLDEN_RATIO**2))

_SQ2 = math.sqrt(2.0)

# Locally isometric weights.  The cyclic and dihedral values follow from the
# closed-form tangent norms (analysis.derive_beta reproduces them exactly);
# T, O and Y make the orbit Gram matrix the identity.
_ISOMETRIC_ROWS = {
    "C1": ((_E1, _E2, _E3), (1, 1, 1), (1 / _SQ2, 1 / _SQ2, 1 / _SQ2)),
    "C2": ((_E1, _E2, _E3), (1, 2, 2), (1 / _SQ2, 0.5, 0.5)),
    "C3": ((_E1, _E2), (1, 3), (math.sqrt(5.0 / 6.0), 2.0 / 3.0)),
    "C4": ((_E1, _E2), (1, 4), (1 / _SQ2, 1 / _SQ2)),
    "C6": ((_E1, _E2), (1, 6), (1 / math.sqrt(12.0), 2.0 * _SQ2 / 3.0)),
    "D2": ((_E1, _E2, _E3), (2, 2, 2), (0.5, 0.5, 0.5)),
    "D3": ((_E1, _E2), (2, 3), (math.sqrt(5.0 / 12.0), 2.0 / 3.0)),
    "D4": ((_E1, _E2), (2, 4), (0.5, 1 / _SQ2)),
    "D6": ((_E1, _E2), (2, 6), (1 / math.sqrt(24.0), 2.0 * _SQ2 / 3.0)),
    "T": ((_DIAG,), (3,), (3.0 / (2.0 * _SQ2),)),
    "O": ((_E1,), (4,), (3.0 / (2.0 * _SQ2),)),
    "Y": ((_VERTEX,), (10,), (75.0 / (8.0 * math.sqrt(95.0)),)),
}

# Classic unit-weight parameter sets, kept for comparison studies.
_ARNOLD_ROWS = {
    "C1": ((_E1, _E2, _E3), (1, 1, 1)),
    "C2": ((_E1, _E2), (1, 2)),
    "C3": ((_E1, _E2), (1, 3)),
    "C4": ((_E1, _E2), (1, 4)),
    "C6": ((_E1, _E2), (1, 6)),
    "D2": ((_E1, _E2), (2, 2)),
    "D3": ((_E2,), (3,)),
    "D4": ((_E2,), (4,)),
    "D6": ((_E2,), (6,)),
    "T": ((_DIAG,), (3,)),
    "O": ((_E1,), (4,)),
    "Y": ((_VERTEX,), (10,)),
}


@lru_cache(maxsize=None)
def registry_lookup(group_name: str, variant: str = "isometric") -> EmbeddingSpec:
    """The registered embedding spec of a tabulated group.

    Parameters
    ----------
    group_name : str
        One of ``TABLE_GROUPS``.
    variant : {"isometric", "arnold"}
        ``"isometric"`` carries the distance-preserving weights;
        ``"arnold"`` the classic unit-weight parameters.

    Returns
    -------
    EmbeddingSpec
        Centered spec; cached, so repeated lookups share orbit tables.
    """
    if group_name not in TABLE_GROUPS:
        raise ValueError(f"no registered embedding for group {group_name!r}")
    if variant == "isometric":
        u, alpha, beta = _ISOMETRIC_ROWS[group_name]
    elif variant == "arnold":
        u, alpha = _ARNOLD_ROWS[group_name]
        beta = (1.0,) * len(alpha)
    else:
        raise ValueError(f"unknown variant {variant!r}; expected 'isometric' or 'arnold'")
    return EmbeddingSpec(group_elements(group_name), u, alpha, beta)


# ---------------------------------------------------------------------------
# the embedding map

# Entries per batch of rows: ``cli`` embeds and measures rows of width ``w``
# ``_BLOCK_ENTRIES // w`` at a time, ``analysis`` blocks its distance, screen
# and rank rotations by it, and ``projection`` sizes its lockstep batches by
# it, so the arrays of a large table or orbit are never all held at once.
_BLOCK_ENTRIES = 2**20


def class_values(spec: EmbeddingSpec, mats: np.ndarray) -> list[np.ndarray]:
    """Class values, shape ``(N, C(alpha_i + 2, 2))`` per component, of the
    (centered when the spec is) embedding of ``N`` rotation matrices ``(N, 3, 3)``."""
    out = []
    for (vecs, wts), a, b, offset in zip(spec.orbits, spec.alpha, spec.beta, centering_offsets(spec)):
        imgs = (mats.reshape(-1, 3) @ vecs.T).reshape(len(mats), 3, len(vecs))  # one GEMM
        mono = class_monomials(imgs.transpose(1, 0, 2), a)  # (C, N, orbit)
        vals = (mono.reshape(-1, len(vecs)) @ (b * wts)).reshape(len(mono), len(mats))  # one GEMV
        if offset is not None:
            vals -= offset[:, None]
        out.append(vals.T)
    return out


def centering_offsets(spec: EmbeddingSpec) -> list[np.ndarray | None]:
    """Per component, the class values that centering subtracts: ``beta_i /
    (alpha_i + 1)`` times the isotropic tensor at an even rank of a centered
    spec, otherwise ``None``."""
    return [
        (b / (a + 1)) * invariant_class_values(a) if spec.centered and a % 2 == 0 else None
        for a, b in zip(spec.alpha, spec.beta)
    ]


@lru_cache(maxsize=None)
def _tangent_operators(alpha: int) -> np.ndarray:
    """Cached read-only ``L`` ``(3, C, C)``, ``C = C(alpha + 2, 2)``: ``L[l] @ p`` are the
    monomial coefficients of ``grad P(w) . (s_l w)``, the derivative of ``P(exp(t s_l) w)``
    at 0, for ``P`` of coefficients ``p`` and ``s_l = TANGENT_BASIS[l]``.  ``L[l] = sum_{d,f}
    s_l[d, f] U_f D_d``, filled entry by entry: ``D_d`` takes monomial ``n`` to ``n[d]``
    times the one with one ``d`` fewer, and ``U_f`` multiplies by ``w_f``."""
    counts = class_counts(alpha)
    out = np.zeros((3, len(counts), len(counts)))
    for (c, n), d, f in product(enumerate(counts), range(3), range(3)):
        if n[d]:
            m = [k - (i == d) + (i == f) for i, k in enumerate(n)]
            out[:, _class_index(m[0], m[1], alpha), c] += TANGENT_BASIS[:, d, f] * n[d]
    out.setflags(write=False)
    return out


def class_norms(spec: EmbeddingSpec, comps) -> np.ndarray:
    """Norms ``(N,)`` of the dense tuples whose class values per component are
    ``comps`` ``(N, C(alpha_i + 2, 2))``, such as :func:`class_values` differences.
    Row-independent: a row's norm has the same bits in any batch.  The terms
    ``v * v * class_multiplicities(a)`` form one array whose class columns are
    summed by halving in place (an odd last column moved down), elementwise
    adds in an order the class counts fix; a BLAS product or a numpy
    reduction picks its order by the batch shape."""
    w = np.concatenate([v.T for v in comps])  # (sum C, N): one class column per row
    w *= w
    w *= np.concatenate([class_multiplicities(a) for a in spec.alpha], dtype=float)[:, None]  # float: no cast buffer
    while len(w) > 1:
        h = len(w) // 2
        w[:h] += w[h : 2 * h]
        if len(w) % 2:
            w[h] = w[-1]
        w = w[: len(w) - h]
    return np.sqrt(w[0])


def dense_class_columns(spec: EmbeddingSpec) -> list[int]:
    """For every entry of a flat dense row, the column of its value among the
    components' class values side by side (``np.concatenate(comps, axis=1)``):
    each component's flat-index -> class map, offset by the class counts of the
    components before it.  Taking these columns gives :func:`dense_rows`."""
    offsets = np.cumsum([0] + [math.comb(a + 2, 2) for a in spec.alpha])
    return np.concatenate([_classes(_check_rank(a))[0] + lo for a, lo in zip(spec.alpha, offsets)]).tolist()


def dense_rows(spec: EmbeddingSpec, comps) -> np.ndarray:
    """Flat rows ``(N, ambient_dimension)`` of the dense tuples whose class values per
    component are ``comps`` ``(N, C(alpha_i + 2, 2))``: the components' entries,
    row-major, one after another, which ``spec.columns`` locates."""
    dense = [tensor_from_class_values(v, a).reshape(len(v), -1) for v, a in zip(comps, spec.alpha)]
    return dense[0] if len(dense) == 1 else np.concatenate(dense, axis=1)


def embed(spec: EmbeddingSpec, c) -> EmbeddedPoint:
    """Embed a coset (or a rotation, read as its coset) into tensor space.

    The result does not depend on the chosen representative, and rotating the
    coset on the left rotates every tensor component accordingly.
    """
    row = dense_rows(spec, class_values(spec, as_coset(c, spec.group).rep.matrix[None]))[0]
    return EmbeddedPoint(tuple(row[cols].reshape((3,) * a) for cols, a in zip(spec.columns, spec.alpha)), spec)


def radius(spec: EmbeddingSpec) -> float:
    """Norm of every embedded point; constant over the whole quotient."""
    return float(class_norms(spec, spec.identity_class_values)[0])


def equivariance_defect(spec: EmbeddingSpec, r: Rotation, c) -> float:
    """Norm gap between embedding ``r [c]`` and rotating the embedding of ``[c]``.

    Zero in exact arithmetic; in floating point this stays below 1e-10 and is
    a sharp diagnostic for orientation-convention mistakes.
    """
    c = as_coset(c, spec.group)
    left = embed(spec, r @ c.rep).value
    right = rotate_tuple(r, embed(spec, c).value)
    return math.sqrt(sum(float(np.sum((a - b) ** 2)) for a, b in zip(left, right)))


def expected_hull_dimension(spec: EmbeddingSpec) -> int:
    """Dimension of the affine hull of the component maps: ``sum_{l >= 1} (2l + 1) rank G_l``,
    ``G_l[i, j] = P_l(u_i . u_j)`` over the components with ``alpha_i - l`` even, ``>= 0``."""
    dots, alpha, total = spec.u_vectors @ spec.u_vectors.T, np.array(spec.alpha), 0
    prev, legendre = np.ones_like(dots), dots  # P_{l-1} and P_l, by the three-term recurrence
    for ell in range(1, max(spec.alpha) + 1):
        use = (alpha >= ell) & (alpha % 2 == ell % 2)
        if use.any():  # |P_l| <= 1: an absolute tolerance
            total += (2 * ell + 1) * int(np.linalg.matrix_rank(legendre[np.ix_(use, use)], tol=1e-10))
        prev, legendre = legendre, ((2 * ell + 1) * dots * legendre - ell * prev) / (ell + 1)
    return total


def embedded_distance(spec: EmbeddingSpec, c1, c2) -> float:
    """Euclidean distance between two embedded cosets."""
    mats = np.array([as_coset(c1, spec.group).rep.matrix, as_coset(c2, spec.group).rep.matrix])
    return float(class_norms(spec, [v[:1] - v[1:] for v in class_values(spec, mats)])[0])


# ---------------------------------------------------------------------------
# plain-text spec documents

def _parse_number(text: str, kind=float):
    """``kind(text)`` under the package's number grammar, shared by table cells,
    command-line options and spec documents: Python's ``int`` and ``float``
    also read digit underscores (``1_0`` as 10) and non-ASCII digits, which
    the grammar has neither of.  Every failure is a ``ValueError`` that
    quotes ``text`` as :func:`_quoted` does."""
    if "_" not in text and text.isascii():
        try:
            return kind(text)
        except ValueError:
            pass
    raise ValueError(f"{_quoted(text)} is not a number")


def _quoted(text: str) -> str:
    """``repr(text)``, cut after 40 characters to ``...`` and the length: an error line stays short."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


_TRUE_WORDS = {"true", "yes", "1", "on"}
_FALSE_WORDS = {"false", "no", "0", "off"}


def parse_spec_document(text: str) -> EmbeddingSpec:
    """Build a spec from a key = value document.

    Recognized keys: ``group`` (required), ``k``, ``variant``, ``centered``
    and the overrides ``u`` (semicolon-separated vectors), ``alpha`` and
    ``beta``.  Overrides replace the corresponding registry fields; a group
    without a registry row must override all three.  Lines starting with
    ``#`` and blank lines are ignored.
    """
    fields: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"spec line {ln}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key in fields:
            raise ValueError(f"spec line {ln}: duplicate key {key!r}")
        fields[key] = val

    unknown = set(fields) - {"group", "k", "variant", "centered", "u", "alpha", "beta"}
    if unknown:
        raise ValueError(f"unknown spec keys: {sorted(unknown)}")
    if "group" not in fields:
        raise ValueError("spec document is missing the 'group' key")

    k = _parse_number(fields["k"], int) if "k" in fields else None
    group = group_elements(fields["group"], k)
    variant = fields.get("variant", "isometric")

    centered = True
    if "centered" in fields:
        word = fields["centered"].lower()
        if word in _TRUE_WORDS:
            centered = True
        elif word in _FALSE_WORDS:
            centered = False
        else:
            raise ValueError(f"centered must be true or false, got {fields['centered']!r}")

    u = alpha = beta = None
    if "u" in fields:
        u = tuple(tuple(_parse_number(x) for x in chunk.split()) for chunk in fields["u"].split(";"))
    if "alpha" in fields:
        alpha = tuple(_parse_number(x, int) for x in fields["alpha"].split())
    if "beta" in fields:
        beta = tuple(_parse_number(x) for x in fields["beta"].split())

    if u is None or alpha is None or beta is None:
        if group.name not in TABLE_GROUPS:
            raise ValueError(
                f"group {group.name!r} has no registry row; the spec document "
                "must provide u, alpha and beta explicitly"
            )
        row = registry_lookup(group.name, variant)
        u = u if u is not None else row.u
        alpha = alpha if alpha is not None else row.alpha
        beta = beta if beta is not None else row.beta
    return EmbeddingSpec(group, u, alpha, beta, centered=centered)


def format_spec_document(spec: EmbeddingSpec) -> str:
    """Serialize a spec to the document format accepted by :func:`parse_spec_document`."""
    lines = [f"group = {spec.group.name}"]
    lines.append("u = " + "; ".join(" ".join(f"{x:.17g}" for x in vec) for vec in spec.u))
    lines.append("alpha = " + " ".join(str(a) for a in spec.alpha))
    lines.append("beta = " + " ".join(f"{b:.17g}" for b in spec.beta))
    lines.append(f"centered = {'true' if spec.centered else 'false'}")
    return "\n".join(lines) + "\n"
