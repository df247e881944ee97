"""Symmetrized tensor embeddings of rotation quotients SO(3)/S.

Orientations modulo a finite rotational point group S are embedded into a
tuple of symmetrized tensor powers.  The registered parameter sets make the
embedding locally isometric: Euclidean distance in the ambient space matches
geodesic misorientation distance to first order everywhere.  The package
provides the embedding map, projection from ambient tensor space back onto
the quotient, and numerical verification tooling for the sphere, mean, rank,
isometry and global distance-distortion properties.
"""

import importlib

from .embedding import (
    TABLE_GROUPS,
    EmbeddedPoint,
    EmbeddingSpec,
    embed,
    embedded_distance,
    equivariance_defect,
    expected_hull_dimension,
    format_spec_document,
    parse_spec_document,
    radius,
    registry_lookup,
)
from .so3 import (
    GOLDEN_RATIO,
    TANGENT_BASIS,
    Coset,
    Rotation,
    SymmetryGroup,
    canonical_quaternion,
    coset_distance,
    fundamental_representative,
    geodesic_distance,
    group_elements,
    random_quaternions,
    random_rotation,
)
from .tensors import (
    binom_identity_check,
    inner,
    invariant_tensor,
    outer_power,
    rotate,
    symmetrize,
    tuple_norm,
)

# Loaded on first access (PEP 562): ``import so3embed`` imports neither module,
# and neither do the ``embed`` and ``distance`` commands.
_LAZY = {
    "analysis": (
        "BoundsEstimate",
        "IsometryReport",
        "b_norms_closed_form",
        "bound_ratio_table",
        "derive_beta",
        "differential_at_identity",
        "distance_scatter",
        "empirical_embedding_mean",
        "global_bounds",
        "isometry_check",
        "mean_check",
        "rank_check",
    ),
    "projection": (
        "DegenerateConfigurationError",
        "DegenerateInputError",
        "ProjectionResult",
        "kabsch",
        "project",
        "project_many",
    ),
}

__version__ = "0.1.0"

__all__ = [
    "BoundsEstimate",
    "Coset",
    "DegenerateConfigurationError",
    "DegenerateInputError",
    "EmbeddedPoint",
    "EmbeddingSpec",
    "GOLDEN_RATIO",
    "IsometryReport",
    "ProjectionResult",
    "Rotation",
    "SymmetryGroup",
    "TABLE_GROUPS",
    "TANGENT_BASIS",
    "b_norms_closed_form",
    "binom_identity_check",
    "bound_ratio_table",
    "canonical_quaternion",
    "coset_distance",
    "derive_beta",
    "differential_at_identity",
    "distance_scatter",
    "embed",
    "embedded_distance",
    "empirical_embedding_mean",
    "equivariance_defect",
    "expected_hull_dimension",
    "format_spec_document",
    "fundamental_representative",
    "geodesic_distance",
    "global_bounds",
    "group_elements",
    "inner",
    "invariant_tensor",
    "isometry_check",
    "kabsch",
    "mean_check",
    "outer_power",
    "parse_spec_document",
    "project",
    "project_many",
    "radius",
    "random_quaternions",
    "random_rotation",
    "rank_check",
    "registry_lookup",
    "rotate",
    "symmetrize",
    "tuple_norm",
    "__version__",
]


def __getattr__(name: str):
    """The ``analysis`` or ``projection`` module, or a name of ``__all__`` that
    one of them defines, imported on first access and bound here."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            value = importlib.import_module(f".{module}", __name__)
            if name != module:
                value = getattr(value, name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
