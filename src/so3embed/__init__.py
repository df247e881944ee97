"""Symmetrized tensor embeddings of rotation quotients SO(3)/S.

Orientations modulo a finite rotational point group S are embedded into a
tuple of symmetrized tensor powers.  The registered parameter sets make the
embedding locally isometric: Euclidean distance in the ambient space matches
geodesic misorientation distance to first order everywhere.  The package
provides the embedding map, projection from ambient tensor space back onto
the quotient, and numerical verification tooling for the sphere, mean, rank,
isometry and global distance-distortion properties.
"""

from .analysis import (
    BoundsEstimate,
    IsometryReport,
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
from .projection import (
    DegenerateConfigurationError,
    DegenerateInputError,
    ProjectionResult,
    kabsch,
    project,
    project_many,
)
from .so3 import (
    GOLDEN_RATIO,
    TANGENT_BASIS,
    ConsistencyError,
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

__version__ = "0.1.0"

__all__ = [
    "BoundsEstimate",
    "ConsistencyError",
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
