"""Exact residue toolkit for triangulated lattice polytopes.

The package computes, in exact rational arithmetic: facet systems and
lattice points of polytopes, coherent triangulations with lifting
certificates, Jeffrey-Kirwan residues on completed fans, residue mirror
series, pushout-fan evaluations of series coefficients, Cayley data for nef
partitions, and mixed volumes.
"""

from .lattice import (
    GeometryError,
    InvariantError,
    LatticePolytope,
    cone_volume,
    facet_inequalities,
    hermite_normal_form,
    integer_kernel_basis,
    primitive_vector,
    relations_among,
)
from .poly import (
    monomial,
    poly_eval,
    poly_mul,
    poly_pow,
)
from .fan import (
    Fan,
    MoriData,
    Triangulation,
    TriangulationError,
    build_fan,
    complete,
    enumerate_effective,
    find_lifting,
    validate_triangulation,
    verify_coherence,
    wall_relations,
)
from .jk import (
    JKEngine,
    LexTieBreak,
    SeededTieBreak,
    evaluate_top_class,
    jk_basic,
    jk_residue,
    restricted_forms,
)
from .mirror import (
    HessianExpansion,
    HessianReport,
    ResidueContext,
    SeriesTable,
    artinian_residue,
    gamma_weight_vector,
    hessian,
    ideal_element,
    interior_points_at_height,
    rm_coefficient,
    rm_series,
    series_value,
    validate_polynomial,
    verify_hessian_identity,
    verify_ideal_vanishing,
)
from .mpcayley import (
    CayleyData,
    CrosscheckResult,
    PushoutFan,
    beta_lift,
    cayley_rm_coefficient,
    ci_series,
    ci_series_coefficient,
    crosscheck_coefficient,
    evaluation_value_pair,
    interior_polynomial,
    mp_class,
    mp_evaluate,
    mp_fan,
    part_degrees,
    substitution_value_pair,
)
from .mixedvol import (
    MixedResidueResult,
    MixedVolumeReport,
    graded_hessian_component,
    mixed_residue,
    mixed_volume,
    mixed_volume_table,
    verify_mixed_volume_theorem,
)
from .problem import (
    ProblemContext,
    ProblemError,
    ProblemSpec,
    build_context,
    load_problem,
    parse_fraction,
    parse_problem,
)

__version__ = "0.1.0"
