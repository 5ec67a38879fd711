"""Exact homological algebra over bound quiver algebras.

Projective resolutions, Ext and stable Hom, cluster-tilting verification,
and the skeleton of the stable category obtained by inverting the syzygy
functor, all in exact arithmetic over Q or a prime field.
"""

from __future__ import annotations

from .exact_linalg import (
    Field,
    FieldError,
    InternalCheckFailed,
    Matrix,
    prime_field,
    rational_field,
)
from .families import interval_module, nakayama2_tilde
from .homology import (
    ExtSpace,
    PdCertificate,
    ProjectiveResolution,
    ext,
    ext_dim,
    pd_certificate,
    resolve,
    syzygy,
    syzygy_morphism,
)
from .homspace import (
    HomSpace,
    StableHomSpace,
    add_membership,
    hom,
    hom_dim,
    is_isomorphic,
    stable_end_dim,
    stable_hom,
    stable_iso,
)
from .quiver_algebra import (
    Arrow,
    BoundQuiverAlgebra,
    InvalidKupisch,
    NotFiniteDimensionalWithinBound,
    PathWord,
    PeriodicPresentation,
    Quiver,
    QuiverError,
    RelationElement,
    WindowTooSmall,
    compute_basis,
    nakayama2_infinite,
    nakayama_cyclic,
    opposite_algebra,
    orbit_grid_algebra,
    truncate,
)
from .rep import (
    AlgebraMismatch,
    RepMorphism,
    Representation,
    direct_sum,
    dual_module,
    injective_module,
    injectives,
    is_projective,
    projective_cover,
    projective_module,
    projectives,
    simple_module,
    zero_rep,
)
from .stab import (
    GorensteinReport,
    GpCertificate,
    OrbitNotResolved,
    SkeletonReport,
    StabHom,
    StableObject,
    gp_certificate,
    gp_intersection_check,
    is_iwanaga_gorenstein,
    skeleton,
    stab_hom,
    stabilize_angle,
    standard_triangle,
)
from .tilting import (
    Angle,
    Check,
    CTReport,
    SubcatSpec,
    d_coresolution,
    d_resolution,
    left_approximation,
    right_approximation,
    standard_angle,
    verify_cluster_tilting,
    verify_dZ_closure,
    verify_gen_cogen,
    verify_rigid,
)

__version__ = "0.1.0"
