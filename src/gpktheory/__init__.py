"""Gorenstein-projective module catalogs and K-theory for bound quiver algebras.

The package is organised bottom-up:

- :mod:`gpktheory.exactla` — exact linear algebra over prime fields,
  finitely generated abelian group arithmetic, and algebras given by
  structure constants (product, radical, quotients).
- :mod:`gpktheory.presentation` — quivers, paths, admissible relations, and
  finite-dimensional path-algebra quotients with verified multiplication.
- :mod:`gpktheory.rep` — finite-dimensional left modules: Hom/Ext, (co)kernels,
  projective covers, syzygies, decomposition, and isomorphism testing.
- :mod:`gpktheory.gorenstein` — self-injective dimension reports, the
  Gorenstein-projective membership test, and the GP catalog builder.
- :mod:`gpktheory.stable` — stable Hom spaces, stable isomorphism with
  witnesses, and stable endomorphism algebras.
- :mod:`gpktheory.ktheory` — K0 of the stable GP category, finite commutative
  coefficient rings, and the K1/Whitehead construction.
- :mod:`gpktheory.waldhausen` — an independent S-construction K0 oracle with
  gluing and simplicial-identity diagnostics.
- :mod:`gpktheory.morita` — bimodules, balanced tensor products, duals, and
  stable-equivalence-of-Morita-type checks.
- :mod:`gpktheory.cli` — the ``gpk`` command-line interface and the ``.alg`` /
  ``.bim`` text formats.

The names re-exported here are the stable public API; everything else is
internal and may change.
"""

from .exactla import (
    AbelianGroupDescription,
    FieldSpec,
    group_from_presentation,
    smith_normal_form,
)
from .presentation import (
    Arrow,
    FiniteDimAlgebra,
    InvalidRelation,
    NotAdmissibleWithinBound,
    Path,
    Quiver,
    RelationElem,
    build_algebra,
    opposite,
)
from .rep import (
    Morphism,
    Representation,
    cyclic_module,
    decompose,
    direct_sum,
    ext,
    hom_basis,
    is_isomorphic,
    is_projective,
    projective,
    projective_dimension,
    regular,
    simple,
    syzygy,
    zero_rep,
)
from .gorenstein import (
    AtLeast,
    DimensionReport,
    GPCatalog,
    GPVerdict,
    certify_gp,
    dimension_report,
    gp_catalog,
    is_gp,
)
from .stable import (
    NotGPInput,
    StableEndAlgebra,
    is_weakly_equivalent,
    stable_end_algebra,
    stable_hom,
)
from .ktheory import (
    CatalogUnknown,
    FiniteCommutativeRing,
    K1Class,
    K1Result,
    k0_gorenstein,
    k1_gorenstein,
    unit_group,
    whitehead_reduce,
)
from .waldhausen import (
    FiniteWaldhausenData,
    GluingReport,
    build_wdata,
    gluing_check,
    k0_oracle,
    s3_face_identities,
    sample_s3_flags,
)
from .morita import (
    AlgebraMismatch,
    Bimodule,
    FrobeniusReport,
    InvariantComparison,
    SemtReport,
    UnitCounitReport,
    adjunction_data,
    bimodule_from_module,
    check_frobenius_bimodule,
    check_semt,
    check_unit_counit_pd,
    compare_invariants,
    left_dual,
    regular_bimodule,
    right_dual,
    tensor,
    tensor_algebra,
    tensor_bimodules,
)

__version__ = "1.0.0"

__all__ = [
    "AbelianGroupDescription",
    "AlgebraMismatch",
    "Arrow",
    "AtLeast",
    "Bimodule",
    "CatalogUnknown",
    "DimensionReport",
    "FieldSpec",
    "FiniteCommutativeRing",
    "FiniteDimAlgebra",
    "FiniteWaldhausenData",
    "FrobeniusReport",
    "GPCatalog",
    "GPVerdict",
    "GluingReport",
    "InvalidRelation",
    "InvariantComparison",
    "K1Class",
    "K1Result",
    "Morphism",
    "NotAdmissibleWithinBound",
    "NotGPInput",
    "Path",
    "Quiver",
    "RelationElem",
    "Representation",
    "SemtReport",
    "StableEndAlgebra",
    "UnitCounitReport",
    "adjunction_data",
    "bimodule_from_module",
    "build_algebra",
    "build_wdata",
    "certify_gp",
    "check_frobenius_bimodule",
    "check_semt",
    "check_unit_counit_pd",
    "compare_invariants",
    "cyclic_module",
    "decompose",
    "dimension_report",
    "direct_sum",
    "ext",
    "gluing_check",
    "gp_catalog",
    "group_from_presentation",
    "hom_basis",
    "is_gp",
    "is_isomorphic",
    "is_projective",
    "is_weakly_equivalent",
    "k0_gorenstein",
    "k0_oracle",
    "k1_gorenstein",
    "left_dual",
    "opposite",
    "projective",
    "projective_dimension",
    "regular",
    "regular_bimodule",
    "right_dual",
    "s3_face_identities",
    "sample_s3_flags",
    "simple",
    "smith_normal_form",
    "stable_end_algebra",
    "stable_hom",
    "syzygy",
    "tensor",
    "tensor_algebra",
    "tensor_bimodules",
    "unit_group",
    "whitehead_reduce",
    "zero_rep",
]
