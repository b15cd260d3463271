"""Weight sets, truncated characters, BGG-type resolutions and block data
for higher order Verma modules over finite-type Lie algebras and sl2^n."""

from .characters import (
    FormalCharacter,
    kostant_partition,
    parabolic_verma_char,
    simple_finite_char,
    verma_char,
)
from .holes import (
    CapExceeded,
    HoleSet,
    ZERO,
    ZeroModuleError,
    admissible_sets,
    h_prime,
    minimalize,
    order_k_truncations,
    transversals,
)
from .rootdata import GCM, independent_sets, parse_gcm, positive_roots
from .weights import (
    HighestWeight,
    NONINT,
    depth_vectors,
    integrability,
    lambda_H,
)
from .weightsets import (
    HovmSpec,
    altwts_check,
    inclusion_exclusion_char,
    minkowski_family_check,
    psi_k,
    psi_separating_weight,
    pvm_member,
    pvm_weight_set,
    spec_from_sets,
    weight_member,
    weight_set,
    weight_set_minkowski,
)

__version__ = "0.1.0"

__all__ = [
    "GCM",
    "parse_gcm",
    "positive_roots",
    "independent_sets",
    "HighestWeight",
    "NONINT",
    "integrability",
    "lambda_H",
    "depth_vectors",
    "FormalCharacter",
    "kostant_partition",
    "verma_char",
    "parabolic_verma_char",
    "simple_finite_char",
    "HoleSet",
    "ZERO",
    "ZeroModuleError",
    "CapExceeded",
    "minimalize",
    "transversals",
    "admissible_sets",
    "h_prime",
    "order_k_truncations",
    "HovmSpec",
    "spec_from_sets",
    "pvm_member",
    "pvm_weight_set",
    "weight_member",
    "weight_set",
    "weight_set_minkowski",
    "minkowski_family_check",
    "psi_k",
    "psi_separating_weight",
    "altwts_check",
    "inclusion_exclusion_char",
]
