"""Weight sets, truncated characters, BGG-type resolutions and block data
for higher order Verma modules over finite-type Lie algebras and sl2^n.

The public names below are resolved on first use (PEP 562), so `import
hovm` loads no submodule and `from hovm import X` loads only X's module and
what that module imports.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it exports; __all__ keeps this order
_EXPORTS = {
    "rootdata": ("GCM", "parse_gcm", "positive_roots", "independent_sets"),
    "weights": (
        "HighestWeight", "NONINT", "integrability", "lambda_H", "depth_vectors",
    ),
    "characters": (
        "FormalCharacter", "kostant_partition", "verma_char",
        "parabolic_verma_char", "simple_finite_char",
    ),
    "holes": (
        "HoleSet", "CapExceeded", "minimalize", "transversals",
        "admissible_sets", "h_prime", "order_k_truncations",
    ),
    "weightsets": (
        "HovmSpec", "spec_from_sets", "pvm_member", "pvm_weight_set",
        "weight_member", "weight_set", "weight_set_minkowski",
        "minkowski_family_check", "psi_k", "psi_separating_weight",
        "altwts_check", "inclusion_exclusion_char",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
