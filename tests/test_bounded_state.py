"""Process-wide state stays bounded: every lru_cache in the library has a
finite maxsize, and the kept partition tables and shared depth codes stay
within their constants however many (algebra, cutoff) a process asks for."""

import importlib
import pkgutil

import hovm
from hovm import characters, weights
from hovm.characters import verma_char
from hovm.rootdata import parse_gcm
from hovm.weights import DepthCode, HighestWeight
from hovm.weightsets import spec_from_sets, weight_set


def _lru_caches():
    """{qualified name: cache} over the attributes of every hovm module and
    of the classes defined there."""
    found = {}
    for info in pkgutil.iter_modules(hovm.__path__):
        module = importlib.import_module("hovm." + info.name)
        for name, value in vars(module).items():
            members = [(name, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                members += [
                    (name + "." + attr, getattr(member, "__func__", member))
                    for attr, member in vars(value).items()
                ]
            for qualname, member in members:
                if hasattr(member, "cache_info"):
                    found[module.__name__ + "." + qualname] = member
    return found


def test_every_lru_cache_is_bounded():
    caches = _lru_caches()
    # the walk sees the caches it should, so an empty result cannot pass
    for name in ("rootdata.positive_roots", "characters._two_rho_vee",
                 "weights.DepthCode.__new__", "oracle._simplex"):
        assert "hovm." + name in caches
    unbounded = [name for name, c in caches.items() if c.cache_info().maxsize is None]
    assert unbounded == []


def test_tables_and_codes_stay_within_their_constants():
    names = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "A1^3"]
    jobs = [(parse_gcm(name), N) for name in names for N in (2, 3)]
    assert len(jobs) == 20
    for g, N in jobs:
        lam = HighestWeight(g, [0] * g.n)
        assert verma_char(lam, N).coeff((0,) * g.n) == 1
        assert (0,) * g.n in weight_set(spec_from_sets(lam, []), N)
        assert len(characters._tables) <= characters._TABLES_KEPT
        assert DepthCode.__new__.cache_info().currsize <= weights._CODES_KEPT
    # both bounds were reached, not only respected
    assert len(characters._tables) == characters._TABLES_KEPT
    assert DepthCode.__new__.cache_info().currsize == weights._CODES_KEPT
