"""Exact ground truths that share no engine with the library's formulas.

Over sl2^n every highest weight module is M(lambda, H) and is isomorphic
as an n^- module to C[f_1..f_n] modulo the monomial ideal generated by
the exponent vectors lambda_H of the minimal holes.  Weights are the
monomials outside the ideal; everything there is plain integer
arithmetic.

Below a cutoff N a depth vector c of rank n is coded as the integer
code(c) = sum_i c_i (N+1)^(n-i), c_1 the most significant digit.  No
coordinate exceeds N, so a code is a number in base N+1 and code order
is lex order.  A set of vectors is a mask, one int with bit code(c) set
for each c in the set.  The simplex of height <= N is built once per
(n, N).  A box of strings and rays is built by doubling, one coordinate
at a time, and shifted to its corner; each side is cut so that no digit
carries.  The standard monomials are the simplex minus the box of rays
above each generator.  The tuple-valued functions cut a mask into runs
of consecutive codes at the multiples of N+1, where the last coordinate
wraps, and decode each run's prefix once.

The Jordan-Hoelder peel (oracle_jh) is a set cover: every sl2^n weight
space is a line, so every multiplicity is 1 and the weights not yet
covered are a mask.  Tops are taken in ascending code order; lex order
extends the componentwise order, so this finds the same factors as a
peel in (height, lex) order, and they are returned in that order.

Over any finite-type Levi: the character of a finite-dimensional simple
module by Freudenthal's multiplicity recursion (freudenthal_char), a check
on the alternating Weyl sum of characters.simple_finite_char.  It runs
height layer by layer and stops at the first layer with no weight, so it
needs no bound from the character engine.
"""

import functools
import operator

from . import rootdata
from .characters import FormalCharacter, on_levi
from .holes import HoleSet
from .weights import NONINT, HighestWeight, eval_at, integrability
from .weights import is_nonneg_int, lambda_H


class MonomialModule:
    __slots__ = ("gcm", "lam", "generators", "cutoff")

    def __init__(self, gcm, lam, generators, cutoff):
        self.gcm = gcm
        self.lam = lam
        self.generators = tuple(sorted(generators))
        self.cutoff = cutoff


def oracle_module(lam, holeset, N):
    """Monomial model of M(lambda, H): one generator lambda_H per minimal hole."""
    if not lam.gcm.is_sl2n:
        raise ValueError("the oracle only models sl2^n")
    gens = [lambda_H(lam, h) for h in holeset.min_holes]
    return MonomialModule(lam.gcm, lam, gens, N)


def _decode(code, n, radix):
    """The depth vector of rank n with the given code."""
    out = [0] * n
    for i in range(n - 1, -1, -1):
        code, out[i] = divmod(code, radix)
    return tuple(out)


def _vectors(mask, n, radix):
    """The depth vectors in a mask, in code order.  Each run of set bits is
    cut at the multiples of radix, so that a run keeps one prefix, which is
    decoded once."""
    bits = format(mask, "b")[::-1]
    start = bits.find("1")
    while start >= 0:
        end = bits.find("0", start)
        if end < 0:
            end = len(bits)
        while start < end:
            rest, low = divmod(start, radix)
            prefix = _decode(rest, n - 1, radix)
            stop = min(end, start - low + radix)
            for v in range(low, low + stop - start):
                yield prefix + (v,)
            start = stop
        start = bits.find("1", end)


@functools.lru_cache(maxsize=64)
def _simplex(n, radix):
    """The mask of every depth vector of rank n and height below radix."""
    # rows[h + 1]: height <= h over the last coordinates built so far
    rows = [0] + [(2 << h) - 1 for h in range(radix)]
    place = 1
    for _ in range(n - 1):
        place *= radix
        for h in range(2, radix + 1):
            rows[h] |= rows[h - 1] << place
    return rows[-1]


def _box(evals, top, radix):
    """The box of strings (length ev + 1 at an integrable evaluation) and
    rays above top, as a mask.  Each side is cut at radix - top_i, so no
    digit carries; a side below 1 leaves the box empty."""
    mask = place = 1
    code = 0
    for ev, c in zip(reversed(evals), reversed(top)):
        size = min(ev + 1 if is_nonneg_int(ev) else radix, radix - c)
        if size < 1:
            return 0
        width = 1
        while width < size:
            step = min(width, size - width)
            mask |= mask << step * place
            width += step
        code += c * place
        place *= radix
    return mask << code


def _standard(mod):
    """The monomials outside the ideal as a mask: the simplex minus the box
    of rays above each generator."""
    n, radix = mod.gcm.n, mod.cutoff + 1
    ideal = 0
    for g in mod.generators:
        ideal |= _box((NONINT,) * n, g, radix)
    return _simplex(n, radix) & ~ideal


def oracle_weights(mod):
    return set(_vectors(_standard(mod), mod.gcm.n, mod.cutoff + 1))


def oracle_char(mod):
    vectors = _vectors(_standard(mod), mod.gcm.n, mod.cutoff + 1)
    return FormalCharacter(mod.cutoff, dict.fromkeys(vectors, 1))


def oracle_holes(mod):
    """Recover the hole set from the generators; rejects non-hole input.

    A generator must be supported on integrable nodes with each entry the
    full exponent <lambda,alpha_h^vee>+1 there.
    """
    lam = mod.lam
    J = integrability(lam)
    holes = []
    for g in mod.generators:
        H = frozenset(i for i in lam.gcm.nodes if g[i - 1] > 0)
        if not H <= J:
            raise ValueError("generator supported outside the integrable nodes")
        if any(g[h - 1] != lam.evals[h - 1] + 1 for h in H):
            raise ValueError("generator exponent is not a hole exponent")
        holes.append(H)
    minimal = [h for h in holes if not any(set(t) < set(h) for t in holes)]
    return HoleSet(J, minimal)


def oracle_simple_char(lam, N):
    """ch L(lambda) over sl2^n: a product of strings and rays per coordinate."""
    if not lam.gcm.is_sl2n:
        raise ValueError("the oracle only models sl2^n")
    n, radix = lam.gcm.n, N + 1
    mask = _box(lam.evals, (0,) * n, radix) & _simplex(n, radix)
    return FormalCharacter(N, dict.fromkeys(_vectors(mask, n, radix), 1))


def oracle_jh(mod):
    """Jordan-Hoelder data by peeling tops off the standard monomials.

    Every sl2^n weight space is a line, so every coefficient met in the
    peel is 0 or 1 and the weights not yet covered are a mask.  The next
    top is its lowest set bit.  Lex order extends the componentwise order,
    so every vector below that top is settled before it, and the factors
    are those of a peel in (height, lex) order.  The top's box of strings
    and rays must lie in the uncovered mask (else a coefficient would go
    negative) and is cleared from it.  Returns [(top, 1)] in (height, lex)
    order.  Exact as long as the cutoff separates the block.
    """
    lam, n, radix = mod.lam, mod.gcm.n, mod.cutoff + 1
    simplex = _simplex(n, radix)
    remaining = _standard(mod)
    tops = []
    while remaining:
        t = (remaining & -remaining).bit_length() - 1  # every lower code is covered
        top = _decode(t, n, radix)
        tops.append(top)
        # <lambda - sum c_i alpha_i, alpha_j^vee> = lambda_j - 2 c_j over sl2^n
        evals = [e if e is NONINT else e - 2 * c for e, c in zip(lam.evals, top)]
        box = _box(evals, top, radix) & simplex
        if box & ~remaining:
            raise AssertionError("negative multiplicity while peeling")
        remaining ^= box
    tops.sort(key=lambda c: (sum(c), c))
    return [(top, 1) for top in tops]


def lam_below(lam, c):
    """The highest weight lambda - sum c_i alpha_i as an evaluation vector."""
    evals = [eval_at(lam, c, j) for j in lam.gcm.nodes]
    return HighestWeight(lam.gcm, evals)


def freudenthal_char(lam, J, N):
    """Test oracle: ch L_J^max(lambda) by Freudenthal's recursion on the Levi."""
    return on_levi(lam, J, N, _freudenthal)


def _freudenthal(sub_lam, N):
    sub = sub_lam.gcm
    roots = rootdata.positive_roots(sub).positive_roots
    n = sub.n
    # (alpha_i, alpha_j) = d_i a_ij; scaling d scales the numerator and the
    # denominator of each multiplicity alike
    d = rootdata.symmetrizer(sub)

    def mu_eval(c2, i):
        return sub_lam.evals[i] - sum(sub.a[i][k] * c2[k] for k in range(n))

    # layer by layer in (height, lex) order; a layer is the vectors one
    # simple root below a weight of the last, since every weight other than
    # lambda has a weight one simple root above it, so the first layer with
    # no weight ends the recursion
    mults = {(0,) * n: 1}
    layer = [(0,) * n]
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for _ in range(N):
        layer = sorted({tuple(map(operator.add, w, u)) for w in layer for u in units})
        weights = []
        for c in layer:
            acc = 0
            for r in roots:
                t = 1
                while True:
                    c2 = tuple(x - t * y for x, y in zip(c, r))
                    if any(x < 0 for x in c2):
                        break
                    m = mults.get(c2, 0)
                    if m:
                        # (mu + t alpha, alpha) for mu + t alpha = lambda - c2
                        val = sum(r[i] * d[i] * mu_eval(c2, i) for i in range(n))
                        acc += 2 * m * val
                    t += 1
            # |lambda+rho|^2 - |mu+rho|^2 = (2(lambda+rho) - c, c), which is
            # sum_i c_i d_i (<lambda+rho, alpha_i^vee> + <mu+rho, alpha_i^vee>)
            denom = sum(
                c[i] * d[i] * (sub_lam.evals[i] + 2 + mu_eval(c, i)) for i in range(n)
            )
            if denom == 0 or acc == 0:
                continue
            val, rest = divmod(acc, denom)
            assert rest == 0 and val >= 0
            mults[c] = val
            weights.append(c)
        if not weights:
            break
        layer = weights
    return mults
