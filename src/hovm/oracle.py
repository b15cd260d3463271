"""Exact ground truths that share no engine with the library's formulas.

Over sl2^n every highest weight module is M(lambda, H) and is isomorphic
as an n^- module to C[f_1..f_n] modulo the monomial ideal generated by
the exponent vectors lambda_H of the minimal holes.  Weights are the
monomials outside the ideal, generated coordinate by coordinate;
everything there is plain coordinatewise arithmetic.

Over any finite-type Levi: the character of a finite-dimensional simple
module by Freudenthal's multiplicity recursion (freudenthal_char), a check
on the alternating Weyl sum of characters.simple_finite_char.
"""

import itertools

from . import rootdata
from .characters import FormalCharacter, on_levi
from .holes import HoleSet
from .weights import HighestWeight, depth_vectors, eval_at, integrability
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


def _standard_monomials(mod):
    """The monomials outside the ideal by height: layer h lists those of
    height h in lexicographic order.

    Built one coordinate at a time; each prefix carries the generators it
    dominates so far.  Once a carried generator has no support after the
    coordinate, its entry there and every larger value lie in the ideal, so
    the coordinate stops at the least such entry and at the height left.
    """
    n, N = mod.gcm.n, mod.cutoff
    layers = [[] for _ in range(N + 1)]
    # a generator's last support; the zero generator (the empty hole) stops
    # coordinate 1 at 0, so the zero module has no monomials
    ends = [max((i for i, a in enumerate(g) if a), default=0) for g in mod.generators]
    level = [((), 0, list(zip(mod.generators, ends)))]
    for i in range(n):
        nxt = []
        for prefix, h, live in level:
            stop = min([N - h + 1] + [g[i] for g, end in live if end == i])
            if i == n - 1:
                for v in range(stop):
                    layers[h + v].append(prefix + (v,))
            else:
                nxt.extend((prefix + (v,), h + v, [p for p in live if p[0][i] <= v])
                           for v in range(stop))
        level = nxt
    return layers


def oracle_weights(mod):
    return set(itertools.chain(*_standard_monomials(mod)))


def oracle_char(mod):
    return FormalCharacter(mod.cutoff, {c: 1 for c in oracle_weights(mod)})


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


def _box(lo, evals, N):
    """The vectors c of height <= N with c - lo in the box of strings
    (length ev + 1 at an integrable evaluation) and rays, in lex order.
    Streamed: only the prefixes of the first n - 1 coordinates are held."""
    # a ray is a string longer than any height below the cut
    sizes = [ev + 1 if is_nonneg_int(ev) else N + 1 for ev in evals]
    level = [((), N - sum(lo))] if N >= sum(lo) else []
    for base, size in zip(lo[:-1], sizes):
        level = [(prefix + (base + v,), left - v)
                 for prefix, left in level for v in range(min(left + 1, size))]
    for prefix, left in level:
        for v in range(min(left + 1, sizes[-1])):
            yield prefix + (lo[-1] + v,)


def oracle_simple_char(lam, N):
    """ch L(lambda) over sl2^n: a product of strings and rays per coordinate."""
    if not lam.gcm.is_sl2n:
        raise ValueError("the oracle only models sl2^n")
    return FormalCharacter(N, dict.fromkeys(_box((0,) * lam.gcm.n, lam.evals, N), 1))


def oracle_jh(mod):
    """Jordan-Hoelder data by triangular peeling of maximal weights.

    One pass over the standard monomials in (height, lex) order: a vector
    with a positive remaining coefficient is the top of a composition
    factor, whose simple character (a box of strings and rays above it) is
    subtracted.  A peel changes only vectors at or above its top, which
    come later in the pass, so the factors come out in (height, lex) order.
    Exact as long as the cutoff separates the block (all sl2^n weight
    spaces are lines).
    """
    lam, N = mod.lam, mod.cutoff
    remaining = dict.fromkeys(itertools.chain(*_standard_monomials(mod)), 1)
    factors = []
    # only values change while iterating: a vector outside the weights would
    # go negative and raise before it is stored
    for top, mult in remaining.items():
        if not mult:
            continue
        factors.append((top, mult))
        for c in _box(top, lam_below(lam, top).evals, N):
            left = remaining.get(c, 0) - mult
            if left < 0:
                raise AssertionError("negative multiplicity while peeling")
            remaining[c] = left
    return factors


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

    vectors = sorted(depth_vectors(n, N), key=sum)
    mults = {vectors[0]: 1}
    for c in vectors[1:]:
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
    return mults
