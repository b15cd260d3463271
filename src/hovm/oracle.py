"""Exact ground truths that share no engine with the library's formulas.

Over sl2^n every highest weight module is M(lambda, H) and is isomorphic
as an n^- module to C[f_1..f_n] modulo the monomial ideal generated by
the exponent vectors lambda_H of the minimal holes.  Weights are the
monomials outside the ideal; everything there is plain integer
arithmetic.

Below a cutoff N a depth vector c of rank n is coded as the integer
code(c) = sum_i c_i (N+1)^(n-i), c_1 the most significant digit.  No
coordinate exceeds N, so a code is a number in base N+1, code order is
lex order, and the last coordinate under a fixed prefix is one range of
consecutive codes, a run.  The standard monomials and the boxes of
strings and rays (the simple characters) are generated once, as lists of
runs; the tuple-valued functions decode each run's prefix once.

The Jordan-Hoelder peel (oracle_jh) is a set cover: every sl2^n weight
space is a line, so every multiplicity is 1 and the weights not yet
covered are a set of codes.  Tops are taken in ascending code order;
lex order extends the componentwise order, so this finds the same
factors as a peel in (height, lex) order, and they are returned in that
order.

Over any finite-type Levi: the character of a finite-dimensional simple
module by Freudenthal's multiplicity recursion (freudenthal_char), a check
on the alternating Weyl sum of characters.simple_finite_char.  It runs
height layer by layer and stops at the first layer with no weight, so it
needs no bound from the character engine.
"""

import itertools
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


def _vectors(runs, n, radix):
    """The depth vectors of the runs, in their order; each run's prefix is
    decoded once."""
    for run in runs:
        rest, start = divmod(run.start, radix)
        prefix = _decode(rest, n - 1, radix)
        for v in range(start, start + len(run)):
            yield prefix + (v,)


def _standard_runs(mod):
    """The monomials outside the ideal as runs of codes, in lex order.

    Built one coordinate at a time; each prefix carries the set of
    generators it dominates so far, as a bit mask.  Once a carried generator
    has no support after the coordinate, its entry there and every larger
    value lie in the ideal, so the coordinate stops at the least such entry
    and at the height left.
    """
    n, N, gens = mod.gcm.n, mod.cutoff, mod.generators
    radix = N + 1
    # a generator's last support; the zero generator (the empty hole) stops
    # coordinate 1 at 0, so the zero module has no monomials
    ends = [max((i for i, a in enumerate(g) if a), default=0) for g in gens]
    level = [(0, 0, (1 << len(gens)) - 1)]  # (code, height, carried mask)
    for i in range(n):
        # kept[v]: the generators with entry <= v at coordinate i
        kept = [0] * radix
        for k, g in enumerate(gens):
            if g[i] < radix:
                kept[g[i]] |= 1 << k
        kept = list(itertools.accumulate(kept, operator.or_))
        place = radix ** (n - 1 - i)
        stops, nxt = {}, []
        for code, h, live in level:
            stop = stops.get(live)
            if stop is None:
                stop = stops[live] = min([radix] + [
                    g[i] for k, g in enumerate(gens) if live >> k & 1 and ends[k] == i])
            if stop > N - h:
                stop = N - h + 1
            if i < n - 1:
                nxt.extend([(code + v * place, h + v, live & kept[v]) for v in range(stop)])
            elif stop:
                nxt.append(range(code, code + stop))
        level = nxt
    return level


def oracle_weights(mod):
    return set(_vectors(_standard_runs(mod), mod.gcm.n, mod.cutoff + 1))


def oracle_char(mod):
    vectors = _vectors(_standard_runs(mod), mod.gcm.n, mod.cutoff + 1)
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


def _box_runs(code, left, evals, radix):
    """The box of strings (length ev + 1 at an integrable evaluation) and
    rays above the vector with this code, cut at the height `left` still
    free, as runs of codes in lex order."""
    n = len(evals)
    # a ray is a string longer than any height below the cut
    sizes = [ev + 1 if is_nonneg_int(ev) else radix for ev in evals]
    level = [(code, left)] if left >= 0 else []
    for i in range(n - 1):
        place, size = radix ** (n - 1 - i), sizes[i]
        level = [(c + v * place, rest - v)
                 for c, rest in level for v in range(rest + 1 if rest < size else size)]
    size = sizes[-1]
    return [range(c, c + (rest + 1 if rest < size else size)) for c, rest in level]


def oracle_simple_char(lam, N):
    """ch L(lambda) over sl2^n: a product of strings and rays per coordinate."""
    if not lam.gcm.is_sl2n:
        raise ValueError("the oracle only models sl2^n")
    runs = _box_runs(0, N, lam.evals, N + 1)
    return FormalCharacter(N, dict.fromkeys(_vectors(runs, lam.gcm.n, N + 1), 1))


def oracle_jh(mod):
    """Jordan-Hoelder data by peeling tops off the standard monomials.

    Every sl2^n weight space is a line, so every coefficient met in the
    peel is 0 or 1, and the weights not yet covered by a factor are a set
    of codes.  The next factor top is the least uncovered code.  Lex order
    extends the componentwise order, so every vector below that top is
    settled before it, and the factors are those of a peel in any order
    extending the componentwise one, (height, lex) included.  The top's
    simple character, its box of strings and rays, must lie in the
    uncovered set (else a coefficient would go negative) and is removed
    from it.  Returns [(top, 1)] in (height, lex) order.  Exact as long as
    the cutoff separates the block.
    """
    lam, N, n = mod.lam, mod.cutoff, mod.gcm.n
    radix = N + 1
    remaining = set(itertools.chain.from_iterable(_standard_runs(mod)))
    tops = []
    while remaining:
        t = min(remaining)  # every smaller code is covered already
        top = _decode(t, n, radix)
        tops.append(top)
        # <lambda - sum c_i alpha_i, alpha_j^vee> = lambda_j - 2 c_j over sl2^n
        evals = [e if e is NONINT else e - 2 * c for e, c in zip(lam.evals, top)]
        for run in _box_runs(t, N - sum(top), evals, radix):
            if not remaining.issuperset(run):
                raise AssertionError("negative multiplicity while peeling")
            remaining.difference_update(run)
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
