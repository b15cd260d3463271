"""Exact ground truths that share no engine with the library's formulas.

Over sl2^n every highest weight module is M(lambda, H) and is isomorphic
as an n^- module to C[f_1..f_n] modulo the monomial ideal generated by
the exponent vectors lambda_H of the minimal holes.  Weights are the
monomials outside the ideal; everything there is plain coordinatewise
arithmetic.

Over any finite-type Levi: the character of a finite-dimensional simple
module by Freudenthal's multiplicity recursion (freudenthal_char), a check
on the alternating Weyl sum of characters.simple_finite_char.
"""

import itertools

from . import rootdata
from .characters import FormalCharacter, on_levi
from .holes import HoleSet
from .weights import HighestWeight, depth_vectors, eval_at, integrability, lambda_H


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


def _in_ideal(c, generators):
    return any(all(a >= b for a, b in zip(c, g)) for g in generators)


def oracle_weights(mod):
    return {
        c
        for c in depth_vectors(mod.gcm.n, mod.cutoff)
        if not _in_ideal(c, mod.generators)
    }


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


def oracle_simple_char(lam, N):
    """ch L(lambda) over sl2^n: a product of strings and rays per coordinate."""
    if not lam.gcm.is_sl2n:
        raise ValueError("the oracle only models sl2^n")
    ranges = []
    for ev in lam.evals:
        if isinstance(ev, int) and ev >= 0:
            ranges.append(range(ev + 1))
        else:
            ranges.append(range(N + 1))
    coeffs = {}
    for c in itertools.product(*ranges):
        if sum(c) <= N:
            coeffs[c] = 1
    return FormalCharacter(N, coeffs)


def oracle_jh(mod):
    """Jordan-Hoelder data by triangular peeling of maximal weights.

    Repeatedly pick the depth vector of least height (ties broken
    lexicographically) with a positive remaining coefficient, record the
    simple with that highest weight, and subtract its character.  A vector
    of least height is coordinatewise minimal, so each pick is one linear
    scan, and each peel removes at least the pick: at most |weights| peels.
    Exact as long as the cutoff separates the block (all sl2^n weight
    spaces are lines).
    """
    lam = mod.lam
    N = mod.cutoff
    remaining = dict.fromkeys(oracle_weights(mod), 1)
    factors = []
    while remaining:
        top = min(remaining, key=lambda c: (sum(c), c))
        mult = remaining[top]
        assert mult > 0
        mu = lam_below(lam, top)
        factors.append((top, mult))
        simple = oracle_simple_char(mu, N - sum(top))
        for c_rel in simple.coeffs:
            c = tuple(a + b for a, b in zip(top, c_rel))
            if sum(c) > N:
                continue
            remaining[c] = remaining.get(c, 0) - mult
            if remaining[c] == 0:
                del remaining[c]
            elif remaining[c] < 0:
                raise AssertionError("negative multiplicity while peeling")
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
