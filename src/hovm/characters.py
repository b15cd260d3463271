"""Truncated formal characters over finite-type algebras.

A FormalCharacter is exact on all heights <= its cutoff: a sparse map
depth-vector -> integer multiplicity with zero values dropped.  The one
computational engine is a dense table of the Kostant partition function,
ch M(0), kept per GCM; Verma, parabolic Verma and finite-dimensional
simple characters, and the Euler characters of the resolutions, are
signed sums of its shifts (shifted_partition_sum).  A finite simple
character sums only to the height of its lowest weight, <nu, 2 rho_J^vee>,
however tall the cutoff.

The engine adds depth vectors as integers, on the library's code of depth
vectors (hovm.weights.DepthCode): two vectors whose heights sum to at most
the cutoff add without a carry, so vector addition is integer addition.
The table keeps codes only: those of its simplex in order of height, its
values and their negatives, and not the code itself, which it looks up as
DepthCode(n, cutoff) on each use, so one (n, cutoff) has one decode map.
A shifted sum is assembled on codes, dropped of zeros and checked against
the cutoff on codes, and decoded once.
Weight sets run on the same code (hovm.weightsets) but not on this table's
list of codes: they are sparse in its simplex, so they decode only the
vectors they return.
"""

import bisect
import functools
import itertools
import operator

from . import rootdata
from .weights import (
    DepthCode,
    HighestWeight,
    dot_reflect,
    embed,
    height,
    integrability,
)

# One truncated ch M(0) per GCM, replaced only by a taller one, least
# recently used first; past _TABLES_KEPT of them the oldest is dropped.
_TABLES_KEPT = 8
_tables = {}


class FormalCharacter:
    __slots__ = ("cutoff", "coeffs")

    def __init__(self, cutoff, coeffs):
        self.cutoff = cutoff
        self.coeffs = {c: m for c, m in coeffs.items() if m != 0}
        assert max(map(sum, self.coeffs), default=cutoff) <= cutoff

    def __eq__(self, other):
        return (
            isinstance(other, FormalCharacter)
            and self.cutoff == other.cutoff
            and self.coeffs == other.coeffs
        )

    @classmethod
    def _checked(cls, cutoff, coeffs):
        """The character of nonzero coefficients at heights <= cutoff, both
        already checked by the caller; the map is kept, not copied."""
        char = object.__new__(cls)
        char.cutoff, char.coeffs = cutoff, coeffs
        return char

    def coeff(self, c):
        return self.coeffs.get(tuple(c), 0)

    def support(self):
        return set(self.coeffs)

    def _merge(self, other, flip):
        cutoff = min(self.cutoff, other.cutoff)
        out = {c: m for c, m in self.coeffs.items() if height(c) <= cutoff}
        for c, m in other.coeffs.items():
            if height(c) <= cutoff:
                out[c] = out.get(c, 0) + flip * m
        return FormalCharacter(cutoff, out)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def is_zero_one(self):
        return all(m in (0, 1) for m in self.coeffs.values())

    def to_json(self):
        return {
            "cutoff": self.cutoff,
            "terms": [
                {"depth": list(c), "mult": self.coeffs[c]}
                for c in sorted(self.coeffs)
            ],
        }


class _Table:
    """ch M(0) of one GCM up to height cutoff, on the code of that cutoff:
    the codes of its depth vectors in their order (height, then lex), and
    its values in that order with their negatives."""

    __slots__ = ("cutoff", "codes", "values", "negated")

    def __init__(self, cutoff, codes, values):
        self.cutoff, self.codes = cutoff, codes
        self.values = values
        self.negated = [-m for m in values]


def _table(gcm, N):
    """The _Table of gcm, built for height N unless one as tall is kept.

    Coin change on codes: one pass per positive root beta,
    counts[i + code(beta)] += counts[i] over the codes i of height
    <= N - |beta| (those with i + code(beta) below the limit, none if
    |beta| > N) in order of height.  Callers must not mutate it.
    """
    table = _tables.pop(gcm, None)
    if table is None or table.cutoff < N:
        roots = rootdata.positive_roots(gcm).positive_roots
        code = DepthCode(gcm.n, N)
        codes = code.simplex(gcm.nodes)
        counts = dict.fromkeys(codes, 0)
        counts[0] = 1
        for beta in roots:
            step = code.encode(beta)
            for i in code.cut(codes, code.limit - step):
                counts[i + step] += counts[i]
        table = _Table(N, codes, list(counts.values()))
        if len(_tables) >= _TABLES_KEPT:
            del _tables[next(iter(_tables))]
    _tables[gcm] = table
    return table


def partition_table(gcm, N):
    """ch M(0) = prod_{beta>0} 1/(1-e^{-beta}) up to height N: at depth c,
    the Kostant partition function of c (Humphreys, BGG category O, 1.16).
    Keys in order of height, then lex; read off the kept table (_table)."""
    return shifted_partition_sum(gcm, [(1, (0,) * gcm.n)], N)


def kostant_partition(gcm, beta):
    """Number of multisets of positive roots summing to beta, a vector of
    gcm.n integers; ValueError for another length."""
    if len(beta) != gcm.n:
        raise ValueError("root vector must have %d entries" % gcm.n)
    if any(b < 0 for b in beta):
        return 0
    table = _table(gcm, height(beta))
    code = DepthCode(gcm.n, table.cutoff)
    return table.values[bisect.bisect_left(table.codes, code.encode(beta))]


def shifted_partition_sum(gcm, terms, N):
    """sum over (sign, d) of sign * e^{-d} * ch M(0), truncated at height N.

    Every character here is such a sum: d runs over dot-orbit or
    resolution weights, which are depth vectors (d >= 0) below lambda.

    Assembled on codes: the shallowest shift seeds the int-keyed map, each
    deeper one adds the table's prefix of height <= N - |d| shifted by the
    code of d (a +-1 reads the kept values or their negatives), and the
    zeros are dropped and the height checked on the codes before one decode.
    """
    numerator = {}
    for sign, d in terms:
        if height(d) <= N:
            numerator[d] = numerator.get(d, 0) + sign
    if not any(numerator.values()):
        # an empty sum (the zero module) builds no table, but refuses the
        # GCMs that the table's positive roots would
        rootdata.positive_roots(gcm)
        return FormalCharacter(N, {})
    table = _table(gcm, N)
    code, codes = DepthCode(gcm.n, table.cutoff), table.codes
    # code order is height order, so the shallowest shift comes first
    shifts = sorted((code.encode(d), sign) for d, sign in numerator.items() if sign)
    coeffs = None
    for shift, sign in shifts:
        # every depth vector has a partition, so the table's values line up
        # with its codes, and those of height <= N - |d| come first
        keys = code.cut(codes, (N - shift // code.top + 1) * code.top)
        if shift:
            keys = map(shift.__add__, keys)
        if sign == 1:
            values = table.values
        elif sign == -1:
            values = table.negated
        else:
            values = map(sign.__mul__, table.values)
        if coeffs is None:
            coeffs = dict(zip(keys, values))
            continue
        get = coeffs.get
        for c, m in zip(keys, values):
            coeffs[c] = get(c, 0) + m
    return _char_of_codes(code, N, coeffs)


def _char_of_codes(code, N, coeffs):
    """The FormalCharacter at cutoff N of a code -> multiplicity map: zeros
    dropped, and the height of every code checked against N, as the
    constructor checks depth vectors."""
    codes = list(itertools.compress(coeffs, coeffs.values()))
    assert max(codes, default=0) < (N + 1) * code.top
    values = filter(None, coeffs.values())
    return FormalCharacter._checked(N, dict(zip(code.tuples(codes), values)))


def dot_orbit_terms(lam, J, N):
    """(sign, depth of w.lambda) for the w in W_J with w.lambda of height <= N.

    Requires lambda J-dominant integral.  Then w -> w.lambda is injective and
    s_j w is longer than w exactly when s_j adds depth at j (Humphreys,
    Lie algebras, 10.2-10.3), so a BFS over depth vectors that takes only
    those upward steps reaches w at level l(w), with sign (-1)^l(w).  Height
    grows along every such step, so dropping heights > N loses no term.
    """
    if not frozenset(J) <= integrability(lam):
        raise ValueError("lambda is not J-dominant integral")
    J = sorted(J)
    level = [tuple([0] * lam.gcm.n)]
    terms = []
    sign = 1
    while level:
        terms += [(sign, c) for c in level]
        up = set()
        for c in level:
            for j in J:
                c2 = dot_reflect(lam, c, j)
                if c2[j - 1] > c[j - 1] and height(c2) <= N:
                    up.add(c2)
        level = sorted(up)
        sign = -sign
    return terms


def verma_char(lam, N):
    """ch M(lambda): coefficient at depth c is the Kostant partition of c."""
    return shifted_partition_sum(lam.gcm, [(1, tuple([0] * lam.gcm.n))], N)


def parabolic_verma_char(lam, J, N):
    """ch M(lambda, J) via the alternating sum over W_J of shifted partitions."""
    return shifted_partition_sum(lam.gcm, dot_orbit_terms(lam, J, N), N)


def on_levi(lam, J, N, levi_char):
    """levi_char(sub_lam, N) -> {depth: mult}, run on the Levi on J with lambda
    restricted to it, embedded back into full-rank depth vectors.

    Requires integer evaluations >= 0 on J.
    """
    if not frozenset(J) <= integrability(lam):
        raise ValueError("lambda is not J-dominant integral")
    if not J:
        return FormalCharacter(N, {tuple([0] * lam.gcm.n): 1})
    nodes = sorted(J)
    sub = rootdata.restrict(lam.gcm, nodes)
    sub_lam = HighestWeight(sub, [lam.evals[i - 1] for i in nodes])
    coeffs = {
        embed(lam.gcm.n, nodes, c_sub): m
        for c_sub, m in levi_char(sub_lam, N).items()
    }
    return FormalCharacter(N, coeffs)


@functools.lru_cache(maxsize=256)
def _two_rho_vee(gcm):
    """2 rho^vee, the sum of the positive coroots, on the simple coroots: the
    sum of the positive roots of the transposed matrix, whose roots are the
    coroots of gcm.  <nu, 2 rho^vee> is the height of nu - w_0 nu, since
    <alpha_i, rho^vee> = 1 and w_0 rho^vee = -rho^vee."""
    dual = rootdata.GCM(list(zip(*gcm.a)))
    return tuple(map(sum, zip(*rootdata.positive_roots(dual).positive_roots)))


def simple_finite_char(lam, J, N):
    """ch of the maximal integrable module L_J^max(lambda) over the Levi on J.

    Requires integer evaluations >= 0 on J; the result is supported on the
    simple roots of J, embedded back into full-rank depth vectors.

    The Levi's Weyl sum runs at min(N, <nu, 2 rho_J^vee>), nu the restriction
    of lambda: no weight of the finite-dimensional L_J(nu) lies below w_0 nu,
    and nu - w_0 nu has that height.
    """

    def levi_char(sub_lam, N):
        gcm = sub_lam.gcm
        bound = sum(map(operator.mul, _two_rho_vee(gcm), sub_lam.evals))
        return parabolic_verma_char(sub_lam, gcm.nodes, min(N, bound)).coeffs

    return on_levi(lam, J, N, levi_char)
