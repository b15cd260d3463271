"""Hole reflections and the parabolic Weyl semigroup.

The order of a product of hole reflections comes from Coxeter numbers;
its cross-check iterates the product as an integer matrix on simple-root
coordinates (column j holds the image of alpha_j).  Also the parabolic
Weyl semigroup attached to an ordered list of holes.
"""

import math

from . import rootdata
from .weights import lambda_H

_RANK_CAP = 8


def _check_rank(gcm):
    if gcm.n > _RANK_CAP:
        raise ValueError("rank cap (%d) exceeded" % _RANK_CAP)
    if not gcm.finite_type:
        raise ValueError("not of finite type")


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def simple_reflection(gcm, i):
    """Matrix of s_i: alpha_j -> alpha_j - a[i][j] alpha_i."""
    _check_rank(gcm)
    n = gcm.n
    m = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for j in range(n):
        m[i - 1][j] -= gcm.a[i - 1][j]
    return tuple(tuple(row) for row in m)


def compose(m1, m2):
    """Matrix product m1 * m2 (apply m2 first)."""
    n = len(m1)
    return tuple(
        tuple(sum(m1[r][k] * m2[k][c] for k in range(n)) for c in range(n))
        for r in range(n)
    )


def order(w):
    """Exact order by repeated composition."""
    n = len(w)
    ident = identity_matrix(n)
    acc, k = w, 1
    while acc != ident:
        acc = compose(acc, w)
        k += 1
        assert k <= math.factorial(_RANK_CAP) * 2**_RANK_CAP, "order diverges"
    return k


def hole_reflection(gcm, H, graph=None):
    """s_H = prod_{h in H} s_h for an independent subset H."""
    graph = graph or rootdata.DynkinGraph(gcm)
    if not graph.is_independent(H):
        raise ValueError("hole is not independent")
    w = identity_matrix(gcm.n)
    for h in sorted(H):
        w = compose(w, simple_reflection(gcm, h))
    return w


def order_of_hole_product(gcm, holes, method="lcm_formula"):
    """Order of s_{H_1} ... s_{H_k} for pairwise disjoint independent holes.

    lcm_formula: lcm of the Coxeter numbers of the connected components of
    the union of the holes.  direct: iterate the product matrix.
    """
    graph = rootdata.DynkinGraph(gcm)
    holes = [frozenset(H) for H in holes]
    for idx, H in enumerate(holes):
        if not H <= set(gcm.nodes):
            raise ValueError("hole node outside the node set")
        if not graph.is_independent(H):
            raise ValueError("hole is not independent")
        for H2 in holes[idx + 1:]:
            if H & H2:
                raise ValueError("holes overlap")
    if method == "direct":
        w = identity_matrix(gcm.n)
        for H in holes:
            w = compose(w, hole_reflection(gcm, H, graph))
        return order(w)
    if method != "lcm_formula":
        raise ValueError("unknown method %r" % method)
    sub = rootdata.restrict(gcm, frozenset().union(*holes))
    return math.lcm(*rootdata.positive_roots(sub).coxeter_numbers.values())


class SemigroupElement:
    """Element w_J of the parabolic Weyl semigroup over an ordered hole list.

    Product is union of index sets; length is the index-set size.
    """

    __slots__ = ("holes", "index_set")

    def __init__(self, holes, index_set):
        self.holes = tuple(frozenset(H) for H in holes)
        self.index_set = frozenset(index_set)
        if not self.index_set <= set(range(1, len(self.holes) + 1)):
            raise ValueError("index set out of range")

    @property
    def length(self):
        return len(self.index_set)

    def __mul__(self, other):
        if self.holes != other.holes:
            raise ValueError("elements over different hole lists")
        return SemigroupElement(self.holes, self.index_set | other.index_set)

    def __eq__(self, other):
        return (
            isinstance(other, SemigroupElement)
            and self.holes == other.holes
            and self.index_set == other.index_set
        )

    def __hash__(self):
        return hash((self.holes, self.index_set))

    def __repr__(self):
        return "SemigroupElement(%s)" % sorted(self.index_set)

    def hole_union(self):
        u = frozenset()
        for i in self.index_set:
            u |= self.holes[i - 1]
        return u

    def act(self, lam, other_index=frozenset()):
        """w_J .' lambda_{H_K} = lambda_{H_{J u K}} as a depth vector."""
        joint = SemigroupElement(self.holes, self.index_set | frozenset(other_index))
        return lambda_H(lam, joint.hole_union())


def semigroup(holes):
    """All 2^k elements of the parabolic Weyl semigroup for k holes."""
    holes = tuple(frozenset(H) for H in holes)
    k = len(holes)
    out = []
    for mask in range(2**k):
        idx = frozenset(i + 1 for i in range(k) if mask >> i & 1)
        out.append(SemigroupElement(holes, idx))
    return sorted(out, key=lambda e: (e.length, sorted(e.index_set)))
