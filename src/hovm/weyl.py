"""Hole reflections acting by the dot action on depth vectors.

A hole reflection s_H = prod_{h in H} s_h (H independent) acts on a weight
mu = lambda - sum_i c_i alpha_i through its depth vector c.  The order of a
product of hole reflections comes from Coxeter numbers; its cross-check
applies the product to the depth vector 0 under lambda = 0 until it returns.
The parabolic Weyl semigroup of an ordered hole list is the subset index of
`resolutions.taylor_resolution`.
"""

import math

from . import rootdata
from .weights import HighestWeight, dot_reflect


def hole_dot(lam, c, H):
    """s_H . mu for mu of depth c: dot reflections at the sorted nodes of H."""
    for h in sorted(H):
        c = dot_reflect(lam, c, h)
    return c


def order_of_hole_product(gcm, holes, method="lcm_formula"):
    """Order of s_{H_1} ... s_{H_k} for pairwise disjoint independent holes.

    lcm_formula: lcm of the Coxeter numbers of the connected components of
    the union of the holes.  direct: apply the holes in turn to the depth
    vector 0 under lambda = 0 and count the rounds until it returns to 0;
    exact because 0 is regular for the dot action, so w . 0 = 0 only when
    w = 1 (Humphreys, Lie algebras, 10.3).  Both need the union of the holes
    to span a Levi subalgebra of finite type.
    """
    holes = [frozenset(H) for H in holes]
    for idx, H in enumerate(holes):
        if not H <= set(gcm.nodes):
            raise ValueError("hole node outside the node set")
        if not gcm.is_independent(H):
            raise ValueError("hole is not independent")
        for H2 in holes[idx + 1:]:
            if H & H2:
                raise ValueError("holes overlap")
    sub = rootdata.restrict(gcm, frozenset().union(*holes))
    if method == "direct":
        if not sub.finite_type:
            raise ValueError("not of finite type")
        zero = tuple([0] * gcm.n)
        lam = HighestWeight(gcm, zero)
        c, rounds = zero, 0
        while True:
            for H in reversed(holes):
                c = hole_dot(lam, c, H)
            rounds += 1
            if c == zero:
                return rounds
    if method != "lcm_formula":
        raise ValueError("unknown method %r" % method)
    return math.lcm(*rootdata.positive_roots(sub).coxeter_numbers.values())
