"""Weight-set formulas for higher order Verma modules M(lambda, H).

Generation-first: wt M(lambda, H) is the union over the minimal
transversals J of wt M(lambda, J), each generated slice by slice as the
weights of Levi modules L_J(nu) cut to the height cutoff.  The Minkowski-sum,
admissible-set and category-O reformulations are kept as independent
code paths so they can be cross-checked against each other.
"""

import bisect
import itertools
import operator

from . import holes as holes_mod
from . import rootdata
from .characters import (
    dot_orbit_terms,
    shifted_partition_sum,
    simple_finite_char,
)
from .holes import CapExceeded, HoleSet, minimalize, transversals
from .weights import (
    HighestWeight,
    add_vectors,
    depth_vectors,
    embed,
    eval_at,
    height,
    integrability,
    is_nonneg_int,
    lambda_H,
)

# inclusion_exclusion_char sums one dot orbit per nonempty set of minimal
# transversals: 2^t - 1 of them for t transversals.
_IE_TERM_CAP = 2**10 - 1
# altwts_check runs over every subset K of J_lambda: 2^|J_lambda| of them.
_ALT_SUBSET_CAP = 2**12


class HovmSpec:
    """A higher order Verma module M(lambda, H) given by its minimal holes."""

    __slots__ = ("gcm", "lam", "holes", "_transversals")

    def __init__(self, lam, holeset):
        self.gcm = lam.gcm
        self.lam = lam
        J = integrability(lam)
        if not holeset.context <= J:
            raise ValueError("hole context leaves the integrable nodes")
        for h in holeset.min_holes:
            if not self.gcm.is_independent(h):
                raise ValueError("hole is not independent")
        self.holes = holeset
        self._transversals = None

    def min_transversals(self):
        if self._transversals is None:
            self._transversals = transversals(self.holes)
        return self._transversals


def spec_from_sets(lam, sets):
    return HovmSpec(lam, minimalize(lam.gcm, integrability(lam), sets))


def _levi(lam, J):
    """J sorted, once it lies in the integrable nodes and its Levi is of
    finite type; ValueError otherwise."""
    J = sorted(frozenset(J))
    evals = lam.evals
    if not all(0 < j <= len(evals) and is_nonneg_int(evals[j - 1]) for j in J):
        raise ValueError("J is not contained in the integrable nodes")
    if not (lam.gcm.finite_type or rootdata.restrict(lam.gcm, J).finite_type):
        raise ValueError("the Levi subalgebra on J must be of finite type")
    return J


def _levi_weights(a, J, nu, room):
    """Depths d over J (ordered as J) of the weights of L_J(nu) with height
    <= room, as a dict to their J-evaluations; nu is given by its own.

    Downward closure under alpha_j-strings: from depth d with evaluation
    e > 0 at j, add d + t u_j (u_j the unit vector at j) for t = 1..min(e,
    room - height(d)).  Exact by two facts: every alpha_j-string of weights
    is unbroken and as long as the evaluation at its top (Kac, Prop. 3.6);
    every weight other than nu lies on a string whose top has smaller
    height (Humphreys, Lie algebras, 21.3), so all within the cut are found.
    """
    cols = [[a[k - 1][j - 1] for k in J] for j in J]
    found = {tuple([0] * len(J)): tuple(nu)}
    stack = list(found)
    while stack:
        d = stack.pop()
        ev = found[d]
        free = room - sum(d)
        for p, e in enumerate(ev):
            for t in range(1, min(e, free) + 1):
                d2 = d[:p] + (d[p] + t,) + d[p + 1:]
                if d2 not in found:
                    found[d2] = tuple(x - t * y for x, y in zip(ev, cols[p]))
                    stack.append(d2)
    return found


def pvm_member(lam, J, c):
    """Is lambda - sum c_i alpha_i a weight of the parabolic Verma M(lambda,J)?

    Slice walk on the weights of L_J(nu) (see pvm_weight_set), which W_J
    permutes: while some J-evaluation e is negative, reflect at the first
    such node j, which adds e < 0 to c_j alone (Kac, Prop. 3.12).  It fails
    once a J-coordinate goes negative and holds once no J-evaluation is, so
    it ends within height(c) + 1 steps; the closure would visit up to
    prod(c_j + 1).  J must lie in the integrable nodes and its Levi must be
    of finite type; ValueError otherwise.
    """
    J = _levi(lam, J)
    if any(x < 0 for x in c):
        return False
    a, d = lam.gcm.a, list(c)
    ev = {j: eval_at(lam, c, j) for j in J}
    while (j := next((k for k in J if ev[k] < 0), None)) is not None:
        e = ev[j]
        d[j - 1] += e
        if d[j - 1] < 0:
            return False
        for k in J:
            ev[k] -= a[k - 1][j - 1] * e
    return True


def weight_member(spec, c):
    """Transversal-union membership: some minimal hitting set J admits the weight.

    c must be n ints, not bools; ValueError otherwise."""
    if len(c) != spec.gcm.n or any(type(x) is not int for x in c):
        raise ValueError("depth must be an array of %d integers" % spec.gcm.n)
    if any(x < 0 for x in c):
        return False
    if not spec.holes.min_holes:
        return True
    return any(pvm_member(spec.lam, J, c) for J in spec.min_transversals())


def weight_set(spec, N):
    """wt M(lambda, H) up to height N: the union over the minimal
    transversals J of wt M(lambda, J)."""
    if not spec.holes.min_holes:
        return set(depth_vectors(spec.gcm.n, N))
    ts = spec.min_transversals()
    return set().union(*(pvm_weight_set(spec.lam, J, N) for J in ts))


def pvm_weight_set(lam, J, N):
    """wt M(lambda, J) up to height N, slice by slice: with c_{J^c} fixed the
    c_J are the weights of L_J(nu), nu = lambda - sum_{i not in J} c_i alpha_i
    (Humphreys, Lie algebras, 21.3), cut to N - height(c_{J^c}).

    c_{J^c} runs in order of height, so each slice is built at its tallest cut.
    """
    J, n = _levi(lam, J), lam.gcm.n
    K = [i for i in lam.gcm.nodes if i not in J]
    a = lam.gcm.a
    # nu_j = lambda_j - sum_{k in K} a_jk c_k, since the depth off J is 0 on J
    rows = [(lam.evals[j - 1], [a[j - 1][k - 1] for k in K]) for j in J]
    slices, out = {}, set()
    for c_K in sorted(depth_vectors(len(K), N), key=height):
        room = N - height(c_K)
        off_J = embed(n, K, c_K)
        nu = tuple(e - sum(map(operator.mul, row, c_K)) for e, row in rows)
        if nu not in slices:
            found = _levi_weights(a, J, nu, room)
            slices[nu] = sorted((height(d), embed(n, J, d)) for d in found)
        for h, d in slices[nu]:
            if h > room:
                break
            out.add(add_vectors(off_J, d))
    return out


def _minkowski_sum(A, B, N):
    """{a + b} cut to height N.

    Summed on the codes sum_i c_i (N+1)^(i-1), which add without a carry
    below the cut; B is sorted by height and scanned up to N - |a|, and each
    distinct sum is decoded once by divmod.
    """
    B = sorted((height(b), b) for b in B if height(b) <= N)
    if not A or not B:
        return set()
    n, radix = len(B[0][1]), N + 1
    powers = [radix**i for i in range(n)]
    heights = [h for h, _ in B]
    codes = [sum(map(operator.mul, b, powers)) for _, b in B]
    sums = set()
    for a in A:
        room = N - height(a)
        if room >= 0:
            shift = sum(map(operator.mul, a, powers))
            sums.update(map(shift.__add__, codes[: bisect.bisect_right(heights, room)]))
    out = set()
    for s in sums:
        c = []
        for _ in range(n):
            s, r = divmod(s, radix)
            c.append(r)
        out.add(tuple(c))
    return out


def weight_set_minkowski(spec, N):
    """Minkowski form: wt L_{J_lambda}^max(lambda) + wt of the 0-frame module.

    The second summand is the uniform module M(H) on the zero weight of the
    full algebra, whose generators are the plain products of f_h over each
    hole.
    """
    if spec.holes.is_zero():  # no finite character over a non-finite J_lambda
        return set()
    lam = spec.lam
    J = integrability(lam)
    finite_part = simple_finite_char(lam, J, N).support()
    zero = HighestWeight(spec.gcm, [0] * spec.gcm.n)
    frame_holes = HoleSet(frozenset(spec.gcm.nodes), spec.holes.min_holes)
    frame = HovmSpec(zero, frame_holes)
    frame_part = weight_set(frame, N)
    return _minkowski_sum(finite_part, frame_part, N)


def _root_monoid(gcm, generators, N):
    """All Z>=0-combinations of the generators of height <= N."""
    out = {tuple([0] * gcm.n)}
    frontier = set(out)
    while frontier:
        new = set()
        for v in frontier:
            for g in generators:
                w = add_vectors(v, g)
                if height(w) <= N and w not in out:
                    new.add(w)
        out |= new
        frontier = new
    return out


def minkowski_family_check(lam, J, J2, N):
    """wt M(lambda,J) = wt L_{J2}^max(lambda) - Z>=0(Delta+ \\ Delta_J+),
    verified up to height N, for any J <= J2 inside the integrable nodes."""
    J, J2 = frozenset(J), frozenset(J2)
    if not (J <= J2 <= integrability(lam)):
        raise ValueError("need J <= J2 <= J_lambda")
    lhs = pvm_weight_set(lam, J, N)
    roots = rootdata.positive_roots(lam.gcm).positive_roots
    outside = [
        r for r in roots if any(r[i - 1] != 0 for i in lam.gcm.nodes if i not in J)
    ]
    rhs = _minkowski_sum(
        simple_finite_char(lam, J2, N).support(),
        _root_monoid(lam.gcm, outside, N),
        N,
    )
    return lhs == rhs


def psi_k(spec, k, N):
    """Weight set as the union over admissible families of order k.

    Infinity is passed as math.inf (equivalently any k >= max hole size).
    """
    if not spec.holes.min_holes:
        return weight_set(spec, N)
    out = set()
    for fam in holes_mod.admissible_sets(spec.holes, k):
        sub = HovmSpec(spec.lam, minimalize(spec.gcm, spec.holes.context, fam))
        out |= weight_set(sub, N)
    return out


def psi_separating_weight(lam, holeset1, holeset2):
    """A depth vector on which the weight sets of the two hole antichains
    differ: lambda_H for a minimal H in the symmetric difference of closures."""
    J = integrability(lam)
    diff = []
    for H in rootdata.independent_sets(lam.gcm, J, include_empty=False):
        m1 = holes_mod.closure_member(lam.gcm, holeset1, H)
        m2 = holes_mod.closure_member(lam.gcm, holeset2, H)
        if m1 != m2:
            diff.append(H)
    if not diff:
        raise ValueError("the hole antichains generate the same closure")
    minimal = [h for h in diff if not any(t < h for t in diff)]
    H = min(minimal, key=lambda h: sorted(h))
    return lambda_H(lam, H)


def altwts_check(spec, N):
    """Alternate union over K <= J_lambda with L(w_{J_lambda\\K}.lambda) in O^H.

    The qualifying K are exactly those with J_{w_{J_lambda\\K}.lambda} n
    J_lambda = K, so the category test reduces to K hitting every minimal
    hole.  Returns True iff the union matches the transversal-union weight set.
    More than 2^12 subsets (|J_lambda| > 12) raise CapExceeded before any is
    built.
    """
    if spec.holes.is_zero():  # no K hits the empty hole: skip the subset cap
        return weight_set(spec, N) == set()
    lam = spec.lam
    J = sorted(integrability(lam))
    if 2 ** len(J) > _ALT_SUBSET_CAP:
        raise CapExceeded(_ALT_SUBSET_CAP, 2 ** len(J))
    alt = set()
    for size in range(len(J) + 1):
        for K in itertools.combinations(J, size):
            K = frozenset(K)
            if all(K & h for h in spec.holes.min_holes):
                alt |= pvm_weight_set(lam, K, N)
    return alt == weight_set(spec, N)


def inclusion_exclusion_char(spec, N):
    """Multiplicity-free character over sl2^n by inclusion-exclusion on the
    minimal transversals: ch M(lambda,H) = sum over nonempty S of
    (-1)^{|S|-1} ch M(lambda, union of S)."""
    if not spec.gcm.is_sl2n:
        raise ValueError("inclusion-exclusion characters require sl2^n")
    ts = spec.min_transversals()
    if 2 ** len(ts) - 1 > _IE_TERM_CAP:
        raise CapExceeded(_IE_TERM_CAP, 2 ** len(ts) - 1)
    terms = []
    for size in range(1, len(ts) + 1):
        for S in itertools.combinations(ts, size):
            orbit = dot_orbit_terms(spec.lam, frozenset().union(*S), N)
            terms += [((-1) ** (size - 1) * sign, d) for sign, d in orbit]
    return shifted_partition_sum(spec.gcm, terms, N)
