"""Weight-set formulas for higher order Verma modules M(lambda, H).

Generation-first: wt M(lambda, H) is the union over the minimal
transversals J of wt M(lambda, J), each generated slice by slice as the
weights of Levi modules L_J(nu) cut to the height cutoff.  The Minkowski-sum,
admissible-set and category-O reformulations are kept as independent
code paths so they can be cross-checked against each other.

Below the cutoff N every weight set is a set of integer codes, on the
library's code of depth vectors (hovm.weights.DepthCode): the digits base
N+1 of c below a top digit that holds height(c).  A code sum of heights
summing to at most N is a vector sum, it is of height <= N exactly when it
is below the code's limit, and sorted codes run in order of height.
Unions, comparisons and Minkowski sums run on codes; each public function
decodes once, at its return, through the shared code -> vector map of its
DepthCode: by lookup, misses by halves, so the decoding stays proportional
to its output.  Free nodes take their simplex from DepthCode.simplex, as
the character engine's table does; that table's own codes are not read:
weight sets are sparse in its simplex.
"""

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
    DepthCode,
    HighestWeight,
    depth_vectors,
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
    """A higher order Verma module M(lambda, H) given by its minimal holes.

    It keeps one store of code sets: (frozenset J, N) -> the codes of
    wt M(lambda, J) up to height N.  The sub-specs of psi_k share it, and so
    does the Minkowski form's frame when lambda = 0; it dies with the spec.
    """

    __slots__ = ("gcm", "lam", "holes", "_transversals", "_pvm_codes")

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
        self._pvm_codes = {}

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


def _levi_weights(steps, nu, room, top):
    """The codes of the weights of L_J(nu) with height <= room, as a dict to
    their J-evaluations; nu is given by its own.  steps[p][t - 1] is the code
    of t alpha_j and what it takes off the J-evaluations, j the p-th node of
    J, for t from 1 up to at least the longest alpha_j-string within room;
    top is the place of the height digit.

    Downward closure under alpha_j-strings: from a weight with evaluation
    e > 0 at j, add t alpha_j below it for t = 1..min(e, room - its height).
    Exact by two facts: every alpha_j-string of weights is unbroken and as
    long as the evaluation at its top (Kac, Prop. 3.6); every weight other
    than nu lies on a string whose top has smaller height (Humphreys, Lie
    algebras, 21.3), so all within the cut are found.
    """
    found = {0: tuple(nu)}
    stack = [0]
    while stack:
        code = stack.pop()
        ev = found[code]
        free = room - code // top
        for step, e in zip(steps, ev):
            if e > 0:
                for shift, col in step[: min(e, free)]:
                    code2 = code + shift
                    if code2 not in found:
                        found[code2] = tuple(map(operator.sub, ev, col))
                        stack.append(code2)
    return found


def _code_sum(A, B, limit):
    """{a + b} over the codes a in A and b in the sorted list B whose sum is
    below limit."""
    sums = set()
    for a in A:
        sums.update(map(a.__add__, DepthCode.cut(B, limit - a)))
    return sums


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
    codes = _weight_codes(spec, N)
    return DepthCode(spec.gcm.n, N).decode(codes)


def _weight_codes(spec, N):
    """The codes of weight_set(spec, N); no holes is the Verma, J empty."""
    ts = spec.min_transversals()
    return set().union(*(_stored_pvm_codes(spec, J, N) for J in ts))


def _stored_pvm_codes(spec, J, N):
    """_pvm_codes(spec.lam, J, N), kept in the spec's store."""
    key = (frozenset(J), N)
    codes = spec._pvm_codes.get(key)
    if codes is None:
        codes = spec._pvm_codes[key] = _pvm_codes(spec.lam, J, N)
    return codes


def pvm_weight_set(lam, J, N):
    """wt M(lambda, J) up to height N, slice by slice: with c_{J^c} fixed the
    c_J are the weights of L_J(nu), nu = lambda - sum_{i not in J} c_i alpha_i
    (Humphreys, Lie algebras, 21.3), cut to N - height(c_{J^c}).
    """
    codes = _pvm_codes(lam, J, N)
    return DepthCode(lam.gcm.n, N).decode(codes)


def _pvm_codes(lam, J, N):
    """The codes of pvm_weight_set(lam, J, N).

    nu reads c only on the nodes of J^c adjacent to J.  The other nodes of
    J^c are free: a slice is the weights of L_J(nu) plus the free simplex,
    built once per nu as codes.  The adjacent c run in order of height, so
    each slice is built at its tallest cut, sorted, and cut by bisection for
    the shorter ones.  With no adjacent node (always over sl2^n) there is
    one slice, at the full cut, and no sort.
    """
    J, a = _levi(lam, J), lam.gcm.a
    if N < 0:  # no weight, and no radix
        return set()
    code = DepthCode(lam.gcm.n, N)
    places, top, limit = code.places, code.top, code.limit
    K = [k for k in lam.gcm.nodes if k not in J]
    adjacent = [k for k in K if any(a[j - 1][k - 1] for j in J)]
    free = code.simplex([k for k in K if k not in adjacent])
    # t = 1..N, but an isolated node j keeps nu_j = lambda_j in every slice,
    # so no string at j is longer than lambda_j
    longest = [min(N, lam.evals[j - 1]) if lam.gcm.is_isolated(j) else N for j in J]
    steps = [
        [(t * places[j - 1], [t * a[k - 1][j - 1] for k in J]) for t in range(1, m + 1)]
        for j, m in zip(J, longest)
    ]

    def slice_codes(nu, room):
        cut = (room + 1) * top
        out = []
        for c in _levi_weights(steps, nu, room, top):
            out.extend(map(c.__add__, code.cut(free, cut - c)))
        return out

    # nu_j = lambda_j - sum_k a_jk c_k over the adjacent k
    rows = [(lam.evals[j - 1], [a[j - 1][k - 1] for k in adjacent]) for j in J]
    if not adjacent:
        return set(slice_codes([e for e, _ in rows], N))
    adjacent_places = [places[k - 1] for k in adjacent]
    slices, out = {}, set()
    for c_adj in sorted(depth_vectors(len(adjacent), N), key=height):
        nu = tuple(e - sum(map(operator.mul, row, c_adj)) for e, row in rows)
        codes = slices.get(nu)
        if codes is None:
            codes = slices[nu] = sorted(slice_codes(nu, N - height(c_adj)))
        shift = sum(map(operator.mul, c_adj, adjacent_places))
        out.update(map(shift.__add__, code.cut(codes, limit - shift)))
    return out


def _finite_codes(lam, J, N, code):
    """The codes of the support of L_J^max(lambda), from the character engine."""
    return [code.encode(c) for c in simple_finite_char(lam, J, N).support()]


def weight_set_minkowski(spec, N):
    """Minkowski form: wt L_{J_lambda}^max(lambda) + wt of the 0-frame module.

    The second summand is the uniform module M(H) on the zero weight of the
    full algebra, whose generators are the plain products of f_h over each
    hole.
    """
    if spec.holes.is_zero():  # no finite character over a non-finite J_lambda
        return set()
    lam, n = spec.lam, spec.gcm.n
    code = DepthCode(n, N)
    finite_part = _finite_codes(lam, integrability(lam), N, code)
    zero = HighestWeight(spec.gcm, [0] * n)
    frame = HovmSpec(zero, HoleSet(frozenset(spec.gcm.nodes), spec.holes.min_holes))
    if zero == lam:  # the frame's wt M(0, J) are the spec's own
        frame._pvm_codes = spec._pvm_codes
    frame_codes = sorted(_weight_codes(frame, N))
    return code.decode(_code_sum(finite_part, frame_codes, code.limit))


def _root_monoid(generators, limit):
    """The codes of all Z>=0-combinations of the generator codes below limit."""
    out = frontier = {0}
    while frontier:
        frontier = {c + g for c in frontier for g in generators if c + g < limit} - out
        out = out | frontier
    return out


def minkowski_family_check(lam, J, J2, N):
    """wt M(lambda,J) = wt L_{J2}^max(lambda) - Z>=0(Delta+ \\ Delta_J+),
    verified up to height N, for any J <= J2 inside the integrable nodes."""
    J, J2 = frozenset(J), frozenset(J2)
    if not (J <= J2 <= integrability(lam)):
        raise ValueError("need J <= J2 <= J_lambda")
    lhs = _pvm_codes(lam, J, N)
    code = DepthCode(lam.gcm.n, N)
    roots = rootdata.positive_roots(lam.gcm).positive_roots
    outside = [
        code.encode(r)
        for r in roots
        if any(r[i - 1] != 0 for i in lam.gcm.nodes if i not in J)
    ]
    finite_part = _finite_codes(lam, J2, N, code)
    limit = code.limit
    return lhs == _code_sum(finite_part, sorted(_root_monoid(outside, limit)), limit)


def psi_k(spec, k, N):
    """Weight set as the union over admissible families of order k.

    Infinity is passed as math.inf (equivalently any k >= max hole size).
    """
    codes = set()
    for fam in holes_mod.admissible_sets(spec.holes, k):
        sub = HovmSpec(spec.lam, minimalize(spec.gcm, spec.holes.context, fam))
        sub._pvm_codes = spec._pvm_codes
        codes |= _weight_codes(sub, N)
    return DepthCode(spec.gcm.n, N).decode(codes)


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
    built.  The minimal transversals come from the spec's store; the other K
    are built here and not kept.
    """
    if spec.holes.is_zero():  # no K hits the empty hole: skip the subset cap
        return _weight_codes(spec, N) == set()
    lam = spec.lam
    J = sorted(integrability(lam))
    if 2 ** len(J) > _ALT_SUBSET_CAP:
        raise CapExceeded(_ALT_SUBSET_CAP, 2 ** len(J))
    base = _weight_codes(spec, N)
    alt = set()
    for size in range(len(J) + 1):
        for K in itertools.combinations(J, size):
            K = frozenset(K)
            if all(K & h for h in spec.holes.min_holes):
                codes = spec._pvm_codes.get((K, N))
                alt |= _pvm_codes(lam, K, N) if codes is None else codes
    return alt == base


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
