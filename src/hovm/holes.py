"""Hole-set calculus: antichains of independent node subsets.

A HoleSet stores only the inclusion-minimal holes; the module it encodes
is determined by the upper closure of that antichain inside
Indep(J_lambda).  The full closure is never materialized outside of
bounded tests.  The antichain [{}] is the zero module: it has no
transversal, so the general code paths give its empty answers.
"""

import itertools
import math

from . import rootdata
from .weights import integrability

# transversals: partial hitting sets kept after one hole
_TRANSVERSAL_CAP = 10**4
# admissible_sets: choice tuples, one subset per minimal hole
_FAMILY_CAP = 10**4
# order_k_truncations: lower holes kept
_LOWER_HOLE_CAP = 10**4


class CapExceeded(RuntimeError):
    def __init__(self, cap, produced):
        super().__init__("enumeration cap %d exceeded" % cap)
        self.cap = cap
        self.produced = produced


def _canonical(sets):
    return tuple(sorted({frozenset(s) for s in sets}, key=lambda h: sorted(h)))


class HoleSet:
    """Antichain of independent subsets of the context node set."""

    __slots__ = ("context", "min_holes")

    def __init__(self, context, min_holes):
        self.context = frozenset(context)
        holes = _canonical(min_holes)
        # distinct sets of one size are never nested: compare across sizes
        by_size = {}
        for h in holes:
            by_size.setdefault(len(h), []).append(h)
        for s, t in itertools.combinations(sorted(by_size), 2):
            if any(a <= b for a in by_size[s] for b in by_size[t]):
                raise ValueError("not an antichain")
        if any(not h <= self.context for h in holes):
            raise ValueError("hole leaves the context")
        self.min_holes = holes

    def __eq__(self, other):
        return (
            isinstance(other, HoleSet)
            and self.context == other.context
            and self.min_holes == other.min_holes
        )

    def __hash__(self):
        return hash((self.context, self.min_holes))

    def __repr__(self):
        return "HoleSet(%s)" % [sorted(h) for h in self.min_holes]

    def __len__(self):
        return len(self.min_holes)

    def support(self):
        return frozenset().union(*self.min_holes) if self.min_holes else frozenset()

    def is_zero(self):
        return frozenset() in self.min_holes

    def to_json(self):
        return [sorted(h) for h in self.min_holes]


def minimalize(gcm, context, sets):
    """Antichain of the inclusion-minimal members of `sets`."""
    context = frozenset(context)
    sets = [frozenset(s) for s in sets]
    for s in sets:
        if not s <= context:
            raise ValueError("hole leaves the context")
        if not gcm.is_independent(s):
            raise ValueError("hole is not independent")
    minimal = [s for s in sets if not any(t < s for t in sets)]
    return HoleSet(context, minimal)


def closure_member(gcm, holeset, H):
    """Is H in the upper closure of the antichain inside Indep(context)?"""
    H = frozenset(H)
    if not H <= holeset.context or not gcm.is_independent(H):
        return False
    return any(m <= H for m in holeset.min_holes)


def transversals(holeset):
    """All inclusion-minimal hitting sets of the minimal holes.

    Branch-and-bound over the support, one hole at a time.  The frontier is
    an antichain, so of the sets after a hole only an extension p | {v} of a
    set p missing the hole can be dominated, and only by a kept set (one
    that hit the hole already) containing v; those are looked up by element.
    """
    holes = sorted(holeset.min_holes, key=lambda h: (len(h), sorted(h)))
    partial = [frozenset()]
    for hole in holes:
        nxt, kept = set(), set()
        for p in partial:
            if p & hole:
                nxt.add(p)
                kept.add(p)
            else:
                nxt.update(p | {v} for v in sorted(hole))
            if len(nxt) > _TRANSVERSAL_CAP:
                raise CapExceeded(_TRANSVERSAL_CAP, len(nxt))
        by_node = {v: [p for p in kept if v in p] for v in hole}
        partial = [
            q for q in nxt
            if q in kept or not any(p < q for v in q & hole for p in by_node[v])
        ]
    return sorted(partial, key=lambda p: (len(p), sorted(p)))


def admissible_sets(holeset, k):
    """All admissible families of order k: one subset H'_t of each minimal
    hole H_t with |H'_t| = min(k, |H_t|), collected as a set of distinct sets.

    k may be math.inf; deterministic order, capped enumeration.
    """
    if not (k == math.inf or (isinstance(k, int) and k >= 1)):
        raise ValueError("order k must be a positive integer or infinity")
    holes = list(holeset.min_holes)
    choices = []
    for h in holes:
        size = len(h) if k == math.inf else min(k, len(h))
        choices.append([frozenset(c) for c in itertools.combinations(sorted(h), size)])
    families, seen = [], set()
    count = 0
    for picks in itertools.product(*choices):
        count += 1
        if count > _FAMILY_CAP:
            raise CapExceeded(_FAMILY_CAP, len(families))
        fam = frozenset(picks)
        if fam not in seen:
            seen.add(fam)
            families.append(fam)
    return families


def h_prime(lam, min_holes):
    """H'_lambda = minimalize({J_lambda n H}); an empty trace minimalizes
    to the zero module [{}].

    The input holes live over the full node set I (general O^H data), so
    intersections are re-checked for independence inside J_lambda.
    """
    J = integrability(lam)
    return minimalize(lam.gcm, J, [frozenset(h) & J for h in min_holes])


def order_k_truncations(gcm, holeset, k, j_lambda):
    """Hole antichains of the kth order upper and lower approximations.

    Upper (M_k): minimal holes of size <= k.  Lower (L_k): those same
    holes together with every independent (k+1)-subset of J_lambda not
    containing one of them; k = 0 degenerates to (Verma, simple module).
    More than 10^4 lower holes raise CapExceeded before the antichain is
    built.
    """
    j_lambda = frozenset(j_lambda)
    if k == 0:
        singles = [frozenset({j}) for j in sorted(j_lambda)]
        return HoleSet(j_lambda, []), HoleSet(j_lambda, singles)
    small = [h for h in holeset.min_holes if len(h) <= k]
    upper = HoleSet(j_lambda, small)
    lower_sets = list(small)
    for s in _independent_sets_avoiding(gcm, sorted(j_lambda), k + 1, small):
        lower_sets.append(s)
        if len(lower_sets) > _LOWER_HOLE_CAP:
            raise CapExceeded(_LOWER_HOLE_CAP, len(lower_sets))
    return upper, HoleSet(j_lambda, lower_sets)


def _independent_sets_avoiding(gcm, nodes, size, avoid):
    """The independent `size`-subsets of the sorted `nodes` that contain no
    set of `avoid`, in lexicographic order.

    Grown node by node among the later non-neighbours of the nodes chosen.
    A branch ends once it contains a set to avoid, or once the nodes left
    cannot complete it: their independence number (a bound off a forest)
    is too small.  On a forest every other branch reaches a set of the
    given size.
    """
    if frozenset() in avoid:  # contained in every set, the empty one first
        return
    adj = {v: frozenset(u for u in nodes if gcm.adjacent(u, v)) for v in nodes}
    # a set to avoid is contained once its largest node is chosen
    closing = {}
    for h in avoid:
        closing.setdefault(max(h), []).append(h)

    def grow(chosen, candidates):
        for i, v in enumerate(candidates):
            s = chosen | {v}
            if any(h <= s for h in closing.get(v, ())):
                continue
            if len(s) == size:
                yield s
                continue
            rest = [u for u in candidates[i + 1:] if u not in adj[v]]
            if len(s) + _independence_bound(rest, adj) >= size:
                yield from grow(s, rest)

    yield from grow(frozenset(), nodes)


def _independence_bound(nodes, adj):
    """The independence number of the graph induced on `nodes` if it is a
    forest, else an upper bound for it.

    A node of degree <= 1 lies in some largest independent set, so it is
    taken and removed with its neighbour while there is one; the nodes left
    after that, all of degree >= 2, are all counted.
    """
    left = set(nodes)
    degree = {v: len(adj[v] & left) for v in left}
    leaves = [v for v in left if degree[v] <= 1]
    taken = 0
    while leaves:
        v = leaves.pop()
        if v not in left:
            continue
        taken += 1
        left.discard(v)
        for u in adj[v] & left:
            left.discard(u)
            for w in adj[u] & left:
                degree[w] -= 1
                if degree[w] <= 1:
                    leaves.append(w)
    return taken + len(left)


def upper_closure(gcm, holeset):
    """Materialized upper closure inside Indep(context); bounded use only."""
    members = []
    for h in rootdata.independent_sets(gcm, holeset.context, include_empty=True):
        if any(m <= h for m in holeset.min_holes):
            members.append(h)
    return members
