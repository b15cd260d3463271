"""Generalized Cartan matrices and finite root systems.

A GCM answers every structural question about its matrix: Dynkin
adjacency (a[i][j] != 0), connected components, independent sets, and
finite type, decided exactly as symmetrizable with a positive definite
symmetrization (Kac, Infinite-dimensional Lie algebras, Ch. 4).  It keeps
its nodes, a neighbour bit mask per node and whether it is sl2^n from its
constructor; equality and hashing read the matrix alone.  Nodes are
1-based throughout.  A root (and more generally any weight displacement)
is stored as a tuple of nonnegative integers: the coefficients on the
simple roots.
"""

import functools
import itertools
import math
import re


class GCM:
    """A generalized Cartan matrix a[i][j] with 1-based node set I."""

    __slots__ = ("n", "a", "nodes", "is_sl2n", "_masks", "_finite")

    def __init__(self, rows):
        a = tuple(tuple(row) for row in rows)
        if any(type(x) is not int for row in a for x in row):  # no bool, float or str
            raise ValueError("Cartan matrix entries must be integers")
        n = len(a)
        if any(len(row) != n for row in a):
            raise ValueError("matrix is not square")
        masks = [0] * n  # bit j of masks[i - 1]: node j is joined to node i
        for i in range(n):
            if a[i][i] != 2:
                raise ValueError("diagonal entry != 2 at node %d" % (i + 1))
            for j in range(n):
                if i != j:
                    if a[i][j] > 0:
                        raise ValueError("positive off-diagonal entry")
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        raise ValueError("asymmetric zero pattern")
                    if a[i][j]:
                        masks[i] |= 2 << j
        self.n = n
        self.a = a
        self.nodes = tuple(range(1, n + 1))
        self._masks = masks
        # no two nodes are joined: the algebra is sl2 x ... x sl2
        self.is_sl2n = not any(masks)
        self._finite = None

    def __eq__(self, other):
        return isinstance(other, GCM) and self.a == other.a

    def __hash__(self):
        return hash(self.a)

    def __repr__(self):
        return "GCM(%r)" % (self.a,)

    @property
    def finite_type(self):
        """Symmetrizable, and every leading principal minor is positive.

        With d a symmetrizer, A = D^-1 B for the symmetric B = DA, so the
        minors of A have the signs of those of B (Sylvester's criterion).
        Computed on first use and kept.
        """
        if self._finite is None:
            self._finite = symmetrizer(self) is not None and _minors_positive(self.a)
        return self._finite

    def adjacent(self, i, j):
        return i != j and self.a[i - 1][j - 1] != 0

    def neighbours(self, i):
        return {j for j in self.nodes if self.adjacent(i, j)}

    def is_isolated(self, i):
        """Node i is joined to no other node."""
        return not self._masks[i - 1]

    def is_independent(self, subset):
        """No two nodes of subset are joined."""
        bits = 0
        for i in subset:
            bits |= 1 << i
        masks = self._masks
        return not any(masks[i - 1] & bits for i in subset)

    def components(self, support=None):
        """Connected components of the induced subgraph on `support`."""
        support = set(self.nodes if support is None else support)
        comps = []
        while support:
            comp, frontier = set(), {min(support)}
            while frontier:
                comp |= frontier
                frontier = {j for i in frontier for j in self.neighbours(i)}
                frontier &= support - comp
            comps.append(frozenset(comp))
            support -= comp
        return comps


def symmetrizer(gcm):
    """Positive integers d with d_i a_ij = d_j a_ji, or None when the matrix
    is not symmetrizable.

    Solved as d_j = d_i a_ij / a_ji along a spanning tree of each component
    of the Dynkin graph.  Its root starts at the product of every nonzero
    |a_ij|, i != j: a tree path divides by distinct entries only, so every
    step is exact.  A cycle whose ratios disagree fails the final check.
    """
    n, a = gcm.n, gcm.a
    top = math.prod(-x for i, row in enumerate(a) for j, x in enumerate(row) if x < 0)
    d = [0] * n
    for seed in range(n):
        if d[seed]:
            continue
        d[seed] = top
        stack = [seed]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j != i and a[i][j] and not d[j]:
                    d[j] = d[i] * a[i][j] // a[j][i]
                    stack.append(j)
    if any(d[i] * a[i][j] != d[j] * a[j][i] for i in range(n) for j in range(i)):
        return None
    g = math.gcd(*d)
    return tuple(x // g for x in d)


def _minors_positive(a):
    """Every leading principal minor of the integer matrix a is positive.

    Bareiss elimination, exact in integers: after step k the pivot m[k][k] is
    the (k+1)th leading principal minor, and each division is exact.
    """
    m = [list(row) for row in a]
    prev = 1
    for k in range(len(m)):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return True


class RootSystem:
    """Positive roots of a finite-type GCM, plus per-component Coxeter numbers."""

    __slots__ = ("gcm", "positive_roots", "coxeter_numbers")

    def __init__(self, gcm, positive_roots, coxeter_numbers):
        self.gcm = gcm
        self.positive_roots = positive_roots
        self.coxeter_numbers = coxeter_numbers


_LETTER = re.compile(r"([A-G])(\d+)(?:\^(\d+))?$")

def _cartan_block(letter, rank):
    if rank < 1:
        raise ValueError("rank must be >= 1")
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def link(i, j, down=-1, up=-1):
        a[i][j] = down
        a[j][i] = up

    if letter == "A":
        for i in range(rank - 1):
            link(i, i + 1)
    elif letter == "B":
        if rank < 2:
            raise ValueError("B requires rank >= 2")
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, down=-2, up=-1)
    elif letter == "C":
        if rank < 2:
            raise ValueError("C requires rank >= 2")
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, down=-1, up=-2)
    elif letter == "D":
        if rank < 3:
            raise ValueError("D requires rank >= 3")
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 3, rank - 1)
    elif letter == "E":
        if rank not in (6, 7, 8):
            raise ValueError("E requires rank 6, 7 or 8")
        # Bourbaki numbering: node 2 attaches to node 4 of the A-chain
        # 1-3-4-5-...
        chain = [1, 3, 4] + list(range(5, rank + 1))
        for u, v in zip(chain, chain[1:]):
            link(u - 1, v - 1)
        link(2 - 1, 4 - 1)
    elif letter == "F":
        if rank != 4:
            raise ValueError("F requires rank 4")
        link(0, 1)
        link(1, 2, down=-2, up=-1)
        link(2, 3)
    elif letter == "G":
        if rank != 2:
            raise ValueError("G requires rank 2")
        link(0, 1, down=-1, up=-3)
    else:
        raise ValueError("unknown type letter %r" % letter)
    return a


def parse_gcm(spec):
    """Build a GCM from a named type string or an explicit matrix.

    Named types are products of simple factors joined by "x", each factor
    optionally raised to a power: "A5", "A1^3", "A2xB2".
    """
    if isinstance(spec, GCM):
        return spec
    if isinstance(spec, str):
        blocks = []
        for factor in spec.split("x"):
            m = _LETTER.match(factor.strip())
            if not m:
                raise ValueError("malformed type factor %r" % factor)
            letter, rank, power = m.group(1), int(m.group(2)), int(m.group(3) or 1)
            if power < 1:
                raise ValueError("power must be >= 1 in %r" % factor)
            blocks.extend(_cartan_block(letter, rank) for _ in range(power))
        n = sum(len(b) for b in blocks)
        a = [[0] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i in range(len(b)):
                for j in range(len(b)):
                    a[off + i][off + j] = b[i][j]
            off += len(b)
        for i in range(n):
            a[i][i] = 2
        gcm = GCM(a)
    else:
        gcm = GCM(spec)
    if not gcm.n:  # restrict() alone builds the rank-0 GCM
        raise ValueError("rank must be >= 1")
    return gcm


def restrict(gcm, nodes):
    """The sub-GCM on `nodes`, renumbered 1..len(nodes) in increasing order."""
    nodes = sorted(nodes)
    return GCM([[gcm.a[i - 1][j - 1] for j in nodes] for i in nodes])


@functools.lru_cache(maxsize=256)
def positive_roots(gcm):
    """Complete positive-root data for a finite-type GCM; the last 256 are
    cached, so callers share a RootSystem and must treat it as read-only.

    Upward reflection closure of the simple roots: every positive root but
    a simple one is s_j beta for a lower positive root beta with
    <beta, alpha_j^vee> < 0 (Humphreys, Lie algebras, 10.2).
    """
    if not gcm.finite_type:
        raise ValueError("not of finite type")
    n, a = gcm.n, gcm.a
    cols = [[(k, a[k][j]) for k in range(n) if a[k][j]] for j in range(n)]
    roots, coxeter = {}, {}
    for comp in gcm.components():
        # each root of the component -> its evaluations <beta, alpha_k^vee>
        found = {
            tuple(int(k == i - 1) for k in range(n)): [row[i - 1] for row in a]
            for i in comp
        }
        frontier = list(found)
        while frontier:
            new = []
            for beta in frontier:
                ev = found[beta]
                for j in [j for j, e in enumerate(ev) if e < 0]:
                    img = beta[:j] + (beta[j] - ev[j],) + beta[j + 1:]
                    if img not in found:
                        found[img] = ev2 = ev[:]
                        for k, x in cols[j]:
                            ev2[k] -= ev[j] * x
                        new.append(img)
            frontier = new
        # |positive roots| = h * rank / 2 for each irreducible component
        coxeter[comp] = 2 * len(found) // len(comp)
        roots.update(found)
    return RootSystem(gcm, tuple(sorted(roots)), coxeter)


def independent_sets(gcm, support, include_empty=False):
    """All edgeless subsets of `support`, smallest first.

    The empty set is included exactly when `include_empty` is set; both
    conventions are in live use by callers.
    """
    support = sorted(set(support))
    if any(i not in gcm.nodes for i in support):
        raise ValueError("support is not a subset of the node set")
    out = []
    for size in range(0 if include_empty else 1, len(support) + 1):
        for combo in itertools.combinations(support, size):
            if gcm.is_independent(combo):
                out.append(frozenset(combo))
    return out
