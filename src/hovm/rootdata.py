"""Generalized Cartan matrices, Dynkin graphs and finite root systems.

Nodes are 1-based throughout.  A root (and more generally any weight
displacement) is stored as a tuple of nonnegative integers: the
coefficients on the simple roots.
"""

import functools
import itertools
import re

# Root generation is capped at this height; every finite root system of
# rank <= 8 has highest root of height <= 29, so hitting the cap means
# the matrix is not of finite type.
_HEIGHT_CAP = 60


class GCM:
    """A generalized Cartan matrix a[i][j] with 1-based node set I."""

    __slots__ = ("n", "a")

    def __init__(self, rows):
        a = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(a)
        if any(len(row) != n for row in a):
            raise ValueError("matrix is not square")
        for i in range(n):
            if a[i][i] != 2:
                raise ValueError("diagonal entry != 2 at node %d" % (i + 1))
            for j in range(n):
                if i != j:
                    if a[i][j] > 0:
                        raise ValueError("positive off-diagonal entry")
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        raise ValueError("asymmetric zero pattern")
        self.n = n
        self.a = a

    def __eq__(self, other):
        return isinstance(other, GCM) and self.a == other.a

    def __hash__(self):
        return hash(self.a)

    def __repr__(self):
        return "GCM(%r)" % (self.a,)

    @property
    def nodes(self):
        return tuple(range(1, self.n + 1))

    @property
    def finite_type(self):
        return _finite_type(self)

    @property
    def is_sl2n(self):
        """No two nodes are joined: the algebra is sl2 x ... x sl2."""
        n = self.n
        return not any(self.a[i][j] for i in range(n) for j in range(n) if i != j)


class DynkinGraph:
    """Adjacency structure derived from a GCM."""

    __slots__ = ("gcm", "edges")

    def __init__(self, gcm):
        self.gcm = gcm
        self.edges = frozenset(
            frozenset((i + 1, j + 1))
            for i in range(gcm.n)
            for j in range(i + 1, gcm.n)
            if gcm.a[i][j] != 0
        )

    def adjacent(self, i, j):
        return frozenset((i, j)) in self.edges

    def neighbours(self, i):
        return {j for j in self.gcm.nodes if j != i and self.adjacent(i, j)}

    def is_independent(self, subset):
        subset = sorted(subset)
        return all(
            not self.adjacent(i, j) for i, j in itertools.combinations(subset, 2)
        )

    def components(self, support=None):
        """Connected components of the induced subgraph on `support`."""
        support = set(self.gcm.nodes if support is None else support)
        comps = []
        while support:
            seed = min(support)
            comp, frontier = {seed}, {seed}
            while frontier:
                nxt = set()
                for i in frontier:
                    nxt |= self.neighbours(i) & support - comp
                comp |= nxt
                frontier = nxt
            comps.append(frozenset(comp))
            support -= comp
        return sorted(comps, key=min)


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
        return GCM(a)
    return GCM(spec)


def restrict(gcm, nodes):
    """The sub-GCM on `nodes`, renumbered 1..len(nodes) in increasing order."""
    nodes = sorted(nodes)
    return GCM([[gcm.a[i - 1][j - 1] for j in nodes] for i in nodes])


@functools.lru_cache(maxsize=None)
def _generate_positive_roots(gcm):
    """Reflection closure of the simple roots; None if the cap is hit."""
    n = gcm.n
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        new = set()
        for beta in frontier:
            for j in range(n):
                ev = sum(gcm.a[j][i] * beta[i] for i in range(n))
                img = list(beta)
                img[j] -= ev
                img = tuple(img)
                if img in roots or any(x < 0 for x in img):
                    continue
                if sum(img) > _HEIGHT_CAP:
                    return None
                new.add(img)
        roots |= new
        frontier = new
    return tuple(sorted(roots))


def _finite_type(gcm):
    return _generate_positive_roots(gcm) is not None


@functools.lru_cache(maxsize=None)
def positive_roots(gcm):
    """Complete positive-root data for a finite-type GCM; cached, so every
    caller shares the returned RootSystem and must treat it as read-only."""
    roots = _generate_positive_roots(gcm)
    if roots is None:
        raise ValueError("not of finite type")
    graph = DynkinGraph(gcm)
    coxeter = {}
    for comp in graph.components():
        count = sum(
            1 for r in roots if all(r[i - 1] == 0 for i in gcm.nodes if i not in comp)
        )
        # |positive roots| = h * rank / 2 for each irreducible component
        assert (2 * count) % len(comp) == 0
        coxeter[comp] = 2 * count // len(comp)
    return RootSystem(gcm, roots, coxeter)


def independent_sets(graph, support, include_empty=False):
    """All edgeless subsets of `support`, smallest first.

    The empty set is included exactly when `include_empty` is set; both
    conventions are in live use by callers.
    """
    support = sorted(set(support))
    if any(i not in graph.gcm.nodes for i in support):
        raise ValueError("support is not a subset of the node set")
    out = []
    for size in range(0 if include_empty else 1, len(support) + 1):
        for combo in itertools.combinations(support, size):
            if graph.is_independent(combo):
                out.append(frozenset(combo))
    return out
