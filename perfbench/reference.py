"""Reference computations for checking hovm's outputs, written without hovm.

Three models, each computed from first principles with its own data:

- the sl2^n monomial-ideal model: M(lambda, H) over sl2^n is the
  polynomial ring C[f_1..f_n] modulo the monomial ideal generated by the
  exponent vectors lambda_H of its holes, so a depth vector c is a weight
  iff no lambda_H lies coordinatewise below c, and every multiplicity is 1;
- Kostant partition tables, built by coin change over a positive-root list
  that is generated here by root strings (not by reflection closure);
- sl2^n simple characters as products of strings (integrable nodes) and
  rays (all other nodes).

Weights are handled as depth vectors c (mu = lambda - sum c_i alpha_i) and
highest weights as lists of Cartan evaluations, each an int or "x"
(non-integral).  Types and node numbering are those of the `algebra`
strings of the hovm CLI: "A4", "A1^4", "E6", "A2xB2".  In this naming
B_n has its long simple root at node n and C_n its short one.
"""

import itertools
import re

NONINT = "x"

_FACTOR = re.compile(r"([A-E])(\d+)(?:\^(\d+))?$")


def _dynkin(letter, rank):
    """(edges, squared lengths) of one simple factor, nodes 0-based."""
    chain = [(i, i + 1) for i in range(rank - 1)]
    short, long_ = 2, 4
    if letter == "A" and rank >= 1:
        return chain, [short] * rank
    if letter == "B" and rank >= 2:
        return chain, [short] * (rank - 1) + [long_]
    if letter == "C" and rank >= 2:
        return chain, [long_] * (rank - 1) + [short]
    if letter == "D" and rank >= 3:
        return chain[:-1] + [(rank - 3, rank - 1)], [short] * rank
    if letter == "E" and rank == 6:
        # 1-3-4-5-6 with node 2 attached to node 4
        return [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)], [short] * 6
    raise ValueError("unsupported type %s%d" % (letter, rank))


def factors(algebra):
    """[(letter, rank)] of the simple factors, in node order."""
    out = []
    for part in algebra.split("x"):
        m = _FACTOR.match(part.strip())
        if not m:
            raise ValueError("malformed type %r" % part)
        out.extend([(m.group(1), int(m.group(2)))] * int(m.group(3) or 1))
    return out


def gram_matrix(algebra):
    """Symmetric form (alpha_i, alpha_j) on the simple roots."""
    blocks = [_dynkin(letter, rank) for letter, rank in factors(algebra)]
    n = sum(len(lengths) for _, lengths in blocks)
    gram = [[0] * n for _ in range(n)]
    off = 0
    for edges, lengths in blocks:
        for i, length in enumerate(lengths):
            gram[off + i][off + i] = length
        for i, j in edges:
            # single bond between equal lengths, double bond short=long
            val = -max(lengths[i], lengths[j]) // 2
            gram[off + i][off + j] = gram[off + j][off + i] = val
        off += len(lengths)
    return gram


def expected_root_count(algebra):
    """|positive roots| from the classification: A_n n(n+1)/2, B_n and C_n
    n^2, D_n n(n-1), E_6 36."""
    count = {"A": lambda r: r * (r + 1) // 2, "B": lambda r: r * r,
             "C": lambda r: r * r, "D": lambda r: r * (r - 1),
             "E": lambda r: {6: 36}[r]}
    return sum(count[letter](rank) for letter, rank in factors(algebra))


def cartan_integer(gram, beta, i):
    """<beta, alpha_i^vee> = 2 (beta, alpha_i) / (alpha_i, alpha_i)."""
    pairing = sum(b * gram[j][i] for j, b in enumerate(beta))
    return 2 * pairing // gram[i][i]


def positive_roots(algebra):
    """Positive roots by root strings, height by height.

    For a root beta and a simple root alpha_i with beta - p alpha_i the
    bottom of the alpha_i-string, beta + alpha_i is a root iff
    p - <beta, alpha_i^vee> > 0.  The count is checked against the
    classification.
    """
    gram = gram_matrix(algebra)
    n = len(gram)
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    roots = set(unit)
    layer = list(unit)
    while layer:
        nxt = set()
        for beta in layer:
            for i in range(n):
                p = 0
                while _sub(beta, unit[i], p + 1) in roots:
                    p += 1
                if p - cartan_integer(gram, beta, i) > 0:
                    nxt.add(_sub(beta, unit[i], -1))
        roots |= nxt
        layer = sorted(nxt)
    if len(roots) != expected_root_count(algebra):
        raise AssertionError("root count %d for %s" % (len(roots), algebra))
    return sorted(roots, key=lambda r: (sum(r), r))


def _sub(u, v, k=1):
    return tuple(a - k * b for a, b in zip(u, v))


def vectors(n, N):
    """All depth vectors in Z>=0^n of height <= N, by height."""
    out = []
    for h in range(N + 1):
        # compositions of h into n parts via stars and bars
        for bars in itertools.combinations(range(h + n - 1), n - 1):
            prev, parts = -1, []
            for b in bars + (h + n - 1,):
                parts.append(b - prev - 1)
                prev = b
            out.append(tuple(parts))
    return out


class PartitionTable:
    """Kostant partition function up to height N, by coin change over the
    positive roots: the coefficients of prod_beta 1/(1 - e^{-beta})."""

    def __init__(self, algebra, N):
        self.N = N
        self.roots = positive_roots(algebra)
        order = vectors(len(self.roots[0]), N)
        table = dict.fromkeys(order, 0)
        table[order[0]] = 1
        for beta in self.roots:
            for c in order:
                prev = _sub(c, beta)
                if min(prev) >= 0:
                    table[c] += table[prev]
        self.table = table

    def __call__(self, c):
        if sum(c) > self.N:
            raise ValueError("depth %r beyond the table's height" % (c,))
        return self.table.get(tuple(c), 0)


def minimal(holes):
    holes = {frozenset(h) for h in holes}
    return sorted((h for h in holes if not any(t < h for t in holes)), key=sorted)


def hole_exponent(lam, H):
    """Depth vector of lambda_H: <lambda, alpha_h^vee> + 1 on each h in H."""
    out = [0] * len(lam)
    for h in H:
        ev = lam[h - 1]
        if ev == NONINT or ev < 0:
            raise ValueError("hole node %d is not integrable" % h)
        out[h - 1] = ev + 1
    return tuple(out)


def alternating_char(table, lam, holes, N):
    """sum over subsets S of the minimal holes of (-1)^|S| P(c - lambda_{union S}),
    as {depth: multiplicity} with zero terms dropped; no holes gives the
    Verma character."""
    hs = minimal(holes)
    shifts = []
    for size in range(len(hs) + 1):
        for S in itertools.combinations(hs, size):
            union = frozenset().union(*S)
            shifts.append(((-1) ** size, hole_exponent(lam, union)))
    out = {}
    for c in vectors(len(lam), N):
        total = 0
        for sign, w in shifts:
            d = _sub(c, w)
            if min(d) >= 0:
                total += sign * table(d)
        if total:
            out[c] = total
    return out


def monomial_weights(lam, holes, N):
    """Weights of M(lambda, H) over sl2^n up to height N."""
    gens = [hole_exponent(lam, H) for H in minimal(holes)]
    return {
        c for c in vectors(len(lam), N)
        if not any(all(a >= b for a, b in zip(c, g)) for g in gens)
    }


def sl2n_simple_char(lam, N):
    """ch L(lambda) over sl2^n: strings 0..m on nodes with m in Z>=0, rays
    elsewhere; multiplicity one throughout."""
    ranges = [
        range(ev + 1) if ev != NONINT and ev >= 0 else range(N + 1) for ev in lam
    ]
    return {c for c in itertools.product(*ranges) if sum(c) <= N}


def sl2n_lower(lam, c):
    """Evaluations of lambda - sum c_i alpha_i over sl2^n."""
    return [ev if ev == NONINT else ev - 2 * ci for ev, ci in zip(lam, c)]


def integrable_nodes(lam):
    return frozenset(i + 1 for i, ev in enumerate(lam) if ev != NONINT and ev >= 0)


def order_k_holes(holes, k, integrable, side):
    """Hole antichain of the kth order approximation over sl2^n, where every
    subset is independent: upper keeps the minimal holes of size <= k; lower
    adds every (k+1)-subset of the integrable nodes containing none of them."""
    small = [h for h in minimal(holes) if len(h) <= k]
    if side == "upper":
        return small
    extra = [
        frozenset(s) for s in itertools.combinations(sorted(integrable), k + 1)
        if not any(h <= frozenset(s) for h in small)
    ]
    return minimal(small + extra)


def reflection_matrix(gram, i):
    """s_i on simple-root coordinates: column j is alpha_j - <alpha_j, alpha_i^vee> alpha_i."""
    n = len(gram)
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    for j in range(n):
        m[i][j] -= 2 * gram[j][i] // gram[i][i]
    return m


def order_of_product(algebra, holes):
    """Order of s_{H_1} ... s_{H_k}, by multiplying matrices until the identity."""
    gram = gram_matrix(algebra)
    n = len(gram)
    ident = [[int(r == c) for c in range(n)] for r in range(n)]
    w = ident
    for H in holes:
        for h in sorted(H):
            w = _matmul(w, reflection_matrix(gram, h - 1))
    acc, k = w, 1
    while acc != ident:
        acc, k = _matmul(acc, w), k + 1
    return k


def _matmul(a, b):
    return [
        [sum(a[r][k] * b[k][c] for k in range(len(b))) for c in range(len(b[0]))]
        for r in range(len(a))
    ]
