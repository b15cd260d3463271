"""Block combinatorics of the category O^H over sl2^n.

A block is indexed by the subsets K of the nonzero-integral node set K*:
member K carries the weight w_K . lambda~ for the K*-dominant block
representative lambda~, and J_{w_K . lambda~} = K* \\ K.  The truncated
Kazhdan-Lusztig bases use the complementary labelling w_K w_circ .
lambda~ (longest element w_circ = w_{K*}), under which the simple index
becomes upper-closed and the classical change-of-basis sums run over
subsets.

The tables print the paper's formulas and compare nothing that cannot
fail; verify's reciprocity and kl suites check them against the oracle.

The block has 2^|K*| members; build_block refuses one of more than
_BLOCK_CAP before any index is enumerated, since a reciprocity table holds
the square of that count.
"""

import itertools

from .holes import CapExceeded, h_prime
from .weights import HighestWeight
from .weightsets import HovmSpec

# 2^9 admits A1^9 with K* = I: its reciprocity job, 2^18 entries and 69 MB
# of output, takes about 4 s and 0.11 GB; A1^10 would take four times both.
_BLOCK_CAP = 2**9


class Block:
    __slots__ = ("gcm", "n", "lam", "lam_tilde", "k_star")

    def __init__(self, gcm, lam, lam_tilde, k_star):
        self.gcm = gcm
        self.n = gcm.n
        self.lam = lam
        self.lam_tilde = lam_tilde
        self.k_star = k_star

    def member(self, K):
        """Highest weight w_K . lambda~ of the block member indexed by K."""
        K = frozenset(K)
        if not K <= self.k_star:
            raise ValueError("index leaves K*")
        evals = list(self.lam_tilde.evals)
        for i in K:
            evals[i - 1] = -evals[i - 1] - 2
        return HighestWeight(self.gcm, evals)

    def member_depth(self, K):
        """Depth of w_K . lambda~ below lambda~: m_i on K, 0 elsewhere."""
        c = [0] * self.n
        for i in K:
            c[i - 1] = self.lam_tilde.evals[i - 1] + 1
        return tuple(c)

    def all_indices(self):
        ks = sorted(self.k_star)
        return [
            frozenset(S)
            for t in range(len(ks) + 1)
            for S in itertools.combinations(ks, t)
        ]

    def cutoff(self):
        """Height bound separating every member of the block: sum of m_i + 4."""
        return sum(self.lam_tilde.evals[i - 1] + 1 for i in self.k_star) + 4


def build_block(lam):
    """Block of lambda: K* = nodes with m_i in Z\\{0}, lambda~ its dominant
    conjugate under the dot action of W_{K*}."""
    if not lam.gcm.is_sl2n:
        raise ValueError("category-O block data requires sl2^n")
    k_star = frozenset(
        i
        for i in lam.gcm.nodes
        if isinstance(lam.evals[i - 1], int) and lam.evals[i - 1] != -1
    )
    if 2 ** len(k_star) > _BLOCK_CAP:
        raise CapExceeded(_BLOCK_CAP, 2 ** len(k_star))
    evals = list(lam.evals)
    for i in k_star:
        if evals[i - 1] < 0:
            evals[i - 1] = -evals[i - 1] - 2
    lam_tilde = HighestWeight(lam.gcm, evals)
    return Block(lam.gcm, lam, lam_tilde, k_star)


class BlockHoles:
    """A block together with a hole set over the full node set I."""

    __slots__ = ("block", "holes", "simple_index")

    def __init__(self, block, holeset):
        self.block = block
        self.holes = holeset
        ks = block.k_star
        self.simple_index = frozenset(
            K
            for K in block.all_indices()
            if all((ks - K) & h for h in holeset.min_holes)
        )

    def kl_index(self):
        """Upper-closed index used by the w_K w_circ labelling: complements."""
        return frozenset(self.block.k_star - K for K in self.simple_index)


def simples_in_block(block, holeset):
    """L(w_K . lambda~) lies in O^H iff (K*\\K) hits every minimal hole."""
    return BlockHoles(block, holeset)


def universal_cover(bh, K):
    """M(w_K . lambda~, H'_{w_K . lambda~}), the cover of L(w_K . lambda~)."""
    K = frozenset(K)
    mu = bh.block.member(K)
    return HovmSpec(mu, h_prime(mu, bh.holes.min_holes))


def reciprocity_table(bh):
    """BGG reciprocity in O^H, entry by entry, in print order.

    Entry (K, K2): the projective cover of L(w_K . lambda~) has a standard
    filtration with subquotients M(w_{K2} . lambda~, H'_{w_K . lambda~}),
    one for each K2 <= K (lhs); the reciprocity partner (rhs) is the
    multiplicity of L(w_K . lambda~) in the cover of index K2, again 1
    exactly when K2 <= K.  So both columns are the one predicate, and
    "equal" states the theorem and is not computed; verify's reciprocity
    suite checks both columns against the oracle.

    Each entry carries its printed labels "K" and "K2".  Entries share
    their label, hole and breakdown lists, so callers must not mutate them.
    """
    index = sorted(bh.simple_index, key=lambda s: (len(s), sorted(s)))
    labels = {K: sorted(K) for K in index}
    table = {}
    for K in index:
        # J of w_K . lambda~ is K* \ K, which meets every hole: never zero
        holes_json = h_prime(bh.block.member(K), bh.holes.min_holes).to_json()
        # the filtration has one subquotient per K2 <= K, all with the same
        # hole set H'_{w_K . lambda~}
        breakdowns = ([], [{"holes": holes_json, "mult": 1}])
        for K2 in index:
            m = int(K2 <= K)
            table[(K, K2)] = {
                "K": labels[K],
                "K2": labels[K2],
                "lhs": m,
                "rhs": m,
                "equal": True,
                "standard_holes": holes_json,
                "breakdown": breakdowns[m],
            }
    return table


def kl_bases(bh):
    """Truncated Kazhdan-Lusztig change-of-basis matrices at q = 1.

    Indexed by the upper-closed kl_index (labels K <-> weight w_K w_circ .
    lambda~): T_K = sum of C_{K'} over K' <= K in the index, and inversely
    with signs (-1)^{|K|-|K'|}.  These are the zeta and Moebius matrices of
    the index, mutually inverse by the binomial theorem; verify's kl suite
    checks each against the oracle's characters.
    """
    index = sorted(bh.kl_index(), key=lambda s: (len(s), sorted(s)))
    t_in_c = {}
    c_in_t = {}
    for K in index:
        t_in_c[K] = {K2: int(K2 <= K) for K2 in index}
        c_in_t[K] = {
            K2: (-1) ** (len(K) - len(K2)) if K2 <= K else 0 for K2 in index
        }
    return {"index": index, "T_in_C": t_in_c, "C_in_T": c_in_t}


def kl_weight_of_index(bh, K):
    """Block member carrying the kl label K, i.e. w_K w_circ . lambda~."""
    return bh.block.member(bh.block.k_star - frozenset(K))
