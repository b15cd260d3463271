"""Highest weights via Cartan evaluations, depth vectors and the dot action.

A highest weight lambda is stored as the vector of pairings
<lambda, alpha_i^vee>; each entry is either an integer or the generic
non-integral marker NONINT.  It keeps J_lambda, the nodes where the
pairing is an integer >= 0.  A weight mu = lambda - sum_i c_i alpha_i
below lambda is encoded by its depth vector c (nonnegative integers).

Below a height cutoff N the library codes a depth vector as one integer,
code(c) = sum_i c_i ((N+1)^(n-i) + (N+1)^n): the digits base N+1 of c,
c_1 the most significant, below a top digit that holds height(c)
(DepthCode).  Sorted codes run in (height, lex) order; two codes whose
heights sum to at most N add without a carry, so a code sum is a vector
sum; and height(c) <= h exactly when code(c) < (h+1) (N+1)^n.

DepthCode(n, N) is one shared object per (n, N), the last _CODES_KEPT of
them kept.  Each keeps a code -> vector map of at most _DECODE_CAP
vectors for every caller at (n, N): a decode is by lookup, misses by
halves.  The misses are kept while the map stays under the cap; a decode
that would pass it is answered from the map and its misses and leaves the
map as it was.  DepthCode.simplex is the one builder of a simplex of codes.
"""

import bisect
import itertools
import operator


class _NonIntegral:
    """Generic non-integer evaluation: absorbs integer shifts, never in Z>=0.

    Two NonIntegral values are never compared; the formulas in scope only
    ever test membership of a single evaluation in Z>=0.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NONINT"

    def __add__(self, other):
        if isinstance(other, int):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return self
        return NotImplemented


NONINT = _NonIntegral()


def is_nonneg_int(ev):
    return isinstance(ev, int) and ev >= 0


def _evaluation(e):
    """An evaluation as stored: a non-bool int, or NONINT for "x"."""
    if e is NONINT or e == "x":
        return NONINT
    if type(e) is not int:  # rejects bool and float instead of coercing
        raise ValueError('evaluation %r is neither an integer nor "x"' % (e,))
    return e


class HighestWeight:
    """lambda on gcm by its evaluations; it keeps J_lambda (integrability)."""

    __slots__ = ("gcm", "evals", "integrable")

    def __init__(self, gcm, evals):
        if isinstance(evals, str):
            raise ValueError("evaluations must be an array, not a string")
        evals = tuple(_evaluation(e) for e in evals)
        if len(evals) != gcm.n:
            raise ValueError("evaluation vector has wrong length")
        self.gcm = gcm
        self.evals = evals
        self.integrable = frozenset(
            i for i, e in enumerate(evals, 1) if e is not NONINT and e >= 0
        )

    def __eq__(self, other):
        return (
            isinstance(other, HighestWeight)
            and self.gcm == other.gcm
            and self.evals == other.evals
        )

    def __hash__(self):
        return hash((self.gcm, self.evals))

    def __repr__(self):
        return "HighestWeight(%r)" % (self.evals,)


def integrability(lam):
    """J_lambda = {i : <lambda, alpha_i^vee> in Z>=0}, kept on lambda."""
    return lam.integrable


def eval_at(lam, c, j):
    """<mu, alpha_j^vee> for mu = lambda - sum c_i alpha_i."""
    e = lam.evals[j - 1]
    if e is NONINT:
        return NONINT
    return e - sum(lam.gcm.a[j - 1][i] * c[i] for i in range(lam.gcm.n))


def dot_reflect(lam, c, j):
    """s_j . mu for mu of depth c: adds <mu,alpha_j^vee>+1 to coordinate j."""
    e = eval_at(lam, c, j)
    if e is NONINT:
        raise ValueError("dot reflection at a non-integral evaluation")
    out = list(c)
    out[j - 1] += e + 1
    return tuple(out)


def lambda_H(lam, H):
    """Depth vector of lambda_H: c_h = <lambda,alpha_h^vee>+1 on the hole H.

    Equals (prod_{h in H} s_h) . lambda since H is independent.
    """
    J = integrability(lam)
    if not set(H) <= J:
        raise ValueError("hole is not contained in the integrable nodes")
    if not lam.gcm.is_independent(H):
        raise ValueError("hole is not independent")
    c = [0] * lam.gcm.n
    for h in H:
        c[h - 1] = lam.evals[h - 1] + 1
    return tuple(c)


def depth_vectors(n, max_height):
    """All c in Z>=0^n with sum(c) <= max_height, in lexicographic order.

    The first n - 1 coordinates are built as prefixes in lex order, each
    with the height it leaves; a prefix is then extended by every last
    coordinate that fits, so no vector is built and thrown away."""
    if not n:
        yield ()
        return
    prefixes = [((), max_height)]
    for _ in range(n - 1):
        prefixes = [
            (p + (v,), room - v) for p, room in prefixes for v in range(room + 1)
        ]
    tails = [(v,) for v in range(max_height + 1)]
    for p, room in prefixes:
        yield from map(p.__add__, tails[: room + 1])


def embed(n, nodes, x):
    """The depth vector of length n with x on `nodes` (1-based), 0 elsewhere."""
    c = [0] * n
    for i, xi in zip(nodes, x):
        c[i - 1] = xi
    return tuple(c)


def height(c):
    return sum(c)


# The DepthCodes in use, one per (n, N), least recently used first; past
# _CODES_KEPT of them the oldest is dropped.
_CODES_KEPT = 8
_codes = {}
# The most depth vectors one DepthCode keeps decoded.
_DECODE_CAP = 2**15


class DepthCode:
    """The code of the depth vectors of rank n and height <= N (see above):
    places[i - 1] is the place value of c_i, top = (N+1)^n that of the
    height digit, and limit = (N+1) top, the least code of height N + 1.
    DepthCode(n, N) is shared (see above); vectors is its code -> vector map."""

    __slots__ = ("n", "radix", "places", "top", "limit", "vectors")

    def __new__(cls, n, N):
        code = _codes.pop((n, N), None)
        if code is None:
            code = super().__new__(cls)
            radix = N + 1
            top = radix**n
            code.n, code.radix, code.top, code.limit = n, radix, top, radix * top
            code.places = [radix ** (n - i) + top for i in range(1, n + 1)]
            code.vectors = {}
            if len(_codes) >= _CODES_KEPT:
                del _codes[next(iter(_codes))]
        _codes[n, N] = code
        return code

    def encode(self, c):
        return sum(map(operator.mul, c, self.places))

    def decode(self, codes):
        """The set of depth vectors of a collection of codes."""
        return set(self.tuples(codes))

    def tuples(self, codes):
        """The depth vectors of a collection of codes, as a list in their order.

        Codes the kept map misses are decoded by halves; they are kept if
        the map stays under the cap, else the call is answered from the map
        and its misses and the map is left as it was."""
        known = self.vectors
        try:
            return list(map(known.__getitem__, codes))
        except KeyError:
            pass
        missing = [c for c in codes if c not in known] if known else codes
        fresh = self._by_halves(missing)
        kept = len(known) + len(fresh) <= _DECODE_CAP
        if not known:  # missing is codes
            if kept:
                self.vectors = dict(zip(missing, fresh))
            return fresh
        fresh = dict(zip(missing, fresh))
        if kept:
            known.update(fresh)
            return list(map(known.__getitem__, codes))
        return list(map(fresh.get, codes, map(known.get, codes)))

    def simplex(self, nodes):
        """The sorted codes of the depth vectors of height <= N supported on
        `nodes` (1-based), built in order, one height layer at a time, with
        no sort.  The nodes are added the last first, so each is the leading
        digit so far: with node k added, the codes of height h are those so
        far of height h, then code(alpha_k) plus each new one of height h - 1."""
        layers = [[0]] + [[]] * (self.radix - 1)  # the codes so far, by height
        for k in sorted(nodes, reverse=True):
            step = self.places[k - 1].__add__
            for h in range(1, self.radix):
                layers[h] = [*layers[h], *map(step, layers[h - 1])]
        return list(itertools.chain.from_iterable(layers))

    def _by_halves(self, codes):
        """The depth vectors of the codes, as a list in their order.  A code
        splits into its first n - n // 2 digits and the rest, and each
        distinct half is decoded once per call, so the work grows with the
        codes given, not with the simplex of height N."""
        radix, low_width, top = self.radix, self.n // 2, self.top
        high, low = _Digits(radix, self.n - low_width), _Digits(radix, low_width)
        split = radix**low_width
        return [high[c % top // split] + low[c % split] for c in codes]

    @staticmethod
    def cut(codes, bound):
        """The codes of a sorted list that are below bound, as an iterator."""
        return itertools.islice(codes, bisect.bisect_left(codes, bound))


class _Digits(dict):
    """code -> the tuple of its last `width` digits base `radix`, most
    significant first, each computed on first use."""

    __slots__ = ("radix", "width")

    def __init__(self, radix, width):
        self.radix = radix
        self.width = width

    def __missing__(self, code):
        digits, rest = [0] * self.width, code
        for i in range(self.width - 1, -1, -1):
            rest, digits[i] = divmod(rest, self.radix)
        digits = self[code] = tuple(digits)
        return digits
