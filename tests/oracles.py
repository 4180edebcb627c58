"""Independent oracles the tests check the library against.

Everything here is deliberately naive: literal adjacent transpositions for
torus normal ordering, a full 2^(mn) filter for diagram enumeration, a
from-scratch statement of the diagram condition, the permutation sum of a
quantum minor, divisibility through a dense lookup, a restricted path
family grown by a DFS that refuses each reflected-L turn past the threshold as
it is taken, the supremum and infimum of a path-system family as a fold of
segment-by-segment path combinations over every system, the derivation
maps through a table of all mn generator images, straightening as a walk
of the word rewrite tree that swaps one adjacent descent at a time, the
polynomial product as that walk per pair of terms, and the path evaluation
as a product of TorusElements per term.  Apart from the TorusElement
product that last one uses (itself checked against the transposition
oracle) and the system enumeration the path-system fold runs over, none of
it shares code with the library paths it validates.
"""

from fractions import Fraction
from itertools import permutations

from qmpaths.cauchon import enumerate_vdps, generator, path_turns
from qmpaths.coeff import ONE, ZERO, LaurentScalar, lam_power, q_power
from qmpaths.straighten import QmPoly
from qmpaths.torus import TorusElement, mono_key, pair_commutation


def oracle_sort_word(word):
    """Normal-order a word of (i, j, e) letters by bubble-sorting adjacent
    pairs, accumulating the q-exponent one transposition at a time.

    Returns (qexp, key) with t-word = q^qexp * t^key.
    """
    letters = list(word)
    qexp = 0
    changed = True
    while changed:
        changed = False
        for k in range(len(letters) - 1):
            i1, j1, e1 = letters[k]
            i2, j2, e2 = letters[k + 1]
            if (i1, j1) > (i2, j2):
                qexp += e1 * e2 * pair_commutation((i1, j1), (i2, j2))
                letters[k], letters[k + 1] = letters[k + 1], letters[k]
                changed = True
    return qexp, mono_key(letters)


def expand_key(key):
    """Unit letters of a canonical exponent key."""
    out = []
    for i, j, e in key:
        step = 1 if e > 0 else -1
        out.extend([(i, j, step)] * abs(e))
    return tuple(out)


def oracle_monomial_mul(a, b):
    """(c, a+b) with t^a t^b = q^c t^(a+b), via literal transpositions."""
    return oracle_sort_word(expand_key(a) + expand_key(b))


def oracle_word_element(shape, word):
    """TorusElement of a generator word, via the transposition oracle."""
    qexp, key = oracle_sort_word(word)
    return TorusElement.monomial(shape, key, q_power(qexp))


def oracle_is_cauchon(black, m, n):
    """Every black square has an all-black row prefix or column prefix."""
    for (i, j) in black:
        left = all((i, jj) in black for jj in range(1, j))
        above = all((ii, j) in black for ii in range(1, i))
        if not (left or above):
            return False
    return True


def oracle_all_cauchon_sets(m, n):
    """All Cauchon colorings as frozensets, by filtering all 2^(mn) masks."""
    coords = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    out = []
    for mask in range(1 << (m * n)):
        black = frozenset(c for k, c in enumerate(coords) if (mask >> k) & 1)
        if oracle_is_cauchon(black, m, n):
            out.append(black)
    return out


def oracle_inversions(perm):
    return sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )


def oracle_minor_poly(shape, t, I, J):
    """Quantum minor [I|J] as a freshly built polynomial: the sum over
    permutations p of (-q)^inv(p) x_{I[0],J[p(0)]} ... x_{I[k-1],J[p(k-1)]}."""
    terms = []
    for perm in permutations(range(len(I))):
        inv = oracle_inversions(perm)
        key = mono_key((I[a], J[perm[a]], 1) for a in range(len(I)))
        terms.append((key, q_power(inv) * (-1) ** inv))
    return QmPoly(shape, t, terms)


def oracle_term_divides(a, b):
    """Entrywise a <= b, reading b's entries through a dict (0 if absent)."""
    entries = {(i, j): e for i, j, e in b}
    return all(e <= entries.get((i, j), 0) for i, j, e in a)


def oracle_gamma(g, t, i, j):
    """gamma(t; i, j) by a DFS from row vertex i to column vertex j that
    never extends a path by a vertical-in/horizontal-out turn at a white
    square past the t-th smallest coordinate.  Paths come out in
    lexicographic order of their vertex sequences: out-neighbor lists are
    sorted and pushed in reverse."""
    rs = ((t - 1) // g.shape.n + 1, (t - 1) % g.shape.n + 1)
    start, target = ("r", i), ("c", j)

    def horizontal(u, v):
        return u[0] == "r" or (u[0] == v[0] == "w" and u[1] == v[1])

    paths = []
    stack = [(start,)]
    while stack:
        path = stack.pop()
        v = path[-1]
        if v == target:
            paths.append(path)
            continue
        for w in reversed(g.out_edges(v)):
            if w[0] == "c" and w != target:
                continue
            if len(path) >= 2 and v[0] == "w":
                if (not horizontal(path[-2], v) and horizontal(v, w)
                        and (v[1], v[2]) > rs):
                    continue
            stack.append(path + (w,))
    return tuple(paths)


def oracle_path_in_gamma(g, path, rs):
    """No reflected-L turn at a coordinate strictly greater than rs."""
    return all(
        kind != "mirror" or coord <= rs for coord, kind in path_turns(g, path)
    )


def _split_segments(p, q):
    """Common vertices of p and q (in order) and the segments between them."""
    qset = set(q)
    common = [v for v in p if v in qset]
    qcommon = [v for v in q if v in set(p)]
    if common != qcommon:
        raise ValueError("paths traverse their common vertices in different orders")
    pi = {v: k for k, v in enumerate(p)}
    qi = {v: k for k, v in enumerate(q)}
    segs = []
    for a, b in zip(common, common[1:]):
        segs.append((p[pi[a] : pi[b] + 1], q[qi[a] : qi[b] + 1]))
    return common, segs


def _combine(g, p, q, upper):
    if p[0] != q[0] or p[-1] != q[-1]:
        raise ValueError("paths must share their start and end vertices")
    if p == q:
        return p
    out = [p[0]]
    for pseg, qseg in _split_segments(p, q)[1]:
        if pseg == qseg:
            out.extend(pseg[1:])
            continue
        # distinct segments leave their start by perpendicular edges; the one
        # leaving horizontally stays above the other
        p_above = g.edge_dir(pseg[0], pseg[1]) == "h"
        take = pseg if (p_above == upper) else qseg
        out.extend(take[1:])
    out = tuple(out)
    if not g.is_path(out):
        raise AssertionError("combined walk is not a path (bug)")
    return out


def oracle_path_u(g, p, q):
    """Upper combination: between consecutive common vertices, follow
    whichever path leaves by the horizontal edge."""
    return _combine(g, p, q, upper=True)


def oracle_path_l(g, p, q):
    """Lower combination (vertical-first segments win)."""
    return _combine(g, p, q, upper=False)


def oracle_vdps_envelope(g, t, I, J, upper):
    """Supremum (upper) or infimum of the disjoint path-system family: the
    componentwise upper or lower combination folded over every system."""
    systems = enumerate_vdps(g, t, I, J)
    if not systems:
        raise ValueError("empty path family has no supremum or infimum")
    combine = oracle_path_u if upper else oracle_path_l
    best = systems[0]
    for sys_ in systems[1:]:
        best = tuple(combine(g, b, p) for b, p in zip(best, sys_))
    return best


def oracle_derivation(a, t, rs, sign):
    """Substitute into the level-t algebra localized at rs = (r, s) the image
    x_{i,j} + sign * x_{i,s} x_{r,s}^{-1} x_{r,j} of each generator northwest
    of (r, s) and the generator itself for every other one, reading every
    letter from a table of all mn images built up front."""
    shape = a.shape
    r, s = rs
    images = {}
    for i, j in shape.coords():
        terms = [(mono_key([(i, j, 1)]), ONE)]
        if i < r and j < s:
            corr = mono_key([(i, s, 1), (r, j, 1), (r, s, -1)])
            terms.append((corr, q_power(1) * sign))
        images[(i, j)] = QmPoly(shape, t, terms, loc=rs)
    inverse = QmPoly.generator(shape, t, rs, e=-1, loc=rs)
    total = QmPoly.zero(shape, t, loc=rs)
    for key, coeff in a.terms.items():
        prod = QmPoly.one(shape, t, loc=rs)
        for i, j, e in key:
            factor = images[(i, j)] if e > 0 else inverse
            for _ in range(abs(e)):
                prod = prod * factor
        total = total + prod.scale(coeff)
    return total


_MAX_REWRITES = 10**8


def _find_descent_rightmost(w):
    for k in range(len(w) - 2, -1, -1):
        if (w[k][0], w[k][1]) > (w[k + 1][0], w[k + 1][1]):
            return k
    return -1


def random_coeff(rng):
    """A seeded scalar of one or two powers of q with small Fraction
    coefficients."""
    return LaurentScalar(
        (rng.randint(-2, 2),
         Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 2))
    )


def random_descent_picker(rng):
    """A `pick` strategy for `oracle_straighten_word` that rewrites a
    uniformly random descent."""
    def pick(word):
        descents = [
            k
            for k in range(len(word) - 1)
            if (word[k][0], word[k][1]) > (word[k + 1][0], word[k + 1][1])
        ]
        return rng.choice(descents) if descents else -1

    return pick


def oracle_straighten_word(rs, loc, word, pick=None):
    """Lexicographic expression of a generator word by walking its rewrite
    tree: each stack entry is one word, and one adjacent descent of it is
    swapped at a time (the rightmost, or the one `pick(word)` names), at the
    cost of a power of q and possibly a correction word.  Identical words on
    different branches are never merged.  Returns {key: LaurentScalar}.
    """
    # coefficients along a rewrite branch stay of the form
    # sign * q^a * (q - q^{-1})^b, tracked as an int triple
    out = {}
    stack = [(1, 0, 0, tuple(word))]
    steps = 0
    while stack:
        steps += 1
        if steps > _MAX_REWRITES:
            raise RuntimeError("straightening did not terminate (bug)")
        sg, qa, lb, w = stack.pop()
        idx = _find_descent_rightmost(w) if pick is None else pick(w)
        if idx < 0:
            key = mono_key(w)
            if loc is None and any(e < 0 for _, _, e in key):
                raise AssertionError("negative exponent outside localization")
            acc = out.setdefault(key, {})
            acc[(qa, lb)] = acc.get((qa, lb), 0) + sg
            continue
        u, v = w[idx], w[idx + 1]
        swapped = w[:idx] + (v, u) + w[idx + 2 :]
        c1 = (u[0], u[1])
        c2 = (v[0], v[1])
        if u[2] == 1 and v[2] == 1:
            if c1[0] == c2[0] or c1[1] == c2[1]:
                stack.append((sg, qa - 1, lb, swapped))
            elif c1[1] < c2[1]:
                # southwest past northeast: they commute
                stack.append((sg, qa, lb, swapped))
            else:
                # c2 northwest of c1 (the quantum-plane diagonal pair)
                stack.append((sg, qa, lb, swapped))
                if c1 <= rs:
                    corr = (
                        w[:idx]
                        + ((c2[0], c1[1], 1), (c1[0], c2[1], 1))
                        + w[idx + 2 :]
                    )
                    stack.append((-sg, qa, lb + 1, corr))
        elif u[2] == -1:
            # u is the inverted letter; c1 == loc > c2
            if c1[0] == c2[0] or c1[1] == c2[1]:
                stack.append((sg, qa + 1, lb, swapped))
            elif c2[1] > c1[1]:
                stack.append((sg, qa, lb, swapped))
            else:
                # c2 northwest of loc
                stack.append((sg, qa, lb, swapped))
                if c1 == rs:
                    r, s = c1
                    corr = (
                        w[:idx]
                        + ((c2[0], s, 1), (r, c2[1], 1), (r, s, -1), (r, s, -1))
                        + w[idx + 2 :]
                    )
                    stack.append((sg, qa + 2, lb + 1, corr))
        else:
            # v is the inverted letter; every c1 > loc q*-commutes with it
            if c1[0] == c2[0] or c1[1] == c2[1]:
                stack.append((sg, qa + 1, lb, swapped))
            else:
                stack.append((sg, qa, lb, swapped))

    result = {}
    for key, parts in out.items():
        c = ZERO
        for (qa, lb), n in parts.items():
            if n:
                c = c + q_power(qa) * lam_power(lb) * n
        if c:
            result[key] = c
    return result


def oracle_qmpoly_mul(a, b):
    """a * b as the sum over every pair of terms of c1 c2 times the rewrite
    tree walk of the word x^k1 x^k2."""
    rs, loc = a.threshold.rs, a.loc
    total = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            word = expand_key(k1) + expand_key(k2)
            for key, c in oracle_straighten_word(rs, loc, word).items():
                total[key] = total.get(key, ZERO) + c1 * c2 * c
    return QmPoly(a.shape, a.threshold, total, loc=loc)


def oracle_sigma(handle, a):
    """sigma by TorusElement products: each term's path-sum images (the
    monomial inverse for an inverted letter) multiplied left to right over
    its letters in lexicographic order from the first factor, scaled by the
    coefficient and summed."""
    one = TorusElement.one(handle.shape)
    total = TorusElement.zero(handle.shape)
    for key, coeff in a.terms.items():
        prod = None
        for i, j, e in key:
            base = generator(handle.graph, handle.t, i, j)
            factor = base if e > 0 else base.inverse()
            for _ in range(abs(e)):
                prod = factor if prod is None else prod * factor
        total = total + (one if prod is None else prod).scale(coeff)
    return total
