"""Independent oracles the tests check the library against.

Everything here is deliberately naive: literal adjacent transpositions for
torus normal ordering, the commutation form summed pair by pair, the
torus product with one scalar per key, a full 2^(mn) filter for diagram
enumeration and the former row-tuple backtracker for its order, a
from-scratch statement of the diagram condition, the permutation sum of a
quantum minor, divisibility through a dense lookup, the paths between two
vertices by a DFS that extends every partial path (one search per pair of
ends; the library searches once per row), a restricted path
family grown by a DFS that refuses each reflected-L turn past the threshold as
it is taken, the family grid selected entry by entry at each threshold (the
library builds it from the grid one threshold below), the supremum and
infimum of a path-system family as a fold of segment-by-segment path
combinations over every system, the derivation
maps through a table of all mn generator images, the term order as a
comparator that walks two keys to their first differing coordinate,
straightening as a walk of the word rewrite tree that swaps one adjacent
descent at a time, the
polynomial product as that walk per pair of terms, and the path evaluation
as a product of TorusElements per term.  Apart from the TorusElement
product that last one uses (itself checked against the transposition
oracle), the system enumeration the path-system fold runs over and the
entry selection (`cauchon._family`) the grid oracle calls, none of it
shares code with the library paths it validates.

The relations suite's oracle is its former body, on TorusElement
products; the lindstrom suite's is its former body, which decides every
minor again at every threshold; a minor's path-system sum is
`system_weight` summed over the systems; the vertex-disjoint systems are
picked from the pruning-DFS families with a pairwise disjointness filter.
The ddalg and groebner suites' oracles are their former bodies, which sweep
every diagram in one process and report as they go.

The straightening kernel's oracle is its former version, which carried
each branch coefficient as {(a, b): n} for n q^a (q - q^{-1})^b and expanded
the powers of q - q^{-1} once per result key; the polynomial product,
`times_monomial` and the derivation maps are restated on it.

The Groebner-layer oracles are the slower library routes that the fast ones
replaced: the kernel minors by one path-system search per minor
(`minor_in_kernel`), the minimal basis by a filter over every diagonal
subminor of each kernel minor, reduction and trace replay on QmPoly arithmetic,
leading terms by the term-order comparator, one `QmPoly.__mul__` per step,
the random samples built by QmPoly sums term by term, and the randomized
check that evaluates every non-kernel sample's difference from its
remainder.  A key sum's oracle canonicalizes the concatenated keys.
"""

import random
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import combinations, permutations, product

from qmpaths.cauchon import (
    Diagram,
    _family,
    _row_paths,
    build_graph,
    enumerate_cauchon_diagrams,
    enumerate_vdps,
    family_grid,
    generator,
    generator_matrix,
    path_turns,
    system_turn_key,
    system_weight,
)
from qmpaths.coeff import LAM, ONE, ZERO, LaurentScalar, q_power
from qmpaths.groebner import (
    _COEFF_POOL, GroebnerReport, ReductionStep, apply_trace, groebner_basis,
    groebner_check, reduce,
)
from qmpaths.minors import (
    HPrimeHandle, MinorSpec, clear_denominator, dd_backward, dd_forward, kernel_member,
    minor_in_kernel, minor_poly, sigma,
)
from qmpaths.straighten import QmPoly, count_terms_in_grade, grade, term_divides
from qmpaths.torus import (
    EMPTY_KEY, MonoKey, TorusElement, key_entry, mono_key, monomial_mul, pair_commutation,
)
from qmpaths.verify import Report, _random_qmpoly, _run, _shapes


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


def oracle_torus_mul(a, b):
    """a * b with one LaurentScalar per key: c1 c2 q^e added at the key of
    t^k1 t^k2 = q^e t^k, for every pair of terms."""
    acc = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            e, k = monomial_mul(k1, k2)
            acc[k] = acc.get(k, ZERO) + c1 * c2 * q_power(e)
    return TorusElement(a.shape, acc)


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


def oracle_enumerate_cauchon_diagrams(shape):
    """All Cauchon diagrams in increasing row-major 0/1 order, by the
    former backtracker: a candidate row tuple is valid when each black
    square extends a black prefix of the row or sits under an all-black
    column so far, checked square by square."""
    m, n = shape.m, shape.n
    row_patterns = []
    for bits in range(1 << n):
        row = tuple((bits >> (n - 1 - j)) & 1 for j in range(n))
        row_patterns.append(row)
    row_patterns.sort()

    def valid(row, col_allblack):
        for j, b in enumerate(row):
            if b and not col_allblack[j]:
                if not all(row[jj] for jj in range(j)):
                    return False
        return True

    def rec(i, rows, col_allblack):
        if i == m:
            black = frozenset(
                (ri + 1, j + 1)
                for ri, row in enumerate(rows)
                for j, b in enumerate(row)
                if b
            )
            yield Diagram(shape, black)
            return
        for row in row_patterns:
            if valid(row, col_allblack):
                nxt = tuple(a and bool(b) for a, b in zip(col_allblack, row))
                yield from rec(i + 1, rows + [row], nxt)

    yield from rec(0, [], tuple([True] * n))


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


def matrix_lex_compare(a: MonoKey, b: MonoKey):
    """Compare exponent matrices by their first differing coordinate.

    Returns (cmp, witness): cmp is -1/0/+1 for a < b / a == b / a > b in the
    term order, witness the coordinate where they first differ (None if equal).
    The matrix with the larger entry at the witness is the larger term.
    """
    ia, ib = 0, 0
    while ia < len(a) and ib < len(b):
        ca = (a[ia][0], a[ia][1])
        cb = (b[ib][0], b[ib][1])
        if ca == cb:
            if a[ia][2] != b[ib][2]:
                return (-1 if a[ia][2] < b[ib][2] else 1), ca
            ia += 1
            ib += 1
        elif ca < cb:
            # entry of b at ca is 0
            return (-1 if a[ia][2] < 0 else 1), ca
        else:
            return (1 if b[ib][2] < 0 else -1), cb
    if ia < len(a):
        ca = (a[ia][0], a[ia][1])
        return (-1 if a[ia][2] < 0 else 1), ca
    if ib < len(b):
        cb = (b[ib][0], b[ib][1])
        return (1 if b[ib][2] < 0 else -1), cb
    return 0, None


def oracle_leading_term(a):
    """(key, coeff) of a's largest term under `matrix_lex_compare`."""
    terms = a.terms
    key = max(terms, key=cmp_to_key(lambda u, v: matrix_lex_compare(u, v)[0]))
    return key, terms[key]


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


def oracle_family_grid(g, t):
    """The family grid at threshold t from scratch: every entry selected
    by `cauchon._family` from its row's path records, whatever grids the
    graph holds."""
    rs = g.shape.threshold_coord(t)
    return tuple(
        tuple(_family(g, i, j, rs, column) for j, column in enumerate(_row_paths(g, i), 1))
        for i in range(1, g.shape.m + 1)
    )


def enumerate_paths_between(g, src, dst):
    """All directed paths src -> dst, in lexicographic order of their vertex
    sequences, by a DFS that extends every partial path from src."""
    paths = []
    stack = [(src,)]
    # out-neighbor lists are sorted, and a stack that pushes in
    # reverse-sorted order pops candidates in lexicographic order
    while stack:
        path = stack.pop()
        v = path[-1]
        if v == dst:
            paths.append(path)
            continue
        for w in reversed(g.out_edges(v)):
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


_LAM_POWS = [ONE, LAM]


def lam_power(e: int) -> LaurentScalar:
    """(q - q^{-1})^e for e >= 0, cached."""
    if e < 0:
        raise ValueError(f"lam_power({e}): the exponent must be at least 0")
    while len(_LAM_POWS) <= e:
        _LAM_POWS.append(_LAM_POWS[-1] * LAM)
    return _LAM_POWS[e]


def _lp_accumulate(out, key, coeffs, dq=0, dl=0, sign=1):
    """Add sign q^dq (q - q^{-1})^dl coeffs at key into out, never aliasing."""
    acc = out.get(key)
    if acc is None:
        out[key] = {(qa + dq, lb + dl): n * sign for (qa, lb), n in coeffs.items()}
        return
    for (qa, lb), n in coeffs.items():
        k = (qa + dq, lb + dl)
        acc[k] = acc.get(k, 0) + n * sign


def _lp_reattach(key, i, j, e):
    """key x_{i,j}^e for a key with no coordinate past (i, j)."""
    if not e:
        return key
    if key and key[-1][0] == i and key[-1][1] == j:
        e += key[-1][2]
        return key[:-1] + ((i, j, e),) if e else key[:-1]
    return key + ((i, j, e),)


def _lp_insert_letter(rs, key, y, coeffs, out):
    """Add coeffs * x^key y, straightened, into out ({key: {(a, b): n}})."""
    yi, yj, ye = y
    shift = 0
    p = len(key)
    while p:
        zi, zj, e = key[p - 1]
        if zi < yi or (zi == yi and zj <= yj):
            break
        if zi == yi or zj == yj:
            shift -= e * ye
        elif zj > yj and (zi, zj) <= rs:
            if e > 0:
                unit, copies, dq, sign = 1, e, shift, -1
                letters = ((yi, zj, 1), (zi, yj, 1))
            else:  # the inverted letter, at rs
                unit, copies, dq, sign = -1, -e, shift + 2, 1
                letters = ((yi, zj, 1), (zi, yj, 1), (zi, zj, -1), (zi, zj, -1))
            prefix, suffix = key[: p - 1], key[p:]
            for h in range(copies):
                start = _lp_reattach(prefix, zi, zj, unit * (copies - 1 - h))
                branch = {}
                _lp_accumulate(branch, start, coeffs, dq, 1, sign)
                for k2, c2 in _lp_fold(rs, branch, letters).items():
                    _lp_accumulate(out, _lp_reattach(k2, zi, zj, unit * h) + suffix, c2)
        p -= 1
    if p and key[p - 1][0] == yi and key[p - 1][1] == yj:
        key = _lp_reattach(key[:p], yi, yj, ye) + key[p:]
    else:
        key = key[:p] + (y,) + key[p:]
    _lp_accumulate(out, key, coeffs, shift)


def _lp_fold(rs, terms, letters):
    """terms ({key: {(a, b): n}}) times the letters, in lexicographic
    expression; equal keys are merged after every letter."""
    for y in letters:
        out = {}
        for key, coeffs in terms.items():
            _lp_insert_letter(rs, key, y, coeffs, out)
        terms = out
    return terms


def _lp_collapse(terms):
    """{key: {q-exponent: n}} of {key: {(a, b): n}}, each part standing for
    n q^a (q - q^{-1})^b; zero parts and keys left with none are dropped."""
    out = {}
    for key, parts in terms.items():
        powers = {}
        for (qa, lb), n in parts.items():
            if n:
                for p, m in lam_power(lb).terms:
                    powers[qa + p] = powers.get(qa + p, 0) + n * m
        powers = {p: n for p, n in powers.items() if n}
        if powers:
            out[key] = powers
    return out


def _lp_lift(terms):
    return {k: {(p, 0): n for p, n in c.items()} for k, c in terms.items()}


def oracle_fold_lambda_parts(rs, terms, letters):
    """terms ({key: {q-exponent: n}}) times the letters by the former
    straightening kernel: branch coefficients as {(a, b): n} for
    n q^a (q - q^{-1})^b, expanded once at the end.  terms is not mutated."""
    return _lp_collapse(_lp_fold(rs, _lp_lift(terms), letters))


def oracle_times_monomial(a, key):
    """a x^key as {key: {q-exponent: n}} on the former kernel."""
    return oracle_fold_lambda_parts(a.threshold.rs, a._terms, expand_key(key))


def oracle_qmpoly_mul_lambda_parts(a, b):
    """a * b on the former kernel: the left parts folded through each right
    key, scaled by its coefficient, collapsed once."""
    rs = a.threshold.rs
    left = _lp_lift(a._terms)
    acc = {}
    for k2, c2 in b._terms.items():
        for key, parts in _lp_fold(rs, left, expand_key(k2)).items():
            out = acc.setdefault(key, {})
            for (qa, lb), n in parts.items():
                for p, m in c2.items():
                    out[qa + p, lb] = out.get((qa + p, lb), 0) + n * m
    return a._like(_lp_collapse(acc))


def oracle_derivation_lambda_parts(a, t, rs, sign):
    """The derivation map of `minors._derivation` on the former kernel."""
    r, s = rs
    target = QmPoly.zero(a.shape, t, loc=rs)
    at = target.threshold.rs
    acc = {}
    for key, coeff in a._terms.items():
        terms = {EMPTY_KEY: {(p, 0): n for p, n in coeff.items()}}
        for y in expand_key(key):
            i, j, e = y
            out = _lp_fold(at, terms, (y,))
            if e > 0 and i < r and j < s:
                corr = _lp_fold(at, terms, ((i, s, 1), (r, j, 1), (r, s, -1)))
                for k, parts in corr.items():
                    _lp_accumulate(out, k, parts, dq=1, sign=sign)
            terms = out
        for k, parts in terms.items():
            _lp_accumulate(acc, k, parts)
    return target._like(_lp_collapse(acc))


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


def oracle_lindstrom_eval(handle, spec):
    """The minor's path-system weight sum: `system_weight`, which walks each
    member path's turns again, summed over the systems as TorusElements."""
    total = TorusElement.zero(handle.shape)
    for system in enumerate_vdps(handle.graph, handle.t, spec.I, spec.J):
        total = total + system_weight(handle.graph, system)
    return total


def oracle_relations(max_m=3, max_n=3):
    """The relations suite on TorusElement arithmetic: every defining
    relation of each 2x2 submatrix of the generator matrix checked by
    TorusElement products, scaling and sums.  Returns its Report."""
    report = Report("relations", {"max": [max_m, max_n]})
    q1 = q_power(1)

    def body(report):
        for shape in _shapes(max_m, max_n):
            for d in enumerate_cauchon_diagrams(shape):
                g = build_graph(d)
                for t in range(1, shape.mn + 1):
                    rs = shape.threshold_coord(t)
                    X = generator_matrix(g, t)
                    for i, k in combinations(range(1, shape.m + 1), 2):
                        for j, l in combinations(range(1, shape.n + 1), 2):
                            a, b = X[i - 1][j - 1], X[i - 1][l - 1]
                            c, dd = X[k - 1][j - 1], X[k - 1][l - 1]
                            checks = [
                                ("ab=qba", a * b == (b * a).scale(q1)),
                                ("cd=qdc", c * dd == (dd * c).scale(q1)),
                                ("ac=qca", a * c == (c * a).scale(q1)),
                                ("bd=qdb", b * dd == (dd * b).scale(q1)),
                                ("bc=cb", b * c == c * b),
                            ]
                            if (k, l) > rs:
                                checks.append(("ad=da", a * dd == dd * a))
                            else:
                                checks.append(
                                    ("ad=da+lam*bc",
                                     a * dd == dd * a + (b * c).scale(LAM))
                                )
                            for name, ok in checks:
                                report.checks += 1
                                if not ok:
                                    report.fail(
                                        diagram=d.to_inline(),
                                        t=t,
                                        submatrix=[i, j, k, l],
                                        relation=name,
                                    )

    return _run(report, body)


def oracle_lindstrom(max_m=3, max_n=3):
    """The lindstrom suite deciding every minor at every threshold: sigma of
    the minor against its path-system weight sum, emptiness, and distinct
    turn keys per systems tuple.  Returns its Report."""
    report = Report("lindstrom", {"max": [max_m, max_n]})

    def body(report):
        for shape in _shapes(max_m, max_n):
            specs = [
                MinorSpec(I, J)
                for k in range(1, min(shape.m, shape.n) + 1)
                for I in combinations(range(1, shape.m + 1), k)
                for J in combinations(range(1, shape.n + 1), k)
            ]
            for d in enumerate_cauchon_diagrams(shape):
                base = HPrimeHandle(d, 1)
                distinct: dict = {}
                for t in range(1, shape.mn + 1):
                    h = base.at(t)
                    for spec in specs:
                        if spec.max_coord > h.rs:
                            continue
                        report.checks += 1
                        via_sigma = sigma(h, minor_poly(shape, t, spec))
                        systems = enumerate_vdps(h.graph, t, spec.I, spec.J)
                        via_paths = TorusElement._raw(shape, systems.weights)
                        families = tuple(f.key for f in systems.families)
                        if families not in distinct:
                            keys = [system_turn_key(h.graph, s) for s in systems]
                            distinct[families] = len(set(keys)) == len(keys)
                        ok = (
                            via_sigma == via_paths
                            and via_paths.is_zero() == (not systems)
                            and distinct[families]
                        )
                        if not ok:
                            report.fail(
                                diagram=d.to_inline(), t=t, minor=str(spec)
                            )

    return _run(report, body)


def oracle_ddalg(max_m=3, max_n=3, samples=500, seed=0):
    """The ddalg suite in one process: the round trips per shape, then per
    diagram and threshold the generator identities and the sigma
    compatibility, each forward image built again.  Returns its Report."""
    report = Report(
        "ddalg", {"max": [max_m, max_n], "samples": samples, "seed": seed}
    )

    def body(report):
        for shape in _shapes(max_m, max_n):
            rng = random.Random(seed * 10000 + shape.m * 100 + shape.n)
            for _ in range(samples):
                t = rng.randint(2, shape.mn)
                rs = shape.threshold_coord(t)
                a = _random_qmpoly(shape, t - 1, rng)
                report.checks += 1
                if dd_backward(dd_forward(a)) != a.with_loc(rs):
                    report.fail(kind="roundtrip-fwd-bwd", t=t, element=repr(a))
                b = _random_qmpoly(shape, t, rng)
                report.checks += 1
                if dd_forward(dd_backward(b)) != b.with_loc(rs):
                    report.fail(kind="roundtrip-bwd-fwd", t=t, element=repr(b))
            for d in enumerate_cauchon_diagrams(shape):
                base = HPrimeHandle(d, 1)
                for t in range(2, shape.mn + 1):
                    r, s = rs = shape.threshold_coord(t)
                    in_b = d.is_black(rs)
                    h_hi, h_lo = base.at(t), base.at(t - 1)
                    hi = family_grid(base.graph, t)
                    lo = family_grid(base.graph, t - 1)
                    for (i, j) in shape.coords():
                        x = hi[i - 1][j - 1].generator
                        y = lo[i - 1][j - 1].generator
                        report.checks += 1
                        if in_b or i >= r or j >= s:
                            if x != y:
                                report.fail(
                                    kind="generator-stability",
                                    diagram=d.to_inline(), t=t, coord=[i, j],
                                )
                        elif x != y + (
                            lo[i - 1][s - 1].generator
                            * lo[r - 1][s - 1].generator.inverse()
                            * lo[r - 1][j - 1].generator
                        ):
                            report.fail(
                                kind="generator-derivation-identity",
                                diagram=d.to_inline(), t=t, coord=[i, j],
                            )
                        if not in_b:
                            report.checks += 1
                            ygen = QmPoly.generator(shape, t - 1, (i, j))
                            if sigma(h_hi, dd_forward(ygen)) != sigma(h_lo, ygen):
                                report.fail(
                                    kind="sigma-derivation-compat",
                                    diagram=d.to_inline(), t=t, coord=[i, j],
                                )

    return _run(report, body)


def oracle_groebner(max_m=3, max_n=3, samples=200, seed=0):
    """The groebner suite in one process: `groebner_check` on every diagram
    at the top threshold, its failures reported as they come.  Returns its
    Report."""
    report = Report("groebner", {"samples": samples, "seed": seed, "max": [max_m, max_n]})

    def body(report):
        for shape in _shapes(max_m, max_n):
            for d in enumerate_cauchon_diagrams(shape):
                sub = groebner_check(HPrimeHandle(d, shape.mn), samples=samples, seed=seed)
                report.checks += sub.checked_kernel + sub.checked_nonkernel
                for f in sub.failures:
                    report.fail(diagram=d.to_inline(), t=shape.mn, **f)

    return _run(report, body)


def oracle_vdps(g, t, I, J):
    """The vertex-disjoint systems for [I|J] from scratch: every pick of one
    path per index from the pruning-DFS families, kept when the picks are
    pairwise vertex-disjoint, in lexicographic order of the picks."""
    systems = []
    for pick in product(*(oracle_gamma(g, t, i, j) for i, j in zip(I, J))):
        sets = [set(p) for p in pick]
        if all(a.isdisjoint(b) for a, b in combinations(sets, 2)):
            systems.append(pick)
    return tuple(systems)


def oracle_hprime_minors(handle):
    """(minors, bare) of the kernel at (B, t) by one `minor_in_kernel` search
    per minor with maximum coordinate at most the threshold coordinate."""
    shape = handle.shape
    rs = handle.rs
    minors = []
    rows_all = range(1, shape.m + 1)
    cols_all = range(1, shape.n + 1)
    for k in range(1, min(shape.m, shape.n) + 1):
        for I in combinations(rows_all, k):
            if I[-1] > rs[0]:
                continue
            for J in combinations(cols_all, k):
                spec = MinorSpec(I, J)
                if spec.max_coord > rs:
                    continue
                if minor_in_kernel(handle, spec):
                    minors.append(spec)
    bare = sorted(c for c in handle.diagram.black if c > rs)
    minors.sort(key=lambda s: (s.k, s.I, s.J))
    return minors, bare


def oracle_diagonal_subminors(spec):
    """Minors on proper subsets of the diagonal coordinate pairs."""
    for size in range(1, spec.k):
        for pick in combinations(range(spec.k), size):
            yield MinorSpec(
                tuple(spec.I[p] for p in pick),
                tuple(spec.J[p] for p in pick),
            )


def oracle_minimal_groebner(handle):
    """The kernel minors of `oracle_hprime_minors` with no proper diagonal
    subminor among them, by a filter over every subset of the diagonal."""
    minors, _bare = oracle_hprime_minors(handle)
    in_kernel = set(minors)
    return [
        spec
        for spec in minors
        if not any(sub in in_kernel for sub in oracle_diagonal_subminors(spec))
    ]


def oracle_reduce(a, basis):
    """Right-reduction on QmPoly arithmetic: leading terms by the comparator
    (`oracle_leading_term`), each step's product g * x^c by `QmPoly.__mul__`,
    the work polynomial updated by QmPoly subtraction."""
    if a.shape != basis.handle.shape or a.threshold != basis.handle.threshold:
        raise ValueError("element and basis live in different algebras")
    if a.loc is not None:
        raise ValueError("reduction expects a polynomial (non-localized) element")
    trace = []
    if a.is_zero():
        return a, trace
    cap = 1 + sum(
        count_terms_in_grade(grade(a.shape, key)) for key in a.terms
    )
    work = a
    steps = 0
    while not work.is_zero():
        lt_key, lt_coeff = oracle_leading_term(work)
        hit = None
        for idx, e in enumerate(basis.elements):
            if term_divides(e.lt_key, lt_key):
                hit = idx
                break
        if hit is None:
            break
        steps += 1
        if steps > cap:
            raise RuntimeError("reduction exceeded its term-count bound (bug)")
        e = basis.elements[hit]
        cof = mono_key(
            (i, j, eo - key_entry(e.lt_key, (i, j)))
            for i, j, eo in lt_key
        )
        prod = e.poly * QmPoly.monomial(a.shape, a.threshold, cof)
        pk, pc = oracle_leading_term(prod)
        if pk != lt_key:
            raise RuntimeError("leading term of g * x^c is not lt(a) (bug)")
        if pc.as_monomial() is None:
            raise AssertionError("leading coefficient of g * x^c is not a unit (bug)")
        scale = lt_coeff * pc.inverse()
        work = work - prod.scale(scale)
        trace.append(ReductionStep(hit, scale, cof))
    return work, trace


def oracle_apply_trace(basis, trace):
    """Sum of scale * g * x^cofactor over a trace, on QmPoly arithmetic."""
    shape, th = basis.handle.shape, basis.handle.threshold
    total = QmPoly.zero(shape, th)
    for step in trace:
        e = basis.elements[step.index]
        prod = e.poly * QmPoly.monomial(shape, th, step.cofactor)
        total = total + prod.scale(step.scale)
    return total


def oracle_commutation_form(a, b):
    """The commutation form by its definition: every pair u in a, v in b
    with u lexicographically greater than v, weighted by
    `pair_commutation`."""
    total = 0
    for ai, aj, ae in a:
        for bi, bj, be in b:
            if (ai, aj) > (bi, bj):
                total += ae * be * pair_commutation((ai, aj), (bi, bj))
    return total


def oracle_key_add(a, b):
    """The key of a + b: the concatenated keys canonicalized."""
    return mono_key(a + b)


def oracle_random_monomial_key(rng, shape, max_degree):
    """A random key of degree at most max_degree by `mono_key` over the
    drawn generators."""
    deg = rng.randint(0, max_degree)
    coords = shape.coords()
    return mono_key((*rng.choice(coords), 1) for _ in range(deg))


def oracle_random_right_combination(handle, basis, rng):
    """One or two terms coeff * g * x^key added up as QmPolys, with the same
    rng draws in the same order as the library's builder."""
    shape, t = handle.shape, handle.t
    total = QmPoly.zero(shape, t)
    if not basis.elements:
        return total
    for _ in range(rng.randint(1, 2)):
        e = rng.choice(basis.elements)
        key = oracle_random_monomial_key(rng, shape, 2)
        coeff = rng.choice(_COEFF_POOL)
        total = total + (e.poly * QmPoly.monomial(shape, t, key)).scale(coeff)
    return total


def oracle_random_kernel_element(handle, basis, rng, low=None):
    """`random_kernel_element` over `oracle_random_right_combination`."""
    if low is not None and rng.random() < 0.3:
        low_handle, low_basis = low()
        if low_basis.elements:
            b = oracle_random_right_combination(low_handle, low_basis, rng)
            if not b.is_zero():
                img, _h = clear_denominator(dd_forward(b))
                if not img.is_zero():
                    return img
    return oracle_random_right_combination(handle, basis, rng)


def oracle_random_nonkernel_element(handle, rng):
    """A constant plus up to two random terms as one QmPoly from (key,
    coefficient) pairs, nudged by constants until sigma is nonzero."""
    shape, t = handle.shape, handle.t
    terms = [(mono_key(()), rng.choice(_COEFF_POOL))]
    for _ in range(rng.randint(0, 2)):
        terms.append((oracle_random_monomial_key(rng, shape, 3),
                      rng.choice(_COEFF_POOL)))
    a = QmPoly(shape, t, terms)
    bump = 1
    while sigma(handle, a).is_zero():
        a = a + QmPoly.one(shape, t).scale(bump)
        bump += 1
    return a


def oracle_groebner_check(handle, samples=200, seed=0, basis=None):
    """`groebner_check` on the oracle sample builders, with every non-kernel
    sample's difference a - rem built and evaluated, also when the reduction
    took no step."""
    full_basis = groebner_basis(handle, check=False)
    if basis is None:
        basis = full_basis
    rng = random.Random(seed)
    report = GroebnerReport(
        diagram=handle.diagram.to_inline(),
        t=handle.t,
        basis=[("x" if e.bare else "") + str(e.spec) for e in basis.elements],
        samples=samples,
    )

    def witness(kind, a, detail=""):
        report.failures.append({"kind": kind, "element": repr(a), "detail": detail})

    low = None
    if handle.t >= 2 and handle.rs not in handle.diagram.black:
        low_handle = handle.at(handle.t - 1)
        low = cache(lambda: (low_handle, groebner_basis(low_handle, check=False)))
    queue = [e.poly for e in full_basis.elements]
    while len(queue) < samples:
        queue.append(oracle_random_kernel_element(handle, full_basis, rng, low=low))
    for a in queue[:samples]:
        if a.is_zero():
            continue
        report.checked_kernel += 1
        if not kernel_member(handle, a):
            witness("sample-not-in-kernel", a)
            continue
        rem, trace = reduce(a, basis)
        if not trace:
            witness("leading-term-not-divisible", a)
            continue
        if not rem.is_zero():
            witness("nonzero-remainder", a, detail=repr(rem))
            continue
        if apply_trace(basis, trace) != a:
            witness("trace-mismatch", a)
    for _ in range(samples):
        a = oracle_random_nonkernel_element(handle, rng)
        report.checked_nonkernel += 1
        rem, _trace = reduce(a, basis)
        if rem.is_zero():
            witness("nonkernel-reduced-to-zero", a)
        elif not kernel_member(handle, a - rem):
            witness("reduction-left-the-ideal", a)
    return report
