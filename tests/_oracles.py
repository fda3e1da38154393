"""Independent oracles, kept apart from the library code paths.

Elements of H are dense lists of coefficients here, and every product
e_i e_j is read from h.mult into such a list (_basis_product,
dense_product); the oracles call no product of the library and do no
arithmetic on its vector type, whose values they read only as dense
coefficients (_entries) or, for the columns of a linear map, as
nonzeros (expand_map).  The radical oracle computes the maximal nilpotent ideal
reachable from a sweep of candidate generators: for each candidate x it
builds the two-sided principal ideal of x by closure under basis
multiplication and keeps it when the ideal is nilpotent (every
nilpotent ideal sits inside the radical).  The oracle is the sum of the
kept ideals; no trace form is involved anywhere, spans grow in the
oracles' own dense echelon (_DenseSpan) and are compared by their own
dense rank.  The tensor oracles expand products, embeddings and flips in
tensor powers of H one pure tensor at a time.  The antipode oracle
writes S out as a dense matrix of lists and multiplies those.  The group
oracles try every candidate, and the cyclotomic reference
computes over Fraction modulo the product formula for Phi_n, with
inverses from the Galois norm.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from trihopf.scalars import SC_ONE, SC_ZERO, CycScalar, root_of_unity
from trihopf.tensor import Tensor2


def rank(rows):
    """Rank of rows of CycScalar entries, by dense Gaussian elimination.

    Kept apart from trihopf.tensor's sparse echelon, which the oracles
    built on it check.
    """
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c].inv()
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv
            if not f.is_zero():
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _entries(v):
    """The dense coefficients of a library vector, or of a dense list."""
    return list(getattr(v, "entries", v))


def in_span(vectors, v):
    """v lies in the span of vectors (library vectors or dense lists)."""
    rows = [_entries(u) for u in vectors]
    return rank(rows + [_entries(v)]) == rank(rows)


class _DenseSpan:
    """A growing span of dense lists in echelon form: each row is 1 at
    its pivot and 0 at the pivots of the rows before it, so one pass
    over the rows in order reduces a vector.  Kept apart from
    trihopf.tensor.Echelon, like rank."""

    def __init__(self):
        self.rows = []  # (pivot, row as a list)

    def _reduce(self, v):
        x = list(v)
        for p, row in self.rows:
            f = x[p]
            if not f.is_zero():
                x = [a - f * b for a, b in zip(x, row)]
        return x

    def contains(self, v):
        return all(c.is_zero() for c in self._reduce(v))

    def add(self, v):
        """Extend the span by v; False when v was in it already."""
        x = self._reduce(v)
        p = next((i for i, c in enumerate(x) if not c.is_zero()), None)
        if p is None:
            return False
        inv = x[p].inv()
        self.rows.append((p, [c * inv for c in x]))
        return True


def _unit_vector(d, i):
    return [SC_ONE if j == i else SC_ZERO for j in range(d)]


def _nonzeros(x):
    return [(i, c) for i, c in enumerate(x) if not c.is_zero()]


def _basis_product(h, i, j):
    """The nonzero (k, c) of e_i e_j, summed from h.mult."""
    acc = {}
    for k, w in h.mult[i][j]:
        _add(acc, k, w)
    return list(_drop_zeros(acc).items())


def dense_product(h, x, y):
    """x y for dense lists x and y, term by term through h.mult."""
    out = [SC_ZERO] * h.dim
    right = _nonzeros(y)
    for i, a in _nonzeros(x):
        for j, b in right:
            for k, w in h.mult[i][j]:
                out[k] = out[k] + a * b * w
    return out


def _mul_basis_vec(h, i, v, side):
    out = [SC_ZERO] * h.dim
    for j, c in _nonzeros(v):
        pairs = h.mult[i][j] if side == "left" else h.mult[j][i]
        for k, w in pairs:
            out[k] = out[k] + c * w
    return out


def principal_ideal(h, x):
    """Basis of the two-sided ideal generated by the dense list x."""
    span = _DenseSpan()
    basis = [x] if span.add(x) else []
    frontier = list(basis)
    while frontier:
        new = []
        for v in frontier:
            for i in range(h.dim):
                for side in ("left", "right"):
                    w = _mul_basis_vec(h, i, v, side)
                    if span.add(w):
                        basis.append(w)
                        new.append(w)
        frontier = new
    return basis


def ideal_is_nilpotent(h, ideal_basis):
    """Powers of a two-sided ideal descend; nilpotent iff they hit zero."""
    current = list(ideal_basis)
    for _ in range(h.dim + 1):
        if not current:
            return True
        nxt, span = [], _DenseSpan()
        for a in current:
            for b in ideal_basis:
                prod = dense_product(h, a, b)
                if span.add(prod):
                    nxt.append(prod)
        current = nxt
    return not current


def bruteforce_radical(h):
    """Maximal nilpotent ideal from a generator sweep (no trace form), as
    dense lists.

    Sound from below for any algebra; spans the full radical on the
    catalog instances, whose radicals are generated by combinations of
    at most two basis vectors.
    """
    e = [_unit_vector(h.dim, i) for i in range(h.dim)]
    candidates = list(e)
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            candidates.append([a + b for a, b in zip(e[i], e[j])])
            candidates.append([a - b for a, b in zip(e[i], e[j])])
    total, span = [], _DenseSpan()
    for x in candidates:
        if span.contains(x):
            continue
        ideal = principal_ideal(h, x)
        if ideal_is_nilpotent(h, ideal):
            total.extend(v for v in ideal if span.add(v))
    return total


def same_span(vectors_a, vectors_b):
    rows_a = [_entries(v) for v in vectors_a]
    rows_b = [_entries(v) for v in vectors_b]
    return rank(rows_a) == rank(rows_b) == rank(rows_a + rows_b)


# --- tensor powers of H, expanded one pure tensor at a time ---------------
#
# Tensors are dicts from index tuples to coefficients.  Products of basis
# elements are read from h.mult (_basis_product) and coproducts from
# h.comult, so none of this shares code with trihopf.tensor.

def _drop_zeros(acc):
    return {k: c for k, c in acc.items() if not c.is_zero()}


def _add(acc, key, c):
    acc[key] = acc.get(key, SC_ZERO) + c


def expand_product(h, a, b):
    """a * b in a tensor power of h, factor by factor.

    (x_1 (x) ... (x) x_n)(y_1 (x) ... (x) y_n) carries the Koszul sign
    (-1)**(sum over l > m of |x_l||y_m|) when h is super.
    """
    out = {}
    products = {}  # (i, j) -> nonzeros of e_i e_j
    for ka, ca in a.items():
        for kb, cb in b.items():
            coef = ca * cb
            if h.super:
                odd = sum(
                    h.parity[ka[l]] * h.parity[kb[m]] for l in range(len(ka)) for m in range(l)
                )
                if odd % 2:
                    coef = -coef
            factors = []
            for i, j in zip(ka, kb):
                if (i, j) not in products:
                    products[i, j] = _basis_product(h, i, j)
                factors.append(products[i, j])
            for picked in product(*factors):
                c = coef
                for _, w in picked:
                    c = c * w
                _add(out, tuple(k for k, _ in picked), c)
    return _drop_zeros(out)


def expand_embedding(h, a, pattern):
    """The image of a tensor square in H (x) H (x) H, as embed13_23_12 names it."""
    out = {}
    for (i, j), c in a.items():
        if pattern in ("12", "13", "23"):
            for k, u in _nonzeros(_entries(h.unit)):
                key = {"12": (i, j, k), "13": (i, k, j), "23": (k, i, j)}[pattern]
                _add(out, key, c * u)
        elif pattern == "delta_id":
            for p, q, w in h.comult[i].nonzeros:
                _add(out, (p, q, j), c * w)
        else:
            for p, q, w in h.comult[j].nonzeros:
                _add(out, (i, p, q), c * w)
    return _drop_zeros(out)


def expand_map(cols, a, leg):
    """A linear map applied to one leg of the tensor whose coefficients are
    a (keys are index tuples, (i,) for an element of H): cols[k] is the
    image of e_k, read through its nonzeros, whose indices replace k on
    that leg, one term at a time."""
    out = {}
    for key, c in a.items():
        for entry in cols[key[leg]].nonzeros:
            _add(out, key[:leg] + tuple(entry[:-1]) + key[leg + 1:], c * entry[-1])
    return _drop_zeros(out)


def expand_legs(h, a):
    """m(t) = sum c e_i e_j for the tensor square with coefficients a, keyed (k,)."""
    out = {}
    for (i, j), c in a.items():
        for k, w in _basis_product(h, i, j):
            _add(out, (k,), c * w)
    return _drop_zeros(out)


def expand_flip(h, a):
    """The factors of a tensor square swapped, Koszul-signed when h is super."""
    odd = h.parity if h.super else [0] * h.dim
    return _drop_zeros({(j, i): -c if odd[i] and odd[j] else c for (i, j), c in a.items()})


def expand_sum(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        _add(out, k, c if sign > 0 else -c)
    return _drop_zeros(out)


# --- the Hopf axioms and triangularity, on every basis tuple ----------------
#
# The exhaustive scans the certificates in verify_hopf and
# verify_triangular stand in for: every triple, pair and basis element,
# through the expansions above and dense_product.

def _coproduct(h, i):
    acc = {}
    for j, k, c in h.comult[i].nonzeros:
        _add(acc, (j, k), c)
    return _drop_zeros(acc)


def _first(keys, fails):
    return next((list(k) for k in keys if fails(*k)), None)


def _add_scaled(acc, c, v):
    """acc + c v, for dense lists."""
    return [a + c * b for a, b in zip(acc, v)]


def exhaustive_axioms(h):
    """The six Hopf axioms on every basis tuple, shaped like AxiomReport.to_obj().

    Each witness is the lexicographically first failing index tuple.
    """
    d = h.dim
    idx1 = [(i,) for i in range(d)]
    idx2 = list(product(range(d), repeat=2))
    e = [_unit_vector(d, i) for i in range(d)]
    unit = _entries(h.unit)

    def mul(x, y):
        return dense_product(h, x, y)

    deltas = [_coproduct(h, i) for i in range(d)]

    def counit_of(v):
        acc = SC_ZERO
        for i, c in _nonzeros(v):
            acc = acc + c * h.counit[i]
        return acc

    def coproduct_of(v):
        acc = {}
        for i, c in _nonzeros(v):
            for key, w in deltas[i].items():
                _add(acc, key, c * w)
        return _drop_zeros(acc)

    def counit_fails(i):
        left, right = [SC_ZERO] * d, [SC_ZERO] * d
        for (j, k), c in deltas[i].items():
            left = _add_scaled(left, c * h.counit[j], e[k])
            right = _add_scaled(right, c * h.counit[k], e[j])
        return left != e[i] or right != e[i]

    s_cols = [list(row) for row in zip(*dense_antipode(h))]

    def antipode_fails(i):
        left, right = [SC_ZERO] * d, [SC_ZERO] * d
        for (j, k), c in deltas[i].items():
            left = _add_scaled(left, c, mul(s_cols[j], e[k]))
            right = _add_scaled(right, c, mul(e[j], s_cols[k]))
        target = [h.counit[i] * u for u in unit]
        return left != target or right != target

    found = {
        "associativity": _first(
            product(range(d), repeat=3),
            lambda i, j, k: mul(mul(e[i], e[j]), e[k]) != mul(e[i], mul(e[j], e[k])),
        ),
        "unit": _first(idx1, lambda i: mul(unit, e[i]) != e[i] or mul(e[i], unit) != e[i]),
        "coassociativity": _first(
            idx1,
            lambda i: expand_embedding(h, deltas[i], "delta_id")
            != expand_embedding(h, deltas[i], "id_delta"),
        ),
        "counit": _first(idx1, counit_fails),
        "bialgebra": _first(
            idx2,
            lambda i, j: counit_of(mul(e[i], e[j])) != h.counit[i] * h.counit[j]
            or coproduct_of(mul(e[i], e[j])) != expand_product(h, deltas[i], deltas[j]),
        ),
        "antipode": _first(idx1, antipode_fails),
    }
    obj = {name: w is None for name, w in found.items()}
    obj["witnesses"] = {name: w for name, w in found.items() if w is not None}
    return obj


def exhaustive_triangular(h, r):
    """Both unitarity sides, both hexagons and the conjugation identity on
    every basis element, for r given as a dict (i, j) -> coefficient."""
    unit = _nonzeros(_entries(h.unit))
    unit2 = _drop_zeros({(i, j): a * b for i, a in unit for j, b in unit})
    r21 = expand_flip(h, r)
    if expand_product(h, r21, r) != unit2 or expand_product(h, r, r21) != unit2:
        return False
    r13, r23, r12 = (expand_embedding(h, r, p) for p in ("13", "23", "12"))
    if expand_embedding(h, r, "delta_id") != expand_product(h, r13, r23):
        return False
    if expand_embedding(h, r, "id_delta") != expand_product(h, r13, r12):
        return False
    for i in range(h.dim):
        delta = _coproduct(h, i)
        if expand_product(h, r, delta) != expand_product(h, expand_flip(h, delta), r):
            return False
    return True


# --- antipode powers, by dense matrix products -------------------------------

def dense_antipode(h):
    """Rows of the antipode matrix as lists, S(e_i) = column i, written
    out from the sparse columns of HopfData.antipode."""
    s = [[SC_ZERO] * h.dim for _ in range(h.dim)]
    for i, col in enumerate(h.antipode):
        for j, c in col.nonzeros:
            s[j][i] = c
    return s


def dense_antipode_powers(h, kmax):
    """Rows of S**0, S**1, ..., S**kmax, by schoolbook products of the
    dense antipode matrix over lists; no composition of sparse columns."""
    d = h.dim
    s = dense_antipode(h)
    power = [[SC_ONE if i == j else SC_ZERO for j in range(d)] for i in range(d)]
    powers = [power]
    for _ in range(kmax):
        power = [
            [sum((power[i][t] * s[t][j] for t in range(d)), SC_ZERO) for j in range(d)]
            for i in range(d)
        ]
        powers.append(power)
    return powers


def dense_columns(rows):
    """The nonzero (row, entry) pairs of each column, as HopfData.antipode;
    the matrix may be n x m."""
    return tuple(
        tuple((i, row[j]) for i, row in enumerate(rows) if not row[j].is_zero())
        for j in range(len(rows[0]))
    )


def dense_antipode_order(powers):
    """Least k >= 1 with powers[k] == powers[0] (the identity), or None."""
    return next((k for k in range(1, len(powers)) if powers[k] == powers[0]), None)


# --- groups layer, by brute force -----------------------------------------

def bruteforce_sign_characters(group):
    """Every sign vector that is a homomorphism, in product((1, -1)) order."""
    n = group.order
    out = []
    for bits in product((1, -1), repeat=n):
        if bits[group.identity] == 1 and all(
            bits[group.mul(a, b)] == bits[a] * bits[b] for a in range(n) for b in range(n)
        ):
            out.append(bits)
    return out


def _label_add(factors, s, t):
    return tuple((x + y) % f for x, y, f in zip(s, t, factors))


def is_bicharacter_table(factors, values):
    """Normalized and multiplicative in each slot, checked for every triple."""
    labels = list(product(*[range(f) for f in factors]))
    index = {lab: i for i, lab in enumerate(labels)}
    for i, s in enumerate(labels):
        for j, t in enumerate(labels):
            for k, u in enumerate(labels):
                if values[index[_label_add(factors, s, u)]][j] != values[i][j] * values[k][j]:
                    return False
                if values[i][index[_label_add(factors, t, u)]] != values[i][j] * values[i][k]:
                    return False
    return all(c == SC_ONE for c in values[0]) and all(row[0] == SC_ONE for row in values)


def bruteforce_alternating_nondegenerate(factors):
    """Value tables of every alternating nondegenerate bicharacter that an
    antisymmetric generator exponent matrix gives, first occurrence kept."""
    r = len(factors)
    labels = list(product(*[range(f) for f in factors]))
    upper = [(i, j) for i in range(r) for j in range(i + 1, r)]
    out = []
    for combo in product(*[range(gcd(factors[i], factors[j])) for i, j in upper]):
        exps = {}
        for (i, j), c in zip(upper, combo):
            g = gcd(factors[i], factors[j])
            exps[i, j], exps[j, i] = (g, c), (g, -c)
        table = []
        for s in labels:
            row = []
            for t in labels:
                val = SC_ONE
                for (i, j), (g, c) in exps.items():
                    val = val * root_of_unity(g, c * s[i] * t[j])
                row.append(val)
            table.append(tuple(row))
        table = tuple(table)
        if not is_bicharacter_table(factors, table):
            continue
        alternating = all(table[i][i] == SC_ONE for i in range(len(labels)))
        nondegenerate = all(table[i] != table[j] for i in range(len(labels)) for j in range(i))
        if alternating and nondegenerate and table not in out:
            out.append(table)
    return out


def bicharacter_twist_double_sum(a, beta):
    """J = sum over (s, t) of beta(s,t) E_s (x) E_t, every (s, t, p, q) term
    multiplied out, in parent-group coordinates."""
    from trihopf.groups import characters

    _, _, idems = characters(a)
    out = {}
    for i, es in enumerate(idems):
        for j, et in enumerate(idems):
            for p, cp in _nonzeros(_entries(es)):
                for q, cq in _nonzeros(_entries(et)):
                    _add(out, (a.elements[p], a.elements[q]), beta.values[i][j] * cp * cq)
    return _drop_zeros(out)


def subgroup_as_group(sub):
    """An abelian subgroup as a standalone FiniteGroup on local indices,
    with its own cyclic factors: the group of k[A] apart from its parent."""
    from trihopf.groups import FiniteGroup

    pos = {g: i for i, g in enumerate(sub.elements)}
    table = [[pos[sub.parent.table[a][b]] for b in sub.elements] for a in sub.elements]
    iso = [sub.exponents[g] for g in sub.elements]
    return FiniteGroup(table, pos[sub.parent.identity], invariant_factors=sub.factors, iso_map=iso)


# --- cyclotomic numbers over Fraction --------------------------------------
#
# A value is a list of Fractions over the power basis of zeta_n, reduced
# modulo Phi_n = prod over d | n of (x**d - 1)**mu(n/d).

def _mobius(n):
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pdivmod(a, m):
    """Quotient and remainder of a by m (leading coefficient nonzero)."""
    a = [Fraction(x) for x in a]
    q = [Fraction(0)] * max(len(a) - len(m) + 1, 1)
    for k in range(len(a) - len(m), -1, -1):
        c = a[k + len(m) - 1] / m[-1]
        q[k] = c
        for j, y in enumerate(m):
            a[k + j] -= c * y
    return q, a[: len(m) - 1]


@lru_cache(maxsize=None)
def reference_cyclotomic(n):
    num, den = [Fraction(1)], [Fraction(1)]
    for d in range(1, n + 1):
        if n % d == 0 and _mobius(n // d):
            factor = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
            if _mobius(n // d) > 0:
                num = _pmul(num, factor)
            else:
                den = _pmul(den, factor)
    quot, rem = _pdivmod(num, den)
    assert not any(rem)
    while quot[-1] == 0:
        quot.pop()
    return tuple(quot)


def ref_reduce(poly, n):
    phi = reference_cyclotomic(n)
    _, rem = _pdivmod(list(poly) + [Fraction(0)] * len(phi), phi)
    return rem


def ref_lift(order, coeffs, n):
    """A value given in the power basis of zeta_order, as a value at order n."""
    step = n // order
    poly = [Fraction(0)] * (step * len(coeffs))
    for i, c in enumerate(coeffs):
        poly[i * step] = Fraction(c)
    return ref_reduce(poly, n)


def ref_of(x, n):
    """A CycScalar's value at order n (a multiple of its order)."""
    return ref_lift(x.order, [Fraction(a, b) for a, b in x.coeffs], n)


def ref_mul(a, b, n):
    return ref_reduce(_pmul(a, b), n)


def _galois(a, k, n):
    """The automorphism zeta_n -> zeta_n**k applied to a."""
    poly = [Fraction(0)] * (k * len(a))
    for i, c in enumerate(a):
        poly[i * k] += c
    return ref_reduce(poly, n)


def ref_inv(a, n):
    """a**-1 = (product of the other conjugates of a) / norm(a)."""
    others = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for k in range(2, n):
        if gcd(k, n) == 1:
            others = ref_mul(others, _galois(a, k, n), n)
    norm = ref_mul(a, others, n)
    assert not any(norm[1:]) and norm[0]
    return [c / norm[0] for c in others]


def ref_smallest_field(a, n):
    """Smallest m | n with a in Q(zeta_m): a is fixed by every zeta_n -> zeta_n**k
    with k = 1 mod m."""
    for m in range(1, n + 1):
        if n % m == 0 and all(
            _galois(a, k, n) == a for k in range(1, n) if gcd(k, n) == 1 and k % m == 1 % m
        ):
            return m


def sweedler_r(ru):
    """A triangular structure of the Sweedler algebra (basis 1, x, g, gx,
    as modified_supergroup_algebra builds it) other than R_u, written out
    by hand: R_u + (1/2)(-x (x) x + x (x) gx - gx (x) x - gx (x) gx)."""
    half = CycScalar.from_rational(1, 2)
    return ru + Tensor2.from_dict(
        4, {(1, 1): -half, (1, 3): half, (3, 1): -half, (3, 3): -half}
    )
