"""Independent oracles, kept apart from the library code paths.

The radical oracle computes the maximal nilpotent ideal reachable from
a sweep of candidate generators: for each candidate x it builds the
two-sided principal ideal of x by closure under basis multiplication
and keeps it when the ideal is nilpotent (every nilpotent ideal sits
inside the radical).  The oracle is the sum of the kept ideals; no
trace form is involved anywhere.  The tensor oracles expand products,
embeddings and flips in tensor powers of H one pure tensor at a time.
"""

from itertools import product

from trihopf.scalars import SC_ZERO
from trihopf.tensor import Vec, in_span, span_echelon


def _mul_basis_vec(h, i, v, side):
    out = [SC_ZERO] * h.dim
    for j, c in v.nonzeros():
        pairs = h.mult[i][j] if side == "left" else h.mult[j][i]
        for k, w in pairs:
            out[k] = out[k] + c * w
    return Vec(out)


def principal_ideal(h, x):
    """Basis of the two-sided ideal generated by x."""
    basis = []
    ech, pivots = span_echelon(basis)
    frontier = []
    if not x.is_zero():
        basis.append(x)
        ech, pivots = span_echelon(basis)
        frontier.append(x)
    while frontier:
        new = []
        for v in frontier:
            for i in range(h.dim):
                for side in ("left", "right"):
                    w = _mul_basis_vec(h, i, v, side)
                    if not w.is_zero() and not in_span(ech, pivots, w):
                        basis.append(w)
                        ech, pivots = span_echelon(basis)
                        new.append(w)
        frontier = new
    return basis


def ideal_is_nilpotent(h, ideal_basis):
    """Powers of a two-sided ideal descend; nilpotent iff they hit zero."""
    current = list(ideal_basis)
    for _ in range(h.dim + 1):
        if not current:
            return True
        nxt = []
        ech, pivots = span_echelon(nxt)
        for a in current:
            for b in ideal_basis:
                prod = h.mul_vec(a, b)
                if not prod.is_zero() and not in_span(ech, pivots, prod):
                    nxt.append(prod)
                    ech, pivots = span_echelon(nxt)
        current = nxt
    return not current


def bruteforce_radical(h):
    """Maximal nilpotent ideal from a generator sweep (no trace form).

    Sound from below for any algebra; spans the full radical on the
    catalog instances, whose radicals are generated by combinations of
    at most two basis vectors.
    """
    candidates = [Vec.basis(h.dim, i) for i in range(h.dim)]
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            candidates.append(Vec.basis(h.dim, i) + Vec.basis(h.dim, j))
            candidates.append(Vec.basis(h.dim, i) - Vec.basis(h.dim, j))
    total = []
    ech, pivots = span_echelon(total)
    for x in candidates:
        if in_span(ech, pivots, x):
            continue
        ideal = principal_ideal(h, x)
        if ideal_is_nilpotent(h, ideal):
            for v in ideal:
                if not in_span(ech, pivots, v):
                    total.append(v)
                    ech, pivots = span_echelon(total)
    return total


def same_span(vectors_a, vectors_b):
    if not vectors_a and not vectors_b:
        return True
    ea, pa = span_echelon(list(vectors_a))
    eb, pb = span_echelon(list(vectors_b))
    return all(in_span(ea, pa, v) for v in vectors_b) and all(
        in_span(eb, pb, v) for v in vectors_a
    )


# --- tensor powers of H, expanded one pure tensor at a time ---------------
#
# Tensors are dicts from index tuples to coefficients.  Products go
# through h.mul_vec on basis vectors and coproducts read h.comult
# directly, so none of this shares code with trihopf.tensor.

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
    for ka, ca in a.items():
        for kb, cb in b.items():
            coef = ca * cb
            if h.super:
                odd = sum(
                    h.parity[ka[l]] * h.parity[kb[m]] for l in range(len(ka)) for m in range(l)
                )
                if odd % 2:
                    coef = -coef
            factors = [
                h.mul_vec(Vec.basis(h.dim, i), Vec.basis(h.dim, j)).nonzeros()
                for i, j in zip(ka, kb)
            ]
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
            for k, u in h.unit.nonzeros():
                key = {"12": (i, j, k), "13": (i, k, j), "23": (k, i, j)}[pattern]
                _add(out, key, c * u)
        elif pattern == "delta_id":
            for p, q, w in h.comult[i]:
                _add(out, (p, q, j), c * w)
        else:
            for p, q, w in h.comult[j]:
                _add(out, (i, p, q), c * w)
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
