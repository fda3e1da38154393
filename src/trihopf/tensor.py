"""Exact linear algebra over H and sparse tensors in H, H (x) H and H (x) H (x) H.

Elements and tensors hold CycScalar entries and are immutable after
construction.  Vec (an element of H), Tensor2 and Tensor3 are one
sparse tensor type at arities 1, 2 and 3: a dict from key to nonzero
coefficient, one constructor that sums repeated keys and drops zeros,
and one sum, difference, negation, scaling and equality.  That
constructor is the one sparse sum of the package: a product in H, an
exterior expansion in Lambda(V), a composed column and a twist's partial
sum are handed to it as raw (key, coefficient) terms.  The key of a
Vec is its plain basis index, so Vec.nonzeros is a SparseRow, the
layout of a column of a linear map: (a, c) pairs in increasing a.  A
linear map (the antipode of a HopfData, the matrix rho(g) of a
representation) is held as those sparse columns; compose_columns and
is_identity_columns act on them, and columns_from_rows and
rows_from_columns convert to and from the dense rows of the dump
format.  Dense forms exist only there: a matrix as rows, a vector as
Vec.from_entries and Vec.entries.  Every elimination goes through one
sparse reduced row echelon basis, Echelon, with one field inverse per
pivot: rank, kernel and solution of a linear system, span membership,
the generating set and radical of a Hopf algebra, and the minimal
polynomial behind an inverse in H (x) H.  An element of H (x) H is a
Tensor2 at every interface, the coproduct Delta(e_i) = HopfData.comult[i]
included.  Every sum, embedding and flip in H (x) H and H (x) H (x) H
goes through the one constructor, except the two products, the hot
path: tensor2_mul and tensor3_mul check their factors against a host,
iterate the nonzeros through its sparse structure tensor, with Koszul
signs when the host is a superalgebra, and accumulate their terms in
place in one dict; scalars are canonical, so the order of
summation changes no coefficient and no dumped byte.  The product of
two elements of H is HopfData.mul_vec.  An inverse in H (x) H is a
polynomial in the element, read off its minimal polynomial, so it needs
no linear system over H (x) H.
"""

from __future__ import annotations

from itertools import chain, product
from typing import TYPE_CHECKING, Iterable, Optional

from .errors import NotInvertible, ShapeError
from .scalars import SC_ONE, SC_ZERO, CycScalar

if TYPE_CHECKING:  # pragma: no cover
    from .hopf import HopfData


# ---------------------------------------------------------------------------
# linear maps as sparse columns

SparseRow = tuple[tuple[int, CycScalar], ...]


def compose_columns(outer, inner) -> tuple[SparseRow, ...]:
    """Sparse columns of the linear map outer o inner, each map given by
    its sparse columns (as HopfData.antipode); outer is square, as S and
    rho(g) are, while inner may map from another dimension."""
    return tuple(
        Vec(len(outer), ((k, c * w) for t, c in col for k, w in outer[t])).nonzeros
        for col in inner
    )


def columns_from_rows(rows) -> tuple[SparseRow, ...]:
    """Sparse columns of the square matrix given by its rows."""
    return tuple(
        tuple((a, c) for a, row in enumerate(rows) if not (c := row[b]).is_zero())
        for b in range(len(rows))
    )


def rows_from_columns(cols) -> list[list[CycScalar]]:
    """Rows of the square matrix given by its sparse columns, zeros filled in."""
    dicts = [dict(col) for col in cols]
    return [[col.get(a, SC_ZERO) for col in dicts] for a in range(len(cols))]


def is_identity_columns(cols) -> bool:
    """True when the sparse columns are those of the identity map."""
    return all(
        len(col) == 1 and col[0][0] == i and col[0][1] == SC_ONE for i, col in enumerate(cols)
    )


# ---------------------------------------------------------------------------
# elimination

class Echelon:
    """Reduced row echelon basis of a growing span, stored sparsely.

    A vector is a dict, or (label, coefficient) pairs, from any sortable
    label (a column index, or an (i, j) pair of H (x) H) to a CycScalar.
    Each row is 1 at its pivot, its least label, and 0 at every other
    row's pivot, so the rows are unique for the span and reducing a
    vector is one pass over the rows in any order.
    """

    __slots__ = ("rows",)

    def __init__(self, vectors: Iterable = ()):
        self.rows: dict = {}  # pivot -> row, nonzeros only
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> dict:
        """The nonzeros of vec minus its part in the span."""
        out = dict(vec)
        for p, row in self.rows.items():
            f = out.get(p)
            if f is None or f.is_zero():
                continue
            for j, c in row.items():
                out[j] = out.get(j, SC_ZERO) - f * c
        return {j: c for j, c in out.items() if not c.is_zero()}

    def add(self, vec):
        """Extend the span by vec; the new pivot, or None if vec was in the span."""
        rest = self.reduce(vec)
        if not rest:
            return None
        p = min(rest)
        inv = rest[p].inv()
        new = {j: c * inv for j, c in rest.items()}
        for q, row in self.rows.items():
            f = row.get(p)
            if f is None:
                continue
            for j, c in new.items():
                row[j] = row.get(j, SC_ZERO) - f * c
            self.rows[q] = {j: c for j, c in row.items() if not c.is_zero()}
        self.rows[p] = new
        return p

    def kernel(self, ncols: int) -> list[Vec]:
        """Null-space basis of the rows, over column labels 0..ncols-1.

        One basis vector per free (non-pivot) column f: x_f = 1, the
        other free coordinates 0, and x_p = -row[f] for the pivot p of
        each row.  An empty list means the rows have full column rank.
        """
        basis = []
        for f in range(ncols):
            if f not in self.rows:
                x = {p: -row[f] for p, row in self.rows.items() if f in row}
                x[f] = SC_ONE
                basis.append(Vec._from_sums(ncols, x))
        return basis

    def solution(self, n: int) -> Optional[Vec]:
        """The solution of the reduced system in the unknowns 0..n-1 whose
        right-hand side is the label n, with every free unknown 0, or None.

        None means the system is inconsistent: a row has its pivot at n.
        """
        if n in self.rows:
            return None
        return Vec._from_sums(n, {p: row[n] for p, row in self.rows.items() if n in row})


# ---------------------------------------------------------------------------
# H and its tensor square and cube

class _SparseTensor:
    """Element of a tensor power of H, stored by its nonzero coefficients.

    The coefficients sit in a dict from key to a nonzero CycScalar; zeros
    are never stored.  The key is the index tuple (one basis index per
    tensor factor), or the plain basis index for Vec.  The constructor
    takes (key, coefficient) terms, sums repeated keys and drops what
    cancels; it trusts its indices, so input from outside the program
    goes through from_dict, which checks them, or for a Vec through
    from_entries, whose indices are the positions of a dense list.
    """

    __slots__ = ("dim", "_coef", "_nz")
    arity = 0

    def __init__(self, dim: int, terms: Iterable):
        coef: dict = {}
        get = coef.get
        for key, c in terms:
            cur = get(key)
            coef[key] = c if cur is None else cur + c
        self.dim = dim
        self._coef = {k: c for k, c in coef.items() if not c.is_zero()}
        self._nz = None

    @classmethod
    def _from_sums(cls, dim: int, coef: dict):
        """A tensor from coefficients already summed per index, as the
        in-place products accumulate them; only the zeros are dropped."""
        self = object.__new__(cls)
        self.dim = dim
        self._coef = {k: c for k, c in coef.items() if not c.is_zero()}
        self._nz = None
        return self

    @property
    def nonzeros(self):
        """(index..., coefficient) tuples in increasing index order."""
        if self._nz is None:
            self._nz = tuple(key + (c,) for key, c in sorted(self._coef.items()))
        return self._nz

    @classmethod
    def from_dict(cls, dim: int, entries: dict):
        """Checked constructor: one index per factor, each in 0..dim-1."""
        for key in entries:
            if (
                not isinstance(key, tuple)
                or len(key) != cls.arity
                or not all(0 <= i < dim for i in key)
            ):
                raise ShapeError(
                    f"index {key!r} out of range for {cls.__name__} of dimension {dim}"
                )
        return cls(dim, entries.items())

    @classmethod
    def outer(cls, *vecs: Vec):
        """The pure tensor v_1 (x) ... (x) v_arity."""
        if len(vecs) != cls.arity or any(v.dim != vecs[0].dim for v in vecs):
            raise ShapeError("outer product of mismatched vectors")
        terms = []
        for factors in product(*(v.nonzeros for v in vecs)):
            c = factors[0][1]
            for _, b in factors[1:]:
                c = c * b
            terms.append((tuple(i for i, _ in factors), c))
        return cls(vecs[0].dim, terms)

    def get(self, *index: int) -> CycScalar:
        return self._coef.get(index, SC_ZERO)

    def _check_same_shape(self, other):
        if type(other) is not type(self) or self.dim != other.dim:
            raise ShapeError("tensor dimension mismatch")

    def __add__(self, other):
        self._check_same_shape(other)
        return type(self)(self.dim, chain(self._coef.items(), other._coef.items()))

    def __sub__(self, other):
        self._check_same_shape(other)
        return type(self)(
            self.dim, chain(self._coef.items(), ((k, -c) for k, c in other._coef.items()))
        )

    def __neg__(self):
        return type(self)(self.dim, ((k, -c) for k, c in self._coef.items()))

    def scale(self, c: CycScalar):
        return type(self)(self.dim, ((k, c * a) for k, a in self._coef.items()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.dim == other.dim and self._coef == other._coef

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, nnz={len(self._coef)})"


class Vec(_SparseTensor):
    """Element of H in its fixed basis: the arity-1 sparse tensor, keyed
    by the plain basis index, so that nonzeros is a SparseRow and
    Vec(dim, column) takes a column of a linear map as it is."""

    __slots__ = ()
    arity = 1

    @classmethod
    def basis(cls, dim: int, i: int) -> "Vec":
        if not 0 <= i < dim:
            raise ShapeError(f"basis index {i} out of range for dimension {dim}")
        return cls._from_sums(dim, {i: SC_ONE})

    @classmethod
    def from_entries(cls, entries: Iterable[CycScalar]) -> "Vec":
        """The element with the given dense coefficients (the wire form)."""
        entries = tuple(entries)
        return cls._from_sums(len(entries), dict(enumerate(entries)))

    @property
    def entries(self) -> tuple[CycScalar, ...]:
        """The dense coefficients, zeros filled in."""
        return tuple(self.get(i) for i in range(self.dim))

    @property
    def nonzeros(self) -> SparseRow:
        """(index, coefficient) pairs in increasing index order."""
        if self._nz is None:
            self._nz = tuple(sorted(self._coef.items()))
        return self._nz

    def get(self, i: int) -> CycScalar:
        return self._coef.get(i, SC_ZERO)


class Tensor2(_SparseTensor):
    """Element of H (x) H."""

    __slots__ = ()
    arity = 2


class Tensor3(_SparseTensor):
    """Element of H (x) H (x) H; verification workspace only."""

    __slots__ = ()
    arity = 3


def tensor2_mul(a: Tensor2, b: Tensor2, host: "HopfData") -> Tensor2:
    """Product in the algebra H (x) H.

    Componentwise through the host structure tensor; when the host is
    super the Koszul sign (-1)**(|a2||b1|) applies per term.
    """
    if a.dim != b.dim or a.dim != host.dim:
        raise ShapeError("tensor/host dimension mismatch")
    mult = host.mult
    parity = host.parity if host.super else None
    coef: dict = {}
    get = coef.get
    right = b.nonzeros
    for i, j, ca in a.nonzeros:
        odd_j = parity is not None and parity[j]
        row_i, row_j = mult[i], mult[j]
        for p, q, cb in right:
            m_ip, m_jq = row_i[p], row_j[q]
            if not m_ip or not m_jq:
                continue
            c = ca * cb
            if odd_j and parity[p]:
                c = -c
            for k, c1 in m_ip:
                left = c * c1
                for l, c2 in m_jq:
                    key = (k, l)
                    v = left * c2
                    cur = get(key)
                    coef[key] = v if cur is None else cur + v
    return Tensor2._from_sums(a.dim, coef)


def tensor3_mul(a: Tensor3, b: Tensor3, host: "HopfData") -> Tensor3:
    if a.dim != b.dim or a.dim != host.dim:
        raise ShapeError("tensor/host dimension mismatch")
    mult = host.mult
    parity = host.parity
    signed = host.super
    coef: dict = {}
    get = coef.get
    right = b.nonzeros
    for i1, i2, i3, ca in a.nonzeros:
        p2, p3 = parity[i2], parity[i3]
        row1, row2, row3 = mult[i1], mult[i2], mult[i3]
        for j1, j2, j3, cb in right:
            m1, m2, m3 = row1[j1], row2[j2], row3[j3]
            if not m1 or not m2 or not m3:
                continue
            c = ca * cb
            if signed:
                q1, q2 = parity[j1], parity[j2]
                if (p2 * q1 + p3 * (q1 + q2)) % 2:
                    c = -c
            for k1, c1 in m1:
                left1 = c * c1
                for k2, c2 in m2:
                    left2 = left1 * c2
                    for k3, c3 in m3:
                        key = (k1, k2, k3)
                        v = left2 * c3
                        cur = get(key)
                        coef[key] = v if cur is None else cur + v
    return Tensor3._from_sums(a.dim, coef)


def flip(a: Tensor2, host: Optional["HopfData"] = None) -> Tensor2:
    """Swap the tensor factors; Koszul sign when the host is super."""
    parity = host.parity if host is not None and host.super else None
    return Tensor2(
        a.dim,
        (
            ((j, i), -c if parity is not None and parity[i] and parity[j] else c)
            for i, j, c in a.nonzeros
        ),
    )


def unit_tensor2(host: "HopfData") -> Tensor2:
    return Tensor2.outer(host.unit, host.unit)


def embed13_23_12(a: Tensor2, pattern: str, host: "HopfData") -> Tensor3:
    """Canonical image of a tensor square inside H (x) H (x) H.

    Patterns: "12", "13", "23" insert the unit into the remaining slot;
    "delta_id" applies comultiplication to the first factor, "id_delta"
    to the second.
    """
    if a.dim != host.dim:
        raise ShapeError("tensor/host dimension mismatch")
    unit_nz = host.unit.nonzeros
    comult = host.comult
    if pattern == "12":
        terms = (((i, j, k), c * u) for i, j, c in a.nonzeros for k, u in unit_nz)
    elif pattern == "13":
        terms = (((i, k, j), c * u) for i, j, c in a.nonzeros for k, u in unit_nz)
    elif pattern == "23":
        terms = (((k, i, j), c * u) for i, j, c in a.nonzeros for k, u in unit_nz)
    elif pattern == "delta_id":
        terms = (((p, q, j), c * w) for i, j, c in a.nonzeros for p, q, w in comult[i].nonzeros)
    elif pattern == "id_delta":
        terms = (((i, p, q), c * w) for i, j, c in a.nonzeros for p, q, w in comult[j].nonzeros)
    else:
        raise ShapeError(f"unknown slot pattern {pattern!r}")
    return Tensor3(a.dim, terms)


def tensor2_inv(a: Tensor2, host: "HopfData") -> Tensor2:
    """Two-sided inverse of a in the algebra H (x) H.

    a is a root of its minimal polynomial sum_t c_t a^t.  Each power a^t
    joins one echelon with the tag (dim, t), which sorts after every
    index pair, so the first power whose residue is tags only gives the
    polynomial, scaled to its least nonzero coefficient.  c_0 = 0 makes
    a a zero divisor; otherwise a^-1 = -c_0^-1 sum_{t>=1} c_t a^(t-1).
    The candidate is multiplied back on both sides before it is
    returned.
    """
    if a.dim != host.dim:
        raise ShapeError("tensor/host dimension mismatch")
    dim = a.dim
    unit2 = unit_tensor2(host)
    span = Echelon()
    powers = [unit2]
    while True:
        t = len(powers) - 1
        pivot = span.add(chain(powers[t]._coef.items(), (((dim, t), SC_ONE),)))
        if pivot[0] == dim:
            break
        powers.append(tensor2_mul(powers[t], a, host))
    if pivot != (dim, 0):
        raise NotInvertible("tensor is a zero divisor in H(x)H")
    # span.rows[pivot] is c_0^-1 sum_t c_t (dim, t)
    inv = Tensor2(
        dim,
        (
            ((i, j), -c * x)
            for (_, s), c in span.rows[pivot].items()
            if s
            for (i, j), x in powers[s - 1]._coef.items()
        ),
    )
    # certify two-sidedness
    if tensor2_mul(a, inv, host) != unit2 or tensor2_mul(inv, a, host) != unit2:
        raise NotInvertible("tensor has no two-sided inverse in H(x)H")
    return inv
