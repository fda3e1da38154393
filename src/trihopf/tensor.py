"""Exact linear algebra over H and sparse tensors in H, H (x) H and H (x) H (x) H.

Vec (an element of H), Tensor2 and Tensor3 are one sparse tensor type
at arities 1, 2 and 3, immutable after construction.  A tensor holds
its coefficients the way a CycScalar holds one value: one field order
N, one positive denominator, and per key an integer numerator (an int
at N = 1, else a tuple over the power basis of Q(zeta_N)), canonical
after every construction: zeros dropped, N demoted to 1 when every
numerator's tail vanishes, and the gcd of the denominator and every
numerator divided out.  So equality and the dumped bytes do not depend
on the path that made a tensor.  There is one sparse sum (_sum_ints):
the constructor hands it (key, CycScalar) terms converted to integers
over their common order and denominator, and sum, difference,
negation, scaling, flip and every linear map hand it integer terms.

A linear map is a tuple of columns, cols[k] the image of e_k: Vecs for
a map into H (the antipode S, S^2, rho(g) of a representation, the
vectors Y of a septuple), Tensor2s for a map into H (x) H (the
coproduct Delta, x -> x (x) 1).  apply_map applies one to one leg of a
Vec, Tensor2 or Tensor3 on integer numerators, so composing maps,
Delta(x), (S (x) id)(t) and the embeddings into H (x) H (x) H
(embed13_23_12) are one function; contract applies a covector (the
counit, the trace of left multiplication), a Vec read as a row, the
same way.  The products Algebra.mul_vec, HopfData.mul_legs (m(t) for
t in H (x) H), tensor2_mul and tensor3_mul run one integer kernel each
on the numerators and on the host's mult, a Tensor3 keyed (i, j, k),
laid out by (i, j) (IntCells, made once per hopf.Algebra as
Algebra.mult_ints), with Koszul signs when the host is a
superalgebra.  At N = 1 that is one kernel call.  At N > 1 the
operands and the table are split by powers of zeta_N, and the kernel's
results are shifted by their power and reduced mod Phi_N with the
scalar kernel's own root_of_unity and _embed.  A coefficient becomes a
CycScalar only when nonzeros or get reads it, so CycScalar is the one
scalar type at every interface (Echelon, the builders); the dump
writers of serialize render the numerators themselves (_coefficient).

The key of a Vec is its plain basis index, so Vec.nonzeros is (a, c)
pairs in increasing a.  Dense forms exist only in the dump format, a
vector or a column as Vec.from_entries and Vec.entries.
Every elimination goes through one sparse reduced row echelon basis,
Echelon, with one field inverse per pivot: rank and kernel of a linear
system, span membership, the generating set and radical of a Hopf
algebra, and the minimal polynomial behind every inverse.  An element
of H or of H (x) H is invertible exactly when the constant term of its
minimal polynomial is not 0, and its inverse is then a polynomial in
it, so one routine (_polynomial_inverse) inverts in both and sets up no
linear system.  Outside CycScalar itself, Echelon is the only code
that multiplies CycScalars.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain, product
from math import gcd, lcm, prod
from operator import add, mul
from typing import TYPE_CHECKING, Iterable, Optional

from .errors import NotInvertible, ShapeError
from .scalars import (
    SC_ONE,
    SC_ZERO,
    CycScalar,
    _embed,
    _make,
    _mul_nums,
    _scalar,
    euler_phi,
    root_of_unity,
)

if TYPE_CHECKING:  # pragma: no cover
    from .hopf import Algebra, Coalgebra, HopfData


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
                basis.append(Vec(ncols, tuple(x.items())))
        return basis


# ---------------------------------------------------------------------------
# the integer form of sparse coefficients

def _canonical(order: int, den: int, num: dict):
    """(order, den, num) with the zeros dropped, the order demoted to 1 when
    every numerator's tail vanishes, and the gcd of den and every numerator
    divided out, so that equal tensors at one order have equal fields."""
    if order != 1:
        num = {k: v for k, v in num.items() if any(v)}
        if any(any(v[1:]) for v in num.values()):
            g = gcd(den, *chain.from_iterable(num.values()))
            return order, den // g, {k: tuple(x // g for x in v) for k, v in num.items()}
        order, num = 1, {k: v[0] for k, v in num.items()}
    elif 0 in num.values():
        num = {k: v for k, v in num.items() if v}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            return 1, den // g, {k: v // g for k, v in num.items()}
    return 1, den, num


def _sum_ints(order: int, den: int, terms: Iterable):
    """The one sparse sum: (key, numerator) terms over den at order, a
    repeated key summed, made canonical."""
    num: dict = {}
    get = num.get
    if order == 1:
        for key, v in terms:
            num[key] = get(key, 0) + v
    else:
        for key, v in terms:
            cur = get(key)
            num[key] = v if cur is None else [x + y for x, y in zip(cur, v)]
    return _canonical(order, den, num)


def _lift(t, order: int, factor: int = 1) -> dict:
    """The numerators of t at order, a multiple of t.order, times factor:
    ints at order 1, else tuples."""
    n, num = t.order, t._num
    if order == 1:
        return num if factor == 1 else {k: factor * v for k, v in num.items()}
    if n == 1:
        pad = (0,) * (euler_phi(order) - 1)
        return {k: (factor * v,) + pad for k, v in num.items()}
    if n == order and factor == 1:
        return num
    return {k: tuple(factor * x for x in _embed(v, n, order)) for k, v in num.items()}


def _components(t, order: int) -> list:
    """[(s, the integer coefficients of zeta**s)] of t at order, a multiple
    of t.order, the empty ones left out."""
    if t.order == 1:
        return [(0, t._num)] if t._num else []
    parts: list[dict] = [{} for _ in range(euler_phi(order))]
    for k, v in _lift(t, order).items():
        for s, x in enumerate(v):
            if x:
                parts[s][k] = x
    return [(s, p) for s, p in enumerate(parts) if p]


@lru_cache(maxsize=None)
def _power(order: int, e: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (s, x) of zeta_order**e over the power basis."""
    z = root_of_unity(order, e)
    return tuple((s, x) for s, x in enumerate(_embed(z.nums, z.order, order)) if x)


class IntCells:
    """A structure table, the Tensor3 hopf.Algebra.mult keyed (i, j, k),
    in the integer form of a sparse tensor: one order, one positive
    denominator, and rows[i][j] the (k, numerator) of e_i e_j, laid out
    once per algebra as hopf.Algebra.mult_ints."""

    __slots__ = ("order", "den", "rows", "_parts")

    def __init__(self, table: "Tensor3"):
        self.order, self.den = table.order, table.den
        cells: list = [[[] for _ in range(table.dim)] for _ in range(table.dim)]
        for (i, j, k), v in table._num.items():
            cells[i][j].append((k, v))
        shared: dict = {}  # one object per distinct cell
        self.rows = tuple(tuple(shared.setdefault(c, c) for c in map(tuple, row)) for row in cells)
        self._parts: dict = {}

    def products(self, i: int) -> tuple["Vec", ...]:
        """The Vecs e_i e_j for every j: the columns of x -> e_i x."""
        order, den, dim = self.order, self.den, len(self.rows)
        return tuple(Vec._of(dim, *_canonical(order, den, dict(cell))) for cell in self.rows[i])

    def left_multiplication(self) -> tuple["Tensor2", ...]:
        """L[i], the map x -> e_i x as a Tensor2 keyed (j, k), so L holds
        the columns of the map x -> (left multiplication by x) from H to
        H (x) H; hopf._associativity_witness compares L_{e_i e_j} with
        L_{e_i} o L_{e_j} on it."""
        order, den, dim = self.order, self.den, len(self.rows)
        return tuple(
            Tensor2._of(dim, *_canonical(
                order, den, {(j, k): v for j, cell in enumerate(row) for k, v in cell}
            ))
            for row in self.rows
        )

    def components(self, order: int) -> list:
        """[(r, rows_r)]: the table at order, a multiple of self.order,
        split by the power r of zeta_order; rows_r holds integers, and an
        empty rows_r is left out."""
        parts = self._parts.get(order)
        if parts is None:
            if self.order == 1:
                parts = [(0, self.rows)]
            else:
                split = [
                    [[[] for _ in row] for row in self.rows] for _ in range(euler_phi(order))
                ]
                for i, row in enumerate(self.rows):
                    for j, cell in enumerate(row):
                        for k, v in cell:
                            for r, x in enumerate(_embed(v, self.order, order)):
                                if x:
                                    split[r][i][j].append((k, x))
                parts = [
                    (r, tuple(tuple(tuple(cell) for cell in row) for row in rows))
                    for r, rows in enumerate(split)
                    if any(cell for row in rows for cell in row)
                ]
            self._parts[order] = parts
        return parts


@lru_cache(maxsize=4096)
def _rational(num: int, den: int) -> CycScalar:
    """The CycScalar num/den, den > 0, one object per value: the few
    values of a structure table are shared by its cells."""
    g = gcd(num, den)
    return _scalar(1, (num // g,), den // g)


def _coefficient(order: int, den: int, v) -> CycScalar:
    """The CycScalar of the numerator v of a tensor at order over den."""
    if order == 1:
        return _rational(v, den)
    return _make(order, v, den)


# ---------------------------------------------------------------------------
# H and its tensor square and cube

_new = object.__new__


class _SparseTensor:
    """Element of a tensor power of H, stored by its nonzero coefficients.

    The coefficients are held the way a CycScalar holds one value: one
    field order, one positive denominator, and per key an integer
    numerator (an int at order 1, else a tuple over the power basis of
    Q(zeta_order)); zeros are never stored, and the fields are canonical
    (see _canonical).  The key is the index tuple (one basis index per
    tensor factor), or the plain basis index for Vec.  The constructor
    takes (key, CycScalar) terms, sums repeated keys and drops what
    cancels; it trusts its indices, so input from outside the program
    goes through from_dict, which checks them, or for a Vec through
    from_entries, whose indices are the positions of a dense list.  A
    coefficient becomes a CycScalar only when nonzeros or get reads it.
    """

    __slots__ = ("dim", "order", "den", "_num", "_nz")
    arity = 0

    def __init__(self, dim: int, terms: Iterable):
        terms = terms if isinstance(terms, (list, tuple)) else list(terms)
        order = lcm(1, *{c.order for _, c in terms})
        den = lcm(1, *{c.den for _, c in terms})
        if order == 1:
            ints = ((k, c.nums[0] * (den // c.den)) for k, c in terms)
        else:
            ints = (
                (k, tuple(x * (den // c.den) for x in _embed(c.nums, c.order, order)))
                for k, c in terms
            )
        self.dim = dim
        self.order, self.den, self._num = _sum_ints(order, den, ints)
        self._nz = None

    @classmethod
    def _of(cls, dim: int, order: int, den: int, num: dict):
        """A tensor from fields that are canonical already."""
        self = _new(cls)
        self.dim, self.order, self.den, self._num, self._nz = dim, order, den, num, None
        return self

    def _value(self, v) -> CycScalar:
        """The CycScalar of the numerator v."""
        return _coefficient(self.order, self.den, v)

    @property
    def nonzeros(self):
        """(index..., coefficient) tuples in increasing index order."""
        if self._nz is None:
            s = self._value
            self._nz = tuple(key + (s(v),) for key, v in sorted(self._num.items()))
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
        if cls.arity == 1:  # a Vec is keyed by the plain index
            entries = {i: c for (i,), c in entries.items()}
        return cls(dim, entries.items())

    @classmethod
    def outer(cls, *vecs: Vec):
        """The pure tensor v_1 (x) ... (x) v_arity, on integer numerators."""
        if len(vecs) != cls.arity or any(v.dim != vecs[0].dim for v in vecs):
            raise ShapeError("outer product of mismatched vectors")
        order = lcm(*(v.order for v in vecs))
        times = mul if order == 1 else (lambda u, v: _mul_nums(u, v, order))
        first = _lift(vecs[0], order).items()
        terms = list(first) if cls.arity == 1 else [((i,), x) for i, x in first]
        for v in vecs[1:]:
            terms = [(key + (i,), times(c, x)) for key, c in terms for i, x in _lift(v, order).items()]
        return cls._of(vecs[0].dim, *_sum_ints(order, prod(v.den for v in vecs), terms))

    def get(self, *index: int) -> CycScalar:
        v = self._num.get(index)
        return SC_ZERO if v is None else self._value(v)

    def _check_same_shape(self, other):
        if type(other) is not type(self) or self.dim != other.dim:
            raise ShapeError("tensor dimension mismatch")

    def _combine(self, other, sign: int):
        self._check_same_shape(other)
        order, den = lcm(self.order, other.order), lcm(self.den, other.den)
        left = _lift(self, order, den // self.den)
        right = _lift(other, order, sign * (den // other.den))
        return self._of(self.dim, *_sum_ints(order, den, chain(left.items(), right.items())))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._of(self.dim, self.order, self.den, _lift(self, self.order, -1))

    def scale(self, c: CycScalar):
        order = lcm(self.order, c.order)
        if order == 1:
            x = c.nums[0]
            num = {k: x * v for k, v in self._num.items()}
        else:
            x = _embed(c.nums, c.order, order)
            num = {k: _mul_nums(v, x, order) for k, v in _lift(self, order).items()}
        return self._of(self.dim, *_canonical(order, self.den * c.den, num))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self.order == other.order:
            return self.den == other.den and self._num == other._num
        if self.order == 1 or other.order == 1:
            return False  # canonical: only one side has an irrational coefficient
        k = lcm(self.order, other.order)
        return _lift(self, k, other.den) == _lift(other, k, self.den)

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, nnz={len(self._num)})"


class Vec(_SparseTensor):
    """Element of H in its fixed basis: the arity-1 sparse tensor, keyed
    by the plain basis index, so that nonzeros is (index, coefficient)
    pairs and Vec(dim, column) takes a column of a linear map as it is."""

    __slots__ = ()
    arity = 1

    @classmethod
    def basis(cls, dim: int, i: int) -> "Vec":
        if not 0 <= i < dim:
            raise ShapeError(f"basis index {i} out of range for dimension {dim}")
        return cls._of(dim, 1, 1, {i: 1})

    @classmethod
    def from_entries(cls, entries: Iterable[CycScalar]) -> "Vec":
        """The element with the given dense coefficients (the wire form)."""
        entries = tuple(entries)
        return cls(len(entries), tuple(enumerate(entries)))

    @property
    def entries(self) -> tuple[CycScalar, ...]:
        """The dense coefficients, zeros filled in."""
        out = [SC_ZERO] * self.dim
        for i, c in self.nonzeros:
            out[i] = c
        return tuple(out)

    @property
    def nonzeros(self) -> tuple[tuple[int, CycScalar], ...]:
        """(index, coefficient) pairs in increasing index order."""
        if self._nz is None:
            s = self._value
            self._nz = tuple((i, s(v)) for i, v in sorted(self._num.items()))
        return self._nz

    def get(self, i: int) -> CycScalar:
        v = self._num.get(i)
        return SC_ZERO if v is None else self._value(v)


class Tensor2(_SparseTensor):
    """Element of H (x) H."""

    __slots__ = ()
    arity = 2


class Tensor3(_SparseTensor):
    """Element of H (x) H (x) H; verification workspace only."""

    __slots__ = ()
    arity = 3


_ARITY = {1: Vec, 2: Tensor2, 3: Tensor3}


# ---------------------------------------------------------------------------
# products through the host's structure table, on integers

def _product(kernel, operands, cls, algebra: "Algebra"):
    """The element of cls that an integer kernel(numerators of each
    operand, one table per leg of cls, parity) computes from the
    operands, each over the algebra's dimension, and its mult_ints.

    At order 1 that is one kernel call.  At an order N > 1, the operands
    and the table are split by powers of zeta_N (_components), the kernel
    runs once per choice of a nonempty component of each operand and of
    the table on each leg, and each result joins the sum shifted by its
    power of zeta_N, reduced mod Phi_N (_power).
    """
    cells, dim, n = algebra.mult_ints, algebra.dim, len(operands)
    order, den, nums = cells.order, cells.den ** cls.arity, []
    for t in operands:
        if t.dim != dim:
            raise ShapeError("tensor/host dimension mismatch")
        order, den = lcm(order, t.order), den * t.den
        nums.append(t._num)
    parity = algebra.parity if algebra.super else None
    if order == 1:
        return cls._of(dim, *_canonical(1, den, kernel(*nums, (cells.rows,) * cls.arity, parity)))
    phi = euler_phi(order)
    parts = [_components(t, order) for t in operands] + [cells.components(order)] * cls.arity
    out: dict = {}
    for choice in product(*parts):
        power = _power(order, sum(s for s, _ in choice))
        picked = [x for _, x in choice]
        for key, v in kernel(*picked[:n], tuple(picked[n:]), parity).items():
            acc = out.get(key)
            if acc is None:
                acc = out[key] = [0] * phi
            for e, w in power:
                acc[e] += v * w
    return cls._of(dim, *_canonical(order, den, out))


def _kernel_legs(x: dict, tables, parity) -> dict:
    """m(t): the legs of each term of t multiplied, sum c e_i e_j."""
    (rows,) = tables
    coef: dict = {}
    get = coef.get
    for (i, j), a in x.items():
        for k, c in rows[i][j]:
            coef[k] = get(k, 0) + a * c
    return coef


def _kernel1(x: dict, y: dict, tables, parity) -> dict:
    (rows,) = tables
    coef: dict = {}
    get = coef.get
    right = y.items()
    for i, a in x.items():
        row = rows[i]
        for j, b in right:
            cell = row[j]
            if cell:
                ab = a * b
                for k, c in cell:
                    coef[k] = get(k, 0) + ab * c
    return coef


def _kernel2(x: dict, y: dict, tables, parity) -> dict:
    rows1, rows2 = tables
    coef: dict = {}
    get = coef.get
    right = y.items()
    for (i, j), ca in x.items():
        odd_j = parity is not None and parity[j]
        row_i, row_j = rows1[i], rows2[j]
        for (p, q), cb in right:
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
                    coef[key] = get(key, 0) + left * c2
    return coef


def _kernel3(x: dict, y: dict, tables, parity) -> dict:
    rows1, rows2, rows3 = tables
    coef: dict = {}
    get = coef.get
    right = y.items()
    for (i1, i2, i3), ca in x.items():
        row1, row2, row3 = rows1[i1], rows2[i2], rows3[i3]
        for (j1, j2, j3), cb in right:
            m1, m2, m3 = row1[j1], row2[j2], row3[j3]
            if not m1 or not m2 or not m3:
                continue
            c = ca * cb
            if parity is not None:
                q1 = parity[j1]
                if (parity[i2] * q1 + parity[i3] * (q1 + parity[j2])) % 2:
                    c = -c
            for k1, c1 in m1:
                left1 = c * c1
                for k2, c2 in m2:
                    left2 = left1 * c2
                    for k3, c3 in m3:
                        key = (k1, k2, k3)
                        coef[key] = get(key, 0) + left2 * c3
    return coef


def tensor2_mul(a: Tensor2, b: Tensor2, host: "HopfData") -> Tensor2:
    """Product in the algebra H (x) H.

    Componentwise through the host structure tensor; when the host is
    super the Koszul sign (-1)**(|a2||b1|) applies per term.
    """
    return _product(_kernel2, (a, b), Tensor2, host.algebra)


def tensor3_mul(a: Tensor3, b: Tensor3, host: "HopfData") -> Tensor3:
    return _product(_kernel3, (a, b), Tensor3, host.algebra)


def check_tensor_dims(h: "HopfData", *tensors: Optional[Tensor2]):
    """ShapeError unless every given tensor lies in H (x) H for this H."""
    for t in tensors:
        if t is not None and t.dim != h.dim:
            raise ShapeError(f"tensor over dimension {t.dim} given for dimension {h.dim}")


def flip(a: Tensor2, host: Optional["HopfData | Coalgebra"] = None) -> Tensor2:
    """Swap the tensor factors; Koszul sign on pairs of odd elements of host's grading."""
    parity = host.parity if host is not None and any(host.parity) else None
    num = a._num
    if parity is None:
        out = {(j, i): v for (i, j), v in num.items()}
    else:
        neg = _lift(a, a.order, -1)
        out = {(j, i): neg[i, j] if parity[i] and parity[j] else v for (i, j), v in num.items()}
    return Tensor2._of(a.dim, a.order, a.den, out)


def unit_tensor2(host: "HopfData") -> Tensor2:
    return Tensor2.outer(host.unit, host.unit)


# ---------------------------------------------------------------------------
# linear maps as tuples of sparse columns

def apply_map(cols, t, leg: int = 0):
    """The linear map with columns cols applied to leg `leg` of t.

    cols[k] is the image of e_k, all of one arity and dimension: Vecs for
    a map into H (S, S^2, rho(g), Y: k^m -> W), Tensor2s for a map into
    H (x) H (Delta, x -> x (x) 1).  Each key of t has its index k on that
    leg replaced by the keys of cols[k], so the result has arity
    t.arity - 1 + cols[0].arity and lies over the columns' dimension.
    The columns that t reads are lifted to one order and one denominator
    with t, and their numerators multiplied with t's in one sparse sum.
    """
    arity = t.arity
    if not 0 <= leg < arity:
        raise ShapeError(f"no leg {leg} in a tensor of arity {arity}")
    used = {k: cols[k] for k in (t._num if arity == 1 else {key[leg] for key in t._num})}
    order, den = t.order, 1
    for c in used.values():
        order, den = lcm(order, c.order), lcm(den, c.den)
    lifted = {k: _lift(c, order, den // c.den).items() for k, c in used.items()}
    times = mul if order == 1 else (lambda u, v: _mul_nums(u, v, order))
    num = _lift(t, order).items()
    if arity == 1:
        terms = ((s, times(c, w)) for k, c in num for s, w in lifted[k])
    elif cols[0].arity == 1:
        terms = (
            (key[:leg] + (s,) + key[leg + 1:], times(c, w))
            for key, c in num
            for s, w in lifted[key[leg]]
        )
    else:
        terms = (
            (key[:leg] + s + key[leg + 1:], times(c, w))
            for key, c in num
            for s, w in lifted[key[leg]]
        )
    cls = _ARITY[arity - 1 + cols[0].arity]
    return cls._of(cols[0].dim, *_sum_ints(order, t.den * den, terms))


def contract(form: Vec, t, leg: int = 0):
    """The covector form, a Vec read as the row of a map H -> k, applied
    to leg `leg` of t on integer numerators: a CycScalar for a Vec, a Vec
    for a Tensor2 and a Tensor2 for a Tensor3 (the counit slants, the
    trace form, eps o m)."""
    arity = t.arity
    if not 0 <= leg < arity:
        raise ShapeError(f"no leg {leg} in a tensor of arity {arity}")
    if form.dim != t.dim:
        raise ShapeError("covector/tensor dimension mismatch")
    order = lcm(t.order, form.order)
    row = _lift(form, order)
    times = mul if order == 1 else (lambda u, v: _mul_nums(u, v, order))
    num = _lift(t, order).items()
    if arity == 1:
        terms = ((0, times(c, row[k])) for k, c in num if k in row)
    elif arity == 2:
        terms = ((key[1 - leg], times(c, row[key[leg]])) for key, c in num if key[leg] in row)
    else:
        terms = ((key[:leg] + key[leg + 1:], times(c, row[key[leg]])) for key, c in num if key[leg] in row)
    fields = _sum_ints(order, t.den * form.den, terms)
    if arity == 1:
        return Vec._of(1, *fields).get(0)
    return _ARITY[arity - 1]._of(t.dim, *fields)


def _unit_legs(unit: Vec) -> tuple[tuple[Tensor2, ...], tuple[Tensor2, ...]]:
    """The columns e_i (x) 1 of x -> x (x) 1 and 1 (x) e_i of x -> 1 (x) x,
    each with the unit's own canonical fields."""
    d, order, den, num = unit.dim, unit.order, unit.den, unit._num
    right = tuple(Tensor2._of(d, order, den, {(i, k): v for k, v in num.items()}) for i in range(d))
    left = tuple(Tensor2._of(d, order, den, {(k, i): v for k, v in num.items()}) for i in range(d))
    return right, left


def embed13_23_12(a: Tensor2, pattern: str, host: "HopfData") -> Tensor3:
    """Canonical image of a tensor square inside H (x) H (x) H.

    Patterns: "12", "13", "23" insert the unit into the remaining slot,
    by x -> x (x) 1 on the second or first leg or x -> 1 (x) x on the
    first; "delta_id" applies comultiplication to the first factor,
    "id_delta" to the second.
    """
    if a.dim != host.dim:
        raise ShapeError("tensor/host dimension mismatch")
    right, left = host.algebra.unit_legs
    maps = {
        "12": (right, 1),
        "13": (right, 0),
        "23": (left, 0),
        "delta_id": (host.comult, 0),
        "id_delta": (host.comult, 1),
    }
    if pattern not in maps:
        raise ShapeError(f"unknown slot pattern {pattern!r}")
    cols, leg = maps[pattern]
    return apply_map(cols, a, leg)


def _polynomial_inverse(a, one, mul):
    """The inverse of a, a Vec or a Tensor2, in the algebra whose unit is
    one and whose product is mul: H, or H (x) H.

    a is a root of its minimal polynomial sum_t c_t a^t.  Each power a^t
    joins one echelon with the tag (dim, t), which sorts after every key
    of a Vec, (i,), and of a Tensor2, (i, j), so the first power whose
    residue is tags only gives the polynomial, scaled to its least
    nonzero coefficient.  c_0 = 0 makes a a zero divisor; otherwise
    a^-1 = -c_0^-1 sum_{t>=1} c_t a^(t-1), summed on integer numerators.
    The candidate is multiplied back once, a inv = 1, before it is
    returned.
    """
    dim = a.dim
    if dim != one.dim:
        raise ShapeError("tensor/host dimension mismatch")
    span = Echelon()
    powers = [one]
    while True:
        t = len(powers) - 1
        terms = ((e[:-1], e[-1]) for e in powers[t].nonzeros)
        pivot = span.add(chain(terms, (((dim, t), SC_ONE),)))
        if pivot[0] == dim:
            break
        powers.append(mul(powers[t], a))
    where = "H" if a.arity == 1 else "H(x)H"
    if pivot != (dim, 0):
        raise NotInvertible(f"element is a zero divisor in {where}")
    # span.rows[pivot] is c_0^-1 sum_t c_t (dim, t)
    inv = -reduce(add, (powers[s - 1].scale(c) for (_, s), c in span.rows[pivot].items() if s))
    if mul(a, inv) != one:
        raise NotInvertible(f"element has no two-sided inverse in {where}")
    return inv


def tensor2_inv(a: Tensor2, host: "HopfData") -> Tensor2:
    """Two-sided inverse of a in the algebra H (x) H (_polynomial_inverse).

    A polynomial in a commutes with a, so a inv = 1 gives inv a = 1 as
    well, and the one multiply-back certifies both sides.  For a twist J
    this is the fallback: constructions.Twist first tries the closed form
    (S (x) id)(J), which inverts every bicharacter twist.
    """
    return _polynomial_inverse(a, unit_tensor2(host), lambda x, y: tensor2_mul(x, y, host))
