"""The central (super) Hopf algebra datatype and its verifiers.

HopfData records a finite-dimensional algebra-and-coalgebra by exact
structure constants: an Algebra (sparse multiplication tensor, unit
and a Z2 parity grading for the super case), per-basis-element
comultiplication, counit covector and antipode.  S and Delta are
linear maps held as tuples of columns: antipode[i] is the tensor.Vec
S(e_i) and comult[i] the tensor.Tensor2 Delta(e_i), and make_hopf
normalizes raw structure constants into these forms through the one
sparse constructor, which trusts its indices: validate() refuses any
outside.  Every map on elements applies such columns with
tensor.apply_map on integer numerators: S(x), Delta(x), S^2 and S^4
(HopfData.s2_columns, s4_columns), S^2 = Ad(u), m(S (x) id)(t) (with
m = HopfData.mul_legs), the associativity rows and the Hopf-ideal
projection.  Products read mult in integer form (Algebra.mult_ints, a
tensor.IntCells).  No dense matrix exists outside the dump format
(serialize.py).

verify_hopf proves each axiom by exact finite checks and reports the
first failing witness per axiom instead of raising.
Algebra.generators finds a generating set S greedily and certifies
that the only subspace containing 1 and closed under x -> e_s x
(s in S) is H itself.  Once the checks on S pass, the
elements where associativity, the bialgebra identity or
coassociativity holds form such a subspace, so those three run their
left factor over S only (the lemmas are in verify_hopf).  Unit, counit
and antipode are checked on every basis element.  If any check fails,
the exhaustive scan over all basis tuples runs and names the witness.

Which facts belong to what.  A twist H^J changes only the coproduct
and the antipode, so every fact of the algebra (mult_ints, unit_legs,
the generators, the radical, the associativity and unit witnesses and
the algebra half of the structural check) lives on the Algebra object
and is computed once per Algebra: H^J holds H's very Algebra, so it
computes none of them, and HopfData.replace with another product,
unit or grading makes a fresh one.  The Hopf axioms are proved once
per host: H^J keeps the Twist that made it, and its axioms follow from
H's by the twisting theorem (HopfData.axioms) once per instance checks
tie its stored coproduct and antipode to J.  Everything else that
reads the coproduct or the antipode (the coalgebra half of the
structural check, S^2, S^4) is computed once per object, so once per
instance.  Facts of a pair (H, R) live in triangular.py.

The radical is computed from the kernel of the regular trace form
(valid in characteristic 0).  The Chevalley check tests that the radical
I is a Hopf ideal; the coproduct condition Delta(I) in I (x) H + H (x) I
is (pi (x) pi)(Delta(I)) = 0 for the projection pi along I, read off
I's reduced row echelon basis.

Inverses in H: algebra_inverse solves x y = 1 on the sparse rows of
left multiplication by x.  Where a theorem gives the inverse in closed
form, certified_inverse takes it after multiplying it back on both
sides and solves only if that fails, so a wrong closed form changes
neither a value nor an exception.  The two closed forms are
Q^-1 = m(id (x) S)(J^-1) for a twist's Q = m(S (x) id)(J)
(constructions.Twist.apply) and u^-1 = sum b_i S^2(a_i) for the
Drinfeld element of R = sum a_i (x) b_i (triangular.drinfeld_element).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter
from typing import Any, Optional, Sequence

from .errors import NotInvertible, OrderNotFound, ShapeError
from .scalars import SC_ONE, SC_ZERO, CycScalar
from .tensor import (
    Echelon,
    _kernel1,
    _kernel_legs,
    _product,
    _unit_legs,
    IntCells,
    SparseRow,
    Tensor2,
    Tensor3,
    Vec,
    apply_map,
    embed13_23_12,
    flip,
    tensor2_mul,
)


@dataclass(frozen=True)
class Algebra:
    """The product, unit and grading of a (super) Hopf algebra, and every
    fact of them, each computed once per object (see the module
    docstring).  mult[i][j] lists the nonzero (k, c) with
    e_i * e_j = sum c * e_k, in increasing k.  Equality compares the
    five fields.
    """

    dim: int
    unit: Vec
    mult: tuple[tuple[SparseRow, ...], ...]
    parity: tuple[int, ...]
    super: bool = False
    # the dump text of mult, written once by serialize.hopf_dumps
    mult_text: Optional[str] = field(default=None, init=False, compare=False, repr=False)

    @cached_property
    def malformation(self) -> Optional[str]:
        """Why the algebra is not well formed, or None: shapes, the index
        range and parity of each product, and the parity of the unit."""
        d = self.dim
        if d < 1:
            return "dimension must be positive"
        if self.unit.dim != d or len(self.parity) != d:
            return "unit/counit/parity length mismatch"
        if len(self.mult) != d or any(len(row) != d for row in self.mult):
            return "multiplication tensor shape mismatch"
        if not self.super and any(self.parity):
            return "nonzero parity on a non-super algebra"
        if any(p not in (0, 1) for p in self.parity):
            return "parity entries must be 0 or 1"
        par = self.parity
        for i in range(d):
            for j in range(d):
                for k, c in self.mult[i][j]:
                    if not 0 <= k < d:
                        return f"product index {k} out of range at ({i},{j})"
                    if not c.is_zero() and (par[i] + par[j]) % 2 != par[k]:
                        return f"product parity violation at ({i},{j},{k})"
            if par[i] and not self.unit.get(i).is_zero():
                return "unit supported on odd basis elements"
        return None

    @cached_property
    def mult_ints(self) -> IntCells:
        """mult in the integer form of a sparse tensor, which every product
        in H, H (x) H and H (x) H (x) H reads."""
        return IntCells(_table(self.dim, self.mult), self.mult)

    @cached_property
    def unit_legs(self) -> tuple[tuple[Tensor2, ...], tuple[Tensor2, ...]]:
        """The columns of x -> x (x) 1 and of x -> 1 (x) x, which
        embed13_23_12 applies to insert the unit."""
        return _unit_legs(self.unit)

    def mul_vec(self, x: Vec, y: Vec) -> Vec:
        """The product xy, on the integer numerators of x, y and mult_ints."""
        return _product(_kernel1, (x, y), Vec, self)

    @cached_property
    def generators(self) -> Optional[tuple[int, ...]]:
        """Basis indices S that generate the algebra from the unit, or None.

        Greedy and hint-free, so loaded dumps get one too: V starts as
        span{1} and is closed under v -> e_s v for s in S; while V is
        not all of H, the lowest-index basis element outside V joins S.
        The rank of V reaching dim certifies that every subspace which
        contains 1 and is closed under x -> e_s x is H.  None when the
        algebra is malformed, or when V stops short of H, which happens
        only if 1 is no unit.
        """
        if self.malformation is not None:
            return None
        span = Echelon()  # V
        spanned: list[Vec] = []  # vectors spanning V
        gens: list[int] = []
        todo: list = []  # (s, v) with e_s v not yet reduced against V

        def push(vec: Vec):
            if span.add(vec.nonzeros) is not None:
                spanned.append(vec)
                todo.extend((s, vec) for s in gens)

        push(self.unit)
        for i in range(self.dim):
            if len(span) == self.dim:
                break
            if not span.reduce({i: SC_ONE}):
                continue
            gens.append(i)
            todo.extend((i, v) for v in spanned)
            while todo:
                s, v = todo.pop()
                push(self.mul_vec(Vec.basis(self.dim, s), v))
        return tuple(gens) if len(span) == self.dim else None

    @cached_property
    def witnesses(self) -> tuple[Optional[tuple], Optional[tuple]]:
        """(associativity witness, unit witness), each the lowest-index
        failure of the exhaustive scan or None.

        (None, None) without the exhaustive scan when the generators are
        certified, the unit holds on every basis element and
        associativity holds with its left factor in the generators: the
        lemma in verify_hopf then gives associativity everywhere.
        """
        unit = _unit_witness(self, [Vec.basis(self.dim, i) for i in range(self.dim)])
        gens = self.generators
        if unit is None and gens is not None and _associativity_witness(self, gens) is None:
            return None, None
        return _associativity_witness(self, range(self.dim)), unit

    @cached_property
    def radical(self) -> tuple[Vec, ...]:
        """jacobson_radical(self)."""
        return tuple(jacobson_radical(self))


@dataclass(frozen=True, eq=False)
class HopfData:
    """A (super) Hopf algebra given by structure constants.

    algebra holds the product, unit and grading and every fact of them
    (Algebra); antipode[i] is the Vec S(e_i) and comult[i] the Tensor2
    Delta(e_i), so S and Delta are tuples of sparse columns, which
    tensor.apply_map applies.  dim, unit, mult, parity and super read
    through to the algebra.
    """

    algebra: Algebra
    comult: tuple[Tensor2, ...]
    counit: tuple[CycScalar, ...]
    antipode: tuple[Vec, ...]
    # the constructions.Twist whose apply() made this object (see axioms)
    twist: Optional[Any] = field(default=None, repr=False)

    dim = property(attrgetter("algebra.dim"))
    unit = property(attrgetter("algebra.unit"))
    mult = property(attrgetter("algebra.mult"))
    parity = property(attrgetter("algebra.parity"))
    super = property(attrgetter("algebra.super"))

    def validate(self) -> "HopfData":
        """Structural well-formedness; axiom checking lives in verify_hopf."""
        if self._malformation is not None:
            raise ShapeError(self._malformation)
        return self

    @cached_property
    def _malformation(self) -> Optional[str]:
        """Why the structure is not well formed, or None: Algebra.malformation,
        then the coalgebra's half, checked once per object."""
        problem = self.algebra.malformation
        if problem is not None:
            return problem
        d, par = self.dim, self.parity
        if len(self.counit) != d:
            return "unit/counit/parity length mismatch"
        if len(self.comult) != d or any(
            not isinstance(t, Tensor2) or t.dim != d for t in self.comult
        ):
            return "comultiplication shape mismatch"
        if len(self.antipode) != d or any(
            not isinstance(v, Vec) or v.dim != d for v in self.antipode
        ):
            return "antipode shape mismatch"
        for i in range(d):
            for j, k, _ in self.comult[i].nonzeros:
                if not (0 <= j < d and 0 <= k < d):
                    return f"coproduct index ({j},{k}) out of range at {i}"
                if (par[j] + par[k]) % 2 != par[i]:
                    return f"coproduct parity violation at ({i},{j},{k})"
            for j, _ in self.antipode[i].nonzeros:
                if not 0 <= j < d:
                    return f"antipode index {j} out of range at {i}"
        if self.counit_vec(self.unit) != SC_ONE:
            return "counit(unit) != 1"
        if self.comult_vec(self.unit) != Tensor2.outer(self.unit, self.unit):
            return "Delta(unit) != unit (x) unit"
        return None

    def replace(self, **changes) -> "HopfData":
        """A copy with the given fields changed.  A change to dim, unit,
        mult, parity or super makes a fresh Algebra, so a product mutant
        shares no fact with this object; any other copy keeps it."""
        algebra = {name: changes.pop(name) for name in _ALGEBRA_FIELDS if name in changes}
        if algebra:
            changes["algebra"] = replace(self.algebra, **algebra)
        return replace(self, **changes)

    def keeps_algebra_of(self, host: "HopfData") -> bool:
        """True when this object has host's algebra, the very Algebra or an
        equal one, and host's counit: all that a twist leaves unchanged."""
        same = self.algebra is host.algebra or self.algebra == host.algebra
        return same and self.counit == host.counit

    # --- basic linear maps -------------------------------------------------

    @cached_property
    def s2_columns(self) -> tuple[Vec, ...]:
        """S^2 as its columns S^2(e_i), composed once per object."""
        return tuple(apply_map(self.antipode, col) for col in self.antipode)

    @cached_property
    def s4_columns(self) -> tuple[Vec, ...]:
        """S^4 = S^2 o S^2 as its columns, composed once per object."""
        return tuple(apply_map(self.s2_columns, col) for col in self.s2_columns)

    @property
    def generators(self) -> Optional[tuple[int, ...]]:
        """Algebra.generators, or None unless validate() passes: the lemmas
        of verify_hopf need a homogeneous product and coproduct."""
        if self._malformation is not None:
            return None
        return self.algebra.generators

    @cached_property
    def axioms(self) -> "AxiomReport":
        """verify_hopf(self), computed once per object.

        A twist H^J made by Twist.apply is a Hopf algebra by Drinfeld's
        twisting theorem once the premises of Twist.proves_hopf hold on
        this object; then no identity of H^J is checked.  If a premise
        fails, verify_hopf decides, so the report and its witnesses do
        not depend on the path.
        """
        if self.twist is not None and self.twist.proves_hopf(self):
            return AxiomReport(True, True, True, True, True, True, witnesses={})
        return verify_hopf(self)

    def mul_vec(self, x: Vec, y: Vec) -> Vec:
        """The product xy in H, as Algebra.mul_vec computes it."""
        return _product(_kernel1, (x, y), Vec, self.algebra)

    def mul_legs(self, t: Tensor2) -> Vec:
        """m(t) = sum c e_i e_j for t = sum c e_i (x) e_j, on the integer
        numerators of t and the algebra's mult_ints."""
        return _product(_kernel_legs, (t,), Vec, self.algebra)

    def counit_vec(self, x: Vec) -> CycScalar:
        return sum((a * self.counit[i] for i, a in x.nonzeros), SC_ZERO)

    def antipode_vec(self, x: Vec) -> Vec:
        return apply_map(self.antipode, x)

    def comult_vec(self, x: Vec) -> Tensor2:
        return apply_map(self.comult, x)

    def same_structure(self, other: "HopfData") -> bool:
        """Exact structure-constant equality in the shared fixed basis."""
        same_maps = self.antipode == other.antipode and self.comult == other.comult
        return same_maps and self.keeps_algebra_of(other)


def make_hopf(dim, unit, mult, comult, counit, antipode, parity=None, super=False) -> HopfData:
    """Normalize raw structure constants into a validated HopfData.

    mult[i][j] and antipode[i] are (k, c) pairs and comult[i] is
    (j, k, c) triples, in any order; every one goes through the sparse
    constructor, which sums a repeated index and drops zeros, so each
    cell is stored in increasing index, S(e_i) as its Vec and Delta(e_i)
    as its Tensor2.
    """
    mult = [tuple(row) for row in mult]
    table = _table(dim, mult)
    algebra = Algebra(
        dim=dim,
        unit=unit if isinstance(unit, Vec) else Vec.from_entries(unit),
        mult=_summed_cells(table, mult),
        parity=tuple(parity) if parity is not None else (0,) * dim,
        super=super,
    )
    # mult_ints, read off the same sum
    object.__setattr__(algebra, "mult_ints", IntCells(table, mult))
    return HopfData(
        algebra=algebra,
        comult=tuple(Tensor2(dim, (((j, k), c) for j, k, c in entry)) for entry in comult),
        counit=tuple(counit),
        antipode=tuple(Vec(dim, col) for col in antipode),
    ).validate()


_ALGEBRA_FIELDS = ("dim", "unit", "mult", "parity", "super")


def _table(dim: int, rows) -> Tensor3:
    """The cells rows[i][j], each a list of (k, c) terms, as one Tensor3
    keyed (i, j, k): one sparse sum over the whole table."""
    return Tensor3(
        dim,
        [((i, j, k), c) for i, row in enumerate(rows) for j, cell in enumerate(row) for k, c in cell],
    )


def _summed_cells(table: Tensor3, rows) -> tuple[tuple[SparseRow, ...], ...]:
    """The cells of table in the shape of rows, each in increasing k."""
    cells: list = [[[] for _ in row] for row in rows]
    for i, j, k, c in table.nonzeros:
        cells[i][j].append((k, c))
    return tuple(tuple(tuple(cell) for cell in row) for row in cells)


# ---------------------------------------------------------------------------
# axiom verification

_AXIOMS = ("associativity", "unit", "coassociativity", "counit", "bialgebra", "antipode")


@dataclass(frozen=True)
class AxiomReport:
    associativity: bool
    unit: bool
    coassociativity: bool
    counit: bool
    bialgebra: bool
    antipode: bool
    witnesses: dict

    @property
    def ok(self) -> bool:
        return all(getattr(self, name) for name in _AXIOMS)

    def to_obj(self):
        obj = {name: getattr(self, name) for name in _AXIOMS}
        obj["witnesses"] = {k: list(v) for k, v in self.witnesses.items()}
        return obj


def antipode_contraction(h: HopfData, t: Tensor2, leg: int = 0, square: bool = False) -> Vec:
    """m(S (x) id)(t), or m(id (x) S)(t) when leg is 1; S^2 in place of S
    when square is set."""
    return h.mul_legs(apply_map(h.s2_columns if square else h.antipode, t, leg))


def counit_slants(h: HopfData, t: Tensor2) -> tuple[Vec, Vec]:
    """(eps (x) id)(t) and (id (x) eps)(t)."""
    counit, terms = h.counit, t.nonzeros
    return (
        Vec(h.dim, ((j, c * counit[i]) for i, j, c in terms)),
        Vec(h.dim, ((i, c * counit[j]) for i, j, c in terms)),
    )


def verify_hopf(h: HopfData) -> AxiomReport:
    """Exact check of every axiom; a failure names its lowest-index witness.

    With a certified generating set S (HopfData.generators) the left
    factor of three identities runs over S only:
    - associativity on (e_s, e_a, e_b): X = {x : (xy)z = x(yz)} contains
      1 and is closed under x -> e_s x, so X = H;
    - once associativity holds, Delta(e_s e_j) = Delta(e_s) Delta(e_j)
      and counit multiplicativity on (s, j), by the same closure;
    - once Delta is multiplicative, coassociativity on S, since both
      (Delta (x) id) Delta and (id (x) Delta) Delta are algebra maps.
    Unit, counit and antipode are checked on every basis element.  The
    lemmas need all of this, so if any check fails, or H has no
    certified generating set, the exhaustive scan runs instead: d**3
    triples, d**2 pairs (with the Koszul sign when super) and d
    indices, which name the witnesses.  Failures are reported, never
    raised.  Associativity and the unit are facts of the algebra alone
    and come from Algebra.witnesses, which applies the first lemma
    itself and is shared by a twist with the algebra it twists.
    """
    gens = h.generators
    if gens is not None:
        report = _axiom_scan(h, gens)
        if report.ok:
            return report
    return _axiom_scan(h, range(h.dim))


def _axiom_scan(h: HopfData, lead: Sequence[int]) -> AxiomReport:
    """One check per axiom; lead is the index set of the left factor of
    coassociativity and the bialgebra identity.  The associativity and
    unit witnesses are the algebra's (Algebra.witnesses), which equal
    the exhaustive scan's."""
    basis = [Vec.basis(h.dim, i) for i in range(h.dim)]
    associativity, unit = h.algebra.witnesses
    found = {
        "associativity": associativity,
        "unit": unit,
        "coassociativity": _coassociativity_witness(h, lead),
        "counit": _counit_witness(h, basis),
        "bialgebra": _bialgebra_witness(h, lead),
        "antipode": _antipode_witness(h),
    }
    return AxiomReport(
        **{name: w is None for name, w in found.items()},
        witnesses={name: w for name, w in found.items() if w is not None},
    )


def _associativity_witness(h: Algebra, lead):
    """The least (i, j, k), i in lead, with (e_i e_j) e_k != e_i (e_j e_k), or
    None.  Both sides for every k of one (i, j) are one Tensor2 keyed
    (k, q), a left multiplication: L_{e_i e_j}, the map L applied to the
    product e_i e_j, and L_{e_i} o L_{e_j}, x -> e_i x applied to the
    second leg of L_{e_j} (IntCells.left_multiplication)."""
    products, left = h.mult_ints.left_multiplication(h.dim)
    for i in lead:
        for j in range(h.dim):
            lhs = apply_map(left, products[i][j])
            rhs = apply_map(products[i], left[j], 1)
            if lhs != rhs:
                return (i, j, (lhs - rhs).nonzeros[0][0])
    return None


def _unit_witness(h: Algebra, basis):
    for i, e in enumerate(basis):
        if h.mul_vec(h.unit, e) != e or h.mul_vec(e, h.unit) != e:
            return (i,)
    return None


def _coassociativity_witness(h: HopfData, lead):
    for i in lead:
        delta = h.comult[i]
        if embed13_23_12(delta, "delta_id", h) != embed13_23_12(delta, "id_delta", h):
            return (i,)
    return None


def _counit_witness(h: HopfData, basis):
    for i in range(h.dim):
        left, right = counit_slants(h, h.comult[i])
        if left != basis[i] or right != basis[i]:
            return (i,)
    return None


def _bialgebra_witness(h: HopfData, lead):
    """Counit multiplicativity and Delta(e_i e_j) = Delta(e_i) Delta(e_j),
    Koszul-signed, on (i, j) for i in lead."""
    for i in lead:
        for j in range(h.dim):
            product = Vec(h.dim, h.mult[i][j])
            if h.counit_vec(product) != h.counit[i] * h.counit[j]:
                return (i, j)
            if h.comult_vec(product) != tensor2_mul(h.comult[i], h.comult[j], h):
                return (i, j)
    return None


def _antipode_witness(h: HopfData):
    for i in range(h.dim):
        target = h.unit.scale(h.counit[i])
        if (
            antipode_contraction(h, h.comult[i]) != target
            or antipode_contraction(h, h.comult[i], leg=1) != target
        ):
            return (i,)
    return None


def is_cocommutative(h: HopfData) -> bool:
    """flip(Delta) == Delta on every basis element (signed flip if super)."""
    return all(flip(t, h) == t for t in h.comult)


# ---------------------------------------------------------------------------
# duality

def dual_hopf(h: HopfData) -> HopfData:
    """The dual Hopf algebra on the dual basis.

    Multiplication is the transpose of the comultiplication and vice
    versa; the antipode transposes.  In the super case the evaluation
    pairing <f (x) g, x (x) y> = (-1)**(|g||x|) f(x) g(y) inserts the
    sign (-1)**(|i||j|) on both transposed structures.
    """
    d, par = h.dim, h.parity
    mult_d = [[[] for _ in range(d)] for _ in range(d)]
    for t in range(d):
        for a, b, c in h.comult[t].nonzeros:
            coef = -c if (h.super and par[a] and par[b]) else c
            mult_d[a][b].append((t, coef))
    comult_d = [[] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for t, c in h.mult[i][j]:
                coef = -c if (h.super and par[i] and par[j]) else c
                comult_d[t].append((i, j, coef))
    return make_hopf(
        dim=d,
        unit=Vec.from_entries(h.counit),
        mult=tuple(tuple(tuple(cell) for cell in row) for row in mult_d),
        comult=tuple(tuple(entry) for entry in comult_d),
        counit=h.unit.entries,
        antipode=[[(i, col.get(j)) for i, col in enumerate(h.antipode)] for j in range(d)],
        parity=par,
        super=h.super,
    )


# ---------------------------------------------------------------------------
# radical, semisimplicity, Chevalley property

def trace_form(h: Algebra | HopfData) -> list[dict]:
    """Sparse rows of T[i][j] = trace of left multiplication by e_i * e_j:
    row i maps each j with T[i][j] != 0 to T[i][j]."""
    d = h.dim
    # tr[k] = trace(L_{e_k})
    tr = [sum((c for j in range(d) for t, c in h.mult[k][j] if t == j), SC_ZERO) for k in range(d)]
    rows = []
    for i in range(d):
        row = {}
        for j in range(d):
            acc = SC_ZERO
            for k, c in h.mult[i][j]:
                acc = acc + c * tr[k]
            if not acc.is_zero():
                row[j] = acc
        rows.append(row)
    return rows


def jacobson_radical(h: Algebra | HopfData) -> list[Vec]:
    """Exact radical basis: kernel of the regular trace form (char 0)."""
    return Echelon(trace_form(h)).kernel(h.dim)


def is_semisimple(h: HopfData) -> bool:
    return not h.algebra.radical


def subspace_is_hopf_ideal(h: HopfData, basis: Sequence[Vec]) -> bool:
    """Counit vanishes on the span I, S preserves it, and the coproduct
    lands in I (x) H + H (x) I.

    The last condition is (pi (x) pi)(Delta(r)) = 0, where pi is the
    projection along I onto the coordinates that are not pivots of I's
    reduced row echelon basis: the kernel of pi (x) pi is exactly
    I (x) H + H (x) I.
    """
    if not basis:
        return True
    for r in basis:
        if not h.counit_vec(r).is_zero():
            return False
    span = Echelon(r.nonzeros for r in basis)
    for r in basis:
        if span.reduce(h.antipode_vec(r).nonzeros):
            return False
    # pi(e_f) = e_f; row = e_p + sum_f row[f] e_f lies in I, so pi(e_p) = -sum_f row[f] e_f
    proj = tuple(
        Vec(h.dim, ((f, -c) for f, c in span.rows[a].items() if f != a))
        if a in span.rows
        else Vec.basis(h.dim, a)
        for a in range(h.dim)
    )
    for r in basis:
        if apply_map(proj, apply_map(proj, h.comult_vec(r), 0), 1).nonzeros:
            return False
    return True


def is_chevalley(h: HopfData) -> bool:
    """True iff the radical is a Hopf ideal."""
    return subspace_is_hopf_ideal(h, h.algebra.radical)


def antipode_order(h: HopfData, bound: int = 16) -> int:
    """Least k >= 1 with S**k = id; OrderNotFound past the bound.

    The powers are tuples of columns, S^(k+1)(e_i) = S(S^k(e_i)) by
    apply_map; S^2 and S^4 are the cached HopfData.s2_columns and
    s4_columns."""
    identity = tuple(Vec.basis(h.dim, i) for i in range(h.dim))
    power = h.antipode
    for k in range(1, bound + 1):
        if power == identity:
            return k
        if k in (1, 3):
            power = h.s2_columns if k == 1 else h.s4_columns
        else:
            power = tuple(apply_map(h.antipode, col) for col in power)
    raise OrderNotFound(f"antipode order exceeds bound {bound}")


def algebra_inverse(h: HopfData, x: Vec) -> Vec:
    """Two-sided inverse of an element of H, by exact linear solve.

    The sparse rows of x y = 1 in the unknown y, with the unit as an
    extra column d, go to one Echelon (Echelon.solution); the solution
    sets every free unknown to 0 and is multiplied back on both sides.
    """
    d = h.dim
    rows: list[dict] = [{} for _ in range(d)]  # rows[k][t]: e_k-coefficient of x e_t
    for s, a in x.nonzeros:
        for t in range(d):
            for k, c in h.mult[s][t]:
                row = rows[k]
                row[t] = row.get(t, SC_ZERO) + a * c
    for k, b in h.unit.nonzeros:
        rows[k][d] = b
    sol = Echelon(rows).solution(d)
    if sol is None:
        raise NotInvertible("element has no inverse")
    if h.mul_vec(sol, x) != h.unit or h.mul_vec(x, sol) != h.unit:
        raise NotInvertible("element has no two-sided inverse")
    return sol


def certified_inverse(h: HopfData, x: Vec, candidate: Vec) -> Vec:
    """x^-1 from a closed-form candidate: the candidate when it multiplies
    back to 1 on both sides, else algebra_inverse(h, x), so a wrong
    candidate changes neither the value nor the exception."""
    if h.mul_vec(candidate, x) == h.unit and h.mul_vec(x, candidate) == h.unit:
        return candidate
    return algebra_inverse(h, x)
