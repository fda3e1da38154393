"""The central (super) Hopf algebra datatype and its verifiers.

HopfData records a finite-dimensional algebra-and-coalgebra by exact
structure constants: sparse multiplication tensor, per-basis-element
comultiplication, counit covector, antipode, and a Z2 parity grading
for the super case.  Delta(e_i) is held as the tensor.Tensor2 it is,
an element of H (x) H, and the antipode as sparse columns, the layout
of mult; make_hopf normalizes raw structure constants into these forms
through the one sparse constructor.  S^2 is composed once per object
(HopfData.s2_columns), and so is S(e_i) as a Vec (antipode_vecs); mult
in the integer form that the products read (HopfData.mult_ints, a
tensor.IntCells) is made once per multiplication object.  Powers of S,
S^4 = id and S^2 = Ad(u) compose sparse columns; no dense matrix exists
outside the dump format (serialize.py).  An element of H is a
tensor.Vec, the arity-1 sparse tensor, whose nonzeros have the layout
of one such column; the product of two elements is HopfData.mul_vec,
on integer numerators, and the maps on elements (antipode_vec,
antipode_contraction, counit_slants) build their result sparsely.
Every other product in H here is raw terms summed by the tensor
constructor, which trusts its indices: validate() refuses any outside.

verify_hopf proves each axiom by exact finite checks and reports the
first failing witness per axiom instead of raising.
HopfData.generators finds a generating set S greedily and certifies
that the only subspace containing 1 and closed under x -> e_s x
(s in S) is H itself.  Once the checks on S pass, the
elements where associativity, the bialgebra identity or
coassociativity holds form such a subspace, so those three run their
left factor over S only (the lemmas are in verify_hopf).  Unit, counit
and antipode are checked on every basis element.  If any check fails,
the exhaustive scan over all basis tuples runs and names the witness.

Which facts belong to what.  A twist H^J changes only the coproduct
and the antipode, so facts of the algebra (generators, radical, the
associativity and unit witnesses in HopfData.algebra_witnesses) are
computed once per algebra: H^J keeps its H as algebra_host, holds H's
very mult and unit objects, and reads those facts from H when first
asked.  The Hopf axioms are proved once per host: H^J keeps the Twist
that made it, and its axioms follow from H's by the twisting theorem
(HopfData.axioms) once per instance checks tie its stored coproduct
and antipode to J.  Everything else that reads the coproduct or the
antipode (the structural check, S^2) is computed once per object, so
once per instance.  Facts of a pair (H, R) live in triangular.py.

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
from typing import Any, Optional, Sequence

from .errors import NotInvertible, OrderNotFound, ShapeError
from .scalars import SC_ONE, SC_ZERO, CycScalar
from .tensor import (
    Echelon,
    _kernel1,
    _product,
    IntCells,
    SparseRow,
    Tensor2,
    Tensor3,
    Vec,
    compose_columns,
    embed13_23_12,
    flip,
    is_identity_columns,
    tensor2_mul,
)


@dataclass(frozen=True, eq=False)
class HopfData:
    """A (super) Hopf algebra given by structure constants.

    mult[i][j] lists the nonzero (k, c) with e_i * e_j = sum c * e_k,
    and antipode[i] the nonzero (j, c) with S(e_i) = sum c * e_j, each
    in increasing index; comult[i] is the Tensor2 Delta(e_i).
    """

    dim: int
    unit: Vec
    mult: tuple[tuple[SparseRow, ...], ...]
    comult: tuple[Tensor2, ...]
    counit: tuple[CycScalar, ...]
    antipode: tuple[SparseRow, ...]
    parity: tuple[int, ...]
    super: bool = False
    # the algebra this one shares its algebra facts with (see _algebra_source)
    algebra_host: Optional["HopfData"] = field(default=None, repr=False)
    # the constructions.Twist whose apply() made this object (see axioms)
    twist: Optional[Any] = field(default=None, repr=False)

    def validate(self) -> "HopfData":
        """Structural well-formedness; axiom checking lives in verify_hopf."""
        if self._malformation is not None:
            raise ShapeError(self._malformation)
        return self

    @cached_property
    def _malformation(self) -> Optional[str]:
        """Why the structure is not well formed, or None; checked once per
        object, so validate() and generators share one pass."""
        d = self.dim
        if d < 1:
            return "dimension must be positive"
        if self.unit.dim != d or len(self.counit) != d or len(self.parity) != d:
            return "unit/counit/parity length mismatch"
        if len(self.mult) != d or any(len(row) != d for row in self.mult):
            return "multiplication tensor shape mismatch"
        if len(self.comult) != d or any(
            not isinstance(t, Tensor2) or t.dim != d for t in self.comult
        ):
            return "comultiplication shape mismatch"
        if len(self.antipode) != d or any(
            not 0 <= j < d for col in self.antipode for j, _ in col
        ):
            return "antipode shape mismatch"
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
            for j, k, _ in self.comult[i].nonzeros:
                if not (0 <= j < d and 0 <= k < d):
                    return f"coproduct index ({j},{k}) out of range at {i}"
                if (par[j] + par[k]) % 2 != par[i]:
                    return f"coproduct parity violation at ({i},{j},{k})"
            if par[i] and not self.unit.get(i).is_zero():
                return "unit supported on odd basis elements"
        if self.counit_vec(self.unit) != SC_ONE:
            return "counit(unit) != 1"
        if self.comult_vec(self.unit) != Tensor2.outer(self.unit, self.unit):
            return "Delta(unit) != unit (x) unit"
        return None

    def replace(self, **changes) -> "HopfData":
        return replace(self, **changes)

    # --- basic linear maps -------------------------------------------------

    @cached_property
    def antipode_vecs(self) -> tuple[Vec, ...]:
        """S(e_i) for every i, as the Vec the products in H read; made once
        per object."""
        return tuple(Vec(self.dim, col) for col in self.antipode)

    @cached_property
    def s2_columns(self) -> tuple[SparseRow, ...]:
        """S^2 as sparse columns, composed once per object."""
        return compose_columns(self.antipode, self.antipode)

    @cached_property
    def mult_ints(self) -> IntCells:
        """mult in the integer form of a sparse tensor, which every product
        in H, H (x) H and H (x) H (x) H reads; made once per multiplication
        object, so a twist reads its host's (see _algebra_source)."""
        source = self._algebra_source
        if source is not self:
            return source.mult_ints
        return IntCells(_table(self.dim, self.mult), self.mult)

    @property
    def _algebra_source(self) -> "HopfData":
        """The object that owns this one's algebra facts: that of
        algebra_host when the host has this object's dim and its very mult
        and unit objects, else self.

        generators, radical and algebra_witnesses depend on nothing else,
        so a twist H^J (constructions.Twist.apply) reads them from its H,
        and a copy with another product or unit computes its own.
        """
        host = self.algebra_host
        if host is None or host.mult is not self.mult or host.unit is not self.unit:
            return self
        return host._algebra_source if host.dim == self.dim else self

    @cached_property
    def generators(self) -> Optional[tuple[int, ...]]:
        """Basis indices S that generate H from the unit, or None.

        Greedy and hint-free, so loaded dumps get one too: V starts as
        span{1} and is closed under v -> e_s v for s in S; while V is
        not all of H, the lowest-index basis element outside V joins S.
        The rank of V reaching dim certifies that every subspace which
        contains 1 and is closed under x -> e_s x is H.  None when the
        structure is not well formed (validate() fails), since the
        generator lemmas of verify_hopf need a homogeneous product and
        coproduct with Delta(1) = 1 (x) 1, or when V stops short of H,
        which happens only if 1 is no unit.
        """
        if self._malformation is not None:
            return None
        return self._algebra_source._spanning_generators

    @cached_property
    def _spanning_generators(self) -> Optional[tuple[int, ...]]:
        """The greedy S of generators from mult and unit alone, on a well
        formed structure."""
        mult = self.mult
        span = Echelon()  # V
        spanned: list[SparseRow] = []  # vectors spanning V
        gens: list[int] = []
        todo: list = []  # (s, v) with e_s v not yet reduced against V

        def push(vec: SparseRow):
            if span.add(vec) is not None:
                spanned.append(vec)
                todo.extend((s, vec) for s in gens)

        push(self.unit.nonzeros)
        for i in range(self.dim):
            if len(span) == self.dim:
                break
            if not span.reduce({i: SC_ONE}):
                continue
            gens.append(i)
            todo.extend((i, v) for v in spanned)
            while todo:
                s, v = todo.pop()
                push(Vec(self.dim, ((k, a * c) for j, a in v for k, c in mult[s][j])).nonzeros)
        return tuple(gens) if len(span) == self.dim else None

    @cached_property
    def algebra_witnesses(self) -> tuple[Optional[tuple], Optional[tuple]]:
        """(associativity witness, unit witness) of the algebra, each the
        lowest-index failure of the exhaustive scan or None.

        (None, None) without the exhaustive scan when the generators are
        certified, the unit holds on every basis element and
        associativity holds with its left factor in the generators: the
        lemma in verify_hopf then gives associativity everywhere.
        Shared with a twist through _algebra_source.
        """
        source = self._algebra_source
        if source is not self:
            return source.algebra_witnesses
        unit = _unit_witness(self, [Vec.basis(self.dim, i) for i in range(self.dim)])
        gens = self.generators
        if unit is None and gens is not None and _associativity_witness(self, gens) is None:
            return None, None
        return _associativity_witness(self, range(self.dim)), unit

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

    @cached_property
    def radical(self) -> tuple[Vec, ...]:
        """jacobson_radical(self), computed once per algebra: a twist
        reads its host's (see _algebra_source)."""
        source = self._algebra_source
        if source is not self:
            return source.radical
        return tuple(jacobson_radical(self))

    def mul_vec(self, x: Vec, y: Vec) -> Vec:
        """The product xy in H, on the integer numerators of x, y and
        mult_ints."""
        return _product(_kernel1, x, y, self)

    def counit_vec(self, x: Vec) -> CycScalar:
        acc = SC_ZERO
        for i, a in x.nonzeros:
            acc = acc + a * self.counit[i]
        return acc

    def antipode_vec(self, x: Vec) -> Vec:
        return Vec(self.dim, ((j, a * c) for i, a in x.nonzeros for j, c in self.antipode[i]))

    def comult_vec(self, x: Vec) -> Tensor2:
        return Tensor2(
            self.dim,
            (((j, k), a * c) for i, a in x.nonzeros for j, k, c in self.comult[i].nonzeros),
        )

    def same_structure(self, other: "HopfData") -> bool:
        """Exact structure-constant equality in the shared fixed basis."""
        if (self.dim, self.super, self.parity) != (other.dim, other.super, other.parity):
            return False
        if self.unit != other.unit or list(self.counit) != list(other.counit):
            return False
        for i in range(self.dim):
            for j in range(self.dim):
                if dict(self.mult[i][j]) != dict(other.mult[i][j]):
                    return False
            if dict(self.antipode[i]) != dict(other.antipode[i]):
                return False
        return self.comult == other.comult


def make_hopf(dim, unit, mult, comult, counit, antipode, parity=None, super=False) -> HopfData:
    """Normalize raw structure constants into a validated HopfData.

    mult[i][j] and antipode[i] are (k, c) pairs and comult[i] is
    (j, k, c) triples, in any order; every one goes through the sparse
    constructor, which sums a repeated index and drops zeros, so each
    cell and column is stored in increasing index and Delta(e_i) as its
    Tensor2.
    """
    mult, antipode = [tuple(row) for row in mult], (tuple(antipode),)
    table = _table(dim, mult)
    h = HopfData(
        dim=dim,
        unit=unit if isinstance(unit, Vec) else Vec.from_entries(unit),
        mult=_summed_cells(table, mult),
        comult=tuple(Tensor2(dim, (((j, k), c) for j, k, c in entry)) for entry in comult),
        counit=tuple(counit),
        antipode=_summed_cells(_table(dim, antipode), antipode)[0],
        parity=tuple(parity) if parity is not None else (0,) * dim,
        super=super,
    )
    # mult_ints, read off the same sum
    object.__setattr__(h, "mult_ints", IntCells(table, mult))
    return h.validate()


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
        return (
            self.associativity
            and self.unit
            and self.coassociativity
            and self.counit
            and self.bialgebra
            and self.antipode
        )

    def to_obj(self):
        return {
            "associativity": self.associativity,
            "unit": self.unit,
            "coassociativity": self.coassociativity,
            "counit": self.counit,
            "bialgebra": self.bialgebra,
            "antipode": self.antipode,
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }


def antipode_contraction(h: HopfData, t: Tensor2, leg: int = 0, square: bool = False) -> Vec:
    """m(S (x) id)(t), or m(id (x) S)(t) when leg is 1; S^2 in place of S
    when square is set."""
    mult, s_cols = h.mult, h.s2_columns if square else h.antipode

    def terms():
        for i, j, c in t.nonzeros:
            for s, sc in s_cols[j] if leg else s_cols[i]:
                cell = mult[i][s] if leg else mult[s][j]
                if cell:
                    f = c * sc
                    for k, m in cell:
                        yield k, f * m

    return Vec(h.dim, terms())


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
    and come from HopfData.algebra_witnesses, which applies the first
    lemma itself and is shared by a twist with the algebra it twists.
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
    unit witnesses are the algebra's (HopfData.algebra_witnesses), which
    equal the exhaustive scan's."""
    basis = [Vec.basis(h.dim, i) for i in range(h.dim)]
    associativity, unit = h.algebra_witnesses
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


def _associativity_witness(h: HopfData, lead):
    """The least (i, j, k), i in lead, with (e_i e_j) e_k != e_i (e_j e_k), or
    None; both sides for every k of one (i, j) are one Tensor2 keyed (k, q)."""
    d, mult = h.dim, h.mult
    for i in lead:
        row_i = mult[i]
        for j in range(d):
            lhs = Tensor2(d, (((k, q), c * c2) for p, c in row_i[j]
                              for k, cell in enumerate(mult[p]) for q, c2 in cell))
            rhs = Tensor2(d, (((k, q), c * c2) for k, cell in enumerate(mult[j])
                              for p, c in cell for q, c2 in row_i[p]))
            if lhs != rhs:
                return (i, j, (lhs - rhs).nonzeros[0][0])
    return None


def _unit_witness(h: HopfData, basis):
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
    d = h.dim
    par = h.parity
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
    antipode_d = [[] for _ in range(d)]
    for i, col in enumerate(h.antipode):
        for j, c in col:
            antipode_d[j].append((i, c))
    return make_hopf(
        dim=d,
        unit=Vec.from_entries(h.counit),
        mult=tuple(tuple(tuple(cell) for cell in row) for row in mult_d),
        comult=tuple(tuple(entry) for entry in comult_d),
        counit=h.unit.entries,
        antipode=antipode_d,
        parity=par,
        super=h.super,
    )


# ---------------------------------------------------------------------------
# radical, semisimplicity, Chevalley property

def trace_form(h: HopfData) -> list[dict]:
    """Sparse rows of T[i][j] = trace of left multiplication by e_i * e_j:
    row i maps each j with T[i][j] != 0 to T[i][j]."""
    d = h.dim
    tr = [SC_ZERO] * d  # tr[k] = trace(L_{e_k})
    for k in range(d):
        acc = SC_ZERO
        for j in range(d):
            for t, c in h.mult[k][j]:
                if t == j:
                    acc = acc + c
        tr[k] = acc
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


def jacobson_radical(h: HopfData) -> list[Vec]:
    """Exact radical basis: kernel of the regular trace form (char 0)."""
    return Echelon(trace_form(h)).kernel(h.dim)


def is_semisimple(h: HopfData) -> bool:
    return not h.radical


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
    proj = {f: ((f, SC_ONE),) for f in range(h.dim) if f not in span.rows}
    for p, row in span.rows.items():
        proj[p] = tuple((f, -c) for f, c in row.items() if f != p)
    for r in basis:
        image = Tensor2(
            h.dim,
            (
                ((a, b), c * x * y)
                for j, k, c in h.comult_vec(r).nonzeros
                for a, x in proj[j]
                for b, y in proj[k]
            ),
        )
        if image.nonzeros:
            return False
    return True


def is_chevalley(h: HopfData) -> bool:
    """True iff the radical is a Hopf ideal."""
    return subspace_is_hopf_ideal(h, h.radical)


def antipode_order(h: HopfData, bound: int = 16) -> int:
    """Least k >= 1 with S**k = id; OrderNotFound past the bound.

    The powers compose sparse columns; S^2 is the cached
    HopfData.s2_columns."""
    power = h.antipode
    for k in range(1, bound + 1):
        if is_identity_columns(power):
            return k
        power = h.s2_columns if k == 1 else compose_columns(h.antipode, power)
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
