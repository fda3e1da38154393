"""The central (super) Hopf algebra datatype and its verifiers.

HopfData records a finite-dimensional algebra-and-coalgebra by exact
structure constants, each a sparse tensor, in two records: an Algebra
(mult, one tensor.Tensor3 keyed (i, j, k), the unit and a Z2 parity
grading for the super case) and a Coalgebra (the counit as the
tensor.Vec of eps(e_i), and S and Delta as tuples of columns:
antipode[i] is the Vec S(e_i) and comult[i] the tensor.Tensor2
Delta(e_i)).  Every HopfData is made from its two records, whose
tensors each builder and loader makes itself; the sparse constructor
trusts its indices, and validate() refuses any outside.
Every map on elements applies such columns with tensor.apply_map on
integer numerators (S(x), Delta(x), S^2 and S^4, S^2 = Ad(u),
m(S (x) id)(t) with m = HopfData.mul_legs, the associativity rows, the
Hopf-ideal projection), and every covector
with tensor.contract (eps(x), the counit slants, eps o m, the trace
form).  Products read mult in integer form (Algebra.mult_ints, a
tensor.IntCells).  No dense matrix exists outside the dump format
(serialize.py), and no check here multiplies CycScalars outside
tensor.Echelon.

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
the generators, the radical, the associativity and unit witnesses,
commutativity and the algebra half of the structural check) lives on
the Algebra, and every fact of the coalgebra (its half of the
structural check, S^2, S^4, cocommutativity, the antipode order and the
counit witness) on the Coalgebra; each is computed once per record.
Coassociativity stays on HopfData: its generator lemma needs Delta
multiplicative, a fact of both halves.  H^J holds H's very Algebra, and
HopfData.replace makes a fresh record only of the half whose field it
changes.  The atlas's hosts of one (G, W) hold one Algebra too, and
with W = 0 one Coalgebra: u changes only Delta and S, and only on W.
On a commutative, associative and unital algebra J^-1 Delta J = Delta,
so H^J is the bialgebra H and S^J = S by the uniqueness of the
antipode: such a twist hands H^J H's very Coalgebra
(constructions.Twist.coalgebra), forms no Q, and changes only R;
otherwise H^J gets a Coalgebra of its own.  A HopfData keeps what
needs both halves: eps(1) = 1 and Delta(1) = 1 (x) 1, the axioms and
the Chevalley property.  The Hopf axioms are proved once per host: H^J
keeps the Twist that made it, and its axioms follow from H's by the
twisting theorem (HopfData.axioms) once its records equal H's Algebra
and the twist's Coalgebra, as does the Chevalley property
(HopfData.chevalley).  Facts of a pair (H, R) live in triangular.py.

The radical is computed from the kernel of the regular trace form
(valid in characteristic 0).  The Chevalley check tests that the radical
I is a Hopf ideal; the coproduct condition Delta(I) in I (x) H + H (x) I
is (pi (x) pi)(Delta(I)) = 0 for the projection pi along I, read off
I's reduced row echelon basis.

Inverses in H: algebra_inverse finds x^-1 as a polynomial in x, by
the minimal polynomial of x (tensor._polynomial_inverse, which inverts
in H (x) H too), and multiplies it back on both sides.  Where a theorem
gives the inverse in closed form, certified_inverse takes it after
multiplying it back on both sides and falls back to algebra_inverse
only if that fails, so a wrong closed form changes neither a value nor
an exception.  The two closed forms are
Q^-1 = m(id (x) S)(J^-1) for a twist's Q = m(S (x) id)(J)
(constructions.Twist.coalgebra) and u^-1 = sum b_i S^2(a_i) for the
Drinfeld element of R = sum a_i (x) b_i (triangular.drinfeld_element).
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Any, Optional, Sequence

from .errors import NotInvertible, OrderNotFound, ShapeError
from .scalars import SC_ONE, CycScalar
from .tensor import (
    Echelon,
    _kernel1,
    _kernel_legs,
    _polynomial_inverse,
    _product,
    _unit_legs,
    IntCells,
    Tensor2,
    Tensor3,
    Vec,
    apply_map,
    contract,
    embed13_23_12,
    flip,
    tensor2_mul,
)


_ALGEBRA_FIELDS = ("dim", "unit", "mult", "parity", "super")
_algebra_fields = attrgetter(*_ALGEBRA_FIELDS)
_COALGEBRA_FIELDS = ("dim", "comult", "counit", "antipode", "parity")
_coalgebra_fields = attrgetter(*_COALGEBRA_FIELDS)


def _read_only(obj, name, *value):
    """__setattr__ and __delattr__ of a record whose cached facts assume
    that its fields never change."""
    raise AttributeError(f"{type(obj).__name__} is read-only: cannot set or delete {name!r}")


class Algebra:
    """The product, unit and grading of a (super) Hopf algebra, and every
    fact of them, each computed once per object (see the module
    docstring).  mult is the Tensor3 of structure constants keyed
    (i, j, k): e_i * e_j = sum_k mult[i, j, k] e_k.  Equality compares
    the five fields, so an Algebra is unhashable (its unit is a Vec).

    An Algebra refuses attribute assignment: the facts cached on it
    (generators, radical, witnesses, commutative, mult_ints) hold only
    for the fields it was made with.  mult_text, the dump text of mult,
    starts as None and is written once, by serialize.hopf_dumps with
    object.__setattr__.
    """

    __hash__ = None

    def __init__(self, dim: int, unit: Vec, mult: Tensor3, parity: tuple[int, ...], super: bool = False):
        vars(self).update(dim=dim, unit=unit, mult=mult, parity=parity, super=super, mult_text=None)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if other.__class__ is not Algebra:
            return NotImplemented
        return _algebra_fields(self) == _algebra_fields(other)

    @cached_property
    def malformation(self) -> Optional[str]:
        """Why the algebra is not well formed, or None: shapes, the index
        range and parity of each product, and the parity of the unit."""
        d = self.dim
        if d < 1:
            return "dimension must be positive"
        if self.unit.dim != d or len(self.parity) != d:
            return "unit/counit/parity length mismatch"
        if not isinstance(self.mult, Tensor3) or self.mult.dim != d:
            return "multiplication tensor shape mismatch"
        if not self.super and any(self.parity):
            return "nonzero parity on a non-super algebra"
        if any(p not in (0, 1) for p in self.parity):
            return "parity entries must be 0 or 1"
        par = self.parity
        for i, j, k, _ in self.mult.nonzeros:
            if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
                return f"product index ({i},{j},{k}) out of range at e_{i} e_{j}"
            if (par[i] + par[j]) % 2 != par[k]:
                return f"product parity violation at ({i},{j},{k})"
        if any(par[i] for i, _ in self.unit.nonzeros):
            return "unit supported on odd basis elements"
        return None

    @cached_property
    def mult_ints(self) -> IntCells:
        """mult in the integer form of a sparse tensor, which every product
        in H, H (x) H and H (x) H (x) H reads."""
        return IntCells(self.mult)

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
    def commutative(self) -> bool:
        """Whether e_i e_j = e_j e_i for all i, j: every nonzero
        mult[i, j, k] equals mult[j, i, k], compared on the integer
        numerators of mult (one order and denominator for all cells)."""
        num = self.mult._num
        return all(num.get((j, i, k)) == v for (i, j, k), v in num.items())

    @cached_property
    def radical(self) -> tuple[Vec, ...]:
        """jacobson_radical(self)."""
        return tuple(jacobson_radical(self))


class Coalgebra:
    """The coproduct, counit and antipode of a (super) Hopf algebra, and
    the facts of them (malformation, S^2, S^4, cocommutative,
    counit_witness, antipode_order), each computed once per object:
    comult[i] is the Tensor2 Delta(e_i), counit the Vec of eps(e_i),
    antipode[i] the Vec S(e_i), and parity the grading the coproduct
    must respect.  Equality compares the five fields, so a Coalgebra is
    unhashable; it refuses attribute assignment, as Algebra does."""

    __hash__ = None

    def __init__(self, dim: int, comult: tuple, counit: Vec, antipode: tuple, parity: tuple[int, ...]):
        vars(self).update(dim=dim, comult=comult, counit=counit, antipode=antipode, parity=parity)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if other.__class__ is not Coalgebra:
            return NotImplemented
        return _coalgebra_fields(self) == _coalgebra_fields(other)

    @cached_property
    def malformation(self) -> Optional[str]:
        """Why the coalgebra is not well formed, or None: shapes, the
        index range and parity of each coproduct term and the index range
        of each antipode term."""
        d, par = self.dim, self.parity
        if not isinstance(self.counit, Vec) or self.counit.dim != d or len(par) != d:
            return "unit/counit/parity length mismatch"
        if len(self.comult) != d or any(not isinstance(t, Tensor2) or t.dim != d for t in self.comult):
            return "comultiplication shape mismatch"
        if len(self.antipode) != d or any(not isinstance(v, Vec) or v.dim != d for v in self.antipode):
            return "antipode shape mismatch"
        # indices and parities only: the keys, in increasing order, and no
        # coefficient made a CycScalar
        for i in range(d):
            for j, k in sorted(self.comult[i]._num):
                if not (0 <= j < d and 0 <= k < d):
                    return f"coproduct index ({j},{k}) out of range at {i}"
                if (par[j] + par[k]) % 2 != par[i]:
                    return f"coproduct parity violation at ({i},{j},{k})"
            for j in sorted(self.antipode[i]._num):
                if not 0 <= j < d:
                    return f"antipode index {j} out of range at {i}"
        return None

    @cached_property
    def s2_columns(self) -> tuple[Vec, ...]:
        """S^2 as its columns S^2(e_i)."""
        return tuple(apply_map(self.antipode, col) for col in self.antipode)

    @cached_property
    def s4_columns(self) -> tuple[Vec, ...]:
        """S^4 = S^2 o S^2 as its columns."""
        return tuple(apply_map(self.s2_columns, col) for col in self.s2_columns)

    @cached_property
    def cocommutative(self) -> bool:
        """flip(Delta(e_i)) = Delta(e_i) for every i, the flip signed by this record's parity."""
        return all(flip(t, self) == t for t in self.comult)

    @cached_property
    def counit_witness(self) -> Optional[tuple[int]]:
        """The least (i,) with a counit slant of Delta(e_i) other than e_i, or None."""
        for i, t in enumerate(self.comult):
            e = Vec.basis(self.dim, i)
            if counit_slants(self, t) != (e, e):
                return (i,)
        return None

    @cached_property
    def antipode_order(self) -> int:
        """Least k >= 1 with S**k = id; OrderNotFound past 8 dim H.

        When the cached S^4 is the identity the order divides 4 and is
        read off S and S^2 (S^3 = id would give S = S^4 S^-3 = id); only
        otherwise are S^3, S^5, ... composed by apply_map.  The bound
        holds for every (super) Hopf algebra: Radford gives S^(4 dim B) = id,
        and a super H lies in its bosonization H x| k[Z2], of dimension
        2 dim H, whose S^4 restricts to S_H^4."""
        identity = tuple(Vec.basis(self.dim, i) for i in range(self.dim))
        if self.s4_columns == identity:
            return 1 if self.antipode == identity else 2 if self.s2_columns == identity else 4
        order, power = 3, tuple(apply_map(self.antipode, col) for col in self.s2_columns)
        while power != identity:
            if order == 8 * self.dim:
                raise OrderNotFound(f"antipode order exceeds 8 dim H = {order}")
            order, power = order + 1, tuple(apply_map(self.antipode, col) for col in power)
        return order


class HopfData:
    """A (super) Hopf algebra given by structure constants: an Algebra,
    a Coalgebra and the constructions.Twist whose apply() made this
    object, or None (see axioms).  dim, unit, mult, parity and super
    read through to the algebra, and comult, counit and antipode to the
    coalgebra; a fact of one half is read on its record.

    A HopfData refuses attribute assignment, since its cached facts
    (axioms, chevalley, the structural check) hold only for the records
    it was made with; replace() makes a changed copy.  Equality is
    identity.
    """

    def __init__(self, algebra: Algebra, coalgebra: Coalgebra, twist: Optional[Any] = None):
        vars(self).update(algebra=algebra, coalgebra=coalgebra, twist=twist)

    __setattr__ = __delattr__ = _read_only

    dim = property(attrgetter("algebra.dim"))
    unit = property(attrgetter("algebra.unit"))
    mult = property(attrgetter("algebra.mult"))
    parity = property(attrgetter("algebra.parity"))
    super = property(attrgetter("algebra.super"))
    comult = property(attrgetter("coalgebra.comult"))
    counit = property(attrgetter("coalgebra.counit"))
    antipode = property(attrgetter("coalgebra.antipode"))

    def validate(self) -> "HopfData":
        """Structural well-formedness; axiom checking lives in verify_hopf."""
        if self._malformation is not None:
            raise ShapeError(self._malformation)
        return self

    @cached_property
    def _malformation(self) -> Optional[str]:
        """Why the structure is not well formed, or None: each record's
        own check (Algebra.malformation, Coalgebra.malformation), then
        what needs both halves: one grading, eps(1) = 1 and
        Delta(1) = 1 (x) 1."""
        algebra, coalgebra = self.algebra, self.coalgebra
        problem = algebra.malformation or coalgebra.malformation
        if problem is not None:
            return problem
        if (coalgebra.dim, coalgebra.parity) != (algebra.dim, algebra.parity):
            return "algebra and coalgebra grading mismatch"
        if self.counit_vec(self.unit) != SC_ONE:
            return "counit(unit) != 1"
        if self.comult_vec(self.unit) != Tensor2.outer(self.unit, self.unit):
            return "Delta(unit) != unit (x) unit"
        return None

    def replace(self, **changes) -> "HopfData":
        """A copy with the given fields changed.  A change to a field of
        the Algebra or the Coalgebra (dim and parity are both's) makes a
        fresh record of it, which shares no fact with this object's; an
        unchanged record is kept.  algebra, coalgebra and twist replace
        whole parts."""
        algebra = changes.pop("algebra", self.algebra)
        coalgebra = changes.pop("coalgebra", self.coalgebra)
        twist = changes.pop("twist", self.twist)
        unknown = changes.keys() - {*_ALGEBRA_FIELDS, *_COALGEBRA_FIELDS}
        if unknown:
            raise TypeError(f"replace() got unknown fields {sorted(unknown)}")
        if changes.keys() & _ALGEBRA_FIELDS:
            algebra = Algebra(*(changes.get(name, getattr(algebra, name)) for name in _ALGEBRA_FIELDS))
        if changes.keys() & _COALGEBRA_FIELDS:
            coalgebra = Coalgebra(*(changes.get(name, getattr(coalgebra, name)) for name in _COALGEBRA_FIELDS))
        return HopfData(algebra, coalgebra, twist)

    # --- basic linear maps -------------------------------------------------

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

    @cached_property
    def chevalley(self) -> bool:
        """Whether the radical I is a Hopf ideal, once per object.  For an
        H^J that Twist.proves_hopf holds on, H's verdict: H^J has H's I
        and counit, and as I (x) H + H (x) I and I are two-sided ideals,
        J^-1 Delta(I) J and Q^-1 S(I) Q lie in them exactly when Delta(I)
        and S(I) do.  Otherwise subspace_is_hopf_ideal decides."""
        if self.twist is not None and self.twist.proves_hopf(self):
            return self.twist.host.chevalley
        return subspace_is_hopf_ideal(self, self.algebra.radical)

    def mul_vec(self, x: Vec, y: Vec) -> Vec:
        """The product xy in H, as Algebra.mul_vec computes it."""
        return _product(_kernel1, (x, y), Vec, self.algebra)

    def mul_legs(self, t: Tensor2) -> Vec:
        """m(t) = sum c e_i e_j for t = sum c e_i (x) e_j, on the integer
        numerators of t and the algebra's mult_ints."""
        return _product(_kernel_legs, (t,), Vec, self.algebra)

    def counit_vec(self, x: Vec) -> CycScalar:
        return contract(self.counit, x)

    def antipode_vec(self, x: Vec) -> Vec:
        return apply_map(self.antipode, x)

    def comult_vec(self, x: Vec) -> Tensor2:
        return apply_map(self.comult, x)


# ---------------------------------------------------------------------------
# axiom verification

_AXIOMS = ("associativity", "unit", "coassociativity", "counit", "bialgebra", "antipode")


class AxiomReport:
    """One verdict per Hopf axiom, and the lowest-index witness of each
    failed axiom in witnesses, keyed by the axiom's name."""

    def __init__(self, associativity, unit, coassociativity, counit, bialgebra, antipode, witnesses):
        self.associativity = associativity
        self.unit = unit
        self.coassociativity = coassociativity
        self.counit = counit
        self.bialgebra = bialgebra
        self.antipode = antipode
        self.witnesses = witnesses

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
    return h.mul_legs(apply_map(h.coalgebra.s2_columns if square else h.antipode, t, leg))


def counit_slants(h: HopfData | Coalgebra, t: Tensor2) -> tuple[Vec, Vec]:
    """(eps (x) id)(t) and (id (x) eps)(t)."""
    return contract(h.counit, t, 0), contract(h.counit, t, 1)


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
    associativity, unit = h.algebra.witnesses
    found = {
        "associativity": associativity,
        "unit": unit,
        "coassociativity": _coassociativity_witness(h, lead),
        "counit": h.coalgebra.counit_witness,
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
    second leg of L_{e_j} (IntCells.left_multiplication).  The products
    e_i e_j are made for i in lead only."""
    cells = h.mult_ints
    left = cells.left_multiplication()
    for i in lead:
        products = cells.products(i)
        for j in range(h.dim):
            lhs = apply_map(left, products[j])
            rhs = apply_map(products, left[j], 1)
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


def _bialgebra_witness(h: HopfData, lead):
    """Counit multiplicativity and Delta(e_i e_j) = Delta(e_i) Delta(e_j),
    Koszul-signed, on (i, j) for i in lead.  The first is one tensor
    identity, eps o m = eps (x) eps, keyed (i, j)."""
    eps = h.counit
    unequal = {(i, j) for i, j, _ in (contract(eps, h.mult, 2) - Tensor2.outer(eps, eps)).nonzeros}
    basis = [Vec.basis(h.dim, i) for i in range(h.dim)]
    for i in lead:
        for j in range(h.dim):
            if (i, j) in unequal:
                return (i, j)
            product = h.mul_vec(basis[i], basis[j])
            if h.comult_vec(product) != tensor2_mul(h.comult[i], h.comult[j], h):
                return (i, j)
    return None


def _antipode_witness(h: HopfData):
    for i in range(h.dim):
        target = h.unit.scale(h.counit.get(i))
        if (
            antipode_contraction(h, h.comult[i]) != target
            or antipode_contraction(h, h.comult[i], leg=1) != target
        ):
            return (i,)
    return None


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
    mult_d = []
    for t in range(d):
        for a, b, c in h.comult[t].nonzeros:
            mult_d.append(((a, b, t), -c if (h.super and par[a] and par[b]) else c))
    comult_d = [[] for _ in range(d)]
    for i, j, t, c in h.mult.nonzeros:
        coef = -c if (h.super and par[i] and par[j]) else c
        comult_d[t].append(((i, j), coef))
    antipode_d = (Vec(d, [(i, col.get(j)) for i, col in enumerate(h.antipode)]) for j in range(d))
    return HopfData(
        Algebra(d, h.counit, Tensor3(d, mult_d), par, h.super),
        Coalgebra(d, tuple(Tensor2(d, t) for t in comult_d), h.unit, tuple(antipode_d), par),
    ).validate()


# ---------------------------------------------------------------------------
# radical, semisimplicity, Chevalley property

def trace_form(h: Algebra | HopfData) -> list[dict]:
    """Sparse rows of T[i][j] = trace of left multiplication by e_i * e_j:
    row i maps each j with T[i][j] != 0 to T[i][j].  T is mult with the
    covector tr, tr[k] = trace(L_{e_k}) read off the diagonal
    mult[k, j, j], contracted on its product leg."""
    mult = h.mult
    tr = Vec(h.dim, [(k, c) for k, j, l, c in mult.nonzeros if j == l])
    rows: list[dict] = [{} for _ in range(h.dim)]
    for i, j, c in contract(tr, mult, 2).nonzeros:
        rows[i][j] = c
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
    """True iff the radical is a Hopf ideal (HopfData.chevalley)."""
    return h.chevalley


def algebra_inverse(h: HopfData, x: Vec) -> Vec:
    """Two-sided inverse of an element of H, a polynomial in x
    (tensor._polynomial_inverse), multiplied back on both sides: a loaded
    dump's product may not be associative."""
    inv = _polynomial_inverse(x, h.unit, h.mul_vec)
    if h.mul_vec(inv, x) != h.unit:
        raise NotInvertible("element has no two-sided inverse in H")
    return inv


def certified_inverse(h: HopfData, x: Vec, candidate: Vec) -> Vec:
    """x^-1 from a closed-form candidate: the candidate when it multiplies
    back to 1 on both sides, else algebra_inverse(h, x), so a wrong
    candidate changes neither the value nor the exception."""
    if h.mul_vec(candidate, x) == h.unit and h.mul_vec(x, candidate) == h.unit:
        return candidate
    return algebra_inverse(h, x)
