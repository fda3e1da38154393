"""Builders for the catalog of (super) Hopf algebras.

Group algebras, smash products k[G] x Lambda(V), bicharacter twists
supported on abelian subgroups, and the septuple twist that composes
them.  Every builder returns validated HopfData whose axioms the
verifiers re-check exhaustively in the test suite.

Each step of the construction chain has one implementation.  The smash
product is built once, as the super Hopf algebra supergroup_algebra
returns; the other two derive from it.  The exterior algebra
Lambda(V) is the supergroup algebra of the trivial group, and the
modified supergroup algebra is the ordinary Hopf algebra on the same
algebra obtained with a central involution u acting by -1 on V:
Delta'(x) = sum x_1 u^|x_2| (x) x_2 and S'(x) = u^|x| S(x).  Since u
moves a basis element g v_T to the basis element (ug) v_T, up to sign,
the modification is one pass over the super tables' nonzeros.  k[G]
keeps its own direct tables.

One sign rule: _wedge gives the sign of v_A ^ v_B, and the coproduct
split Delta(v_S) = sum eps v_T (x) v_{S-T} takes eps from
v_T ^ v_{S-T} = eps v_S.  One exterior expansion: rho(h) v_S wedges
the columns rho(h) v_b together one at a time, which is one term for
a monomial rho(h) and the minors otherwise.  One twist datum:
bicharacter_twist_pair builds (J, J^-1) on an abelian subgroup, for a
septuple and for semisimple_triangular, which is the W = 0 case.

Basis order of the smash product is group-major, subset-minor with
subsets in bitmask order: index = g * 2**w + mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    SeptupleInvariantViolation,
    ShapeError,
    TwistError,
    UnsupportedStratum,
)
from .groups import (
    AbelianSubgroup,
    Bicharacter,
    FiniteGroup,
    GroupRep,
    characters,
    half_bicharacter,
)
from .hopf import (
    HopfData,
    antipode_contraction,
    certified_inverse,
    counit_slants,
    make_hopf,
)
from .scalars import SC_ONE, SC_ZERO, CycScalar
from .tensor import (
    Echelon,
    Tensor2,
    Vec,
    apply_map,
    flip,
    tensor2_inv,
    tensor2_mul,
    tensor3_mul,
    embed13_23_12,
    unit_tensor2,
)
from .triangular import r_u


# ---------------------------------------------------------------------------
# group algebras

def group_algebra(g: FiniteGroup) -> HopfData:
    """k[G]: basis the group elements, Delta(g) = g (x) g, S(g) = g^-1."""
    d = g.order
    mult = tuple(
        tuple(((g.table[i][j], SC_ONE),) for j in range(d)) for i in range(d)
    )
    comult = tuple(((i, i, SC_ONE),) for i in range(d))
    return make_hopf(
        dim=d,
        unit=Vec.basis(d, g.identity),
        mult=mult,
        comult=comult,
        counit=(SC_ONE,) * d,
        antipode=tuple(((g.inverse[i], SC_ONE),) for i in range(d)),
    )


# ---------------------------------------------------------------------------
# exterior-algebra combinatorics (basis masks over v_1 < v_2 < ... < v_w)

def _popcount_below(mask: int, bit: int) -> int:
    return bin(mask & ((1 << bit) - 1)).count("1")


def _wedge(a_mask: int, b_mask: int):
    """Sign and mask of v_A ^ v_B, or None when they share a factor."""
    if a_mask & b_mask:
        return None
    inv = 0
    m = a_mask
    while m:
        bit = (m & -m).bit_length() - 1
        inv += _popcount_below(b_mask, bit)
        m &= m - 1
    return (-1) ** inv, a_mask | b_mask


def _subsets(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _exterior_image(cols, mask: int):
    """rho(v_mask) = rho(v_b1) ^ rho(v_b2) ^ ... for b1 < b2 < ... in mask,
    with rho(v_b) the column cols[b], a Vec (GroupRep.matrices):
    sparse (mask, coefficient) pairs.

    The running image is a Vec over Lambda(V), keyed by mask.  A monomial
    rho keeps one term at every step; any other rho gives the minors of
    rho on the columns in mask.
    """
    size = 1 << len(cols)
    image = Vec.basis(size, 0)
    for b in range(mask.bit_length()):
        if not mask >> b & 1:
            continue
        terms = []
        for out_mask, coeff in image.nonzeros:
            for a, c in cols[b].nonzeros:
                wedge = _wedge(out_mask, 1 << a)
                if wedge is not None:
                    sign, k = wedge
                    term = coeff * c
                    terms.append((k, term if sign > 0 else -term))
        image = Vec(size, terms)
    return image.nonzeros


# ---------------------------------------------------------------------------
# smash products k[G] x Lambda(V)

def _smash_product(g: FiniteGroup, v: GroupRep):
    """The super Hopf tables of k[G] x Lambda(V), shared by both smash builders.

    Returns (mult, comult, counit, antipode, parity, size) with
    size = 2**degree, each mult cell as its raw signed terms (make_hopf
    sums them) and the antipode as sparse columns (HopfData.antipode).
    With rho(h) v_S expanded once per h
    (_exterior_image) and every sign read off _wedge:
      (g, S)(h, T) = (gh, rho(h^-1)(v_S) ^ v_T), so g v = rho(g)(v) g;
      Delta(g v_S) = sum over T in S of eps g v_T (x) g v_{S-T}, where
        v_T ^ v_{S-T} = eps v_S;
      S(g v_S) = (-1)^|S| (g^-1, rho(g) v_S).
    """
    w = v.degree
    size = 1 << w
    dim = g.order * size
    images = [tuple(_exterior_image(cols, mask) for mask in range(size)) for cols in v.matrices]
    mult = []
    for i in range(dim):
        gi, si = divmod(i, size)
        row = []
        for j in range(dim):
            hj, tj = divmod(j, size)
            base = g.table[gi][hj] * size
            cell = []
            for u_mask, coeff in images[g.inverse[hj]][si]:
                wedge = _wedge(u_mask, tj)
                if wedge is not None:
                    sign, mask = wedge
                    cell.append((base + mask, coeff if sign > 0 else -coeff))
            row.append(cell)
        mult.append(row)
    splits = [
        tuple(
            (t, s & ~t, SC_ONE if _wedge(t, s & ~t)[0] > 0 else -SC_ONE)
            for t in _subsets(s)
        )
        for s in range(size)
    ]
    parity = tuple(bin(i % size).count("1") % 2 for i in range(dim))
    comult = []
    s_cols = []
    for i in range(dim):
        gi, si = divmod(i, size)
        base = gi * size
        comult.append(tuple((base + t, base + c, sign) for t, c, sign in splits[si]))
        ginv = g.inverse[gi] * size
        s_cols.append(
            tuple((ginv + mask, -c if parity[i] else c) for mask, c in images[gi][si])
        )
    counit = tuple(SC_ONE if i % size == 0 else SC_ZERO for i in range(dim))
    return tuple(mult), comult, counit, s_cols, parity, size


def _check_rep(g: FiniteGroup, v: GroupRep):
    if not (v.group is g or (v.group.table == g.table and v.group.identity == g.identity)):
        raise ShapeError("representation must act on the given group")


def supergroup_algebra(g: FiniteGroup, v: GroupRep) -> HopfData:
    """k[G] x Lambda(V): group-likes even, generators odd and primitive."""
    _check_rep(g, v)
    mult, comult, counit, s_cols, parity, size = _smash_product(g, v)
    return make_hopf(
        dim=len(mult),
        unit=Vec.basis(len(mult), g.identity * size),
        mult=mult,
        comult=comult,
        counit=counit,
        antipode=s_cols,
        parity=parity,
        super=True,
    )


def exterior_algebra(n: int) -> HopfData:
    """Lambda(V) on n odd primitive generators, as a super Hopf algebra:
    the supergroup algebra of the trivial group on V = k^n."""
    if n < 0:
        raise ShapeError("negative exterior dimension")
    triv = FiniteGroup.trivial()
    identity = [[SC_ONE if a == b else SC_ZERO for b in range(n)] for a in range(n)]
    return supergroup_algebra(triv, GroupRep(triv, n, [identity]))


def _check_modifier(g: FiniteGroup, v: GroupRep, u: int):
    if not (0 <= u < g.order):
        raise SeptupleInvariantViolation("modifier index out of range")
    if not g.is_central(u):
        raise SeptupleInvariantViolation("modifier u must be central")
    if g.table[u][u] != g.identity:
        raise SeptupleInvariantViolation("modifier u must square to the identity")
    if not v.acts_by_minus_one(u):
        raise SeptupleInvariantViolation("modifier u must act by -1 on V")


def modified_supergroup_algebra(
    g: FiniteGroup, v: GroupRep, u: int
) -> tuple[HopfData, Tensor2]:
    """Ordinary triangular Hopf algebra on the smash-product algebra.

    The supergroup algebra modified by the central involution u, which
    acts by -1 on V: Delta'(x) = sum x_1 u^|x_2| (x) x_2 and
    S'(x) = u^|x| S(x), so group elements stay group-like while
    Delta'(v) = v (x) 1 + u (x) v and S'(v) = -u v.  Returns the rank
    <= 2 triangular structure R_u = (1/2)(1 (x) 1 + 1 (x) u + u (x) 1
    - u (x) u) alongside.
    """
    _check_rep(g, v)
    _check_modifier(g, v, u)
    mult, comult, counit, s_cols, parity, size = _smash_product(g, v)
    dim = len(mult)
    # u (g v_T) = (ug) v_T and (g v_T) u = (-1)^|T| (gu) v_T: one signed
    # basis element each, at index shifted[i]
    shifted = [g.table[i // size][u] * size + i % size for i in range(dim)]
    comult = [
        tuple(
            (shifted[j], k, -c if parity[j] else c) if parity[k] else (j, k, c)
            for j, k, c in entry
        )
        for entry in comult
    ]
    s_cols = [
        tuple((shifted[k], c) for k, c in col) if parity[i] else col
        for i, col in enumerate(s_cols)
    ]
    h = make_hopf(
        dim=dim,
        unit=Vec.basis(dim, g.identity * size),
        mult=mult,
        comult=comult,
        counit=counit,
        antipode=s_cols,
    )
    return h, r_u(h, Vec.basis(dim, u * size))


# ---------------------------------------------------------------------------
# bicharacter twists

def build_bicharacter_twist(a: AbelianSubgroup, beta: Bicharacter) -> Tensor2:
    """J = sum over dual labels of beta(s,t) E_s (x) E_t inside k[G] (x) k[G].

    beta is the bimultiplicative twist datum itself; to realize a
    classification datum gamma (alternating, nondegenerate) pass
    half_bicharacter(gamma), whose skew is gamma.
    """
    if tuple(beta.factors) != tuple(a.factors):
        raise ShapeError(
            f"bicharacter factors {beta.factors} do not match subgroup factors {a.factors}"
        )
    parent_dim = a.parent.order
    _, _, idems = characters(a)
    # inflate idempotents from subgroup coordinates to parent coordinates
    inflated = [tuple((a.elements[local], c) for local, c in e.nonzeros) for e in idems]

    def terms():
        # J = sum_s E_s (x) w_s with w_s = sum_t beta(s,t) E_t, summed once per s
        for es, row in zip(inflated, beta.values):
            w = Vec(parent_dim, ((q, b * cq) for et, b in zip(inflated, row) for q, cq in et))
            for p, cp in es:
                for q, c in w.nonzeros:
                    yield (p, q), cp * c

    return Tensor2(parent_dim, terms())


def inflate_group_tensor(t: Tensor2, factor: int, dim: int) -> Tensor2:
    """Map a tensor over k[G] into the smash basis (index g -> g * factor)."""
    if t.dim * factor != dim:
        raise ShapeError("inflation factor does not match dimensions")
    return Tensor2.from_dict(
        dim, {(i * factor, j * factor): c for i, j, c in t.nonzeros}
    )


def check_tensor_dims(h: HopfData, *tensors: Optional[Tensor2]):
    """ShapeError unless every given tensor lies in H (x) H for this H."""
    for t in tensors:
        if t is not None and t.dim != h.dim:
            raise ShapeError(f"tensor over dimension {t.dim} given for dimension {h.dim}")


def _twist_identities_hold(h: HopfData, j: Tensor2) -> bool:
    """Counit normalization and (Delta (x) id)(J) J12 = (id (x) Delta)(J) J23.

    This is the cocycle order under which Delta^J = J^-1 Delta J is
    coassociative; J12 (Delta (x) id)(J) = J23 (id (x) Delta)(J) is the
    one for J Delta J^-1.  A J of another dimension raises ShapeError.
    """
    check_tensor_dims(h, j)
    left, right = counit_slants(h, j)
    if left != h.unit or right != h.unit:
        return False
    lhs = tensor3_mul(
        embed13_23_12(j, "delta_id", h), embed13_23_12(j, "12", h), h
    )
    rhs = tensor3_mul(
        embed13_23_12(j, "id_delta", h), embed13_23_12(j, "23", h), h
    )
    return lhs == rhs


def verify_twist(h: HopfData, j: Tensor2) -> bool:
    """Counit normalization and the cocycle identity, checked exhaustively.

    The cocycle identity is (Delta (x) id)(J) J12 = (id (x) Delta)(J) J23,
    the one apply_twist's Delta^J = J^-1 Delta J needs.  Returns False on
    identity failures; raises NotInvertible when the identities hold but
    j is singular in H (x) H.
    """
    if not _twist_identities_hold(h, j):
        return False
    tensor2_inv(j, h)
    return True


@dataclass(frozen=True)
class Twist:
    """A twist J of an ordinary Hopf algebra H, with J^-1 and an optional R.

    Constructing one checks J: counit normalization, the cocycle identity
    (Delta (x) id)(J) J12 = (id (x) Delta)(J) J23, and J^-1 two-sided (it
    is solved for when not given); any failure raises TwistError, or
    NotInvertible for a singular J.  R, when given, is a triangular
    structure of H to carry along; it is not checked here.  A J, J^-1 or
    R of another dimension than H raises ShapeError first.
    """

    host: HopfData
    j: Tensor2
    j_inv: Optional[Tensor2] = None
    r: Optional[Tensor2] = None

    def __post_init__(self):
        h, j = self.host, self.j
        check_tensor_dims(h, j, self.j_inv, self.r)
        if h.super:
            raise TwistError("twisting super Hopf algebras is not supported")
        if not _twist_identities_hold(h, j):
            raise TwistError("counit or cocycle identity fails")
        if self.j_inv is None:
            object.__setattr__(self, "j_inv", tensor2_inv(j, h))
        else:
            unit2 = unit_tensor2(h)
            if tensor2_mul(j, self.j_inv, h) != unit2 or tensor2_mul(self.j_inv, j, h) != unit2:
                raise TwistError("provided inverse is not a two-sided inverse")

    def apply(self) -> tuple[HopfData, Optional[Tensor2]]:
        """(H^J, R^J): Delta^J(x) = J^-1 Delta(x) J, the antipode conjugated
        by Q = m(S (x) id)(J), and R^J = J21^-1 R J when R is given.
        H^J holds H's very Algebra (hopf.Algebra: multiplication, unit
        and grading, with every fact computed of them, such as the
        generators, the radical and the associativity and unit
        witnesses) and H's counit.  The coalgebra half of the structural
        check runs on H^J; H^J keeps this twist, and its axioms are
        proved from H's when first asked (proves_hopf).

        Q^-1 is the closed form m(id (x) S)(J^-1) with the certified
        J^-1, multiplied back on both sides (certified_inverse); if that
        fails it is solved for, as a singular Q would raise.  Column i of
        the antipode is S^J(e_i) = Q^-1 P_i with P_i = S(e_i) Q, and Q
        and the P_i are kept on H^J for its antipode premise
        (proves_hopf)."""
        h, j, j_inv = self.host, self.j, self.j_inv
        comult_new = tuple(tensor2_mul(tensor2_mul(j_inv, d, h), j, h) for d in h.comult)
        q, products = self._antipode_products(h)
        # Q^-1 = m(id (x) S)(J^-1)
        q_inv = certified_inverse(h, q, antipode_contraction(h, j_inv, leg=1))
        out = h.replace(
            comult=comult_new,
            antipode=tuple(h.mul_vec(q_inv, p) for p in products),
            twist=self,
        ).validate()
        object.__setattr__(out, "_antipode_products", (q, products))
        r_new = None
        if self.r is not None:
            r_new = tensor2_mul(tensor2_mul(flip(j_inv), self.r, h), j, h)
        return out, r_new

    def _antipode_products(self, h: HopfData) -> tuple[Vec, tuple[Vec, ...]]:
        """(Q, (S(e_i) Q for every i)) with Q = m(S (x) id)(J) and S the
        antipode of H; kept on the H^J apply made, so that a copy of it
        (HopfData.replace) computes them afresh."""
        if h.twist is self and "_antipode_products" in h.__dict__:
            return h.__dict__["_antipode_products"]
        host = self.host
        q = antipode_contraction(host, self.j)
        return q, tuple(host.mul_vec(s, q) for s in host.antipode)

    def intertwines(self, h: HopfData) -> bool:
        """J Delta_h(e_i) = Delta(e_i) J for every i, on an h with H's
        algebra; kept on the H^J this twist made, whose axioms
        (proves_hopf) and triangularity certificate share it."""
        mine = h.twist is self
        if mine and "_intertwined" in h.__dict__:
            return h.__dict__["_intertwined"]
        host, j = self.host, self.j
        ok = all(
            tensor2_mul(j, h.comult[i], h) == tensor2_mul(host.comult[i], j, h)
            for i in range(h.dim)
        )
        if mine:
            object.__setattr__(h, "_intertwined", ok)
        return ok

    def proves_hopf(self, h: HopfData) -> bool:
        """True when Drinfeld's twisting theorem proves h = H^J a Hopf
        algebra (Kassel, Quantum Groups, XV.3): J was checked when this
        twist was made; H's axioms hold (proved once per host); h is well
        formed and has H's algebra and counit (HopfData.keeps_algebra_of:
        H's very Algebra, as apply hands it, or an equal one); and, since J
        and Q = m(S (x) id)(J) are invertible, Delta_h = J^-1 Delta J
        (intertwines) and S_h = Q^-1 S Q, checked as Q S_h(e_i) = P_i
        with P_i = S(e_i) Q (_antipode_products).
        False means a premise failed, not that h is no Hopf algebra."""
        host = self.host
        if not host.axioms.ok or h._malformation is not None:
            return False
        if not h.keeps_algebra_of(host) or not self.intertwines(h):
            return False
        q, products = self._antipode_products(h)
        return all(host.mul_vec(q, s) == p for s, p in zip(h.antipode, products))


def apply_twist(
    h: HopfData,
    j: Tensor2,
    r: Optional[Tensor2] = None,
    j_inv: Optional[Tensor2] = None,
) -> tuple[HopfData, Optional[Tensor2]]:
    """Conjugate the comultiplication by a verified twist.

    J must satisfy counit normalization and the cocycle identity
    (Delta (x) id)(J) J12 = (id (x) Delta)(J) J23 (checked, as Twist
    does); then Delta^J(x) = J^-1 Delta(x) J, the antipode conjugates by
    Q = m(S (x) id)(J), and an optional triangular structure transforms
    as J21^-1 R J.  Multiplication, unit and counit are untouched.
    """
    return Twist(h, j, j_inv, r).apply()


def bicharacter_twist_pair(
    sub: AbelianSubgroup, gamma: Bicharacter, dim: int
) -> tuple[Tensor2, Tensor2]:
    """(J, J^-1) of the bicharacter twist on sub for the datum gamma,
    inflated from sub's parent G to dimension dim: J is built from
    beta = half_bicharacter(gamma), J^-1 in closed form from the
    inverse bicharacter; Twist checks both."""
    beta = half_bicharacter(gamma)
    factor = dim // sub.parent.order
    return tuple(
        inflate_group_tensor(build_bicharacter_twist(sub, b), factor, dim)
        for b in (beta, beta.inverse())
    )


def semisimple_triangular(
    g: FiniteGroup, a: AbelianSubgroup, gamma: Bicharacter, u: int
) -> tuple[HopfData, Tensor2]:
    """Twisted group algebra (k[G]^J, J21^-1 R_u J): the W = 0 septuple.

    k[G] with R_u is the modified supergroup algebra on W = 0, which
    refuses a u that is not a central involution; W lives on A's
    parent, so an A inside another group is refused as well.  gamma is
    the alternating classification datum on A.
    """
    h, r = modified_supergroup_algebra(g, GroupRep.zero(a.parent), u)
    return Twist(h, *bicharacter_twist_pair(a, gamma, h.dim), r).apply()


# ---------------------------------------------------------------------------
# septuples

@dataclass(frozen=True)
class Septuple:
    """Classification datum (G, W, A, Y, B, V, u).

    The projective-representation datum V is carried as an alternating
    bicharacter on A plus its declared dimension.  Y is a tuple of
    vectors in W's space.  B is an element of S^2 Y, given as a tuple of
    rows in Y coordinates; if R is the restriction of rho(a) to Y in
    those coordinates, a transforms B as R B R^T.
    """

    group: FiniteGroup
    w: GroupRep
    a_elements: tuple[int, ...]
    y_basis: tuple[Vec, ...]
    b: Optional[tuple[tuple[CycScalar, ...], ...]]
    v_beta: Bicharacter
    v_dim: int
    u: int


@dataclass(frozen=True)
class SeptupleReport:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def valid(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[str]:
        return [name for name, ok, _ in self.checks if not ok]

    def to_obj(self):
        return {
            "valid": self.valid,
            "checks": [
                {"name": n, "passed": ok, "detail": d} for n, ok, d in self.checks
            ],
        }


def validate_septuple(s: Septuple) -> SeptupleReport:
    """Check every septuple invariant; failures are report entries."""
    checks: list[tuple[str, bool, str]] = []
    g = s.group
    elems = tuple(sorted(set(s.a_elements)))
    distinct = len(elems) == len(s.a_elements)

    closed = distinct and bool(elems) and g.identity in elems and all(
        g.table[x][y] in set(elems) for x in elems for y in elems
    )
    a_detail = f"A = {list(elems)}" if distinct else "repeated subgroup element"
    checks.append(("a_closed_contains_identity", closed, a_detail))
    abelian = closed and all(
        g.table[x][y] == g.table[y][x] for x in elems for y in elems
    )
    checks.append(("a_abelian", abelian, ""))

    sub: Optional[AbelianSubgroup] = None
    if abelian:
        sub = AbelianSubgroup(g, elems)

    # Y: a basis, invariant under A
    if any(yv.dim != s.w.degree for yv in s.y_basis):
        raise ShapeError("matrix/vector shape mismatch")
    y_cols = s.y_basis
    y_ok = True
    y_detail = ""
    if y_cols:
        span = Echelon(yv.nonzeros for yv in y_cols)
        if len(span) < len(y_cols):
            y_ok, y_detail = False, "Y is not linearly independent"
        else:
            rhos = s.w.matrices
            for x in elems:
                if any(span.reduce(apply_map(rhos[x], yv).nonzeros) for yv in y_cols):
                    y_ok, y_detail = False, f"rho({x}) moves Y out of itself"
                    break
    checks.append(("y_a_invariant", y_ok, y_detail))

    # B: symmetric, invertible (nondegenerate on Y), A-invariant in Y coords
    b_ok = True
    b_detail = ""
    k = len(s.y_basis)
    b = s.b
    if k == 0:
        if b:
            b_ok, b_detail = False, "B given without Y"
    elif b is None or len(b) != k or any(len(row) != k for row in b):
        b_ok, b_detail = False, "B shape does not match Y"
    elif any(b[i][j] != b[j][i] for i in range(k) for j in range(i)):
        b_ok, b_detail = False, "B is not symmetric"
    else:
        if len(Echelon(enumerate(row) for row in b)) != k:
            b_ok, b_detail = False, "B is degenerate"
        elif not y_ok:
            b_ok, b_detail = False, "Y is not an A-invariant basis, restriction undefined"
        else:
            # with Y independent and A-invariant, (rho(x) (x) rho(x)) B~ = B~
            # for B~ = sum b_ij y_i (x) y_j in W (x) W is R B R^T = B for the
            # restriction R of rho(x) to Y, since the y_i (x) y_j are
            # independent; B~ is (Y (x) Y)(B) for Y: k^k -> W
            b_rows = Tensor2(k, [((i, j), c) for i, row in enumerate(b) for j, c in enumerate(row)])
            b_tilde = apply_map(y_cols, apply_map(y_cols, b_rows, 0), 1)
            for x in elems:
                rho = s.w.matrices[x]
                if apply_map(rho, apply_map(rho, b_tilde, 0), 1) != b_tilde:
                    b_ok, b_detail = False, f"B not invariant under rho({x})"
                    break
    checks.append(("b_symmetric_invariant_nondegenerate", b_ok, b_detail))

    # V: dimension and bicharacter shape
    n_a = len(elems) if closed else 0
    dim_ok = closed and s.v_dim * s.v_dim == n_a
    checks.append(
        ("v_dimension_squared_is_a_order", dim_ok, f"dim(V)^2 = {s.v_dim ** 2}, |A| = {n_a}")
    )
    beta_ok = True
    beta_detail = ""
    if sub is not None:
        if tuple(s.v_beta.factors) != tuple(sub.factors):
            beta_ok, beta_detail = False, (
                f"bicharacter factors {s.v_beta.factors} != subgroup factors {sub.factors}"
            )
        elif not s.v_beta.is_alternating():
            beta_ok, beta_detail = False, "bicharacter is not alternating"
        elif not s.v_beta.is_nondegenerate():
            beta_ok, beta_detail = False, "bicharacter is degenerate"
    checks.append(("v_bicharacter_alternating_nondegenerate", beta_ok, beta_detail))

    u_ok = 0 <= s.u < g.order and g.is_central(s.u) and g.table[s.u][s.u] == g.identity
    checks.append(("u_central_order_le_2", u_ok, f"u = {s.u}"))
    acts_ok = s.w.acts_by_minus_one(s.u) if u_ok else False
    checks.append(("u_acts_by_minus_one_on_w", acts_ok, ""))

    return SeptupleReport(tuple(checks))


def septuple_twist(
    s: Septuple,
    host: Optional[tuple[HopfData, Tensor2]] = None,
    pair: Optional[tuple[Tensor2, Tensor2]] = None,
) -> Twist:
    """The checked twist of a septuple: the modified supergroup algebra,
    its R_u, and the bicharacter twist on the abelian subgroup;
    septuple_twist(s).apply() is the twisted pair (H^J, R^J).

    Realizes the Y = B = 0 stratum; anything with Y or B nonzero is
    rejected as UnsupportedStratum.  The septuple is checked first.
    host is (H, R_u) = modified_supergroup_algebra(s.group, s.w, s.u)
    and pair is (J, J^-1) = bicharacter_twist_pair(A, s.v_beta, dim H)
    when the caller has built them already (the atlas keeps one per
    catalog host and one per (G, A, gamma, dim H)); each is built here
    otherwise.  The Twist checks J and J^-1 either way.
    """
    report = validate_septuple(s)
    if not report.valid:
        raise SeptupleInvariantViolation(
            "septuple invariants fail: " + ", ".join(report.failures())
        )
    if s.y_basis or s.b:
        raise UnsupportedStratum(
            "only the Y = B = 0 stratum is implemented; nonzero Y or B is out of range"
        )
    h, r = host or modified_supergroup_algebra(s.group, s.w, s.u)
    if pair is None:
        pair = bicharacter_twist_pair(AbelianSubgroup(s.group, s.a_elements), s.v_beta, h.dim)
    return Twist(h, *pair, r)
