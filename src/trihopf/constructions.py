"""Builders for the catalog of (super) Hopf algebras.

Group algebras, smash products k[G] x Lambda(V), bicharacter twists
supported on abelian subgroups, and the septuple twist that composes
them.  Every builder returns HopfData(algebra, coalgebra).validate(), whose
axioms the verifiers re-check exhaustively in the test suite.

Each step of the construction chain has one implementation.
_smash_product builds the product of (G, W) once, as an ordinary
Algebra, with the super Coalgebra; supergroup_algebra wraps its Tensor3
in a graded Algebra, and Lambda(V) is the supergroup algebra of the
trivial group.  The modified supergroup algebra keeps that very Algebra
and changes only the coalgebra, by a central involution u acting by -1
on V: Delta'(x) = sum x_1 u^|x_2| (x) x_2 and S'(x) = u^|x| S(x).
Since u moves a basis element g v_T to (ug) v_T, up to sign, this
modification (_modify) re-keys the columns it moves and keeps the
others, and with W = 0 it keeps the whole Coalgebra.  k[G] keeps its
own direct tables.

One sign rule: _wedge gives the sign of v_A ^ v_B, and the coproduct
split Delta(v_S) = sum eps v_T (x) v_{S-T} takes eps from
v_T ^ v_{S-T} = eps v_S.  One exterior expansion: rho(h) v_S is
rho(h) v_{S-b} wedged with the column rho(h) v_b, b the top bit of S,
and x -> x ^ rho(h) v_b is a linear map applied on integer numerators
(tensor.apply_map), which gives one term for a monomial rho(h) and the
minors otherwise.  One twist datum:
bicharacter_twist builds J on an abelian subgroup, for a septuple and
for semisimple_triangular, which is the W = 0 case; Twist derives J^-1
from J itself.

Basis order of the smash product is group-major, subset-minor with
subsets in bitmask order: index = g * 2**w + mask.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import lcm, prod
from typing import Optional

from .errors import (
    BicharacterError,
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
    _labels,
    half_bicharacter,
)
from .hopf import (
    Algebra,
    Coalgebra,
    HopfData,
    _read_only,
    antipode_contraction,
    certified_inverse,
    counit_slants,
)
from .scalars import SC_ONE, CycScalar, _reduce_int_poly
from .tensor import (
    Echelon,
    _canonical,
    Tensor2,
    Tensor3,
    check_tensor_dims,
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
    d, even = g.order, (0,) * g.order
    mult = Tensor3(d, [((i, j, g.table[i][j]), SC_ONE) for i in range(d) for j in range(d)])
    comult = tuple(Tensor2._of(d, 1, 1, {(i, i): 1}) for i in range(d))
    antipode = tuple(Vec.basis(d, g.inverse[i]) for i in range(d))
    coalgebra = Coalgebra(d, comult, Vec._of(d, 1, 1, dict.fromkeys(range(d), 1)), antipode, even)
    return HopfData(Algebra(d, Vec.basis(d, g.identity), mult, even), coalgebra).validate()


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


def _exterior_images(cols) -> list[Vec]:
    """rho(v_S) = rho(v_b1) ^ rho(v_b2) ^ ... for b1 < b2 < ... in S, for
    every mask S, with rho(v_b) the column cols[b], a Vec
    (GroupRep.matrices): Vecs over Lambda(V), keyed by mask.

    x -> x ^ rho(v_b) is a linear map, built once per b as columns whose
    signs come from _wedge; the image of S is that map for the top bit b
    of S applied to the image of S without b.  A monomial rho keeps one
    term at every step; any other rho gives the minors of rho on the
    columns in S.
    """
    size = 1 << len(cols)
    wedges = []
    for col in cols:
        columns = []
        for mask in range(size):
            terms = []
            for a, c in col.nonzeros:
                wedge = _wedge(mask, 1 << a)
                if wedge is not None:
                    terms.append((wedge[1], c if wedge[0] > 0 else -c))
            columns.append(Vec(size, terms))
        wedges.append(columns)
    images = [Vec.basis(size, 0)]
    for mask in range(1, size):
        top = mask.bit_length() - 1
        images.append(apply_map(wedges[top], images[mask ^ (1 << top)]))
    return images


# ---------------------------------------------------------------------------
# smash products k[G] x Lambda(V)

def _smash_product(g: FiniteGroup, v: GroupRep) -> tuple[Algebra, Coalgebra]:
    """The product of k[G] x Lambda(V), and the super coalgebra of the
    supergroup algebra on it, shared by both smash builders.

    Returns (algebra, coalgebra): the ordinary Algebra of the product,
    its Tensor3 summed from raw signed terms, and the super Coalgebra,
    graded by |g v_S| = |S| mod 2, its columns made on integer numerators.
    With rho(h) v_S expanded once per h (_exterior_images) and every sign
    read off _wedge:
      (g, S)(h, T) = (gh, rho(h^-1)(v_S) ^ v_T), so g v = rho(g)(v) g;
      Delta(g v_S) = sum over T in S of eps g v_T (x) g v_{S-T}, where
        v_T ^ v_{S-T} = eps v_S;
      S(g v_S) = (-1)^|S| (g^-1, rho(g) v_S).
    """
    size = 1 << v.degree
    dim = g.order * size
    images = [_exterior_images(cols) for cols in v.matrices]
    terms = []
    for i in range(dim):
        gi, si = divmod(i, size)
        for j in range(dim):
            hj, tj = divmod(j, size)
            base = g.table[gi][hj] * size
            for u_mask, coeff in images[g.inverse[hj]][si].nonzeros:
                wedge = _wedge(u_mask, tj)
                if wedge is not None:
                    sign, mask = wedge
                    terms.append(((i, j, base + mask), coeff if sign > 0 else -coeff))
    splits = [tuple((t, s & ~t, _wedge(t, s & ~t)[0]) for t in _subsets(s)) for s in range(size)]
    parity = tuple(bin(i % size).count("1") % 2 for i in range(dim))
    comult, antipode = [], []
    for i in range(dim):
        gi, si = divmod(i, size)
        base, ginv = gi * size, g.inverse[gi] * size
        comult.append(Tensor2._of(dim, 1, 1, {(base + t, base + c): sign for t, c, sign in splits[si]}))
        image = -images[gi][si] if parity[i] else images[gi][si]
        antipode.append(Vec._of(dim, image.order, image.den, {ginv + m: x for m, x in image._num.items()}))
    counit = Vec._of(dim, 1, 1, dict.fromkeys(range(0, dim, size), 1))
    return (
        Algebra(dim, Vec.basis(dim, g.identity * size), Tensor3(dim, terms), (0,) * dim),
        Coalgebra(dim, tuple(comult), counit, tuple(antipode), parity),
    )


def _check_rep(g: FiniteGroup, v: GroupRep):
    if not (v.group is g or (v.group.table == g.table and v.group.identity == g.identity)):
        raise ShapeError("representation must act on the given group")


def supergroup_algebra(g: FiniteGroup, v: GroupRep) -> HopfData:
    """k[G] x Lambda(V): group-likes even, generators odd and primitive."""
    _check_rep(g, v)
    algebra, coalgebra = _smash_product(g, v)
    graded = Algebra(algebra.dim, algebra.unit, algebra.mult, coalgebra.parity, super=True)
    return HopfData(graded, coalgebra).validate()


def exterior_algebra(n: int) -> HopfData:
    """Lambda(V) on n odd primitive generators, as a super Hopf algebra:
    the supergroup algebra of the trivial group on V = k^n."""
    if n < 0:
        raise ShapeError("negative exterior dimension")
    triv = FiniteGroup.trivial()
    return supergroup_algebra(triv, GroupRep.from_sign_characters(triv, [(1,)] * n))


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
    return _modify(g, _smash_product(g, v), u)


def _modify(g: FiniteGroup, smash: tuple[Algebra, Coalgebra], u: int) -> tuple[HopfData, Tensor2]:
    """(H, R_u) of modified_supergroup_algebra from smash, the
    _smash_product of (G, W), for a central involution u acting by -1 on
    W.  Only the coalgebra changes: H holds smash's very Algebra, so
    every u of one (G, W) shares it and every fact of it.

    u (g v_T) = (ug) v_T and (g v_T) u = (-1)^|T| (gu) v_T are one signed
    basis element each, at index shifted[i], a bijection that keeps
    parity; so S' and Delta' re-key integer numerators, no two keys meet,
    and each column they fix (S(e_i) for even e_i, Delta(e_i) with no odd
    right leg) is smash's very object.  With W = 0 nothing is odd: H holds
    smash's very Coalgebra, and the hosts of every u share its facts."""
    algebra, coalgebra = smash
    dim, parity = algebra.dim, coalgebra.parity
    size = dim // g.order
    if size > 1:
        shifted = [g.table[i // size][u] * size + i % size for i in range(dim)]
        comult = tuple(_move_odd_right_legs(t, shifted, parity) for t in coalgebra.comult)
        antipode = tuple(
            Vec._of(dim, s.order, s.den, {shifted[k]: x for k, x in s._num.items()}) if parity[i] else s
            for i, s in enumerate(coalgebra.antipode)
        )
        coalgebra = Coalgebra(dim, comult, coalgebra.counit, antipode, algebra.parity)
    h = HopfData(algebra, coalgebra).validate()
    return h, r_u(h, Vec.basis(dim, u * size))


def _move_odd_right_legs(t: Tensor2, shifted: list[int], parity: tuple[int, ...]) -> Tensor2:
    """Each term x_1 (x) x_2 of t, a Delta(e_i) of _smash_product (integer
    numerators, order 1), with an odd right leg moved to x_1 u (x) x_2, at
    (shifted[j], k) and signed by |x_1|; t itself when none is odd."""
    if not any(parity[k] for _, k in t._num):
        return t
    return Tensor2._of(t.dim, t.order, t.den, {
        (shifted[j], k) if parity[k] else (j, k): -x if parity[j] and parity[k] else x
        for (j, k), x in t._num.items()
    })


# ---------------------------------------------------------------------------
# bicharacter twists

@lru_cache(maxsize=None)
def _pairings(factors: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The table of x(t, b) = sum_i t_i b_i N/n_i mod N, N = lcm of the
    factors n_i, over the labels t and b of Z_{n_1} x ... x Z_{n_r} in
    mixed-radix order, so that chi_t(b) = zeta_N**x(t, b).  Made once per
    factor tuple; x is symmetric, so row b is also the column of b."""
    big_n = lcm(1, *factors)
    steps = [big_n // f for f in factors]  # zeta_{n_i} = zeta_N**(N/n_i)
    labels = _labels(factors)
    return tuple(
        tuple(sum(ti * bi * step for ti, bi, step in zip(t, b, steps)) % big_n for b in labels)
        for t in labels
    )


def build_bicharacter_twist(a: AbelianSubgroup, beta: Bicharacter) -> Tensor2:
    """J = sum over dual labels of beta(s,t) E_s (x) E_t inside k[G] (x) k[G].

    beta is the bimultiplicative twist datum itself; to realize a
    classification datum gamma (alternating, nondegenerate) pass
    half_bicharacter(gamma), whose skew is gamma.

    J is counted on the integer exponents of zeta_N, N = beta.root_order,
    by Pontryagin duality.  With x(t, b) = sum_i t_i b_i N/n_i over the
    factors n_i, read from one table per factor tuple (_pairings), the
    character of the label t is chi_t(b) = zeta_N**x(t, b) and
    E_t = (1/|A|) sum_b chi_t(b)**-1 b.  beta(s, .) is a character of
    the dual group, so it is evaluation at one element b_s of A:
    beta(s, t) = chi_t(b_s), and b_s is read off beta's row s at the
    unit labels, (b_s)_i = e[s][unit_i] n_i/N.  Then
    w_s = sum_t beta(s,t) E_t = sum_t chi_t(b_s) E_t = b_s by the
    orthogonality of characters, and

        J = sum_s E_s (x) b_s = (1/|A|) sum_{s, a} zeta_N**-x(s, a) a (x) b_s,

    one count at exponent -x(s, a) mod N in the cell (a, b_s) per (s, a).
    Each cell's N counts are reduced mod Phi_N once.  The row of b_s in
    the table is compared with all of beta's row s before it is used,
    x(t, b_s) = e[s][t] mod N for every t, so a table that is no
    bicharacter raises BicharacterError.
    """
    if tuple(beta.factors) != tuple(a.factors):
        raise ShapeError(
            f"bicharacter factors {beta.factors} do not match subgroup factors {a.factors}"
        )
    factors, big_n = beta.factors, beta.root_order
    x = _pairings(factors)
    # radix[i]: the weight of slot i in a label's mixed-radix index, and
    # element[k] the element of A whose exponents are the label at index k
    radix = [prod(factors[i + 1 :]) for i in range(len(factors))]
    element = [0] * a.order
    for g, exps in a.exponents.items():
        element[sum(e * w for e, w in zip(exps, radix))] = g
    cells: dict = {}
    for s, row in enumerate(beta.exponents):
        b = sum(row[u] // (big_n // f) * w for u, f, w in zip(beta.units, factors, radix))
        if x[b] != row:
            raise BicharacterError(f"row {beta.labels[s]} of the table is no character of the dual group")
        b_s = element[b]
        for g, k in zip(element, x[s]):
            counts = cells.setdefault((g, b_s), [0] * big_n)
            counts[-k % big_n] += 1
    if big_n == 1:
        num = {key: counts[0] for key, counts in cells.items()}
    else:
        num = {key: _reduce_int_poly(counts, big_n) for key, counts in cells.items()}
    return Tensor2._of(a.parent.order, *_canonical(big_n, a.order, num))


def inflate_group_tensor(t: Tensor2, factor: int, dim: int) -> Tensor2:
    """Map a tensor over k[G] into the smash basis (index g -> g * factor),
    re-keying its integer numerators."""
    if t.dim * factor != dim:
        raise ShapeError("inflation factor does not match dimensions")
    return Tensor2._of(
        dim, t.order, t.den, {(i * factor, j * factor): v for (i, j), v in t._num.items()}
    )


def _twist_identity_failure(h: HopfData, j: Tensor2) -> Optional[str]:
    """The twist identity that J fails, named, or None when both hold:
    counit normalization, on the side where a slant of J is not 1, or
    (Delta (x) id)(J) J12 = (id (x) Delta)(J) J23, at the least (i, j, k)
    where the two sides differ.

    This is the cocycle order under which Delta^J = J^-1 Delta J is
    coassociative; J12 (Delta (x) id)(J) = J23 (id (x) Delta)(J) is the
    one for J Delta J^-1.  A J of another dimension raises ShapeError.
    """
    check_tensor_dims(h, j)
    for side, slant in zip(("(eps (x) id)(J)", "(id (x) eps)(J)"), counit_slants(h, j)):
        if slant != h.unit:
            return f"counit normalization fails: {side} != 1"
    lhs = tensor3_mul(embed13_23_12(j, "delta_id", h), embed13_23_12(j, "12", h), h)
    rhs = tensor3_mul(embed13_23_12(j, "id_delta", h), embed13_23_12(j, "23", h), h)
    if lhs != rhs:
        return f"cocycle identity fails at {(lhs - rhs).nonzeros[0][:3]}"
    return None


def verify_twist(h: HopfData, j: Tensor2) -> bool:
    """Whether J is a twist of H, as Twist decides: H ordinary, counit
    normalization and the cocycle identity (Delta (x) id)(J) J12 =
    (id (x) Delta)(J) J23, the one apply_twist's Delta^J = J^-1 Delta J
    needs, each checked exhaustively.  Returns False where Twist raises
    TwistError; raises NotInvertible when the identities hold but j is
    singular in H (x) H.
    """
    try:
        Twist(h, j)
    except TwistError:
        return False
    return True


class Twist:
    """A twist J of an ordinary Hopf algebra H, with J^-1 and an optional R.

    Constructing one checks J: counit normalization, the cocycle identity
    (Delta (x) id)(J) J12 = (id (x) Delta)(J) J23, and J^-1 two-sided;
    any failure raises TwistError, whose message names the failed
    identity (_twist_identity_failure), or NotInvertible for a singular
    J.  J^-1 is multiplied back on one side only, J J^-1 = 1: in the
    finite-dimensional algebra H (x) H a right inverse is two-sided
    (x -> J x is then onto, so one-to-one, and J (J^-1 J - 1) = 0 gives
    J^-1 J = 1).

    When J^-1 is not given, the candidate is (S (x) id)(J), one leg map.
    For a bicharacter twist J = sum_s E_s (x) b_s, s -> b_s is a
    homomorphism, so (Delta (x) id)(J) = J13 J23, and m12(S (x) id (x) id)
    of both sides gives 1 (x) (eps (x) id)(J) = 1 (x) 1 = (S (x) id)(J) J:
    the identity behind R^-1 = (S (x) id)(R) for a quasitriangular R.
    The candidate is taken when it passes the multiply-back; otherwise
    J^-1 is solved for (tensor2_inv), which a singular J fails with
    NotInvertible.  An inverse is unique, so both give the same J^-1.

    R, when given, is a triangular structure of H to carry along; it is
    not checked here.  A J, J^-1 or R of another dimension than H raises
    ShapeError first.  The twisted coalgebra and R (coalgebra,
    r_twisted) are computed once per twist, and are what apply hands to
    H^J.  When H's algebra is commutative, associative and unital, so is
    H (x) H, and the twist changes only R: Delta^J = J^-1 Delta J =
    Delta J^-1 J = Delta, so H^J is H as a bialgebra, and S^J = S since
    a bialgebra has one antipode at most; coalgebra is H's very
    Coalgebra (_keeps_coalgebra), and no Q = m(S (x) id)(J) is formed.

    A Twist refuses attribute assignment: those maps, and the verdict of
    proves_hopf that H^J caches, hold only for the J it checked.
    """

    def __init__(
        self,
        host: HopfData,
        j: Tensor2,
        j_inv: Optional[Tensor2] = None,
        r: Optional[Tensor2] = None,
    ):
        check_tensor_dims(host, j, j_inv, r)
        if host.super:
            raise TwistError("twisting super Hopf algebras is not supported")
        failure = _twist_identity_failure(host, j)
        if failure is not None:
            raise TwistError(failure)
        one = unit_tensor2(host)
        if j_inv is None:
            j_inv = apply_map(host.antipode, j)
            if tensor2_mul(j, j_inv, host) != one:
                j_inv = tensor2_inv(j, host)
        elif tensor2_mul(j, j_inv, host) != one:
            raise TwistError("provided inverse is not a two-sided inverse")
        vars(self).update(host=host, j=j, j_inv=j_inv, r=r)

    __setattr__ = __delattr__ = _read_only

    @cached_property
    def _keeps_coalgebra(self) -> bool:
        """True when H's algebra is commutative (Algebra.commutative) and
        associative and unital (Algebra.witnesses): then, with the
        certified J^-1, J^-1 x J = x J^-1 J = x for every x in H (x) H."""
        algebra = self.host.algebra
        return algebra.commutative and algebra.witnesses == (None, None)

    @cached_property
    def coalgebra(self) -> Coalgebra:
        """The Coalgebra of H^J, computed once per twist: H's very
        Coalgebra where the conjugations fix every element
        (_keeps_coalgebra).  Otherwise Delta^J(e_i) = J^-1 Delta(e_i) J
        and S^J(e_i) = Q^-1 S(e_i) Q with Q = m(S (x) id)(J), and Q^-1
        the closed form m(id (x) S)(J^-1) with the certified J^-1,
        multiplied back on both sides (certified_inverse); if that
        fails it is solved for, as a singular Q would raise."""
        h, j, j_inv = self.host, self.j, self.j_inv
        if self._keeps_coalgebra:
            return h.coalgebra
        comult = tuple(tensor2_mul(tensor2_mul(j_inv, d, h), j, h) for d in h.comult)
        q = antipode_contraction(h, j)
        q_inv = certified_inverse(h, q, antipode_contraction(h, j_inv, leg=1))
        antipode = tuple(h.mul_vec(q_inv, h.mul_vec(s, q)) for s in h.antipode)
        return Coalgebra(h.dim, comult, h.counit, antipode, h.parity)

    @cached_property
    def r_twisted(self) -> Optional[Tensor2]:
        """R^J = J21^-1 R J, with J21^-1 = flip(J^-1) since flip is an
        algebra automorphism of H (x) H for an ordinary H; None without R."""
        if self.r is None:
            return None
        h = self.host
        return tensor2_mul(tensor2_mul(flip(self.j_inv), self.r, h), self.j, h)

    def apply(self) -> tuple[HopfData, Optional[Tensor2]]:
        """(H^J, R^J): H's very Algebra (hopf.Algebra, with every fact
        computed of it, such as the generators, the radical and the
        witnesses) with this twist's coalgebra, and r_twisted.  H^J keeps
        this twist.  On a kept coalgebra it holds H's very Coalgebra too,
        whose structural check and S^2 and S^4 are H's; its axioms are
        proved from H's when first asked (proves_hopf)."""
        return HopfData(self.host.algebra, self.coalgebra, self).validate(), self.r_twisted

    def proves_hopf(self, h: HopfData) -> bool:
        """True when Drinfeld's twisting theorem proves h = H^J a Hopf
        algebra (Kassel, Quantum Groups, XV.3): J was checked when this
        twist was made; H's axioms hold (proved once per host); h is well
        formed, its Algebra is H's and its Coalgebra this twist's
        (coalgebra: H's counit, J^-1 Delta J and Q^-1 S Q, with J^-1 and
        Q^-1 certified two-sided), each the very record, as apply hands
        it, or an equal one.  On a kept coalgebra (_keeps_coalgebra) that
        is H's own: J^-1 Delta J = Delta by the certified J^-1 and the
        algebra's commutativity and witnesses, and S^J = S by the
        uniqueness of the antipode of the bialgebra H, with no Q formed.
        False means a premise failed, not that h is no Hopf algebra."""
        if not self.host.axioms.ok or h._malformation is not None:
            return False
        return h.algebra == self.host.algebra and h.coalgebra == self.coalgebra


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


def bicharacter_twist(sub: AbelianSubgroup, gamma: Bicharacter, dim: int) -> Tensor2:
    """J of the bicharacter twist on sub for the datum gamma, built from
    beta = half_bicharacter(gamma) and inflated from sub's parent G to
    dimension dim by re-keying its integer numerators; Twist checks J
    and takes J^-1 = (S (x) id)(J)."""
    j = build_bicharacter_twist(sub, half_bicharacter(gamma))
    return inflate_group_tensor(j, dim // sub.parent.order, dim)


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
    return Twist(h, bicharacter_twist(a, gamma, h.dim), r=r).apply()


# ---------------------------------------------------------------------------
# septuples

class Septuple:
    """Classification datum (G, W, A, Y, B, V, u).

    The projective-representation datum V is carried as an alternating
    bicharacter on A plus its declared dimension.  Y is a tuple of
    vectors in W's space.  B is an element of S^2 Y, given as a tuple of
    rows in Y coordinates; if R is the restriction of rho(a) to Y in
    those coordinates, a transforms B as R B R^T.
    """

    def __init__(
        self,
        group: FiniteGroup,
        w: GroupRep,
        a_elements: tuple[int, ...],
        y_basis: tuple[Vec, ...],
        b: Optional[tuple[tuple[CycScalar, ...], ...]],
        v_beta: Bicharacter,
        v_dim: int,
        u: int,
    ):
        self.group = group
        self.w = w
        self.a_elements = a_elements
        self.y_basis = y_basis
        self.b = b
        self.v_beta = v_beta
        self.v_dim = v_dim
        self.u = u


class SeptupleReport:
    """validate_septuple's checks, each (name, passed, detail)."""

    def __init__(self, checks: tuple[tuple[str, bool, str], ...]):
        self.checks = checks

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
    """Check every septuple invariant as a report entry; W on another group raises ShapeError."""
    _check_rep(s.group, s.w)
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
    j: Optional[Tensor2] = None,
) -> Twist:
    """The checked twist of a septuple: the modified supergroup algebra,
    its R_u, and the bicharacter twist on the abelian subgroup;
    septuple_twist(s).apply() is the twisted pair (H^J, R^J).

    Realizes the Y = B = 0 stratum; anything with Y or B nonzero is
    rejected as UnsupportedStratum.  The septuple is checked first.
    host is (H, R_u) = modified_supergroup_algebra(s.group, s.w, s.u)
    and j is J = bicharacter_twist(A, s.v_beta, dim H) when the caller
    has built them already (the atlas keeps one host per catalog host and
    one J per (G, A, gamma, dim H)); each is built here otherwise.  The
    Twist checks J and derives J^-1 either way.
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
    if j is None:
        j = bicharacter_twist(AbelianSubgroup(s.group, s.a_elements), s.v_beta, h.dim)
    return Twist(h, j, r=r)
