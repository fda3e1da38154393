"""Triangular structure verification.

An R-matrix lives in H (x) H; verify_triangular checks the hexagon
identities in H (x) H (x) H and the conjugation identity
R Delta(x) = Delta^op(x) R of a quasitriangular structure, and
R21 = R^-1, which makes it triangular.

On a host whose axioms hold and whose generating set is certified
(HopfData.axioms, HopfData.generators) each identity is proved once,
from the fewest exact checks a lemma allows:
- unitarity is flip(R) * R = 1 (x) 1 alone, since a left inverse in the
  finite-dimensional associative unital algebra H (x) H is two-sided;
- the second hexagon follows from the first: the Koszul-signed cyclic
  leg permutation x (x) y (x) z -> z (x) x (x) y is an algebra
  automorphism of H (x) H (x) H and turns (Delta (x) id)(R) = R13 R23
  into (id (x) Delta)(R21) = (R21)12 (R21)13; with R21 = R^-1 and
  id (x) Delta a unital algebra map, inverting both sides gives
  (id (x) Delta)(R) = R13 R12;
- the conjugation identity is checked on the generators of
  HopfData.generators only, since Delta and Delta^op are algebra maps,
  and so is S^2 = Ad(u) for the Drinfeld element, since S^2 and Ad(u)
  are algebra maps.
On any other host the fallback checks both sides of unitarity, both
hexagons and every basis element.

A pair built by twisting, (H^J, R^J) with Delta^J = J^-1 Delta J and
R^J = J21^-1 R J, is certified by Drinfeld's twisting theorem (Kassel,
Quantum Groups, XV.3, in the convention of Etingof and Gelaki): if
(H, R) is a triangular bialgebra and J an invertible twist with
(eps (x) id)(J) = (id (x) eps)(J) = 1 and
(Delta (x) id)(J) J12 = (id (x) Delta)(J) J23, then (H^J, R^J) is
triangular.  certify_twisted_triangular checks the premises on the data
the twist came from, not R^J itself:
1. the axioms of H, and those of H^J, which has the multiplication,
   unit and counit of H;
2. R triangular on H, by verify_triangular on the generators of H,
   whose axioms are proved;
3. J normalized and the cocycle identity in the order above;
4. J^-1 two-sided;
5. J Delta^J(e_i) = Delta(e_i) J for every i, and J21 R^J = R J.
Premises 3 and 4 are checked when the constructions.Twist is made.
H's axioms are proved, and H^J's follow from them by the same theorem:
by 4 and 5, Delta^J = J^-1 Delta J, which with 3 makes H^J a Hopf
algebra with the antipode Q^-1 S Q, Q = m(S (x) id)(J).  So the axioms
of an H^J made by the twist are H's proof plus the check that its
stored antipode is Q^-1 S Q (constructions.Twist.proves_hopf); if a
premise fails they are verified on H^J itself (hopf.verify_hopf).

Which facts belong to what.  H's axioms are a fact of H, proved once
and kept on it (HopfData.axioms); the associativity and unit witnesses
and the generators are facts of H's algebra (hopf.Algebra), which H^J
holds as it is; premise 2 is a fact of the pair
(H, R), proved once and kept on H beside the R object it was proved
for, so every twist of one host with the same R reuses it and any other
R is proved afresh; premises 3 to 5 and the antipode check are per
twist, and the products of premise 5's first half are computed once
per H^J for its axioms and the certificate together.

The Drinfeld element u = sum S(b_i) a_i of R = sum a_i (x) b_i has the
inverse u^-1 = sum b_i S^2(a_i) when R is quasitriangular;
drinfeld_element takes it once it multiplies back to 1 on both sides
(hopf.certified_inverse) and solves for u^-1 otherwise.  S^2 = Ad(u) is
compared with the cached sparse columns of S^2.

The checks bundled in check_structure_theorems assert u^2 = 1, u
group-like, S^4 = id (HopfData.s4_columns, S^2 composed with itself
once per object) and the
odd-dimension degeneration u = 1 with semisimplicity, recording
failures instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidDrinfeldElement, NotInvertible, NotQuasitriangular
from .hopf import (
    HopfData,
    antipode_contraction,
    certified_inverse,
    is_chevalley,
    is_semisimple,
)
from .scalars import SC_HALF
from .tensor import (
    Echelon,
    Tensor2,
    Vec,
    embed13_23_12,
    flip,
    tensor2_mul,
    tensor3_mul,
    unit_tensor2,
)

if TYPE_CHECKING:  # pragma: no cover
    from .constructions import Twist


def _hexagon(h: HopfData, r: Tensor2, coproduct: str, right: str) -> bool:
    """(Delta (x) id)(R) = R13 R23 or, with ("id_delta", "12"),
    (id (x) Delta)(R) = R13 R12."""
    lhs = embed13_23_12(r, coproduct, h)
    return lhs == tensor3_mul(embed13_23_12(r, "13", h), embed13_23_12(r, right, h), h)


def _certified_generators(h: HopfData):
    """HopfData.generators of a host whose axioms hold, else None."""
    return h.generators if h.axioms.ok else None


def _conjugation(h: HopfData, r: Tensor2, gens) -> bool:
    """R Delta(x) = flip(Delta(x)) R on gens, or on every basis element
    when gens is None."""
    for i in range(h.dim) if gens is None else gens:
        delta = h.comult[i]
        if tensor2_mul(r, delta, h) != tensor2_mul(flip(delta, h), r, h):
            return False
    return True


def _triangular(h: HopfData, r: Tensor2, gens) -> bool:
    """flip(R) R = 1 (x) 1, the first hexagon and the conjugation identity
    on gens; with gens None also R flip(R) = 1 (x) 1, the second hexagon
    and conjugation on every basis element."""
    unit2 = unit_tensor2(h)
    r21 = flip(r, h)
    if tensor2_mul(r21, r, h) != unit2:
        return False
    if gens is None and tensor2_mul(r, r21, h) != unit2:
        return False
    if not _hexagon(h, r, "delta_id", "23"):
        return False
    if gens is None and not _hexagon(h, r, "id_delta", "12"):
        return False
    return _conjugation(h, r, gens)


def verify_triangular(h: HopfData, r: Tensor2) -> bool:
    """Quasitriangular with R21 = R^-1, no inverse solved for.

    On a host whose axioms hold: flip(R) R = 1 (x) 1, the first hexagon
    and the conjugation identity on the generators; the other side of
    unitarity and the second hexagon follow (see the module docstring).
    Otherwise flip(R) R = R flip(R) = 1 (x) 1, both hexagons and the
    conjugation identity on every basis element.
    """
    return _triangular(h, r, _certified_generators(h))


def _host_triangular(host: HopfData, r: Tensor2) -> bool:
    """verify_triangular(host, r), proved once per (host, R) pair: on the
    generator path, since the host's axioms are proved.

    The verdict is kept on the host together with the very R object it
    was proved for; any other R is proved afresh and takes its place, so
    a host holds one R and one verdict at most.
    """
    proof = getattr(host, "_triangular_proof", None)
    if proof is None or proof[0] is not r:
        proof = (r, verify_triangular(host, r))
        object.__setattr__(host, "_triangular_proof", proof)
    return proof[1]


def certify_twisted_triangular(h: HopfData, r: Tensor2, twist: Twist) -> bool:
    """True when the twisting theorem proves (h, r) triangular.

    twist is the constructions.Twist (H, J, J^-1, R) that (h, r) claims
    to come from; constructing it checked that J is a normalized cocycle
    with a two-sided inverse.  The remaining premises (see the module
    docstring) are checked here, each exactly:
    - H.axioms.ok and h.axioms.ok, and h has H's algebra and counit
      (HopfData.keeps_algebra_of): the very hopf.Algebra of H, which
      Twist.apply hands to H^J, or an equal one;
    - R is triangular on H, by verify_triangular, proved once per
      (H, R) pair and kept on H;
    - J Delta_h(e_i) = Delta_H(e_i) J for every i (Twist.intertwines,
      shared with h's axioms when the twist made h), and J21 r = R J.
    False means a premise failed, not that r is not triangular.
    """
    host, r0, j = twist.host, twist.r, twist.j
    if r0 is None or not host.axioms.ok or not h.axioms.ok:
        return False
    if not h.keeps_algebra_of(host) or not _host_triangular(host, r0):
        return False
    if not twist.intertwines(h):
        return False
    return tensor2_mul(flip(j, h), r, h) == tensor2_mul(r0, j, h)


def drinfeld_element(h: HopfData, r: Tensor2) -> Vec:
    """u = sum S(b_i) a_i for R = sum a_i (x) b_i.

    u^-1 is the closed form sum b_i S^2(a_i), certified by multiplying
    back on both sides; if that fails it is solved for, and a singular
    u raises NotQuasitriangular.  u is validated by its defining
    property S^2(x) = u x u^-1, on the generators when the host's axioms
    hold (S^2 and Ad(u) are algebra maps) and on every basis element
    otherwise, against the cached sparse columns of S^2; failure raises
    NotQuasitriangular.
    """
    r21 = flip(r)
    u = antipode_contraction(h, r21)
    try:
        # u^-1 = m(id (x) S^2)(R21) = sum b_i S^2(a_i)
        u_inv = certified_inverse(h, u, antipode_contraction(h, r21, leg=1, square=True))
    except NotInvertible:
        raise NotQuasitriangular("Drinfeld candidate is not invertible") from None
    s2 = h.s2_columns
    gens = _certified_generators(h)
    for i in range(h.dim) if gens is None else gens:
        if h.mul_vec(h.mul_vec(u, Vec.basis(h.dim, i)), u_inv) != s2[i]:
            raise NotQuasitriangular("S^2 is not conjugation by the Drinfeld candidate")
    return u


def r_u(h: HopfData, u: Vec) -> Tensor2:
    """The rank <= 2 triangular structure attached to an involutive group-like.

    (1/2)(1 (x) 1 + 1 (x) u + u (x) 1 - u (x) u); requires u^2 = 1 and
    Delta(u) = u (x) u.
    """
    if h.mul_vec(u, u) != h.unit:
        raise InvalidDrinfeldElement("u^2 != 1")
    if h.comult_vec(u) != Tensor2.outer(u, u):
        raise InvalidDrinfeldElement("u is not group-like")
    one = h.unit
    t = (
        Tensor2.outer(one, one)
        + Tensor2.outer(one, u)
        + Tensor2.outer(u, one)
        - Tensor2.outer(u, u)
    )
    return t.scale(SC_HALF)


def modify_r(h: HopfData, r: Tensor2, u: Vec) -> Tensor2:
    """R~ = R * R_u, the central modification of the triangular structure."""
    return tensor2_mul(r, r_u(h, u), h)


def r_matrix_rank(r: Tensor2) -> int:
    """Rank of the coefficient matrix (c_ij) of R = sum c_ij e_i (x) e_j,
    by exact elimination of its sparse rows."""
    rows: dict = {}
    for i, j, c in r.nonzeros:
        rows.setdefault(i, {})[j] = c
    return len(Echelon(rows.values()))


@dataclass(frozen=True)
class TheoremReport:
    """Bundled structural facts about a triangular pair (H, R)."""

    u: Vec
    u_squared_is_one: bool
    u_grouplike: bool
    s4_is_id: bool
    s2_is_ad_u: bool
    odd_dim_forces_u1_semisimple: bool
    chevalley: bool

    @property
    def ok(self) -> bool:
        return all(getattr(self, name) for name in _THEOREMS)

    def to_obj(self):
        obj = {"u_support": [i for i, _ in self.u.nonzeros]}
        obj.update((name, getattr(self, name)) for name in _THEOREMS)
        return obj


_THEOREMS = (
    "u_squared_is_one",
    "u_grouplike",
    "s4_is_id",
    "s2_is_ad_u",
    "odd_dim_forces_u1_semisimple",
    "chevalley",
)


def check_structure_theorems(h: HopfData, r: Tensor2) -> TheoremReport:
    """Assert the structural consequences of triangularity, as a report.

    Any failure on a constructed catalog instance is a builder bug, so
    the suite doubles as a regression harness.
    """
    # drinfeld_element raises unless S^2 = Ad(u) on all of H
    u = drinfeld_element(h, r)
    u_sq = h.mul_vec(u, u) == h.unit
    u_gl = h.comult_vec(u) == Tensor2.outer(u, u)
    s4_ok = h.s4_columns == tuple(Vec.basis(h.dim, i) for i in range(h.dim))
    if h.dim % 2 == 1:
        odd_ok = u == h.unit and is_semisimple(h)
    else:
        odd_ok = True
    return TheoremReport(
        u=u,
        u_squared_is_one=u_sq,
        u_grouplike=u_gl,
        s4_is_id=s4_ok,
        s2_is_ad_u=True,
        odd_dim_forces_u1_semisimple=odd_ok,
        chevalley=is_chevalley(h),
    )
