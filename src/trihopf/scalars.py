"""Exact scalars: one type for cyclotomic numbers, rationals included.

The ground field is the tower of cyclotomic fields Q(zeta_n).  A value
of order n is stored as the residue of a polynomial in zeta_n reduced
modulo the n-th cyclotomic polynomial: a dense tuple of phi(n)
rationals over the power basis 1, z, ..., z**(phi(n)-1).  Arithmetic
between different orders embeds both operands into Q(zeta_lcm) first.
A result whose tail coefficients vanish is demoted to order 1, so plain
rationals always carry the canonical representation n=1.

Equality is exact and decidable: same order compares coefficientwise,
mixed orders compare after embedding into the common field.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import gcd, lcm

from .errors import DivisionByZero, ShapeError

if os.environ.get("HOPF_PURE"):
    from . import _pykernel as kernel
else:
    try:
        from . import _ckernel as kernel  # type: ignore[attr-defined]
    except ImportError:
        from . import _pykernel as kernel


def kernel_name() -> str:
    """Which arithmetic kernel was selected at import time."""
    return "compiled" if kernel.COMPILED else "pure"


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)

@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


def _poly_divmod_int(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    # den is monic with integer coefficients, so quotient/remainder stay integral
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[k + dd]
        if c:
            quot[k] = c
            for j in range(dd + 1):
                num[k + j] -= c * den[j]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic."""
    if n < 1:
        raise ShapeError("order must be positive")
    poly = [-1] + [0] * (n - 1) + [1]  # x**n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod_int(poly, cyclotomic_poly(d))
            assert rem == [0]
    return tuple(poly)


def _reduce_int_poly(coeffs: list[int], n: int) -> list[int]:
    phi = euler_phi(n)
    _, rem = _poly_divmod_int(list(coeffs), cyclotomic_poly(n))
    rem += [0] * (phi - len(rem))
    return rem[:phi]


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    # row i: coefficients of x**(phi+i) mod Phi_n, for i in range(phi-1)
    phi = euler_phi(n)
    rows = []
    for k in range(phi, 2 * phi - 1):
        rows.append(tuple(_reduce_int_poly([0] * k + [1], n)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _embed_rows(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    # basis power zeta_n**i maps to zeta_m**(i*m/n), reduced mod Phi_m
    assert m % n == 0
    step = m // n
    rows = []
    for i in range(euler_phi(n)):
        rows.append(tuple(_reduce_int_poly([0] * (i * step) + [1], m)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# cyclotomic scalars

_RAT_ZERO = (0, 1)
_RAT_ONE = (1, 1)


class CycScalar:
    """An element of Q(zeta_n), exact, in canonical reduced form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ShapeError("order must be positive")
        try:
            coeffs = tuple(kernel.rat_norm(a, b) for a, b in coeffs)
        except ZeroDivisionError:
            raise DivisionByZero("coefficient with zero denominator") from None
        if len(coeffs) != euler_phi(order):
            raise ShapeError(
                f"expected {euler_phi(order)} coefficients for order {order}, got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs

    # construction -----------------------------------------------------

    @classmethod
    def from_rational(cls, num: int, den: int = 1) -> "CycScalar":
        try:
            return cls(1, (kernel.rat_norm(num, den),))
        except ZeroDivisionError:
            raise DivisionByZero("rational with zero denominator") from None

    @classmethod
    def from_int(cls, k: int) -> "CycScalar":
        return cls(1, ((k, 1),))

    @classmethod
    def zero(cls) -> "CycScalar":
        return SC_ZERO

    @classmethod
    def one(cls) -> "CycScalar":
        return SC_ONE

    # internal: coeffs already normalized; demote rational-valued results
    @classmethod
    def _make(cls, order, coeffs):
        if order != 1:
            for c in coeffs[1:]:
                if c[0]:
                    break
            else:
                order, coeffs = 1, (coeffs[0],)
        self = object.__new__(cls)
        self.order = order
        self.coeffs = coeffs
        return self

    # helpers ------------------------------------------------------------

    def _embedded(self, m: int):
        if self.order == m:
            return self.coeffs
        rows = _embed_rows(self.order, m)
        phi = euler_phi(m)
        out = [_RAT_ZERO] * phi
        for c, row in zip(self.coeffs, rows):
            if c[0]:
                for j in range(phi):
                    r = row[j]
                    if r:
                        out[j] = kernel.rat_add(out[j], kernel.rat_mul(c, (r, 1)))
        return tuple(out)

    @staticmethod
    def _coerce(other):
        if isinstance(other, CycScalar):
            return other
        if isinstance(other, int):
            return CycScalar(1, ((other, 1),))
        return None

    def is_zero(self) -> bool:
        for c in self.coeffs:
            if c[0]:
                return False
        return True

    def is_one(self) -> bool:
        return self.order == 1 and self.coeffs[0] == _RAT_ONE

    def is_rational(self) -> bool:
        for c in self.coeffs[1:]:
            if c[0]:
                return False
        return True

    # arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.order == o.order:
            return CycScalar._make(self.order, kernel.vec_add(self.coeffs, o.coeffs))
        m = lcm(self.order, o.order)
        return CycScalar._make(m, kernel.vec_add(self._embedded(m), o._embedded(m)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.order == o.order:
            return CycScalar._make(self.order, kernel.vec_sub(self.coeffs, o.coeffs))
        m = lcm(self.order, o.order)
        return CycScalar._make(m, kernel.vec_sub(self._embedded(m), o._embedded(m)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return CycScalar(self.order, kernel.vec_neg(self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n, m = self.order, o.order
        if n == 1:
            if m == 1:
                return CycScalar._make(1, (kernel.rat_mul(self.coeffs[0], o.coeffs[0]),))
            return CycScalar._make(m, kernel.vec_scale(o.coeffs, self.coeffs[0]))
        if m == 1:
            return CycScalar._make(n, kernel.vec_scale(self.coeffs, o.coeffs[0]))
        if n == m:
            return CycScalar._make(n, kernel.cyc_mul_reduce(self.coeffs, o.coeffs, _reduction_rows(n)))
        k = lcm(n, m)
        return CycScalar._make(
            k, kernel.cyc_mul_reduce(self._embedded(k), o._embedded(k), _reduction_rows(k))
        )

    __rmul__ = __mul__

    def inv(self) -> "CycScalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero scalar")
        if self.is_rational():
            return CycScalar(1, (kernel.rat_inv(self.coeffs[0]),))
        # extended Euclid in Q[x] against Phi_n (irreducible over Q)
        phi = euler_phi(self.order)
        phi_n = [(c, 1) for c in cyclotomic_poly(self.order)]
        inv_coeffs = _poly_modular_inverse(list(self.coeffs), phi_n)
        while len(inv_coeffs) > phi:
            assert inv_coeffs[-1][0] == 0
            inv_coeffs.pop()
        inv_coeffs += [_RAT_ZERO] * (phi - len(inv_coeffs))
        return CycScalar._make(self.order, tuple(inv_coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inv() ** (-exp)
        result = SC_ONE
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.order == o.order:
            return self.coeffs == o.coeffs
        m = lcm(self.order, o.order)
        return self._embedded(m) == o._embedded(m)

    def __bool__(self):
        return not self.is_zero()

    __hash__ = None  # mutable-free but representation-sensitive; keep out of sets

    # serialization -------------------------------------------------------

    def to_obj(self):
        return {"n": self.order, "c": [[str(a), str(b)] for a, b in self.coeffs]}

    @classmethod
    def from_obj(cls, obj) -> "CycScalar":
        n = int(obj["n"])
        pairs = [(int(a), int(b)) for a, b in obj["c"]]
        if any(b == 0 for _, b in pairs):
            raise ShapeError("scalar with zero denominator")
        coeffs = tuple(kernel.rat_norm(a, b) for a, b in pairs)
        if len(coeffs) != euler_phi(n):
            raise ShapeError("coefficient count does not match order")
        return cls._make(n, coeffs)

    def __repr__(self):
        if self.is_rational():
            n, d = self.coeffs[0]
            return f"{n}/{d}" if d != 1 else str(n)
        terms = []
        for i, (a, b) in enumerate(self.coeffs):
            if a == 0:
                continue
            coef = f"{a}" if b == 1 else f"{a}/{b}"
            if i == 0:
                terms.append(coef)
            else:
                power = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
                terms.append(power if coef == "1" else f"-{power}" if coef == "-1" else f"{coef}*{power}")
        return " + ".join(terms).replace("+ -", "- ")


def _poly_modular_inverse(a, modulus):
    """Inverse of polynomial a mod an irreducible monic modulus, over Q."""

    def deg(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i][0]:
                return i
        return -1

    def divmod_q(num, den):
        num = list(num)
        dn = deg(den)
        lead_inv = kernel.rat_inv(den[dn])
        q = [_RAT_ZERO] * max(len(num) - dn, 0)
        for k in range(len(num) - dn - 1, -1, -1):
            c = num[k + dn]
            if c[0]:
                f = kernel.rat_mul(c, lead_inv)
                q[k] = f
                for j in range(dn + 1):
                    num[k + j] = kernel.rat_sub(num[k + j], kernel.rat_mul(f, den[j]))
        return q, num[:dn] if dn > 0 else [_RAT_ZERO]

    # extended Euclid: s*a + t*modulus = gcd (a nonzero, modulus irreducible)
    r0, r1 = list(modulus), list(a)
    s0, s1 = [_RAT_ZERO], [_RAT_ONE]
    while deg(r1) > 0:
        q, rem = divmod_q(r0, r1)
        r0, r1 = r1, rem
        # s_new = s0 - q*s1
        prod = [_RAT_ZERO] * (len(q) + len(s1))
        for i, qc in enumerate(q):
            if qc[0]:
                for j, sc in enumerate(s1):
                    if sc[0]:
                        prod[i + j] = kernel.rat_add(prod[i + j], kernel.rat_mul(qc, sc))
        new_s = [
            kernel.rat_sub(s0[i] if i < len(s0) else _RAT_ZERO, prod[i] if i < len(prod) else _RAT_ZERO)
            for i in range(max(len(s0), len(prod)))
        ]
        s0, s1 = s1, new_s
    g = r1[0] if r1 else _RAT_ZERO
    if g[0] == 0:
        raise DivisionByZero("inverse of zero scalar")
    ginv = kernel.rat_inv(g)
    return [kernel.rat_mul(c, ginv) for c in s1]


def root_of_unity(n: int, k: int) -> CycScalar:
    """zeta_n**k in canonical reduced form."""
    if n < 1:
        raise ShapeError("order must be positive")
    p = k % n
    if n == 1:
        return SC_ONE
    coeffs = tuple((c, 1) for c in _reduce_int_poly([0] * p + [1], n))
    return CycScalar._make(n, coeffs)


SC_ZERO = CycScalar(1, (_RAT_ZERO,))
SC_ONE = CycScalar(1, (_RAT_ONE,))
SC_MINUS_ONE = CycScalar(1, ((-1, 1),))
SC_HALF = CycScalar(1, ((1, 2),))
