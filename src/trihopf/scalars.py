"""Exact scalars: one type for cyclotomic numbers, rationals included.

The ground field is the tower of cyclotomic fields Q(zeta_n).  A value
of order n is the residue of a polynomial in zeta_n modulo the n-th
cyclotomic polynomial, stored as ``(order, nums, den)``: a tuple of
phi(n) integer numerators over the power basis 1, z, ...,
z**(phi(n)-1) and one positive denominator, with gcd(den, *nums) == 1.
Arithmetic between different orders embeds both operands into
Q(zeta_lcm) first.  A value whose tail numerators vanish is demoted to
order 1, so plain rationals always carry the canonical representation
n=1; zero is ``(1, (0,), 1)``.

Equality is exact and decidable: same order compares the stored
fields, mixed orders compare after embedding into the common field.
The wire form is canonical: ``to_obj`` writes a value in the smallest
cyclotomic field that contains it, so a dump does not depend on the
order in which its values were summed.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .errors import DivisionByZero, ShapeError


def kernel_name() -> str:
    """Name of the arithmetic kernel: integer arithmetic in pure Python."""
    return "pure"


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


def _embed(nums, n: int, m: int):
    """Integer numerators of a value of order n, re-expressed at order m."""
    if n == m:
        return nums
    out = [0] * euler_phi(m)
    if n == 1:
        out[0] = nums[0]
        return out
    for x, row in zip(nums, _embed_rows(n, m)):
        if x:
            for j, r in enumerate(row):
                if r:
                    out[j] += x * r
    return out


def _mul_nums(u, v, n: int) -> list[int]:
    """Product of two integer numerator vectors of order n, reduced mod Phi_n."""
    phi = len(u)
    conv = [0] * (2 * phi - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    conv[i + j] += a * b
    out = conv[:phi]
    for c, row in zip(conv[phi:], _reduction_rows(n)):
        if c:
            for j, r in enumerate(row):
                if r:
                    out[j] += c * r
    return out


def _trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _int_poly_inverse(a, n: int) -> tuple[list[int], int]:
    """(s, c) with s*a = c mod Phi_n and c an integer, by extended Euclid.

    Each remainder comes from integer pseudo-division, and each pair
    (remainder, cofactor) is divided by its common content, which keeps
    s*a = r mod Phi_n true and the integers small.  a must be nonzero
    mod Phi_n, which is irreducible, so the last remainder c is a
    nonzero constant.
    """
    r0, s0 = list(cyclotomic_poly(n)), [0]
    r1, s1 = _trim(list(a)), [1]
    while len(r1) > 1:
        lc, d = r1[-1], len(r1) - 1
        r, s = r0, s0
        while len(r) > d:
            t, shift = r[-1], len(r) - 1 - d
            r = [lc * x for x in r]
            for i, y in enumerate(r1):
                r[i + shift] -= t * y
            s = [lc * x for x in s] + [0] * (len(s1) + shift - len(s))
            for i, y in enumerate(s1):
                s[i + shift] -= t * y
            r = _trim(r)
        g = gcd(*r, *s)
        if g > 1:
            r = [x // g for x in r]
            s = [x // g for x in s]
        r0, s0, r1, s1 = r1, s1, r, s
    return s1, r1[0]


@lru_cache(maxsize=None)
def _descent_rows(m: int, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Integer row echelon of [E | I], E the rows embedding order m into order n.

    Each row is (y.E | y) for an integer vector y; the embedding is
    injective, so every row has a pivot among the first phi(n) columns.
    """
    pm, pn = euler_phi(m), euler_phi(n)
    ech = []
    for i, e in enumerate(_embed_rows(m, n)):
        row = list(e) + [int(k == i) for k in range(pm)]
        for c, piv in ech:
            x = row[c]
            if x:
                row = [piv[c] * a - x * b for a, b in zip(row, piv)]
        g = gcd(*row)
        row = tuple(a // g for a in row)
        ech.append((next(j for j in range(pn) if row[j]), row))
    return tuple(ech)


def _descend(nums, den: int, m: int, n: int):
    """(nums, den) of a value of order n as a value of order m, or None."""
    pn = euler_phi(n)
    t = list(nums) + [0] * euler_phi(m)
    alpha = 1  # t == (alpha*nums - y.E | -y) throughout
    for c, piv in _descent_rows(m, n):
        x = t[c]
        if x:
            p = piv[c]
            t = [p * a - x * b for a, b in zip(t, piv)]
            alpha *= p
    if any(t[:pn]):
        return None
    sub, den = [-a for a in t[pn:]], den * alpha
    if den < 0:
        sub, den = [-a for a in sub], -den
    g = gcd(den, *sub)
    return [a // g for a in sub], den // g


def _pairs(nums, den: int):
    out = []
    for x in nums:
        g = gcd(x, den)
        out.append((x // g, den // g))
    return tuple(out)


@lru_cache(maxsize=4096)
def _wire_form(n: int, nums: tuple[int, ...], den: int):
    """(order, decimal (num, den) string pairs) of the value in its smallest
    field, memoized per canonical scalar: a dump repeats few values."""
    # smallest field first; Q(zeta_m) = Q(zeta_2m) for odd m, so skip m = 2 mod 4
    for m in range(3, n):
        if n % m == 0 and m % 4 != 2:
            sub = _descend(nums, den, m, n)
            if sub is not None:
                n, (nums, den) = m, sub
                break
    return n, tuple((str(a), str(b)) for a, b in _pairs(nums, den))


# ---------------------------------------------------------------------------
# cyclotomic scalars

_new = object.__new__


class CycScalar:
    """An element of Q(zeta_n), exact, in canonical reduced form."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, pairs):
        if order < 1:
            raise ShapeError("order must be positive")
        pairs = tuple(pairs)
        den = 1
        for _, b in pairs:
            if b == 0:
                raise DivisionByZero("coefficient with zero denominator")
            den = lcm(den, b)
        if len(pairs) != euler_phi(order):
            raise ShapeError(
                f"expected {euler_phi(order)} coefficients for order {order}, got {len(pairs)}"
            )
        v = _make(order, [a * (den // b) for a, b in pairs], den)
        self.order, self.nums, self.den = v.order, v.nums, v.den

    # construction -----------------------------------------------------

    @classmethod
    def from_rational(cls, num: int, den: int = 1) -> "CycScalar":
        if den == 0:
            raise DivisionByZero("rational with zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        return _scalar(1, (num // g,), den // g)

    @classmethod
    def from_int(cls, k: int) -> "CycScalar":
        return _scalar(1, (k,), 1)

    @classmethod
    def zero(cls) -> "CycScalar":
        return SC_ZERO

    @classmethod
    def one(cls) -> "CycScalar":
        return SC_ONE

    @property
    def coeffs(self) -> tuple[tuple[int, int], ...]:
        """The value as reduced (num, den) pairs over the power basis."""
        return _pairs(self.nums, self.den)

    def is_zero(self) -> bool:
        return self.order == 1 and not self.nums[0]

    # arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not CycScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self.order == 1 == other.order:
            da, db = self.den, other.den
            if da == db:
                num = self.nums[0] + other.nums[0]
                if da == 1:
                    return _scalar(1, (num,), 1)
            else:
                num = self.nums[0] * db + other.nums[0] * da
                da *= db
            g = gcd(num, da)
            return _scalar(1, (num // g,), da // g)
        return _sum(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not CycScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self.order == 1 == other.order:
            da, db = self.den, other.den
            if da == db:
                num = self.nums[0] - other.nums[0]
                if da == 1:
                    return _scalar(1, (num,), 1)
            else:
                num = self.nums[0] * db - other.nums[0] * da
                da *= db
            g = gcd(num, da)
            return _scalar(1, (num // g,), da // g)
        return _sum(self, other, -1)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return _scalar(self.order, tuple(-x for x in self.nums), self.den)

    def __mul__(self, other):
        if type(other) is not CycScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        n, m = self.order, other.order
        if n == 1:
            a = self.nums[0]
            if m == 1:
                num, den = a * other.nums[0], self.den * other.den
                if den != 1:
                    g = gcd(num, den)
                    num, den = num // g, den // g
                return _scalar(1, (num,), den)
            if not a:
                return SC_ZERO
            return _make(m, [a * x for x in other.nums], self.den * other.den)
        if m == 1:
            b = other.nums[0]
            if not b:
                return SC_ZERO
            return _make(n, [b * x for x in self.nums], self.den * other.den)
        if n == m:
            u, v = self.nums, other.nums
        else:
            n = lcm(n, m)
            u, v = _embed(self.nums, self.order, n), _embed(other.nums, m, n)
        return _make(n, _mul_nums(u, v, n), self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "CycScalar":
        nums, den = self.nums, self.den
        if self.order == 1:
            a = nums[0]
            if not a:
                raise DivisionByZero("inverse of zero scalar")
            return _scalar(1, (den,), a) if a > 0 else _scalar(1, (-den,), -a)
        # (a/den)**-1 = den*s/c where s*a = c mod Phi_n (irreducible over Q)
        s, c = _int_poly_inverse(nums, self.order)
        s = _reduce_int_poly(s, self.order)
        if c < 0:
            s, c = [-x for x in s], -c
        return _make(self.order, [den * x for x in s], c)

    def __truediv__(self, other):
        o = _coerce(other)
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
        if type(other) is not CycScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        n, m = self.order, other.order
        if n == m:
            return self.den == other.den and self.nums == other.nums
        k = lcm(n, m)
        da, db = self.den, other.den
        return [x * db for x in _embed(self.nums, n, k)] == [x * da for x in _embed(other.nums, m, k)]

    def __bool__(self):
        return self.order != 1 or self.nums[0] != 0

    __hash__ = None  # mutable-free but representation-sensitive; keep out of sets

    # serialization -------------------------------------------------------

    def to_obj(self):
        n, pairs = _wire_form(self.order, self.nums, self.den)
        return {"n": n, "c": [list(p) for p in pairs]}

    @classmethod
    def from_obj(cls, obj) -> "CycScalar":
        n = obj["n"]
        if type(n) is not int or n < 1:  # not bool or float: true or 3.9 would load
            raise ShapeError(f"scalar order {n!r} is not a positive integer")
        if any(type(x) not in (int, str) for pair in obj["c"] for x in pair):
            raise ShapeError("scalar coefficients must be integers or decimal strings")
        pairs = [(int(a), int(b)) for a, b in obj["c"]]
        if any(b == 0 for _, b in pairs):
            raise ShapeError("scalar with zero denominator")
        # phi(n) >= sqrt(n/2) for every n: a larger n cannot match, and
        # euler_phi(n) would take O(n) steps to say so
        if n > 2 * len(pairs) ** 2 or len(pairs) != euler_phi(n):
            raise ShapeError("coefficient count does not match order")
        return cls(n, pairs)

    def __repr__(self):
        if self.order == 1:
            return str(self.nums[0]) if self.den == 1 else f"{self.nums[0]}/{self.den}"
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


def _scalar(order: int, nums: tuple[int, ...], den: int) -> CycScalar:
    # fields already canonical
    self = _new(CycScalar)
    self.order = order
    self.nums = nums
    self.den = den
    return self


def _make(order: int, nums, den: int) -> CycScalar:
    """Canonical scalar from integer numerators over a positive denominator."""
    if order != 1 and not any(nums[1:]):
        order, nums = 1, nums[:1]
    g = gcd(den, *nums)
    if g != 1:
        return _scalar(order, tuple(x // g for x in nums), den // g)
    return _scalar(order, tuple(nums), den)


def _coerce(other):
    if isinstance(other, CycScalar):
        return other
    if isinstance(other, int):
        return _scalar(1, (other,), 1)
    return None


def _sum(a: CycScalar, b: CycScalar, sign: int) -> CycScalar:
    """a + sign*b for operands not both rational."""
    n, m = a.order, b.order
    k = n if n == m else lcm(n, m)
    u, v = _embed(a.nums, n, k), _embed(b.nums, m, k)
    da, db = a.den, b.den
    if da != db:
        u, v, da = [x * db for x in u], [y * da for y in v], da * db
    nums = [x + y for x, y in zip(u, v)] if sign > 0 else [x - y for x, y in zip(u, v)]
    return _make(k, nums, da)


def root_of_unity(n: int, k: int) -> CycScalar:
    """zeta_n**k in canonical reduced form."""
    if n < 1:
        raise ShapeError("order must be positive")
    return _root_of_unity(n, k % n)


@lru_cache(maxsize=None)
def _root_of_unity(n: int, p: int) -> CycScalar:
    if n == 1:
        return SC_ONE
    return _make(n, _reduce_int_poly([0] * p + [1], n), 1)


SC_ZERO = _scalar(1, (0,), 1)
SC_ONE = _scalar(1, (1,), 1)
SC_HALF = _scalar(1, (1,), 2)
