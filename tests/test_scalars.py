"""Exact rational and cyclotomic arithmetic."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from trihopf.errors import DivisionByZero, ShapeError
from trihopf.scalars import (
    CycScalar,
    _embed,
    cyclotomic_poly,
    euler_phi,
    kernel_name,
    root_of_unity,
)

from _oracles import ref_inv, ref_lift, ref_mul, ref_of, ref_smallest_field

ORDERS = [1, 2, 3, 4, 5, 6, 8, 12, 16]


def rand_scalar(data, orders=ORDERS):
    n = data.draw(st.sampled_from(orders))
    coeffs = [
        (data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 7)))
        for _ in range(euler_phi(n))
    ]
    return CycScalar(n, coeffs)


def test_rational_arithmetic():
    q = CycScalar.from_rational
    assert q(1, 2) + q(1, 3) == q(5, 6)
    assert q(2, 4) == q(1, 2) and q(2, 4).coeffs == ((1, 2),)
    assert q(3, -6) == q(-1, 2) and q(3, -6).coeffs == ((-1, 2),)
    assert q(1, 2) * q(2, 3) == q(1, 3)
    assert q(7, 3).inv() == q(3, 7)
    assert -q(0, 5) == q(0) and (-q(0, 5)).coeffs == ((0, 1),)
    with pytest.raises(DivisionByZero):
        q(1, 0)
    with pytest.raises(DivisionByZero):
        q(0).inv()


def test_root_of_unity_basics():
    assert root_of_unity(1, 0) == CycScalar.one()
    assert root_of_unity(2, 1) == CycScalar.from_int(-1)
    z3 = root_of_unity(3, 1)
    assert z3 ** 3 == CycScalar.one()
    assert z3 != CycScalar.one() and z3 ** 2 != CycScalar.one()


def test_defining_relations():
    z4 = root_of_unity(4, 1)
    assert z4 * z4 == CycScalar.from_int(-1)
    # reduction mod Phi_6 = x^2 - x + 1
    z6 = root_of_unity(6, 1)
    assert z6 * z6 == z6 - CycScalar.one()


def test_root_of_unity_multiplicative_order():
    from math import gcd

    for n in (1, 2, 3, 4, 6, 8, 12):
        for k in range(n):
            z = root_of_unity(n, k)
            expected = n // gcd(n, k) if k else 1
            order = 1
            acc = z
            while acc != CycScalar.one():
                acc = acc * z
                order += 1
                assert order <= n
            assert order == expected


def test_powers_below_order_nontrivial():
    for n in (2, 3, 4, 5, 6, 8, 12, 16):
        z = root_of_unity(n, 1)
        acc = CycScalar.one()
        for j in range(1, n):
            acc = acc * z
            assert acc != CycScalar.one(), (n, j)
        assert acc * z == CycScalar.one()


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_mixed_order_promotion():
    z4, z3 = root_of_unity(4, 1), root_of_unity(3, 1)
    assert z4 * z3 == root_of_unity(12, 7)
    assert z4 + z3 - z3 == z4


def test_rational_demotion():
    z4 = root_of_unity(4, 1)
    sq = z4 * z4
    assert sq.order == 1 and sq.coeffs == ((-1, 1),)
    assert (z4 - z4).order == 1


def test_wire_roundtrip():
    vals = [
        CycScalar.from_rational(-7, 3),
        root_of_unity(8, 3) + CycScalar.from_rational(1, 2),
        CycScalar.zero(),
    ]
    for v in vals:
        assert CycScalar.from_obj(v.to_obj()) == v
    obj = root_of_unity(6, 1).to_obj()
    assert obj["n"] == 3  # zeta_6 = 1 + zeta_3 lies in Q(zeta_3)
    assert obj["c"] == [["1", "1"], ["1", "1"]]
    assert all(isinstance(x, str) for pair in obj["c"] for x in pair)


def test_division_errors():
    with pytest.raises(DivisionByZero):
        CycScalar.zero().inv()
    with pytest.raises(ShapeError):
        CycScalar(6, ((1, 1),))  # wrong coefficient count


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_field_axioms(data):
    a = rand_scalar(data)
    b = rand_scalar(data)
    c = rand_scalar(data)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inv() == CycScalar.one()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_embedding_is_ring_homomorphism(data):
    n = data.draw(st.sampled_from([1, 2, 3, 4, 6]))
    m = data.draw(st.sampled_from([12, 24]))
    a = rand_scalar(data, orders=[n])
    b = rand_scalar(data, orders=[n])
    emb = lambda x: CycScalar(m, [(k, x.den) for k in _embed(x.nums, x.order, m)])
    assert emb(a) + emb(b) == a + b
    assert emb(a) * emb(b) == a * b


def test_kernel_selected():
    assert kernel_name() == "pure"


def test_serialized_form_is_canonical():
    z3, i = root_of_unity(3, 1), root_of_unity(4, 1)
    late, early = (z3 + i) - i, z3 + (i - i)
    assert (late.order, early.order) == (12, 3)
    assert late.to_obj() == early.to_obj() == {"n": 3, "c": [["0", "1"], ["1", "1"]]}


def test_memoized_wire_form_is_fresh_per_call():
    # the field descent is memoized; each call still returns its own dict
    z3, i = root_of_unity(3, 1), root_of_unity(4, 1)
    value = (z3 + i) - i
    first = value.to_obj()
    first["n"] = 99
    first["c"][0][0] = "tampered"
    first["c"].append(["1", "1"])
    assert value.to_obj() == {"n": 3, "c": [["0", "1"], ["1", "1"]]}


# --- the arithmetic against an independent Fraction reference ------------

REF_ORDERS = [1, 2, 3, 4, 6, 8, 12]
AMBIENT = 24  # lcm of REF_ORDERS


def assert_canonical(x):
    assert len(x.nums) == euler_phi(x.order)
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert x.order == 1 or any(x.nums[1:])  # rational values sit at order 1


@st.composite
def ref_scalars(draw):
    """A scalar drawn at one order and stored at a multiple of it, often
    sparse, so that demotion and mixed-order equality come up."""
    n = draw(st.sampled_from(REF_ORDERS))
    small = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5])
    coeffs = [Fraction(draw(small), draw(st.sampled_from([1, 1, 2, 3, 4, 9]))) for _ in range(euler_phi(n))]
    m = draw(st.sampled_from([k for k in REF_ORDERS if k % n == 0]))
    stored = ref_lift(n, coeffs, m)
    return CycScalar(m, [(c.numerator, c.denominator) for c in stored])


@given(ref_scalars(), ref_scalars())
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_fraction_reference(a, b):
    ra, rb = ref_of(a, AMBIENT), ref_of(b, AMBIENT)
    results = {
        "+": (a + b, [x + y for x, y in zip(ra, rb)]),
        "-": (a - b, [x - y for x, y in zip(ra, rb)]),
        "*": (a * b, ref_mul(ra, rb, AMBIENT)),
    }
    if any(ra):
        results["inv"] = (a.inv(), ref_inv(ra, AMBIENT))
    else:
        with pytest.raises(DivisionByZero):
            a.inv()
    for op, (got, want) in results.items():
        assert_canonical(got)
        assert ref_of(got, AMBIENT) == want, op
    assert_canonical(a)
    assert (a == b) == (ra == rb)
    obj = a.to_obj()
    assert obj["n"] == ref_smallest_field(ra, AMBIENT)
    pairs = [(int(x), int(y)) for x, y in obj["c"]]
    assert all(y > 0 and gcd(x, y) == 1 for x, y in pairs)
    assert ref_lift(obj["n"], [Fraction(x, y) for x, y in pairs], AMBIENT) == ra
