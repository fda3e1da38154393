"""Exact linear algebra and tensor-square arithmetic."""

import functools
import json
import random
import sys
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from trihopf import hopf
from trihopf.constructions import (
    Septuple,
    apply_twist,
    build_bicharacter_twist,
    group_algebra,
    modified_supergroup_algebra,
    supergroup_algebra,
    validate_septuple,
)
from trihopf.errors import NotInvertible, ShapeError
from trihopf.hopf import antipode_contraction, antipode_order, make_hopf
from trihopf.groups import (
    AbelianSubgroup,
    Bicharacter,
    FiniteGroup,
    GroupRep,
    alternating_nondegenerate_bicharacters,
    half_bicharacter,
    sign_characters,
)
from trihopf.scalars import CycScalar, root_of_unity
from trihopf.tensor import (
    Echelon,
    Tensor2,
    Tensor3,
    Vec,
    apply_map,
    embed13_23_12,
    flip,
    tensor2_inv,
    tensor2_mul,
    tensor3_mul,
    unit_tensor2,
)

from _oracles import (
    dense_product,
    expand_embedding,
    expand_flip,
    expand_legs,
    expand_map,
    expand_product,
    expand_sum,
    rank,
)

ONE = CycScalar.one()
ZERO = CycScalar.zero()


def sc(n, d=1):
    return CycScalar.from_rational(n, d)


def ints(rows):
    return [[sc(x) for x in row] for row in rows]


def echelon_of(rows):
    """The reduced row echelon basis of a matrix given by its rows."""
    return Echelon(enumerate(row) for row in rows)


def apply(rows, v):
    """The image of v under the matrix given by its rows."""
    return Vec.from_entries(sum((x * y for x, y in zip(row, v.entries)), ZERO) for row in rows)


def solve(rows, rhs):
    """The solution of rows @ x = rhs read off the augmented echelon, whose
    right-hand side is the label one past the last column."""
    n = len(rows[0])
    augmented = (chain(enumerate(row), ((n, b),)) for row, b in zip(rows, rhs.entries))
    return Echelon(augmented).solution(n)


# --- kernels and ranks ------------------------------------------------------

def test_kernel_identity_is_injective():
    assert echelon_of(ints([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).kernel(3) == []


def test_kernel_zero_matrix():
    basis = echelon_of(ints([[0, 0], [0, 0]])).kernel(2)
    assert len(basis) == 2
    assert basis[0] == Vec.basis(2, 0) and basis[1] == Vec.basis(2, 1)


def test_kernel_rank_one_symmetric():
    basis = echelon_of(ints([[1, 1], [1, 1]])).kernel(2)
    assert len(basis) == 1
    v = basis[0]
    # spanned by (1, -1)
    assert v.entries[0] * sc(-1) == v.entries[1]


def test_kernel_vectors_are_annihilated_and_rank_nullity():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[sc(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)] for _ in range(3)]
        span = echelon_of(rows)
        basis = span.kernel(4)
        for v in basis:
            assert not apply(rows, v).nonzeros
        assert len(span) == rank(rows)
        assert rank(rows) + len(basis) == 4


def test_kernel_with_cyclotomic_entries():
    z = root_of_unity(4, 1)
    rows = [[ONE, z], [z, -ONE]]  # second row = z * first row
    basis = echelon_of(rows).kernel(2)
    assert len(basis) == 1
    assert not apply(rows, basis[0]).nonzeros


def test_solve_linear():
    rows = ints([[2, 1], [1, 1]])
    rhs = Vec.from_entries([sc(3), sc(2)])
    x = solve(rows, rhs)
    assert apply(rows, x) == rhs
    assert solve(ints([[1, 0], [1, 0]]), Vec.from_entries([sc(0), sc(1)])) is None


# rationals times powers of zeta_3, zero included
_CYC3_SCALARS = st.builds(
    lambda n, den, k: CycScalar.from_rational(n, den) * root_of_unity(3, k),
    st.integers(-3, 3),
    st.integers(1, 3),
    st.integers(0, 2),
)


# --- elements of H: the arity-1 sparse tensor ---------------------------------

@given(st.lists(_CYC3_SCALARS, min_size=1, max_size=6).map(tuple))
@settings(max_examples=40, deadline=None)
def test_vec_entries_round_trip(e):
    v = Vec.from_entries(e)
    assert v.entries == e
    # nonzeros is a sparse column, which the constructor takes as it is
    assert v.nonzeros == tuple((i, c) for i, c in enumerate(e) if not c.is_zero())
    assert Vec(len(e), v.nonzeros) == v


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_vec_equality_ignores_summation_order_and_zeros(data):
    d = data.draw(st.integers(1, 5))
    terms = data.draw(st.lists(st.tuples(st.integers(0, d - 1), _CYC3_SCALARS), max_size=8))
    v = Vec(d, terms)
    shuffled = data.draw(st.permutations(terms))
    assert Vec(d, shuffled + [(i, ZERO) for i in range(d)]) == v
    # the same element summed one term at a time, in the reverse order
    total = Vec(d, ())
    for i, c in reversed(terms):
        total = total + Vec(d, ((i, c),))
    assert total == v
    assert v - v == Vec(d, ()) and -(-v) == v and v.scale(ONE) == v
    assert Vec.from_entries(v.entries) == v
    assert Vec(d + 1, terms) != v


def test_vec_refuses_a_sum_of_another_shape():
    with pytest.raises(ShapeError):
        Vec.basis(2, 0) + Vec.basis(3, 0)
    with pytest.raises(ShapeError):
        Vec.basis(2, 0) + Tensor2.outer(Vec.basis(2, 0), Vec.basis(2, 0))
    with pytest.raises(ShapeError):
        Vec.basis(2, 2)


def _leading_rank(rows, k):
    """Rank of the first k columns."""
    return rank([r[:k] for r in rows])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_elimination_property(data):
    # k[Z3]-sized systems over Q(zeta3); rank deficiency forced by copying
    # a combination of two rows into a third
    nrows, ncols = data.draw(st.integers(3, 4)), data.draw(st.integers(1, 4))
    rows = [[data.draw(_CYC3_SCALARS) for _ in range(ncols)] for _ in range(nrows)]
    a, b = data.draw(_CYC3_SCALARS), data.draw(_CYC3_SCALARS)
    rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    span = echelon_of(rows)
    basis = span.kernel(ncols)
    assert len(span) == rank(rows)
    assert rank(rows) + len(basis) == ncols
    # column f is free when it depends on the columns left of it
    free = [f for f in range(ncols) if _leading_rank(rows, f + 1) == _leading_rank(rows, f)]
    assert len(basis) == len(free)
    for v, f in zip(basis, free):
        assert not apply(rows, v).nonzeros
        assert [v.entries[g] for g in free] == [ONE if g == f else ZERO for g in free]
    # the solution sets every free unknown to 0; None exactly off the column space
    rhs = Vec.from_entries(data.draw(_CYC3_SCALARS) for _ in range(nrows))
    x = solve(rows, rhs)
    solvable = rank([list(r) + [c] for r, c in zip(rows, rhs.entries)]) == rank(rows)
    if x is None:
        assert not solvable
    else:
        assert solvable
        assert apply(rows, x) == rhs
        assert all(x.entries[f].is_zero() for f in free)
    # an rhs built from the columns is always solvable
    y = Vec.from_entries(data.draw(_CYC3_SCALARS) for _ in range(ncols))
    assert solve(rows, apply(rows, y)) is not None


@pytest.mark.parametrize(
    "labels", [list(range(6)), [(i, j) for i in range(2) for j in range(3)]], ids=["int", "pair"]
)
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_echelon_property(labels, data):
    # sparse vectors over Q(zeta3), zero entries allowed; the last one is a
    # combination of the others, so the span is never of full count
    vector = st.dictionaries(st.sampled_from(labels), _CYC3_SCALARS, max_size=4)
    vectors = data.draw(st.lists(vector, min_size=1, max_size=4))
    combo: dict = {}
    for v in vectors:
        a = data.draw(_CYC3_SCALARS)
        for k, c in v.items():
            combo[k] = combo.get(k, ZERO) + a * c
    vectors.append(combo)

    def dense(v):
        return [v.get(k, ZERO) for k in labels]

    span = Echelon()
    for t, v in enumerate(vectors):
        grows = rank(map(dense, vectors[: t + 1])) > rank(map(dense, vectors[:t]))
        assert (span.add(v) is not None) == grows
    assert len(span) == rank(map(dense, vectors))
    for p, row in span.rows.items():
        assert min(row) == p and row[p] == ONE
        assert all(not c.is_zero() for c in row.values())
        assert all(q not in row for q in span.rows if q != p)
    probe = data.draw(st.one_of(vector, st.sampled_from(vectors)))
    inside = rank(map(dense, vectors + [probe])) == len(span)
    assert (not span.reduce(probe)) == inside
    order = data.draw(st.permutations(range(len(vectors))))
    assert Echelon(vectors[i] for i in order).rows == span.rows


# --- tensor squares ---------------------------------------------------------

@pytest.fixture(scope="module")
def kz2():
    return group_algebra(FiniteGroup.cyclic(2))


def basis2(h, i, j):
    return Tensor2.outer(Vec.basis(h.dim, i), Vec.basis(h.dim, j))


def test_unit_tensor_is_neutral(kz2):
    x = Tensor2.from_dict(2, {(0, 1): sc(3), (1, 0): sc(-2, 5)})
    assert tensor2_mul(unit_tensor2(kz2), x, kz2) == x
    assert tensor2_mul(x, unit_tensor2(kz2), kz2) == x


def test_gg_squares_to_unit(kz2):
    gg = basis2(kz2, 1, 1)
    assert tensor2_mul(gg, gg, kz2) == unit_tensor2(kz2)
    assert tensor2_inv(gg, kz2) == gg
    assert tensor2_inv(unit_tensor2(kz2), kz2) == unit_tensor2(kz2)


def test_ru_squares_to_unit_against_symbolic_oracle(kz2):
    # independent oracle: expand the 16-term product in k[Z2] (x) k[Z2]
    # symbolically, multiplying exponent pairs mod 2.
    half = sc(1, 2)
    terms = {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half}
    expected = {}
    for (a1, b1), c1 in terms.items():
        for (a2, b2), c2 in terms.items():
            key = ((a1 + a2) % 2, (b1 + b2) % 2)
            expected[key] = expected.get(key, ZERO) + c1 * c2
    expected = {k: v for k, v in expected.items() if not v.is_zero()}
    assert expected == {(0, 0): ONE}  # the oracle itself collapses to 1 (x) 1

    r_u = Tensor2.from_dict(2, terms)
    assert tensor2_mul(r_u, r_u, kz2) == unit_tensor2(kz2)
    assert tensor2_inv(r_u, kz2) == r_u


def test_tensor2_mul_shape_error(kz2):
    with pytest.raises(ShapeError):
        tensor2_mul(Tensor2.from_dict(3, {}), Tensor2.from_dict(3, {}), kz2)


def test_tensor2_inv_singular(kz2):
    # 1 (x) (1 + g) annihilates 1 (x) (1 - g)
    t = Tensor2.from_dict(2, {(0, 0): ONE, (0, 1): ONE})
    for singular in (t, Tensor2.from_dict(2, {})):
        with pytest.raises(NotInvertible, match="zero divisor"):
            tensor2_inv(singular, kz2)


# --- inverses of twists: the minimal-polynomial path ----------------------

@functools.lru_cache(maxsize=None)
def _full_twist(factors, index):
    """Host k[A], A and half of the index-th alternating bicharacter on A."""
    group = FiniteGroup.direct_product(*[FiniteGroup.cyclic(f) for f in factors])
    sub = group.abelian_subgroup(range(group.order))
    beta = half_bicharacter(_alternating(factors)[index])
    return group_algebra(group), sub, beta


@functools.lru_cache(maxsize=None)
def _alternating(factors):
    return alternating_nondegenerate_bicharacters(factors)


@functools.lru_cache(maxsize=None)
def _z2e4_twist(nonzeros):
    """A Z2^4 twist whose J has the given number of nonzero coefficients."""
    factors = (2, 2, 2, 2)
    for index in range(len(_alternating(factors))):
        h, sub, beta = _full_twist(factors, index)
        if len(build_bicharacter_twist(sub, beta).nonzeros) == nonzeros:
            return h, sub, beta
    raise AssertionError(f"no Z2^4 twist with {nonzeros} nonzeros")


def _inverse_bicharacter(beta):
    return Bicharacter(beta.factors, [[-k for k in row] for row in beta.exponents])


TWISTS = {
    "Z2xZ2": lambda: _full_twist((2, 2), 0),
    "Z3xZ3-0": lambda: _full_twist((3, 3), 0),
    "Z3xZ3-1": lambda: _full_twist((3, 3), 1),
    "Z4xZ4-0": lambda: _full_twist((4, 4), 0),
    "Z4xZ4-1": lambda: _full_twist((4, 4), 1),
    "Z2^4-16nz": lambda: _z2e4_twist(16),
    "Z2^4-64nz": lambda: _z2e4_twist(64),
}


def test_tensor2_inv_solves_nothing(monkeypatch):
    # the inverse is a polynomial in the element: no linear system is set up
    cases = []
    for name in ("Z2^4-16nz", "Z2^4-64nz", "Z3xZ3-0", "Z4xZ4-0"):
        h, sub, beta = TWISTS[name]()
        cases.append((h, build_bicharacter_twist(sub, beta), None))
    z2cubed = FiniteGroup.direct_product(*[FiniteGroup.cyclic(2)] * 3)
    chars = [c for c in sign_characters(z2cubed) if c[1] == -1]
    super32, r32 = modified_supergroup_algebra(
        z2cubed, GroupRep.from_sign_characters(z2cubed, chars[:2]), u=1
    )
    assert super32.dim == 32
    cases.append((super32, r32, flip(r32, super32)))  # triangular: R^-1 = R21

    def no_solve(*args):
        raise AssertionError("tensor2_inv set up a linear system")

    for name in ("solution", "kernel"):
        monkeypatch.setattr(Echelon, name, no_solve)
    for h, a, expected in cases:
        inv = tensor2_inv(a, h)
        unit2 = unit_tensor2(h)
        assert tensor2_mul(a, inv, h) == unit2 == tensor2_mul(inv, a, h)
        if expected is not None:
            assert inv == expected


@pytest.mark.parametrize("name", list(TWISTS))
def test_twist_inverse_is_inverse_bicharacter_twist(name):
    # theorem oracle: J_beta^-1 = J_(beta^-1), since the E_s are orthogonal idempotents
    h, sub, beta = TWISTS[name]()
    expected = build_bicharacter_twist(sub, _inverse_bicharacter(beta))
    assert tensor2_inv(build_bicharacter_twist(sub, beta), h) == expected


_Z3 = group_algebra(FiniteGroup.cyclic(3))
_SUPER_SWEEDLER = supergroup_algebra(
    FiniteGroup.cyclic(2), GroupRep.from_sign_characters(FiniteGroup.cyclic(2), [(1, -1)])
)


def _left_mult_rows(a, h):
    """Rows of the matrix of x -> a x on H (x) H, columns indexed by basis pairs."""
    pairs = [(p, q) for p in range(h.dim) for q in range(h.dim)]
    cols = [tensor2_mul(a, basis2(h, p, q), h) for p, q in pairs]
    return [[col.get(k, l) for col in cols] for k, l in pairs]


@pytest.mark.parametrize("host", [_Z3, _SUPER_SWEEDLER], ids=["kZ3", "super_sweedler"])
@given(st.data())
@settings(max_examples=30, deadline=None)
def test_tensor2_inv_property(host, data):
    d = host.dim
    entries = data.draw(
        st.dictionaries(
            st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), _CYC3_SCALARS, max_size=4
        )
    )
    a = Tensor2.from_dict(d, entries)
    if data.draw(st.booleans()):
        a = a + unit_tensor2(host)
    try:
        inv = tensor2_inv(a, host)
    except NotInvertible:
        # independent witness: left multiplication by a has a kernel
        assert rank(_left_mult_rows(a, host)) < d * d
    else:
        unit2 = unit_tensor2(host)
        assert tensor2_mul(a, inv, host) == unit2
        assert tensor2_mul(inv, a, host) == unit2


def _coefficients(t):
    """The coefficients of t by index, after checking the sparse invariants."""
    keys = [entry[:-1] for entry in t.nonzeros]
    assert keys == sorted(set(keys))
    assert not any(entry[-1].is_zero() for entry in t.nonzeros)
    return {entry[:-1]: entry[-1] for entry in t.nonzeros}


@pytest.mark.parametrize("host", [_Z3, _SUPER_SWEEDLER], ids=["kZ3", "super_sweedler"])
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_sparse_tensor_operations_property(host, data):
    d = host.dim

    def draw(arity):
        keys = st.tuples(*[st.integers(0, d - 1)] * arity)
        return data.draw(st.dictionaries(keys, _CYC3_SCALARS, max_size=4))

    a2, b2, a3, b3 = draw(2), draw(2), draw(3), draw(3)
    x, y = Tensor2.from_dict(d, a2), Tensor2.from_dict(d, b2)
    u, v = Tensor3.from_dict(d, a3), Tensor3.from_dict(d, b3)
    assert _coefficients(x) == expand_sum(a2, {})
    assert _coefficients(u) == expand_sum(a3, {})
    assert _coefficients(tensor2_mul(x, y, host)) == expand_product(host, a2, b2)
    assert _coefficients(tensor3_mul(u, v, host)) == expand_product(host, a3, b3)
    for pattern in ("12", "13", "23", "delta_id", "id_delta"):
        expected = expand_embedding(host, a2, pattern)
        assert _coefficients(embed13_23_12(x, pattern, host)) == expected
    assert _coefficients(flip(x, host)) == expand_flip(host, a2)
    assert _coefficients(x + y) == expand_sum(a2, b2)
    assert _coefficients(x - y) == expand_sum(a2, b2, sign=-1)
    assert _coefficients(u - u) == {}


# --- the integer form: one order, one denominator, integer numerators --------

# rationals, and rationals times powers of zeta_3 or zeta_8, zero included
_MIXED_SCALARS = st.builds(
    lambda n, den, order, k: CycScalar.from_rational(n, den) * root_of_unity(order, k),
    st.integers(-3, 3),
    st.integers(1, 4),
    st.sampled_from((1, 3, 8)),
    st.integers(0, 7),
)


def _scaled_group_algebra(g, scales):
    """k[G] in the basis b_x = scales[x] x, scales[identity] = 1: its
    structure constants are cyclotomic where the scales are."""
    d, t = g.order, g.table
    inv = [next(y for y in range(d) if t[x][y] == g.identity) for x in range(d)]
    return make_hopf(
        dim=d,
        unit=[ONE if x == g.identity else ZERO for x in range(d)],
        mult=[[[(t[x][y], scales[x] * scales[y] / scales[t[x][y]])] for y in range(d)]
              for x in range(d)],
        comult=[[(x, x, scales[x].inv())] for x in range(d)],
        counit=list(scales),
        antipode=[[(inv[x], scales[x] / scales[inv[x]])] for x in range(d)],
    )


# mult has entries in Q(zeta_8) and Q(zeta_3) at once
_SCALED_Z3 = _scaled_group_algebra(
    FiniteGroup.cyclic(3), (ONE, root_of_unity(8, 1), sc(2) * root_of_unity(3, 1))
)


def _summed(terms):
    """The coefficients of a list of (key, scalar) terms, summed per key by
    CycScalar arithmetic."""
    acc = {}
    for key, c in terms:
        acc[key] = acc.get(key, ZERO) + c
    return {key: c for key, c in acc.items() if not c.is_zero()}


def _assert_exact(t, expected):
    """t holds exactly the scalars of expected: by nonzeros, by equality
    with the tensor of those scalars, and by the bytes of their wire form."""
    assert _coefficients(t) == expected
    assert t == type(t)(t.dim, [(k[0] if t.arity == 1 else k, c) for k, c in expected.items()])
    wire = [[*entry[:-1], entry[-1].to_obj()] for entry in t.nonzeros]
    assert json.dumps(wire) == json.dumps([[*k, c.to_obj()] for k, c in sorted(expected.items())])


@pytest.mark.parametrize(
    "host", [_Z3, _SUPER_SWEEDLER, _SCALED_Z3], ids=["kZ3", "super_sweedler", "scaled_kZ3"]
)
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_integer_kernel_matches_scalar_oracles(host, data):
    d = host.dim

    def draw(arity):
        """Terms with repeated keys and mixed orders, and their sum; half
        the time every term is followed by its negative, so the sum cancels."""
        keys = st.tuples(*[st.integers(0, d - 1)] * arity)
        terms = data.draw(st.lists(st.tuples(keys, _MIXED_SCALARS), max_size=5))
        if data.draw(st.booleans()):
            terms = [t for k, c in terms for t in ((k, c), (k, -c))]
        return terms, _summed(terms)

    (ta2, a2), (tb2, b2), (ta3, a3), (tb3, b3) = draw(2), draw(2), draw(3), draw(3)
    (tx, x1), (ty, y1) = draw(1), draw(1)
    x, y = Tensor2(d, ta2), Tensor2(d, tb2)
    u, v = Tensor3(d, ta3), Tensor3(d, tb3)
    _assert_exact(x, a2)
    _assert_exact(u, a3)
    _assert_exact(tensor2_mul(x, y, host), expand_product(host, a2, b2))
    _assert_exact(tensor3_mul(u, v, host), expand_product(host, a3, b3))
    for pattern in ("12", "13", "23", "delta_id", "id_delta"):
        _assert_exact(embed13_23_12(x, pattern, host), expand_embedding(host, a2, pattern))
    _assert_exact(flip(x, host), expand_flip(host, a2))
    _assert_exact(x + y, expand_sum(a2, b2))
    _assert_exact(x - y, expand_sum(a2, b2, sign=-1))
    _assert_exact(-x, expand_sum({}, a2, sign=-1))
    c = data.draw(_MIXED_SCALARS)
    _assert_exact(x.scale(c), _summed([(k, c * w) for k, w in a2.items()]))
    dense = [[x1.get((i,), ZERO) for i in range(d)], [y1.get((i,), ZERO) for i in range(d)]]
    product = host.mul_vec(Vec(d, [(k[0], c) for k, c in tx]), Vec(d, [(k[0], c) for k, c in ty]))
    assert list(product.entries) == dense_product(host, *dense)
    assert x - x == Tensor2(d, []) and not (x - x).nonzeros
    _assert_exact(host.mul_legs(x), expand_legs(host, a2))

    def columns(cls, dim):
        """d columns of a map into the tensors cls over dim, raw mixed terms."""
        keys = st.tuples(*[st.integers(0, dim - 1)] * cls.arity)
        drawn = [data.draw(st.lists(st.tuples(keys, _MIXED_SCALARS), max_size=3)) for _ in range(d)]
        return tuple(cls(dim, [(k[0] if cls is Vec else k, c) for k, c in terms]) for terms in drawn)

    # maps into H, into k^m (between two dimensions) and into H (x) H, on
    # every leg of every arity they apply to
    vec = Vec(d, [(k[0], c) for k, c in tx])
    into_h2 = columns(Tensor2, d)
    for cols in (columns(Vec, d), columns(Vec, data.draw(st.integers(1, 4)))):
        _assert_exact(apply_map(cols, vec), expand_map(cols, x1, 0))
        for leg in (0, 1):
            _assert_exact(apply_map(cols, x, leg), expand_map(cols, a2, leg))
        for leg in (0, 1, 2):
            _assert_exact(apply_map(cols, u, leg), expand_map(cols, a3, leg))
    _assert_exact(apply_map(into_h2, vec), expand_map(into_h2, x1, 0))
    for leg in (0, 1):
        _assert_exact(apply_map(into_h2, x, leg), expand_map(into_h2, a2, leg))


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_zeta3_products_that_come_out_rational(data):
    # r zeta^e times s zeta^-e is rational: the product is demoted to order 1
    d = _Z3.dim
    e = data.draw(st.integers(1, 2))
    keys = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    rationals = st.builds(sc, st.integers(-3, 3).filter(bool), st.integers(1, 4))
    a = {k: r * root_of_unity(3, e) for k, r in data.draw(st.dictionaries(keys, rationals)).items()}
    b = {k: r * root_of_unity(3, -e) for k, r in data.draw(st.dictionaries(keys, rationals)).items()}
    x, y = Tensor2.from_dict(d, a), Tensor2.from_dict(d, b)
    assert x.order == (3 if a else 1)
    product = tensor2_mul(x, y, _Z3)
    assert product.order == 1
    _assert_exact(product, expand_product(_Z3, a, b))


def _z3z3_twist():
    """k[Z3 x Z3] twisted by a bicharacter with values in Q(zeta_3)."""
    g = FiniteGroup.direct_product(FiniteGroup.cyclic(3), FiniteGroup.cyclic(3))
    sub = AbelianSubgroup(g, range(g.order))
    gamma = alternating_nondegenerate_bicharacters(sub.factors)[0]
    return apply_twist(group_algebra(g), build_bicharacter_twist(sub, half_bicharacter(gamma)))[0]


def _forbid_scalar_products(monkeypatch):
    """Make every CycScalar product raise, except in Echelon, whose
    elimination multiplies field elements by design."""
    original = CycScalar.__mul__
    echelon = {f.__code__ for f in vars(Echelon).values() if hasattr(f, "__code__")}

    def guarded(self, other):
        caller = sys._getframe(1)  # a method of Echelon, or a comprehension in one
        if caller.f_code not in echelon and caller.f_back.f_code not in echelon:
            raise AssertionError("a CycScalar product outside Echelon")
        return original(self, other)

    monkeypatch.setattr(CycScalar, "__mul__", guarded)
    monkeypatch.setattr(CycScalar, "__rmul__", guarded)


def test_linear_maps_multiply_no_scalar(monkeypatch):
    # S, S^2, Delta, rho(g) and Y applied, composed and contracted on integer
    # numerators; each result is compared with the one computed before the
    # products were forbidden, on a fresh copy of the host and its Algebra
    i = root_of_unity(4, 1)
    chi, conj = (ONE, i, -ONE, -i), (ONE, -i, -ONE, i)
    z4 = FiniteGroup.cyclic(4)
    hosts = [_SUPER_SWEEDLER, _z3z3_twist(), _SCALED_Z3]
    expected = []
    for h in hosts:
        d = h.dim
        t = Tensor2(d, [((k % d, (3 * k + 1) % d), c) for k, c in enumerate((sc(1, 2), i, -ONE))])
        v = Vec(d, [(0, sc(2, 3)), (d - 1, root_of_unity(3, 1))])
        expected.append((
            t, v, h.antipode_vec(v), h.comult_vec(v), h.s2_columns, antipode_order(h),
            [antipode_contraction(h, t, leg, square) for leg in (0, 1) for square in (False, True)],
        ))
    _forbid_scalar_products(monkeypatch)
    for h, (t, v, s_v, delta_v, s2, order, contractions) in zip(hosts, expected):
        fresh = h.replace(mult=h.mult)
        assert fresh.antipode_vec(v) == s_v and fresh.comult_vec(v) == delta_v
        assert fresh.s2_columns == s2 and antipode_order(fresh) == order
        assert [
            antipode_contraction(fresh, t, leg, square) for leg in (0, 1) for square in (False, True)
        ] == contractions
        assert hopf._associativity_witness(fresh.algebra, range(fresh.dim)) is None
    # rho(g) of Z4 on one line, chi = (1, i, -1, -i), and on chi + its
    # conjugate with Y = (e_0 + e_1, e_0 - e_1), on which rho(1) swaps
    # the y up to i, so B = diag(1, -1) is invariant
    line = GroupRep(z4, 1, [[[c]] for c in chi])
    assert line.acts_by_minus_one(2)
    w = GroupRep(z4, 2, [[[c, ZERO], [ZERO, b]] for c, b in zip(chi, conj)])
    y = (Vec.from_entries([ONE, ONE]), Vec.from_entries([ONE, -ONE]))
    s = Septuple(z4, w, (0,), y, ((ONE, ZERO), (ZERO, -ONE)), Bicharacter.trivial((1,)), 1, 2)
    assert validate_septuple(s).valid
    bad = Septuple(z4, w, (0, 1, 2, 3), y, ((ONE, ZERO), (ZERO, ONE)), Bicharacter.trivial((4,)), 1, 2)
    assert "b_symmetric_invariant_nondegenerate" in validate_septuple(bad).failures()


@pytest.mark.parametrize("cls, key", [
    (Tensor2, (-1, 0)),
    (Tensor2, (2, 0)),
    (Tensor2, (0, 2)),
    (Tensor2, (0,)),
    (Tensor2, (0, 0, 0)),
    (Tensor3, (0, -1, 0)),
    (Tensor3, (0, 0)),
])
def test_from_dict_rejects_bad_indices(cls, key):
    with pytest.raises(ShapeError):
        cls.from_dict(2, {key: ONE})


def test_vec_from_dict_takes_one_index_keys():
    # a Vec is keyed by the plain index once the 1-tuple key is checked
    v = Vec.from_dict(2, {(0,): ONE})
    assert v == Vec.basis(2, 0) and v.get(0) == ONE and v.nonzeros == ((0, ONE),)
    assert Vec.from_dict(3, {(2,): sc(1, 2), (0,): ZERO}) == Vec(3, ((2, sc(1, 2)),))
    for key in ((2,), (-1,), (0, 0), 0):
        with pytest.raises(ShapeError):
            Vec.from_dict(2, {key: ONE})


def test_flip():
    t = Tensor2.from_dict(2, {(0, 1): sc(2)})
    assert flip(t) == Tensor2.from_dict(2, {(1, 0): sc(2)})
    sym = Tensor2.from_dict(2, {(0, 1): sc(1), (1, 0): sc(1)})
    assert flip(sym) == sym
    rnd = Tensor2.from_dict(2, {(0, 0): sc(1), (1, 0): sc(-3, 2)})
    assert flip(flip(rnd)) == rnd


def test_flip_super_sign():
    h = supergroup_algebra(
        FiniteGroup.cyclic(2), GroupRep.from_sign_characters(FiniteGroup.cyclic(2), [(1, -1)])
    )
    # v (x) v picks up the Koszul sign; indices 1 and 3 are odd
    t = Tensor2.from_dict(h.dim, {(1, 1): ONE})
    assert flip(t, h) == Tensor2.from_dict(h.dim, {(1, 1): -ONE})
    t2 = Tensor2.from_dict(h.dim, {(0, 1): ONE})
    assert flip(t2, h) == Tensor2.from_dict(h.dim, {(1, 0): ONE})


def test_flip_antihomomorphism(kz2):
    rng = random.Random(3)
    for _ in range(10):
        a = Tensor2.from_dict(
            2, {(rng.randint(0, 1), rng.randint(0, 1)): sc(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)}
        )
        b = Tensor2.from_dict(
            2, {(rng.randint(0, 1), rng.randint(0, 1)): sc(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)}
        )
        # k[Z2] (x) k[Z2] is commutative, so flip is an algebra map here
        assert flip(tensor2_mul(a, b, kz2)) == tensor2_mul(flip(a), flip(b), kz2)


def test_embeddings(kz2):
    one = unit_tensor2(kz2)
    one3 = Tensor3.outer(kz2.unit, kz2.unit, kz2.unit)
    assert embed13_23_12(one, "13", kz2) == one3
    gg = basis2(kz2, 1, 1)
    t = embed13_23_12(gg, "13", kz2)
    assert t == _t3(kz2, {(1, 0, 1): ONE})
    assert embed13_23_12(gg, "12", kz2) == _t3(kz2, {(1, 1, 0): ONE})
    assert embed13_23_12(gg, "23", kz2) == _t3(kz2, {(0, 1, 1): ONE})
    # (Delta (x) id)(1 (x) 1) = 1 (x) 1 (x) 1
    assert embed13_23_12(one, "delta_id", kz2) == one3
    assert embed13_23_12(one, "id_delta", kz2) == one3
    with pytest.raises(ShapeError):
        embed13_23_12(one, "31", kz2)


def _t3(h, entries):
    return Tensor3.from_dict(h.dim, entries)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_tensor2_mul_associative_unital(data):
    h = group_algebra(FiniteGroup.cyclic(3))

    def rand_t2():
        entries = {}
        for _ in range(data.draw(st.integers(0, 4))):
            i = data.draw(st.integers(0, 2))
            j = data.draw(st.integers(0, 2))
            entries[(i, j)] = sc(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
        return Tensor2.from_dict(3, entries)

    a, b, c = rand_t2(), rand_t2(), rand_t2()
    assert tensor2_mul(tensor2_mul(a, b, h), c, h) == tensor2_mul(a, tensor2_mul(b, c, h), h)
    assert tensor2_mul(unit_tensor2(h), a, h) == a
