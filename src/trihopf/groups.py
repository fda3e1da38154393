"""Cayley-table groups, matrix representations, bicharacters.

Groups are small (catalog order <= 16) and fully validated at
construction: permutation rows/columns, associativity on all triples,
identity behavior.  Abelian structure is carried explicitly as a list
of cyclic factor orders plus an exponent map, which feeds the dual-group
labels and the bicharacter twist.  A bicharacter on such a group is its table
of exponents k mod N, N the lcm of the factors, for the values
zeta_N**k: it is checked, skewed, inverted and halved on those
integers, and the bicharacter twist is counted on them too.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import gcd, lcm, prod

from .errors import BicharacterError, GroupError, NotAbelian, ShapeError
from .scalars import SC_ONE, SC_ZERO
from .tensor import Vec, apply_map


class FiniteGroup:
    """A finite group as a Cayley table on indices 0..order-1."""

    def __init__(self, table, identity, invariant_factors=None, iso_map=None, name=""):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.identity = identity
        self.name = name
        self._validate()
        self.invariant_factors = tuple(invariant_factors) if invariant_factors else None
        self.iso_map = tuple(tuple(e) for e in iso_map) if iso_map else None
        if self.invariant_factors is not None:
            self._validate_factors()

    def _validate(self):
        n = self.order
        if n < 1:
            raise GroupError("group must be nonempty")
        ref = set(range(n))
        for row in self.table:
            if len(row) != n or set(row) != ref:
                raise GroupError("Cayley table rows must be permutations")
        for j in range(n):
            if {self.table[i][j] for i in range(n)} != ref:
                raise GroupError("Cayley table columns must be permutations")
        e = self.identity
        if not (0 <= e < n):
            raise GroupError("identity index out of range")
        for i in range(n):
            if self.table[e][i] != i or self.table[i][e] != i:
                raise GroupError("identity does not behave as a unit")
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise GroupError(f"associativity fails at ({a},{b},{c})")

    def _validate_factors(self):
        factors = self.invariant_factors
        if self.iso_map is None or len(self.iso_map) != self.order:
            raise GroupError("invariant factors require a full exponent map")
        prod_order = 1
        for f in factors:
            prod_order *= f
        if prod_order != self.order:
            raise GroupError("factor orders do not multiply to the group order")
        seen = set()
        for idx, exps in enumerate(self.iso_map):
            if len(exps) != len(factors) or any(
                not (0 <= e < f) for e, f in zip(exps, factors)
            ):
                raise GroupError("exponent tuple out of range")
            if exps in seen:
                raise GroupError("exponent map is not injective")
            seen.add(exps)
        lookup = {exps: idx for idx, exps in enumerate(self.iso_map)}
        for a in range(self.order):
            for b in range(self.order):
                target = tuple(
                    (x + y) % f
                    for x, y, f in zip(self.iso_map[a], self.iso_map[b], factors)
                )
                if lookup[target] != self.table[a][b]:
                    raise GroupError("exponent map is not a homomorphism")

    # --- basic queries ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        inv = [0] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.table[a][b] == self.identity:
                    inv[a] = b
                    break
        return tuple(inv)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set, greedily: each element not yet reached joins,
        in index order."""
        gens: list[int] = []
        reached: tuple[int, ...] = (self.identity,)
        for g in range(self.order):
            if g not in reached:
                gens.append(g)
                reached = self.subgroup_closure(gens)
        return tuple(gens)

    def is_central(self, a: int) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for b in range(self.order))

    def center(self) -> tuple[int, ...]:
        return tuple(a for a in range(self.order) if self.is_central(a))

    def central_involutions(self, include_identity: bool = True) -> tuple[int, ...]:
        """Central elements u with u*u = identity (order <= 2)."""
        out = []
        for a in self.center():
            if self.table[a][a] == self.identity:
                if include_identity or a != self.identity:
                    out.append(a)
        return tuple(out)

    def subgroup_closure(self, generators) -> tuple[int, ...]:
        elems = {self.identity}
        frontier = set(generators) - elems
        elems |= frontier
        while frontier:
            new = set()
            for a in frontier:
                for b in list(elems):
                    for c in (self.table[a][b], self.table[b][a]):
                        if c not in elems:
                            new.add(c)
            elems |= new
            frontier = new
        return tuple(sorted(elems))

    def all_subgroups(self) -> list[tuple[int, ...]]:
        """All subgroups (as sorted index tuples), by generated closure."""
        found = {(self.identity,)}
        frontier = {(self.identity,)}
        while frontier:
            new = set()
            for sub in frontier:
                for g in range(self.order):
                    if g in sub:
                        continue
                    bigger = self.subgroup_closure(set(sub) | {g})
                    if bigger not in found:
                        new.add(bigger)
            found |= new
            frontier = new
        return sorted(found, key=lambda s: (len(s), s))

    def abelian_subgroup(self, elements) -> "AbelianSubgroup":
        return AbelianSubgroup(self, elements)

    # --- constructors ----------------------------------------------------

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(((0,),), 0, invariant_factors=(1,), iso_map=((0,),), name="Z1")

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise GroupError("cyclic order must be positive")
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(table, 0, invariant_factors=(n,), iso_map=tuple((i,) for i in range(n)), name=f"Z{n}")

    @classmethod
    def direct_product(cls, *groups: "FiniteGroup") -> "FiniteGroup":
        if not groups:
            return cls.trivial()
        orders = [g.order for g in groups]
        elems = list(product(*[range(n) for n in orders]))
        index = {e: i for i, e in enumerate(elems)}
        table = []
        for ea in elems:
            row = []
            for eb in elems:
                row.append(index[tuple(g.mul(x, y) for g, x, y in zip(groups, ea, eb))])
            table.append(tuple(row))
        factors = None
        iso = None
        if all(g.invariant_factors is not None for g in groups):
            factors = tuple(f for g in groups for f in g.invariant_factors)
            iso = tuple(
                tuple(x for g, part in zip(groups, e) for x in g.iso_map[part]) for e in elems
            )
        name = "x".join(g.name or "?" for g in groups)
        ident = index[tuple(g.identity for g in groups)]
        return cls(table, ident, invariant_factors=factors, iso_map=iso, name=name)

    @classmethod
    def symmetric3(cls) -> "FiniteGroup":
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
        index = {p: i for i, p in enumerate(perms)}
        table = []
        for a in perms:
            row = []
            for b in perms:
                row.append(index[tuple(a[b[i]] for i in range(3))])
            table.append(tuple(row))
        return cls(table, 0, name="S3")

    @classmethod
    def dihedral4(cls) -> "FiniteGroup":
        # elements r^i s^j with s r = r^-1 s; index = i + 4*j
        def mul(x, y):
            i, j = x % 4, x // 4
            k, l = y % 4, y // 4
            i2 = (i + (k if j == 0 else -k)) % 4
            return i2 + 4 * ((j + l) % 2)

        table = tuple(tuple(mul(x, y) for y in range(8)) for x in range(8))
        return cls(table, 0, name="D4")

    @classmethod
    def quaternion8(cls) -> "FiniteGroup":
        # basis units 1, -1, i, -i, j, -j, k, -k
        names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
        prod = {
            ("1", "1"): "1", ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
            ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
            ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
        }

        def base_mul(a, b):
            sign = 1
            if a.startswith("-"):
                sign, a = -sign, a[1:]
            if b.startswith("-"):
                sign, b = -sign, b[1:]
            if a == "1":
                out = b
            elif b == "1":
                out = a
            else:
                out = prod[(a, b)]
            if out.startswith("-"):
                sign, out = -sign, out[1:]
            return out if sign > 0 else "-" + out

        index = {n: i for i, n in enumerate(names)}
        table = tuple(
            tuple(index[base_mul(a, b)] for b in names) for a in names
        )
        return cls(table, 0, name="Q8")

    # --- serialization -----------------------------------------------------

    def to_obj(self):
        obj = {"order": self.order, "table": [list(r) for r in self.table], "identity": self.identity}
        if self.invariant_factors is not None:
            obj["invariant_factors"] = list(self.invariant_factors)
            obj["iso_map"] = [list(e) for e in self.iso_map]
        return obj

    def __repr__(self):
        return f"FiniteGroup({self.name or self.order})"


def _find_cyclic_decomposition(table, elements, identity):
    """Orders and exponent map of a small abelian group, by generator search."""
    n = len(elements)
    pos = {g: i for i, g in enumerate(elements)}

    def order_of(a):
        k, x = 1, a
        while x != identity:
            x = table[x][a]
            k += 1
        return k

    orders = {g: order_of(g) for g in elements}

    def powers(g):
        out = [identity]
        x = g
        while x != identity:
            out.append(x)
            x = table[x][g]
        return out

    # breadth over generator tuple sizes, deterministic order
    def search_tuples(k, gens):
        if k == 0:
            prod_order = 1
            for g in gens:
                prod_order *= orders[g]
            if prod_order != n:
                return None
            seen = {}
            for exps in product(*[range(orders[g]) for g in gens]):
                x = identity
                for g, e in zip(gens, exps):
                    p = powers(g)[e]
                    x = table[x][p]
                if x in seen:
                    return None
                seen[x] = exps
            return gens, seen
        start = elements.index(gens[-1]) + 1 if gens else 0
        for gi in range(start, n):
            g = elements[gi]
            if orders[g] == 1:
                continue
            hit = search_tuples(k - 1, gens + (g,))
            if hit is not None:
                return hit
        return None

    if n == 1:
        return (1,), {identity: (0,)}
    for k in range(1, 5):
        hit = search_tuples(k, ())
        if hit is not None:
            gens, seen = hit
            return tuple(orders[g] for g in gens), seen
    raise GroupError("could not decompose abelian group into cyclic factors")


class AbelianSubgroup:
    """An abelian subgroup of a parent group, with explicit cyclic factors."""

    def __init__(self, parent: FiniteGroup, elements):
        self.parent = parent
        self.elements = tuple(sorted(elements))
        if not self.elements:
            raise GroupError("subgroup must be nonempty")
        if len(set(self.elements)) != len(self.elements):
            raise GroupError("repeated subgroup element")
        if parent.identity not in self.elements:
            raise GroupError("subgroup must contain the identity")
        elem_set = set(self.elements)
        for a in self.elements:
            for b in self.elements:
                if parent.table[a][b] not in elem_set:
                    raise GroupError("subset is not closed under the Cayley table")
        for a in self.elements:
            for b in self.elements:
                if parent.table[a][b] != parent.table[b][a]:
                    raise NotAbelian("subgroup is not abelian")
        self.order = len(self.elements)
        self.factors, exp_map = _find_cyclic_decomposition(
            parent.table, list(self.elements), parent.identity
        )
        self.exponents = {g: tuple(exp_map[g]) for g in self.elements}

    def labels(self) -> list[tuple[int, ...]]:
        """Dual-group labels: exponent tuples in mixed-radix order."""
        return [tuple(t) for t in product(*[range(f) for f in self.factors])]

    def __repr__(self):
        return f"AbelianSubgroup(order={self.order}, factors={self.factors})"


class GroupRep:
    """A matrix representation of a finite group over CycScalar.

    matrices[g] holds rho(g) as a tuple of columns, the layout of
    HopfData.antipode: column b is the Vec rho(g) e_b, which
    tensor.apply_map applies.  The constructor takes each rho(g) as a
    list of rows, the layout of a rep file, and to_obj writes the same
    rows back.

    Construction checks rho(e) = 1 and rho(a) rho(s) = rho(as) for every
    a and every s in FiniteGroup.generators, composing columns by
    apply_map; by induction on the length of b as a word in the
    generators this gives rho(a) rho(b) = rho(ab) for all a and b.
    """

    def __init__(self, group: FiniteGroup, degree: int, matrices):
        self.group = group
        self.degree = degree
        rows = tuple(tuple(tuple(r) for r in m) for m in matrices)
        if len(rows) != group.order:
            raise ShapeError("one matrix per group element required")
        if any(len(m) != degree or any(len(r) != degree for r in m) for m in rows):
            raise ShapeError("representation matrix of wrong shape")
        self.matrices = mats = tuple(
            tuple(Vec.from_entries(row[b] for row in m) for b in range(degree)) for m in rows
        )
        if mats[group.identity] != tuple(Vec.basis(degree, b) for b in range(degree)):
            raise ShapeError("identity must map to the identity matrix")
        for a in range(group.order):
            for s in group.generators:
                if tuple(apply_map(mats[a], col) for col in mats[s]) != mats[group.mul(a, s)]:
                    raise ShapeError(f"not a homomorphism at ({a},{s})")

    @classmethod
    def zero(cls, group: FiniteGroup) -> "GroupRep":
        return cls(group, 0, ((),) * group.order)

    @classmethod
    def from_sign_characters(cls, group: FiniteGroup, characters_pm) -> "GroupRep":
        """Diagonal representation from +-1 value rows (one per dimension)."""
        degree = len(characters_pm)
        mats = []
        for g in range(group.order):
            signs = [SC_ONE if chi[g] == 1 else -SC_ONE for chi in characters_pm]
            mats.append(
                [[signs[i] if i == j else SC_ZERO for j in range(degree)] for i in range(degree)]
            )
        return cls(group, degree, mats)

    def acts_by_minus_one(self, u: int) -> bool:
        return self.matrices[u] == tuple(-Vec.basis(self.degree, b) for b in range(self.degree))

    def to_obj(self):
        return {
            "group": self.group.to_obj(),
            "degree": self.degree,
            "matrices": [
                [[c.to_obj() for c in row] for row in zip(*(col.entries for col in m))]
                for m in self.matrices
            ],
        }


def sign_characters(group: FiniteGroup) -> list[tuple[int, ...]]:
    """All homomorphisms G -> {+1, -1} as value tuples.

    A sign choice on a generating set S extends along the edges a -> a*s
    in at most one way, and the extension f is a homomorphism iff
    f(a*s) = f(a)f(s) for every a and every s in S (induction on word
    length).  The result is listed in the order of product((1, -1)).
    """
    n, e = group.order, group.identity
    gens = group.generators
    out = []
    for signs in product((1, -1), repeat=len(gens)):
        f = [0] * n
        f[e] = 1
        frontier = [e]
        while frontier:
            a = frontier.pop()
            for s, fs in zip(gens, signs):
                b = group.mul(a, s)
                if not f[b]:
                    f[b] = f[a] * fs
                    frontier.append(b)
        if all(f[group.mul(a, s)] == f[a] * fs for a in range(n) for s, fs in zip(gens, signs)):
            out.append(tuple(f))
    out.sort(reverse=True)  # +1 before -1, position by position
    return out


class Bicharacter:
    """A bimultiplicative pairing on the dual labels of an abelian group,
    held as its table of exponents.

    Every value is an N-th root of unity for N = root_order, the lcm of
    the factors, so exponents[s][t] = k in 0..N-1 stands for
    beta(s, t) = zeta_N**k; s and t run over the labels in mixed-radix
    order.  The same table is the wire form (to_obj).  The constructor
    reduces each integer mod N and checks bimultiplicativity as sums
    mod N.  No root of unity is made of it: build_bicharacter_twist
    counts J on these exponents.
    """

    def __init__(self, factors, exponents):
        self.factors = tuple(factors)
        self.root_order = big_n = lcm(1, *self.factors)
        self.labels = [tuple(t) for t in product(*[range(f) for f in self.factors])]
        rows = tuple(tuple(row) for row in exponents)
        n = len(self.labels)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise BicharacterError("value table has wrong shape")
        if any(type(k) is not int for row in rows for k in row):
            raise BicharacterError("exponents must be integers")
        self.exponents = e = tuple(tuple(k % big_n for k in row) for row in rows)
        index = {lab: i for i, lab in enumerate(self.labels)}
        zero_label = tuple(0 for _ in self.factors)
        gens = [i for i, f in enumerate(self.factors) if f > 1]

        def plus_unit(lab, i):
            return index[lab[:i] + ((lab[i] + 1) % self.factors[i],) + lab[i + 1 :]]

        # additive mod N along each unit label g: each slot is then a
        # homomorphism (induction on the label).  The step 0 -> g reads
        # e[g][t] = e[0][t] + e[g][t], so every table that passes is
        # normalized, e[0][t] = e[s][0] = 0, without a check of its own
        units = [plus_unit(zero_label, i) for i in gens]
        shift = [[plus_unit(lab, i) for i in gens] for lab in self.labels]
        for i in range(n):
            for j in range(n):
                for g, i_g, j_g in zip(units, shift[i], shift[j]):
                    if e[i_g][j] != (e[i][j] + e[g][j]) % big_n:
                        raise BicharacterError("table not multiplicative in the first slot")
                    if e[i][j_g] != (e[i][j] + e[i][g]) % big_n:
                        raise BicharacterError("table not multiplicative in the second slot")

    @classmethod
    def from_exponent_matrix(cls, factors, gen_exponents) -> "Bicharacter":
        """beta(s, t) = prod over generator pairs of zeta(gcd(ni,nj))**(c_ij s_i t_j),
        where zeta(gcd(ni,nj)) = zeta_N**(N / gcd(ni,nj))."""
        factors = tuple(factors)
        big_n = lcm(1, *factors)
        terms = [
            (i, j, c * (big_n // gcd(factors[i], factors[j])))
            for i, row in enumerate(gen_exponents)
            for j, c in enumerate(row)
            if c
        ]
        labels = list(product(*[range(f) for f in factors]))
        return cls(
            factors,
            [[sum(c * s[i] * t[j] for i, j, c in terms) for t in labels] for s in labels],
        )

    @classmethod
    def trivial(cls, factors) -> "Bicharacter":
        n = prod(factors)
        return cls(factors, ((0,) * n,) * n)

    def is_alternating(self) -> bool:
        return all(row[i] == 0 for i, row in enumerate(self.exponents))

    def is_nondegenerate(self) -> bool:
        return len(set(self.exponents)) == len(self.labels)

    def skew(self) -> "Bicharacter":
        """gamma(s,t) = beta(s,t) * beta(t,s)**-1, always alternating."""
        e = self.exponents
        return Bicharacter(
            self.factors, [[k - e[j][i] for j, k in enumerate(row)] for i, row in enumerate(e)]
        )

    def inverse(self) -> "Bicharacter":
        """beta**-1, pointwise."""
        return Bicharacter(self.factors, [[-k for k in row] for row in self.exponents])

    def to_obj(self):
        return {"factors": list(self.factors), "values": [list(row) for row in self.exponents]}


def alternating_nondegenerate_bicharacters(factors) -> list[Bicharacter]:
    """All nondegenerate alternating bicharacters, via antisymmetric
    generator exponent matrices (deduplicated by exponent table)."""
    factors = tuple(factors)
    r = len(factors)
    if r == 0 or all(f == 1 for f in factors):
        b = Bicharacter.trivial(factors)
        return [b] if b.is_nondegenerate() else []
    # candidate exponents for the strict upper triangle; diagonal zero
    upper = [(i, j) for i in range(r) for j in range(i + 1, r)]
    ranges = [range(gcd(factors[i], factors[j])) for i, j in upper]
    out = []
    seen = set()
    for combo in product(*ranges):
        gen = [[0] * r for _ in range(r)]
        for (i, j), c in zip(upper, combo):
            g = gcd(factors[i], factors[j])
            gen[i][j] = c
            gen[j][i] = (-c) % g
        b = Bicharacter.from_exponent_matrix(factors, gen)
        if not (b.is_alternating() and b.is_nondegenerate()):
            continue
        if b.exponents not in seen:
            seen.add(b.exponents)
            out.append(b)
    return out


def half_bicharacter(gamma: Bicharacter) -> Bicharacter:
    """A bimultiplicative beta with skew(beta) = gamma, for alternating gamma.

    Built from the upper triangle of gamma on the unit labels g_i: the
    exponent of gamma(g_i, g_j) is a multiple of N / gcd(n_i, n_j), and
    the quotient c_ij sets beta(g_i, g_j) = zeta(gcd(n_i, n_j))**c_ij for
    i < j and 1 otherwise (from_exponent_matrix).  The skew of beta is
    compared with gamma before beta is returned.
    """
    if not gamma.is_alternating():
        raise BicharacterError("half of a non-alternating bicharacter")
    factors, big_n = gamma.factors, gamma.root_order
    r = len(factors)
    # mixed-radix index of the unit label g_i (0 if the factor is 1)
    units = [prod(factors[i + 1 :]) if factors[i] > 1 else 0 for i in range(r)]
    gen = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            k = gamma.exponents[units[i]][units[j]]
            gen[i][j] = k // (big_n // gcd(factors[i], factors[j]))
    beta = Bicharacter.from_exponent_matrix(factors, gen)
    if beta.skew().exponents != gamma.exponents:
        raise BicharacterError("half-cocycle construction failed to reproduce the skew")
    return beta
