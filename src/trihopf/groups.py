"""Cayley-table groups, matrix representations, bicharacters.

Groups are small (catalog order <= 16) and fully validated at
construction: permutation rows/columns, associativity on all triples,
identity behavior.  A group is its Cayley table alone: an abelian
subgroup finds its own cyclic factors and exponent map
(AbelianSubgroup), which feed the dual-group labels and the
bicharacter twist.  A bicharacter on such a group is its table
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

    def __init__(self, table, identity, name=""):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.identity = identity
        self.name = name
        self._validate()

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

    # --- constructors ----------------------------------------------------

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(((0,),), 0, name="Z1")

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise GroupError("cyclic order must be positive")
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(table, 0, name=f"Z{n}")

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
        name = "x".join(g.name or "?" for g in groups)
        return cls(table, index[tuple(g.identity for g in groups)], name=name)

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
        return {"order": self.order, "table": [list(r) for r in self.table], "identity": self.identity}

    def __repr__(self):
        return f"FiniteGroup({self.name or self.order})"


def _find_cyclic_decomposition(table, elements, identity):
    """Factor orders and exponent map of a finite abelian group: the first
    tuple of non-identity elements, increasing in index order and shortest
    first, whose products of powers reach every element exactly once.

    The tuples of each length are searched depth first in lexicographic
    order.  A prefix is dropped once two of its products coincide, or once
    the largest element order cannot bring their count to |A| in the
    slots left, since every tuple it begins fails too.
    """
    n = len(elements)
    if n == 1:
        return (1,), {identity: (0,)}
    powers = []  # [1, g, g**2, ...] up to the order of g, per g != 1 in index order
    for g in elements:
        if g != identity:
            powers.append([identity, g])
            while (x := table[powers[-1][-1]][g]) != identity:
                powers[-1].append(x)
    top = max(map(len, powers))

    def search(slots, start, span):
        """(orders, exponent map) of the first tuple of slots more
        elements, from powers[start:], that brings span to all of A, or
        None."""
        if not slots:
            return ((), span) if len(span) == n else None
        if len(span) * top**slots < n:
            return None
        for index in range(start, len(powers)):
            grown = _times_powers(table, span, powers[index])
            found = grown and search(slots - 1, index + 1, grown)
            if found:
                return (len(powers[index]),) + found[0], found[1]
        return None

    for k in range(1, len(powers) + 1):
        found = search(k, 0, {identity: ()})
        if found:
            return found
    raise GroupError("could not decompose abelian group into cyclic factors")


def _times_powers(table, span, powers):
    """x g**e for x in span and g**e = powers[e], mapped to the exponents
    of x with e appended, in product order; None when two coincide."""
    grown = {}
    for x, exps in span.items():
        for e, power in enumerate(powers):
            y = table[x][power]
            if y in grown:
                return None
            grown[y] = exps + (e,)
    return grown


def _labels(factors) -> list[tuple[int, ...]]:
    """The labels of Z_{n_1} x ... x Z_{n_r}: exponent tuples in
    mixed-radix order, the last slot running fastest."""
    return list(product(*map(range, factors)))


class AbelianSubgroup:
    """An abelian subgroup A of a parent group with one cyclic
    decomposition A = Z_{n_1} x ... x Z_{n_r}: factors holds the n_i and
    exponents[g] the coordinates of g, so that the exponents of ab are
    those of a plus those of b mod the factors.

    The decomposition is the first generator tuple in index order
    (_find_cyclic_decomposition).  That choice fixes the dual-group
    labels, and so every bicharacter table, every twist J and the bytes
    of the atlas.
    """

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
            parent.table, self.elements, parent.identity
        )
        self.exponents = {g: exp_map[g] for g in self.elements}

    def labels(self) -> list[tuple[int, ...]]:
        """Dual-group labels: exponent tuples in mixed-radix order."""
        return _labels(self.factors)

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
        self.labels = _labels(self.factors)
        rows = tuple(tuple(row) for row in exponents)
        n = len(self.labels)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise BicharacterError("value table has wrong shape")
        if any(type(k) is not int for row in rows for k in row):
            raise BicharacterError("exponents must be integers")
        self.exponents = e = tuple(tuple(k % big_n for k in row) for row in rows)
        index = {lab: i for i, lab in enumerate(self.labels)}

        def plus_unit(lab, i):
            return index[lab[:i] + ((lab[i] + 1) % self.factors[i],) + lab[i + 1 :]]

        # units[i]: the index of the unit label g_i, 1 in slot i and 0
        # elsewhere; for a factor 1 that is the zero label, index 0
        self.units = tuple(plus_unit(self.labels[0], i) for i in range(len(self.factors)))
        # additive mod N along each unit label g: each slot is then a
        # homomorphism (induction on the label).  The step 0 -> g reads
        # e[g][t] = e[0][t] + e[g][t], so every table that passes is
        # normalized, e[0][t] = e[s][0] = 0, without a check of its own
        gens = [i for i, f in enumerate(self.factors) if f > 1]
        units = [self.units[i] for i in gens]
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
        labels = _labels(factors)
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
    factors, big_n, units = gamma.factors, gamma.root_order, gamma.units
    r = len(factors)
    gen = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            k = gamma.exponents[units[i]][units[j]]
            gen[i][j] = k // (big_n // gcd(factors[i], factors[j]))
    beta = Bicharacter.from_exponent_matrix(factors, gen)
    if beta.skew().exponents != gamma.exponents:
        raise BicharacterError("half-cocycle construction failed to reproduce the skew")
    return beta
