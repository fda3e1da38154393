"""JSON wire formats for all on-disk artifacts.

Scalars encode as {"n": order, "c": [[num, den], ...]} with decimal
integer strings; sparse tensors as index/scalar lists with 0-based
indices sorted lexicographically, so dumps are byte-stable.  For
hand-written input files a plain integer is also accepted wherever a
scalar is expected.

A dump is the text json.dumps(obj, sort_keys=True, indent=2) plus a
newline (ASCII escapes, two-space indent), written by dumps() below
rather than by the json module, whose indenting encoder runs in pure
Python.  Every file is read through load(), which refuses a key
repeated within one JSON object (ShapeError, exit 2) instead of keeping
its last value.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from math import prod
from pathlib import Path

from .constructions import Septuple
from .errors import ShapeError
from .groups import Bicharacter, FiniteGroup, GroupRep
from .hopf import Algebra, HopfData, make_hopf
from .scalars import CycScalar
from .tensor import Tensor2, Vec


def scalar_to_obj(c: CycScalar):
    return c.to_obj()


def scalar_from_obj(obj) -> CycScalar:
    if type(obj) is int:  # not bool: JSON true is no scalar
        return CycScalar.from_int(obj)
    if isinstance(obj, dict):
        return CycScalar.from_obj(obj)
    raise ShapeError(f"not a scalar encoding: {obj!r}")


def vec_to_obj(v: Vec):
    return [scalar_to_obj(c) for c in v.entries]


def vec_from_obj(obj) -> Vec:
    return Vec.from_entries(scalar_from_obj(c) for c in obj)


def mat_from_obj(obj) -> tuple[tuple[CycScalar, ...], ...]:
    """The rows of a dense matrix in a file, a list of equally long rows."""
    rows = tuple(tuple(scalar_from_obj(c) for c in row) for row in obj)
    if any(len(row) != len(rows[0]) for row in rows):
        raise ShapeError("ragged matrix rows")
    return rows


def _mult_obj(h: Algebra) -> list:
    """The "mult" entries [i, j, k, c] of a Hopf dump."""
    return [
        [i, j, k, scalar_to_obj(c)]
        for i, row in enumerate(h.mult)
        for j, cell in enumerate(row)
        for k, c in cell
    ]


def hopf_to_obj(h: HopfData):
    return _hopf_obj(h, _mult_obj(h.algebra))


def _hopf_obj(h: HopfData, mult):
    comult = []
    for i in range(h.dim):
        comult.append([[j, k, scalar_to_obj(c)] for j, k, c in h.comult[i].nonzeros])
    antipode = [[scalar_to_obj(c) for c in row] for row in zip(*(v.entries for v in h.antipode))]
    return {
        "dim": h.dim,
        "super": h.super,
        "parity": list(h.parity),
        "unit": vec_to_obj(h.unit),
        "mult": mult,
        "comult": comult,
        "counit": [scalar_to_obj(c) for c in h.counit],
        "antipode": antipode,
    }


def _int(x, what: str) -> int:
    """An integer field read from a file: a JSON integer, not a bool,
    float or string, which int() would quietly convert."""
    if type(x) is not int:
        raise ShapeError(f"{what} {x!r} is not an integer")
    return x


def _index(i, dim: int):
    """Check a basis index read from a file: an integer in 0..dim-1; a
    negative one would wrap around."""
    _int(i, "index")
    if not 0 <= i < dim:
        raise ShapeError(f"index {i!r} out of range for dimension {dim}")
    return i


def _unique_entries(entries, where: str) -> dict:
    """Index -> value from a file's (index, value) pairs, refusing a repeated index.

    A repeated structure constant would be summed by some readers and
    overwritten by others.
    """
    out = {}
    for key, c in entries:
        if key in out:
            raise ShapeError(f"duplicate entry at index {key} in {where}")
        out[key] = c
    return out


def hopf_from_obj(obj) -> HopfData:
    dim = _int(obj["dim"], "dim")
    if any(type(p) is not int or p not in (0, 1) for p in obj["parity"]):
        raise ShapeError("parity entries must be 0 or 1")
    if type(obj["super"]) is not bool:
        raise ShapeError(f"super {obj['super']!r} is not true or false")
    mult = [[[] for _ in range(dim)] for _ in range(dim)]
    entries = _unique_entries(
        (((_index(i, dim), _index(j, dim), _index(k, dim)), c) for i, j, k, c in obj["mult"]),
        "mult",
    )
    for (i, j, k), c in entries.items():
        mult[i][j].append((k, scalar_from_obj(c)))
    comult = []
    for entry in obj["comult"]:
        terms = _unique_entries(
            (((_index(j, dim), _index(k, dim)), c) for j, k, c in entry), "comult"
        )
        comult.append(tuple((j, k, scalar_from_obj(c)) for (j, k), c in terms.items()))
    antipode = mat_from_obj(obj["antipode"])
    if len(antipode) != dim or any(len(row) != dim for row in antipode):
        raise ShapeError("antipode shape mismatch")
    return make_hopf(
        dim=dim,
        unit=vec_from_obj(obj["unit"]),
        mult=tuple(tuple(tuple(cell) for cell in row) for row in mult),
        comult=tuple(comult),
        counit=tuple(scalar_from_obj(c) for c in obj["counit"]),
        antipode=[tuple(enumerate(col)) for col in zip(*antipode)],
        parity=tuple(obj["parity"]),
        super=obj["super"],
    )


def tensor2_to_obj(t: Tensor2):
    entries = [[i, j, scalar_to_obj(c)] for i, j, c in t.nonzeros]
    return {"host_dim": t.dim, "entries": entries}


def tensor2_from_obj(obj) -> Tensor2:
    dim = _int(obj["host_dim"], "host_dim")
    entries = _unique_entries(
        (((_index(i, dim), _index(j, dim)), c) for i, j, c in obj["entries"]),
        "tensor",
    )
    return Tensor2.from_dict(dim, {key: scalar_from_obj(c) for key, c in entries.items()})


def _scalar_key(obj: dict, depth: int):
    """The memo key (depth, n, num, den, ...) of a scalar encoding
    {"n": int, "c": [[str, str], ...]}, or None for any other dict."""
    n, c = obj.get("n"), obj.get("c")
    if type(n) is not int or type(c) is not list:
        return None
    key = [depth, n]
    for pair in c:
        if type(pair) is not list or len(pair) != 2:
            return None
        if type(pair[0]) is not str or type(pair[1]) is not str:
            return None
        key += pair
    return tuple(key)


class _Text(str):
    """JSON text rendered for the depth _render inserts it at."""


def dumps(obj) -> str:
    """The text json.dumps(obj, sort_keys=True, indent=2) + "\n".

    obj is a tree of dicts with str keys, lists, tuples, str, int, bool
    and None; any other type, a float included, raises TypeError.
    """
    return _render(obj, 0) + "\n"


def hopf_dumps(h: HopfData) -> str:
    """dumps(hopf_to_obj(h)), with the text of mult made once per
    hopf.Algebra and kept in its mult_text: the twists of one host hold
    the host's very Algebra and share its text, and a copy with another
    product, unit or grading has an Algebra, and a text, of its own."""
    algebra = h.algebra
    if algebra.mult_text is None:
        object.__setattr__(algebra, "mult_text", _Text(_render(_mult_obj(algebra), 1)))
    return dumps(_hopf_obj(h, algebra.mult_text))


def _render(obj, depth: int) -> str:
    """The json.dumps text of obj written at the given indent depth.

    The tree is walked once into one list of fragments.  A dump repeats a
    few scalars (1, -1, 1/2, powers of zeta) thousands of times, so the
    text of each scalar encoding is made once per depth and content and
    then looked up.
    """
    out: list[str] = []
    append = out.append
    # breaks[d]: a newline and the indent of depth d
    breaks = ["\n" + "  " * d for d in range(depth + 1)]
    scalars: dict = {}

    def write(o, depth):
        t = type(o)
        if t is str:
            append(_quote(o))
        elif t is int:
            append(repr(o))
        elif o is None:
            append("null")
        elif t is bool:
            append("true" if o else "false")
        elif t is _Text:
            append(o)
        elif t is list or t is tuple:
            if not o:
                append("[]")
                return
            if len(breaks) <= depth + 1:
                breaks.append(breaks[-1] + "  ")
            inner = breaks[depth + 1]
            append("[")
            for x in o:
                append(inner)
                write(x, depth + 1)
                append(",")
            out[-1] = breaks[depth] + "]"  # the last item's comma
        elif t is dict:
            if not o:
                append("{}")
                return
            key = _scalar_key(o, depth) if len(o) == 2 else None
            if key is not None:
                text = scalars.get(key)
                if text is not None:
                    append(text)
                    return
                start = len(out)
            if len(breaks) <= depth + 1:
                breaks.append(breaks[-1] + "  ")
            inner = breaks[depth + 1]
            append("{")
            for k in sorted(o):
                if type(k) is not str:
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                append(inner)
                append(_quote(k))
                append(": ")
                write(o[k], depth + 1)
                append(",")
            out[-1] = breaks[depth] + "}"
            if key is not None:
                text = scalars[key] = "".join(out[start:])
                del out[start:]
                append(text)
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    write(obj, depth)
    return "".join(out)


def save(path, obj):
    Path(path).write_text(dumps(obj))


def _unique_keys(pairs) -> dict:
    """A JSON object from its (key, value) pairs, refusing a repeated key,
    of which json.loads would keep the last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ShapeError(f"repeated key {key!r} in a JSON object")
            seen.add(key)
    return obj


def load(path):
    return json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)


# --- input-file loaders (group, representation, bicharacter, septuple) ----

def group_from_file_obj(obj) -> FiniteGroup:
    """A group from its Cayley table and identity index (FiniteGroup.to_obj)."""
    factors, iso_map = obj.get("invariant_factors"), obj.get("iso_map")
    return FiniteGroup(
        [[_int(x, "group table entry") for x in row] for row in obj["table"]],
        _int(obj["identity"], "identity"),
        invariant_factors=factors and [_int(f, "invariant factor") for f in factors],
        iso_map=iso_map and [[_int(x, "exponent") for x in e] for e in iso_map],
        name=obj.get("name", ""),
    )


def _resolve_ref(obj, key, base_dir):
    if key in obj:
        return obj[key], base_dir
    ref = obj.get(key + "_ref")
    if ref is None:
        raise ShapeError(f"missing {key!r} or {key}_ref")
    path = Path(base_dir) / ref if base_dir is not None else Path(ref)
    return load(path), path.parent


def _rep_on(group: FiniteGroup, obj) -> GroupRep:
    degree = _int(obj["degree"], "degree")
    return GroupRep(group, degree, [mat_from_obj(m) for m in obj["matrices"]])


def rep_from_file_obj(obj, base_dir=None) -> GroupRep:
    group_obj, _ = _resolve_ref(obj, "group", base_dir)
    return _rep_on(group_from_file_obj(group_obj), obj)


def bicharacter_from_file_obj(obj) -> Bicharacter:
    """A bicharacter from its factors and its table of exponents k, each
    value zeta_N**k for N the lcm of the factors: the table that
    Bicharacter holds and to_obj writes.

    The table must be n x n for n the product of the factors, which is
    checked first: N <= n is then bounded by the size of the file, where
    a lone factor of 10**9 would ask for roots of unity of that order
    once J is built.  Every entry must be an integer; no root of unity
    is made here (Bicharacter.values makes them when J is built).
    """
    factors = tuple(_int(f, "bicharacter factor") for f in obj["factors"])
    n = prod(factors)
    values = obj["values"]
    if any(f < 1 for f in factors) or len(values) != n or any(len(row) != n for row in values):
        raise ShapeError(f"bicharacter factors {list(factors)} need a {n} x {n} value table")
    return Bicharacter(factors, [[_int(k, "bicharacter exponent") for k in row] for row in values])


def septuple_from_file_obj(obj, base_dir=None) -> Septuple:
    group_obj, _ = _resolve_ref(obj, "group", base_dir)
    group = group_from_file_obj(group_obj)
    rep_obj, rep_dir = _resolve_ref(obj, "rep", base_dir)
    if "group" not in rep_obj and "group_ref" not in rep_obj:
        rep = _rep_on(group, rep_obj)
    else:
        rep = rep_from_file_obj(rep_obj, rep_dir)
    y_basis = tuple(vec_from_obj(v) for v in obj.get("y_basis", []))
    b_rows = obj.get("b", [])
    b = mat_from_obj(b_rows) if b_rows else None
    a_elements = tuple(_int(i, "subgroup element") for i in obj["subgroup"])
    if len(set(a_elements)) != len(a_elements):
        raise ShapeError("repeated subgroup element")
    return Septuple(
        group=group,
        w=rep,
        a_elements=a_elements,
        y_basis=y_basis,
        b=b,
        v_beta=bicharacter_from_file_obj(obj["bicharacter"]),
        v_dim=_int(obj["v_dim"], "v_dim"),
        u=_int(obj["u"], "u"),
    )
