"""JSON wire formats for all on-disk artifacts.

Scalars encode as {"n": order, "c": [[num, den], ...]} with decimal
integer strings; sparse tensors as index/scalar lists with 0-based
indices sorted lexicographically, so dumps are byte-stable.  For
hand-written input files a plain integer is also accepted wherever a
scalar is expected.

A dump is the text json.dumps(obj, sort_keys=True, indent=2) plus a
newline (ASCII escapes, two-space indent), written by dumps() below
rather than by the json module, whose indenting encoder runs in pure
Python.  hopf_to_obj and tensor2_to_obj give the object of a Hopf dump
and of an R-matrix or twist file; hopf_dumps and tensor2_dumps, which
every command writes those files with, give the same text straight from
the integer numerators of the sparse tensors: each distinct coefficient
is rendered once per indent depth (_scalar_text) and handed to dumps as
finished text, with no CycScalar made per cell, and dumps lays out the
rest.  save writes such a text to a file.  Every file is read through load(), which refuses a key
repeated within one JSON object (ShapeError, exit 2) instead of keeping
its last value.
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from math import prod
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ShapeError
from .hopf import Algebra, Coalgebra, HopfData
from .scalars import CycScalar
from .tensor import Tensor2, Tensor3, Vec, _coefficient

if TYPE_CHECKING:  # pragma: no cover
    from .constructions import Septuple
    from .groups import Bicharacter, FiniteGroup, GroupRep


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


def hopf_to_obj(h: HopfData):
    comult = []
    for i in range(h.dim):
        comult.append([[j, k, scalar_to_obj(c)] for j, k, c in h.comult[i].nonzeros])
    antipode = [[scalar_to_obj(c) for c in row] for row in zip(*(v.entries for v in h.antipode))]
    return {
        "dim": h.dim,
        "super": h.super,
        "parity": list(h.parity),
        "unit": vec_to_obj(h.unit),
        "mult": [[i, j, k, scalar_to_obj(c)] for i, j, k, c in h.mult.nonzeros],
        "comult": comult,
        "counit": vec_to_obj(h.counit),
        "antipode": antipode,
    }


def _int(x, what: str) -> int:
    """An integer field read from a file: a JSON integer, not a bool,
    float or string, which int() would quietly convert."""
    if type(x) is not int:
        raise ShapeError(f"{what} {x!r} is not an integer")
    return x


def _object(obj, what: str) -> dict:
    """obj, refused with ShapeError (exit 2) unless it is a JSON object."""
    if not isinstance(obj, dict):
        raise ShapeError(f"{what} must be a JSON object, not {obj!r:.40}")
    return obj


def _index(i, dim: int):
    """Check a basis index read from a file: an integer in 0..dim-1; a
    negative one would wrap around."""
    _int(i, "index")
    if not 0 <= i < dim:
        raise ShapeError(f"index {i!r} out of range for dimension {dim}")
    return i


def _unique_entries(entries, where: str, dim: int, shape: str) -> dict:
    """Index tuple -> value from the field `where` of a file, a list of
    entries shaped like shape, "[i, j, scalar]" say.  ShapeError names an
    entry of another shape by its position, and refuses an index out of
    range or repeated: a repeated structure constant would be summed by
    some readers and overwritten by others.
    """
    if not isinstance(entries, list):
        raise ShapeError(f"{where}: expected a list of {shape}")
    arity, out = shape.count(","), {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != arity + 1:
            raise ShapeError(f"{where}[{pos}]: expected {shape}")
        key = tuple(_index(i, dim) for i in entry[:arity])
        if key in out:
            raise ShapeError(f"duplicate entry at index {key} in {where}")
        out[key] = entry[arity]
    return out


def hopf_from_obj(obj) -> HopfData:
    dim = _int(_object(obj, "a Hopf dump")["dim"], "dim")
    if any(type(p) is not int or p not in (0, 1) for p in obj["parity"]):
        raise ShapeError("parity entries must be 0 or 1")
    if type(obj["super"]) is not bool:
        raise ShapeError(f"super {obj['super']!r} is not true or false")
    entries = _unique_entries(obj["mult"], "mult", dim, "[i, j, k, scalar]")
    mult = Tensor3(dim, [(key, scalar_from_obj(c)) for key, c in entries.items()])
    comult = tuple(
        Tensor2(dim, [(key, scalar_from_obj(c)) for key, c in
                      _unique_entries(entry, f"comult[{i}]", dim, "[j, k, scalar]").items()])
        for i, entry in enumerate(obj["comult"])
    )
    # S(e_i) is column i of the dense rows; validate() refuses another shape
    antipode = tuple(map(Vec.from_entries, zip(*mat_from_obj(obj["antipode"]))))
    parity = tuple(obj["parity"])
    return HopfData(
        Algebra(dim, vec_from_obj(obj["unit"]), mult, parity, obj["super"]),
        Coalgebra(dim, comult, vec_from_obj(obj["counit"]), antipode, parity),
    ).validate()


def tensor2_to_obj(t: Tensor2):
    entries = [[i, j, scalar_to_obj(c)] for i, j, c in t.nonzeros]
    return {"host_dim": t.dim, "entries": entries}


def tensor2_from_obj(obj) -> Tensor2:
    dim = _int(_object(obj, "an R-matrix or twist file")["host_dim"], "host_dim")
    entries = _unique_entries(obj["entries"], "entries", dim, "[i, j, scalar]")
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
    """dumps(hopf_to_obj(h)), rendered from the integer numerators of h's
    sparse tensors: no CycScalar is made for a cell of S, Delta, the
    product, the unit or the counit (see _scalar_text), and a zero cell of
    the dense antipode, unit and counit is one constant text.  The text of
    mult (_mult_text) is made once per hopf.Algebra and kept in its
    mult_text: the twists of one host hold the host's very Algebra and
    share its text, and a copy with another product, unit or grading has
    an Algebra, and a text, of its own."""
    algebra = h.algebra
    if algebra.mult_text is None:
        object.__setattr__(algebra, "mult_text", _mult_text(algebra))
    # each column S(e_c) of the antipode, densely, transposed into rows
    columns = [_cells(col, 3) for col in h.antipode]
    return dumps({
        "dim": h.dim,
        "super": h.super,
        "parity": list(h.parity),
        "unit": _cells(h.unit, 2),
        "mult": algebra.mult_text,
        "comult": [_entries(t, 4) for t in h.comult],
        "counit": _cells(h.counit, 2),
        "antipode": list(zip(*columns)),
    })


def _mult_text(algebra: Algebra) -> _Text:
    """The text of the "mult" entries [i, j, k, c] of a Hopf dump, in
    lexicographic order, rendered like Delta's from integer numerators."""
    return _Text(_render(_entries(algebra.mult, 3), 1))


def tensor2_dumps(t: Tensor2) -> str:
    """dumps(tensor2_to_obj(t)), rendered from t's integer numerators
    like hopf_dumps."""
    return dumps({"entries": _entries(t, 3), "host_dim": t.dim})


@lru_cache(maxsize=4096)
def _scalar_text(order: int, den: int, num, depth: int) -> _Text:
    """The text at depth of the coefficient num / den of a sparse tensor
    at order (its integer form, tensor._SparseTensor), made once per value
    and depth from the scalar's own wire form (CycScalar.to_obj, which
    writes a value in its smallest field)."""
    return _Text(_render(_coefficient(order, den, num).to_obj(), depth))


def _cells(v: Vec, depth: int) -> list[_Text]:
    """The text at depth of each dense coefficient of v."""
    order, den = v.order, v.den
    cells = [_scalar_text(1, 1, 0, depth)] * v.dim
    for i, x in v._num.items():
        cells[i] = _scalar_text(order, den, x, depth)
    return cells


def _entries(t, depth: int) -> list:
    """The [index..., coefficient] lists of t's entries in increasing index
    order, the wire form of a Tensor2's or of a product's Tensor3, with
    each coefficient's text made for depth."""
    order, den = t.order, t.den
    return [[*key, _scalar_text(order, den, x, depth)] for key, x in sorted(t._num.items())]


def _render(obj, depth: int) -> str:
    """The json.dumps text of obj written at the given indent depth.

    The tree is walked once into one list of fragments.  A _Text in it is
    finished text for its depth and is copied as it is (hopf_dumps and
    tensor2_dumps hand every coefficient over as one, _scalar_text).  An
    object of hopf_to_obj or tensor2_to_obj repeats a few scalar encodings
    (1, -1, 1/2, powers of zeta) thousands of times, so the text of each is
    made once per depth and content and then looked up.
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


def save(path, text: str):
    """Write the text of a dump (dumps, hopf_dumps or tensor2_dumps)."""
    Path(path).write_text(text)


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
# Each imports its groups or constructions type when called, so loading
# a Hopf dump or an R file needs only scalars, tensor and hopf.

def group_from_file_obj(obj) -> FiniteGroup:
    """A group from its Cayley table, identity index and optional name
    (FiniteGroup.to_obj); any other key, "order" among them, is ignored."""
    from .groups import FiniteGroup

    return FiniteGroup(
        [[_int(x, "group table entry") for x in row] for row in _object(obj, "a group")["table"]],
        _int(obj["identity"], "identity"),
        name=obj.get("name", ""),
    )


def _resolve_ref(obj, key, base_dir):
    if key in _object(obj, f"an input holding {key!r}"):
        return _object(obj[key], f"its {key!r}"), base_dir
    ref = obj.get(key + "_ref")
    if ref is None:
        raise ShapeError(f"missing {key!r} or {key}_ref")
    path = Path(base_dir) / ref if base_dir is not None else Path(ref)
    return _object(load(path), f"the file its {key}_ref names"), path.parent


def _rep_on(group: FiniteGroup, obj) -> GroupRep:
    from .groups import GroupRep

    degree = _int(_object(obj, "a representation")["degree"], "degree")
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
    a lone factor of 10**9 would have J counted over 10**9 exponents of
    zeta_N once it is built (build_bicharacter_twist).  Every entry must
    be an integer; no root of unity is made here.
    """
    from .groups import Bicharacter

    factors = tuple(_int(f, "bicharacter factor") for f in _object(obj, "a bicharacter")["factors"])
    n = prod(factors)
    values = obj["values"]
    if any(f < 1 for f in factors) or len(values) != n or any(len(row) != n for row in values):
        raise ShapeError(f"bicharacter factors {list(factors)} need a {n} x {n} value table")
    return Bicharacter(factors, [[_int(k, "bicharacter exponent") for k in row] for row in values])


def septuple_from_file_obj(obj, base_dir=None) -> Septuple:
    from .constructions import Septuple

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
