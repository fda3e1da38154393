"""Loading the program under test from the checkout the benchmark sits in.

The benchmark never uses an installed trihopf: it imports the package
from ``src/`` next to this directory, and refuses to run without it.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# every module under src/trihopf/ that the traced run wraps, in layer order
MODULES = (
    "scalars",
    "tensor",
    "hopf",
    "triangular",
    "groups",
    "constructions",
    "serialize",
    "atlas",
    "cli",
)


class MissingProgram(RuntimeError):
    """The checkout holds no trihopf sources to benchmark."""


def check_sources():
    if not (SRC / "trihopf" / "__init__.py").is_file():
        raise MissingProgram(f"no trihopf package under {SRC}")


def load_program() -> SimpleNamespace:
    """Import trihopf afresh from this checkout; returns its modules by name.

    Earlier imports are dropped first, so calling this again measures a
    full import of the package (from cached bytecode).
    """
    check_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "trihopf" or m.startswith("trihopf.")]:
        del sys.modules[name]
    pkg = importlib.import_module("trihopf")
    if Path(pkg.__file__).resolve().parent != (SRC / "trihopf").resolve():
        raise MissingProgram(f"trihopf imported from {pkg.__file__}, not {SRC}")
    mods = {m: importlib.import_module(f"trihopf.{m}") for m in MODULES}
    return SimpleNamespace(package=pkg, **mods)


def digest(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()
