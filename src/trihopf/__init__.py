"""Exact construction and verification of finite-dimensional triangular Hopf algebras.

Only the exceptions' module loads with the package.  Every public name
loads its module on first use (PEP 562), so ``import trihopf`` and a
command of ``trihopf.cli`` pay only for the modules they run.
"""

from importlib import import_module

from . import errors  # cheap, and every command reports through it

# public name -> the module that defines it, imported on first read
_EXPORTS = {
    **dict.fromkeys(
        (
            "BicharacterError",
            "DivisionByZero",
            "GroupError",
            "HopfError",
            "InvalidDrinfeldElement",
            "NotAbelian",
            "NotInvertible",
            "NotQuasitriangular",
            "OrderNotFound",
            "SeptupleInvariantViolation",
            "ShapeError",
            "TwistError",
            "UnsupportedStratum",
        ),
        "errors",
    ),
    **dict.fromkeys(("CycScalar", "kernel_name", "root_of_unity"), "scalars"),
    **dict.fromkeys(
        (
            "Tensor2",
            "Tensor3",
            "Vec",
            "apply_map",
            "embed13_23_12",
            "flip",
            "tensor2_inv",
            "tensor2_mul",
            "tensor3_mul",
        ),
        "tensor",
    ),
    **dict.fromkeys(
        (
            "Algebra",
            "AxiomReport",
            "Coalgebra",
            "HopfData",
            "dual_hopf",
            "is_chevalley",
            "is_semisimple",
            "jacobson_radical",
            "verify_hopf",
        ),
        "hopf",
    ),
    **dict.fromkeys(
        (
            "AbelianSubgroup",
            "Bicharacter",
            "FiniteGroup",
            "GroupRep",
            "alternating_nondegenerate_bicharacters",
            "half_bicharacter",
            "sign_characters",
        ),
        "groups",
    ),
    **dict.fromkeys(
        (
            "Septuple",
            "SeptupleReport",
            "apply_twist",
            "build_bicharacter_twist",
            "group_algebra",
            "exterior_algebra",
            "modified_supergroup_algebra",
            "semisimple_triangular",
            "septuple_twist",
            "supergroup_algebra",
            "validate_septuple",
            "verify_twist",
        ),
        "constructions",
    ),
    **dict.fromkeys(
        (
            "TheoremReport",
            "check_structure_theorems",
            "drinfeld_element",
            "modify_r",
            "r_matrix_rank",
            "r_u",
            "verify_triangular",
        ),
        "triangular",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
