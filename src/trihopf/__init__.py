"""Exact construction and verification of finite-dimensional triangular Hopf algebras."""

from .errors import (
    BicharacterError,
    DivisionByZero,
    GroupError,
    HopfError,
    InvalidDrinfeldElement,
    NotAbelian,
    NotInvertible,
    NotQuasitriangular,
    OrderNotFound,
    SeptupleInvariantViolation,
    ShapeError,
    TwistError,
    UnsupportedStratum,
)
from .scalars import CycScalar, kernel_name, root_of_unity
from .tensor import (
    Tensor2,
    Tensor3,
    Vec,
    apply_map,
    embed13_23_12,
    flip,
    tensor2_inv,
    tensor2_mul,
    tensor3_mul,
)
from .hopf import (
    Algebra,
    AxiomReport,
    HopfData,
    antipode_order,
    dual_hopf,
    is_chevalley,
    is_cocommutative,
    is_semisimple,
    jacobson_radical,
    make_hopf,
    verify_hopf,
)
from .groups import (
    AbelianSubgroup,
    Bicharacter,
    FiniteGroup,
    GroupRep,
    alternating_nondegenerate_bicharacters,
    half_bicharacter,
    sign_characters,
)
from .constructions import (
    Septuple,
    SeptupleReport,
    apply_twist,
    build_bicharacter_twist,
    group_algebra,
    exterior_algebra,
    modified_supergroup_algebra,
    semisimple_triangular,
    septuple_twist,
    supergroup_algebra,
    validate_septuple,
    verify_twist,
)
from .triangular import (
    TheoremReport,
    check_structure_theorems,
    drinfeld_element,
    modify_r,
    r_matrix_rank,
    r_u,
    verify_triangular,
)

__version__ = "0.1.0"
