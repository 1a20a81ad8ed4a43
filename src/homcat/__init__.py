"""homcat: exact-arithmetic workbench for hom-associative structures.

Finite-dimensional hom-algebras, hom-bialgebras, their modules, comodules,
quasitriangular structures and Yetter-Drinfeld modules, all represented by
structure constants over an exact field. Derived objects (twists, tensor
modules, braidings, Yang-Baxter operators, dehomified constraint data) are
built as explicit matrices, and every defining identity can be checked by
exhaustive evaluation on basis elements with zero tolerance.
"""

from .exact_tensor import (
    Field, GF, KERNEL_BACKEND, LinMap, QQ, compose, compose_all, diag,
    flatten_index, flip_map, identity, kron, kron_all, permute_tensor,
    unflatten_index, zero_map,
)
from .hom_structures import (
    CheckReport, HomAlgebra, HomBialgebra, HomCoalgebra,
    HomSemigroup, NONDEGENERATE, UNKNOWN, VIOLATION_CAP, Violation,
    check_hom_algebra, check_hom_bialgebra, check_hom_coalgebra,
    check_hom_semigroup, check_structure_morphism, compare_maps,
    nondegenerate_via_regular, semigroup_algebra, tensor_hom_algebra,
    yau_twist_algebra, yau_twist_bialgebra,
)
from .rep_theory import (
    HComodule, HModule, action_cube, check_associator_instance,
    check_comodule, check_comodule_morphism, check_module,
    check_module_hom_algebra, check_module_morphism, coaction_cube,
    comodule_from_cube, conjugate_module, module_from_cube, phi_check,
    regular_comodule, regular_module, tensor_module, twist_module,
    zero_module,
)
from .qt_braiding import (
    BraidMap, RMatrix, b_from_qt, braiding_from_r, check_braiding_morphism,
    check_hexagon_instances, check_hom_ybe, check_mixed_hom_ybe,
    check_r_conditions, ybe_yau_twist,
)
from .yetter_drinfeld import (
    YDModule, b_yd, check_yd, f_twist_yd, quasi_braiding_yd, yd_associator,
    yd_from_cubes, yd_tensor,
)
from .dehomify import (
    ConstraintFamily, build_b, build_c, check_hexagons, check_pentagon,
    cross_check_yd,
)
__version__ = "0.1.0"

# loaded on first use (PEP 562), so that `python -m homcat.workbench_cli`
# does not find its own module already imported by the package
_CLI_NAMES = ("gen_group_bialgebra", "gen_kz2_qt", "parse_structure",
              "structure_to_dict")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import workbench_cli
        return getattr(workbench_cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
