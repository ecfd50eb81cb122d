"""Exact computation and numeric verification of 2-d projective superflows.

Layer map, bottom to top:

  cyclotomic  exact arithmetic in Q(zeta_N)
  matgroup    2x2 matrices over those fields; monomial groups in exponent form
  homog       homogeneous polynomials, rational vector fields, group action
  engine      invariant-field spaces and the superflow decision procedure
  flows       the closed-form flow catalog plus numeric verification
  symmetry    parametrized symmetry families of the cataloged flows
  cli         command-line interface; selftest holds the acceptance suite
"""

from .cyclotomic import CycNum, root_of_unity
from .engine import (
    SuperflowVerdict,
    classify_alpha,
    find_superflow,
    invariant_space,
)
from .flows import ClosedFormFlow, OrbitFunction, catalog, nonalgebraic_field
from .homog import HomPoly, RatVF, monomial_field, reynolds_average
from .matgroup import (
    FiniteMatrixGroup,
    Mat2,
    MonomialGroup,
    alpha_group,
    alpha_matrix,
    generate_group,
    tau,
)
from .symmetry import (
    SymmetryFamily,
    check_field_symmetry,
    check_flow_symmetry,
    family_finite_order,
)

__version__ = "0.1.0"

__all__ = [
    "CycNum",
    "root_of_unity",
    "Mat2",
    "FiniteMatrixGroup",
    "MonomialGroup",
    "generate_group",
    "alpha_matrix",
    "alpha_group",
    "tau",
    "HomPoly",
    "RatVF",
    "monomial_field",
    "reynolds_average",
    "SuperflowVerdict",
    "invariant_space",
    "find_superflow",
    "classify_alpha",
    "ClosedFormFlow",
    "OrbitFunction",
    "catalog",
    "nonalgebraic_field",
    "SymmetryFamily",
    "check_field_symmetry",
    "check_flow_symmetry",
    "family_finite_order",
]
