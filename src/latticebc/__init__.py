"""Homogenized wave coefficients and derived macroscale boundary
conditions for s-strand, p-periodic spring-mass lattices."""

from .boundary import (
    ConstraintSystem,
    MacroBC,
    MacroBCKind,
    assemble_constraints,
    closed_form_bc,
    derive_macro_bc,
    left_end_bc,
    right_end_bc,
)
from .cellmap import CellMap, build_cell_map
from .errors import (
    ConfigParseError,
    EigenSolveError,
    KindUnsupported,
    LatticeError,
    NoJordanChain,
    NoRootInBracket,
    NotConverged,
    NullSpaceDimension,
    SingularSolve,
    SpecValidationError,
    UnexpectedSpectrum,
)
from .homogenize import (
    ClosedFormResult,
    SlowManifold,
    closed_form_two_strand,
    construct_slow_manifold,
    dispersion_eigenvalues,
    dispersion_fit,
)
from .lattice import (
    BCKind,
    LatticeSpec,
    MicroBCSpec,
    build_B,
    build_L0,
    build_Lk,
    build_Lk_exact,
    build_steady_operator,
    reversed_spec,
    validate_spec,
)
from .validate import (
    ModeComparison,
    SpectrumReport,
    compare_modes,
    macroscale_slowest_mode,
    microscale_slowest_mode,
    spectrum_checks,
)

__version__ = "0.1.0"
