"""Casimir-Polder potentials and quantum reflection of ground-state
(anti)hydrogen above planar mirrors: potential tabulation, WKB badlands
diagnostics, coupled-amplitude reflection solves, complex scattering
lengths and gravitational-quantum-state lifetimes.
"""

from .constants import CONSTANTS, PhysicalConstants
from .optics import (
    DEFAULT_POLARIZABILITY,
    DielectricModel,
    MaterialFileError,
    Oscillator,
    Polarizability,
    SheetModel,
    bruggeman_mix,
    builtin_material_names,
    fresnel,
    graphene_sheet,
    load_builtin,
    load_material_file,
    sheet_reflection,
    slab_reflection,
)
from .potential import (
    MirrorSpec,
    PotentialTable,
    QuadratureError,
    build_potential_table,
    build_solver_table,
    retarded_coefficient,
    retarded_reference,
    vdw_coefficient_integral,
)
from .reflection import (
    BadlandsProfile,
    ReflectionResult,
    SolveError,
    SweepPoint,
    badlands_profile,
    badlands_q,
    reflection_sweep,
    solve_reflection,
)
from .numerov import NumerovResult, numerov_reflection
from .lifetimes import (
    ExtractionError,
    LifetimeResult,
    ScatteringLength,
    gqs_lifetime,
    lifetime_for_table,
    scattering_length,
)

__version__ = "0.1.0"
