"""Finite-dimensional quantum measurement, two ways.

The package builds projective measurement twice over: once as the collapse
map that replaces a state by its diagonal in the measured eigenbasis, and
once with no collapse at all, by coupling the system unitarily to a pointer
apparatus and reading the composite through a commutative observable
algebra. Both routes are first-class, and the tooling exists to check,
mechanically and at tolerance, that they assign identical statistics to
every outcome.
"""

from .errors import (
    BadAmplitudes,
    BadWeights,
    DegenerateSpectrum,
    DimMismatch,
    NonRealExpectation,
    NotCommuting,
    NotHermitian,
    NotInAlgebra,
    NotNormalized,
    NotOrthonormal,
    NotPositive,
    NotSquare,
    ParseError,
    QmError,
    TooSmall,
    TraceNotOne,
    UnknownFormat,
    ValidationError,
)
from .linalg import (
    EigenSystem,
    cluster_eigenvalues,
    hermitian_eigendecompose,
    kronecker,
    unitary_exp,
)
from .states import (
    CompositeDims,
    DensityMatrix,
    StateVector,
    mix,
    partial_trace,
    projector_of,
    tensor_state,
)
from .observables import (
    Observable,
    OutcomeDistribution,
    born_distribution,
    commutes,
    evolve,
    expectation,
)
from .measurement import (
    ApparatusModel,
    MeasurementModel,
    apparatus_reduced_state,
    build_apparatus,
    build_coupling,
    collapse,
    coupling_matrix,
    model_for_observable,
    pointer_observable,
    premeasure,
    premeasure_density,
    sample_outcome,
)
from .algebra import (
    SpectralAlgebra,
    SpectralProbabilityMeasure,
    SpectrumPoint,
    gelfand_transform,
    generate_algebra,
    proper_mixture_representative,
    restrict_state,
    spectrum,
)
from .randomness import rand_density, rand_hermitian, rand_state, rand_unitary, substream
from .report import ComparisonSummary, EmpiricalCounts, Report, emit_report, emit_summary
from .scenario import (
    Scenario,
    compare_collapse_vs_restriction,
    load_scenario,
    parse_scenario,
    run_cat,
    run_scenario,
)

__version__ = "0.1.0"
