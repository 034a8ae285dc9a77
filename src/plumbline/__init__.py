"""Exact invariants of combinatorial line arrangements.

The package computes, entirely in exact integer and rational arithmetic:

* the Orlik-Solomon algebra of an arrangement and its double;
* the plumbing graph, plumbing matrix, and first homology of the
  arrangement's boundary 3-manifold;
* the intersection ring and cohomology ring of that manifold, together with
  a structure-constant-level verification that the cohomology ring is the
  double of the Orlik-Solomon algebra;
* resonance varieties of the double, through an exact cochain complex.

See the ``plumbline`` command-line tool for the same functionality on
arrangement JSON files.
"""

from .arrangement import (
    Arrangement,
    ArrangementClass,
    ArrangementError,
    FormatError,
    IndexOutOfRange,
    NbcPair,
    PairCoveredTwice,
    PointTooSmall,
    beta,
    classify,
    from_json,
    nbc_set,
    random_arrangement,
    to_json,
    validate,
)
from .boundary_ring import (
    IntersectionRing,
    IsomorphismReport,
    cohomology_ring,
    intersection_ring,
    verify_double_isomorphism,
)
from .exact_linalg import (
    IntMatrix,
    RatMatrix,
    SnfResult,
    SparseIntMatrix,
    cokernel,
    det,
    kernel_dim,
    rank,
    snf,
)
from .os_algebra import (
    DegreeError,
    DoubledAlgebra,
    GradedAlgebra,
    double,
    dual_label,
    os_algebra,
)
from .plumbing import (
    H1Result,
    InternalContradiction,
    PlumbingGraph,
    h1_boundary,
    h1_plumbed,
    incidence_graph,
    plumbing_matrix,
)
from .resonance import (
    AomotoComplex,
    AomotoPoint,
    ChainConditionViolated,
    DimensionMismatch,
    aomoto_complex,
    betti,
    betti_numbers,
    delta_matrix,
    generic_betti,
    in_resonance,
    is_nonresonant,
    phi_matrix,
    r11_prediction,
    sample_point,
    trial_seed,
    zero_a_identity_check,
)

__version__ = "0.1.0"
