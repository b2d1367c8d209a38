"""Desk-scale laboratory for matrix norms on M_n.

Evaluates generalized induced norms, recovers the pair of vector norms
hiding inside any matrix norm, probes minimality numerically, and runs
property suites over the catalog at n = 2..4.
"""

from .budget import (
    EXACT_CLOSED_FORM,
    EXACT_VERTEX,
    LOWER_BOUND,
    ComputationResult,
    OptBudget,
    default_budget,
)
from .core import (
    EigResult,
    RandomStream,
    as_matrix,
    as_vector,
    hermitian_top_eig,
    mat_apply,
    sample_matrix,
    sample_vector,
)
from .errors import (
    DimensionMismatchError,
    DocumentParseError,
    HomogeneityError,
    NonConvergenceError,
    NonFiniteInputError,
    NormlabError,
    SpecValidationError,
)
from .extraction import (
    AlphaIdentityReport,
    ExtractionResult,
    ProbeReport,
    alpha_identity_check,
    column_embed,
    column_replicate,
    extract_norm1,
    extract_norm2,
    extract_pair,
    minimality_probe,
)
from .gind import ChainReport, GIndPair, chain_compare, gind_eval
from .matrix_norms import (
    KNOWN_NO,
    KNOWN_YES,
    UNKNOWN,
    EntrywiseMax,
    EntrywiseSum,
    GInd,
    MatrixNormSpec,
    MaxColSum,
    MaxRowSum,
    Spectral,
    mnorm_eval,
    mnorm_is_algebra_candidate,
)
from .sphere_opt import maximize_on_matrix_sphere, maximize_on_sphere
from .vector_norms import (
    DominanceReport,
    Extracted,
    Lp,
    MaxOf,
    Scaled,
    VectorNormSpec,
    WeightedLp,
    dominance_check,
    split_scale,
    sum_functional_alpha,
    vnorm_dual_eval,
    vnorm_eval,
)
from .verification import (
    CaseResult,
    SuiteReport,
    paper_demo_suite,
    verify_lemma21,
    verify_lemma22,
    verify_theorem23,
)

__version__ = "0.1.0"
