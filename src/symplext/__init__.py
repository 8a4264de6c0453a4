"""Exact symplectic and orthogonal extensions of split bundles on P^1.

Everything is computed over Q with Fractions; there are no floats and no
numerical tolerances anywhere.  The layers, bottom up: rational function
field arithmetic (ratfield), split bundles and rational matrices between
them (bundles), principal part systems and cohomology classes
(prinparts), extensions with bilinear structures (forms), graph
subbundles and isotropy (subbundles), the text format (textio) and the
command line (cli).
"""

from .bundles import (
    LineTwist,
    RatHom,
    SplitBundle,
    TransitionData,
    cocycle_transpose_check,
    dual_frame,
    dual_twisted,
    h0_hom,
    h0_line,
    h1_line,
    hom_bundle,
    is_global,
    transpose_hom,
)
from .errors import (
    ClassMismatch,
    DegenerateB,
    FrameMismatch,
    HypothesisUnmet,
    HypothesisUnmetWarning,
    InternalLiftFailure,
    IsotropyViolation,
    NotACoboundary,
    NotACochain,
    NotAFormCochain,
    ParseError,
    SymplextError,
    UnsupportedPoleField,
    VerticalIntersection,
    ZeroDenominator,
    ZeroFunction,
)
from .forms import (
    ExtensionData,
    FormCochain,
    OrthogonalExtension,
    RatSectionW,
    SymplecticExtension,
    check_orthogonal,
    check_symplectic,
    class_from_form,
    form_cochain_from_extension,
    gram_matrix,
    gram_nondegenerate,
    is_global_member,
    wp_admissible_phi,
    wp_member,
    wp_phi_basis,
)
from .prinparts import (
    CohClass,
    PrinHom,
    apply_prin,
    assembled_finite,
    cech_class,
    class_dim,
    cocycle_of,
    lift_rational,
    local_condition_matrix,
    prin_length,
    prin_of,
    reduce_class,
    transpose_prin,
)
from .ratfield import (
    INFINITY,
    PointP1,
    Poly,
    RatFunc,
    parse_frac,
    parse_point,
    parse_ratfunc,
    point_text,
    polar_coeffs_as_ratfunc,
    ratfunc_text,
    zpow,
)
from .subbundles import (
    GraphSubbundle,
    JetCondition,
    SearchBounds,
    VerticalKernel,
    beta_from_subbundle,
    cor6_backward,
    cor6_forward,
    graph_of_defect,
    graph_subbundle,
    h0_twisted,
    isotropy_direct,
    isotropy_linear,
    isotropy_prin,
    regularity_check,
    search_lagrangian,
    splitting_type,
    vertical_kernel,
)
from .textio import (
    FORMAT_TAG,
    Document,
    ResultRecord,
    parse_document,
    serialize_document,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
