"""Exact symbolic engine for the 2-adic ring C*-algebra Q2.

Q2 is the universal C*-algebra on a unitary U and an isometry S2 subject to
S2 U = U^2 S2 and S2 S2* + U S2 S2* U* = 1.  This package implements its
algebraic span in exact arithmetic: canonical monomials with a decidable
equality oracle through the representation on l2(Z), conditional
expectations, validated endomorphisms, the diagonal unitaries at dyadic
roots of unity, and the circle functional equations behind the outerness
obstructions.
"""

from .scalars import DyadicCyclotomic, cyclo, rational
from .algebra import (
    Element,
    Monomial,
    DepthTooSmall,
    BudgetExceeded,
    coarsen,
    equals,
    from_generator,
    gauge_component,
    membership,
    monomial_of_pair,
    multiindex_label,
    multiindex_of_label,
    normalize_depth,
    pair_of_monomial,
    proj_Pn,
    proj_Qn,
)
from .canonical import (
    WindowMatrix,
    apply_basis,
    conjugate_by_V,
    window_matrix,
)
from .expectations import (
    E_CU,
    E_D2,
    E_diag_window,
    E_gauge,
    F_map,
    NotGaugeInvariant,
    s1_limit,
)
from .morphisms import (
    BogoljubovMatrix,
    Endomorphism,
    ExtensionConditionFailed,
    ExtensionData,
    FlipFlopGauge,
    Gauge,
    NotExtensible,
    NotInS2,
    NotOdd,
    NotUnitary,
    RelationViolated,
    ad_unitary,
    beta_monomial,
    bogoljubov_classify,
    check_extension,
    chi,
    compose,
    compose_extension_data,
    decompose_S2_image,
    flip_theta,
    flipflop,
    gauge,
    is_beta,
    shift,
    u_of,
    W_of,
)
from .torusfunc import (
    DyadicGridFunction,
    NotASolution,
    NotNormalized,
    NotUnimodular,
    Undersampled,
    cascade_solve,
    flipflop_commute_obstruction,
    gauge_equiv_obstruction,
    oscillation_report,
    solve_square_equation,
    winding_number,
)
from .dyadic import (
    Continuous,
    Obstructed,
    RootOfUnity,
    build_Sz,
    build_Uz,
    check_Uz_relations,
    membership_Uz,
    two_adic_continuity,
)
from .parser import ParseError, parse_element, print_element

__version__ = "0.1.0"
