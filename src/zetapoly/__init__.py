"""Special values of multiple zeta-functions with polynomial denominators.

Exact big-rational evaluation where the value formulas are rational,
error-bounded high precision where Gamma factors and period integrals
appear, and independent Euler-Maclaurin oracles to cross-check both.
"""

from .errors import (
    CompositionMismatch,
    ContinuationDepthInsufficient,
    DegenerateFactor,
    DimensionMismatch,
    DomainViolation,
    HypothesisViolated,
    IndexOutOfRange,
    IraViolated,
    NotDiagonal,
    NotElliptic,
    NotHomogeneous,
    Pole,
    PositiveEntry,
    PrecisionUnreachable,
    QuadratureDidNotConverge,
    RegularityViolated,
    ThetaDegenerate,
    UnsupportedPoint,
    ZetaPolyError,
)
from .exactnum import (
    ConstantProduct,
    Numeric,
    Rational,
    SpecialValue,
    bernoulli,
    bernoulli_poly,
    bernoulli_tilde,
    binom_rational,
    binom_signed,
    gamma_rational,
    gamma_rational_numeric,
    pochhammer_shift,
    riemann_zeta_exact_nonpositive,
    riemann_zeta_numeric,
)
from .mahler import (
    CompositionFamily,
    QuadratureSettings,
    YExpansion,
    Y_expansion,
    Z_value,
    enumerate_V,
    index_I,
    period_K,
    raabe_substitute,
)
from .multipoly import (
    MPoly,
    MultiIndex,
    build_P_alpha_u,
    family_hypotheses,
)
from .polyzeta import (
    GammaFactorSpec,
    G_factor,
    PolyFamily,
    build_QN,
    build_family,
    diagonal_value,
    zeta_P_at,
)
from .powersum import (
    A_value,
    B_theta,
    C_value,
    DirectionalSpec,
    H_value,
    PowerSumParams,
    closed_even_tail,
    closed_last_minus1,
    closed_last_minus2,
    closed_zero,
    directional_limit,
    ira_ok,
    regularity_ok,
    value_mixed_last_nonpositive,
    value_nonpositive,
    value_numeric_complex,
)
from .identities import (
    IdentityReport,
    double_B3,
    double_B6,
    verify_identity_grid,
    zeta_neg_closed,
    zeta_neg_via_B1,
)
from .oracle import (
    EMSettings,
    PowerSum2Result,
    em_inner_sum,
    powersum2_numeric,
    theta_diagonal,
    zeta1_numeric,
    zeta_riemann_em,
)

__version__ = "0.1.0"
