"""Clearing payment vectors and Katz-type centrality for financial
obligation networks.

The package models a set of banks plus one sink node holding all outside
obligations, solves the clearing problem with recovery rates, constructs
system-wide shock scenarios, and numerically verifies that clearing losses
under such shocks coincide with a generalized Katz centrality measure.
"""

from .centrality import (
    CentralityResult,
    beta_vector,
    closed_form_full_shock,
    generalized_katz,
    printed_relaxed_closed_form,
    standard_katz,
)
from .clearing import (
    ClearingSolution,
    apply_clearing_map,
    capitalization_adjusted_loss,
    fictitious_default_sequence,
    picard_clearing_oracle,
    solve_given_defaults,
    systemic_loss,
)
from .equivalence import (
    EquivalenceReport,
    default_tolerance,
    verify_full_shock_equivalence,
    verify_katz_reduction,
)
from .errors import (
    ClearnetError,
    DimensionMismatch,
    DivisionByZero,
    InvalidInterpolation,
    NegativeEntry,
    NoConvergence,
    NonzeroDiagonal,
    NonzeroSinkRow,
    NotAllDefaulted,
    NotSingleCreditor,
    OracleNoConvergence,
    ParseError,
    PreconditionViolated,
    SearchExhausted,
    SelfConsistencyFailed,
    SingularSystem,
    ValidationError,
    ZeroVector,
)
from .io_cli import (
    SystemDocument,
    cli_main,
    dumps_canonical,
    generate_random_system,
    load_document,
    save_document,
)
from .net_model import (
    ClearingParams,
    DefaultIndicator,
    FinancialSystem,
    RelativeClaims,
    build_system,
    default_indicator,
    equity,
    fundamental_defaults,
    relative_claims,
)
from .shocks import (
    RelaxedShockCertificate,
    ShockKind,
    ShockScenario,
    full_default_shock,
    relaxed_interpolated_shock,
    relaxed_shock_search,
    shocked_system,
)
from .spectral import (
    SpectralReport,
    check_invertibility,
    collatz_wielandt_value,
    corollary_radius_bound,
    spectral_radius,
)

__version__ = "0.1.0"
