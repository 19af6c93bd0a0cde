"""q-Meixner polynomials, truncated q-oscillator representations, and the
unitary q-pseudorotation operator, with a registry that numerically
certifies every identity the family satisfies."""

from .errors import NonConvergent, OutOfTruncation, PoleHit, ResidualFailure
from .meixner import (
    MatrixElementParams,
    MeixnerParams,
    classical_meixner,
    classical_xi_limit,
    duality_transform,
    norm_factor,
    qmeixner,
    weight,
    xi,
    xi_dual,
)
from .oscillator import (
    FockTruncation,
    OperatorMatrix,
    build_J,
    build_oscillators,
    interior_indices,
    sector,
)
from .pseudorotation import (
    ClassicalU,
    UOperator,
    build_U,
    classical_U,
    classical_element,
    conjugated_lowering,
    conjugated_lowering_dual,
    conjugated_raising,
    conjugated_raising_dual,
    element,
    exp_reorder_big,
    exp_reorder_little,
    exp_reorder_mixed,
    interior_residual,
    matrix_qexp,
    matrix_qexp_series,
    qbch_conjugate,
    qbch_series,
    qexp_split,
    unitarity_residual,
)
from .qseries import (
    CompensatedSum,
    QContext,
    QPower,
    SeriesValue,
    basic_hypergeometric,
    big_qexp,
    little_qexp,
    q_binomial,
    q_pochhammer,
    q_pochhammer_inf,
)
from .verify import (
    IDENTITY_RELATIONS,
    LIMIT_RELATIONS,
    GridPoint,
    RelationId,
    RelationReport,
    check,
    check_all,
    default_grid,
    dual_orthogonality_sum,
    orthogonality_sum,
)

__version__ = "0.1.0"
