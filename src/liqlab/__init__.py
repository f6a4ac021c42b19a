"""Monte Carlo laboratory for liquidity risk, price impact and replication.

The market carries a linear supply curve whose slope (the order-book
depth) is driven by one of two stochastic variance factors, so trades
move quotes, cash accounting picks up liquidity costs, and variance swaps
complete the market.  The package simulates that system, keeps the
self-financing ledger executable in both its trade-sum and decomposed
forms, prices the swaps in closed form, solves the quadratic-driver
backward equation for replication values and hedges, and packages the
per-unit cost analytics into reproducible experiments.
"""

__version__ = "0.1.0"

from .noise import (
    CorrelationDecomposition,
    NoiseBlock,
    TimeGrid,
    decompose_correlation,
    draw_noise,
)
from .market import (
    GammaMap,
    ModelParams,
    PathBundle,
    VolCoeff,
    driver_coefficient,
    mu_coeff,
    simulate_paths,
    zeta_coeff,
)
from .order_book import (
    ImpactedQuotePath,
    apply_impact,
    book_density,
    execution_cost,
    impacted_quote_path,
    unaffected_price,
)
from .ledger import (
    HarnessResult,
    LedgerReport,
    Strategy,
    SwapLiquidity,
    arbitrage_harness,
    cash_decomposed,
    check_admissible,
    liquidation_value,
    round_trip_family,
)
from .swaps import (
    PsiMatrix,
    SwapSpec,
    exposure_from_hedge,
    growth_factor,
    invert_hedge,
    psi_matrix,
    remaining_growth,
    swap_price,
    swap_price_paths,
    tilde_u,
    tilde_v,
)
from .payoffs import (
    Payoff,
    TruncatedPayoff,
    call_ramp,
    constant_payoff,
    identity_payoff,
    truncate_payoff,
)
from .bsde import (
    BsdeConfig,
    BsdeSolution,
    TerminalCondition,
    hedge_from_solution,
    solve_and_hedge,
    solve_quadratic_bsde,
    stopping_index,
    terminal_condition,
)
from .replication import (
    ReplicationReport,
    h_prime_zero,
    hat_solution,
    impact_error,
    replication_cost_curve,
)
from .config import ScenarioConfig, parse_config
