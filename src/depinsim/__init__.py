"""depinsim: agent-based simulator of a DePIN token economy.

Vesting schedules, market formation, heuristic and LLM-backed node
policies, growth-capital dynamics, and the efficiency/inclusion/stability
macro indicators.
"""

from .agents import (
    DecisionContext,
    DecisionPolicy,
    GrowthCapitalist,
    HeuristicPolicy,
    LlmPolicy,
    apply_patience,
    heuristic_entry,
    heuristic_exit,
    heuristic_prompt_reply,
    render_entry_prompt,
    render_exit_prompt,
    spawn_growth_capitalists,
    total_endowment,
)
from .engine import (
    Cell,
    MonthEvents,
    Simulation,
    SimulationConfig,
    SimulationError,
    Trajectory,
    build_policy,
    compare,
    run,
)
from .llm_gateway import (
    AuditLog,
    BackendUnavailableError,
    BatchReplies,
    CompletionBatch,
    CompletionRequest,
    CompletionResponse,
    GatewayError,
    HttpBackend,
    LlmSettings,
    ProtocolError,
    ScriptedBackend,
    build_backend,
    parse_yes_no,
)
from .market import (
    MarketState,
    diluted_market_cap,
    global_revenue,
    market_cap,
    node_profit,
    token_price,
    user_count,
)
from .metrics import (
    MetricReport,
    efficiency,
    inclusion,
    read_price_series,
    report,
    score_series,
    stability,
)
from .tokenomics import (
    NODE_SCHEDULE,
    TEAM_SCHEDULE,
    VC_SCHEDULE,
    ScheduleKind,
    TokenAllocation,
    VestingSchedule,
    circulating_supply,
    cumulative_release,
    node_emission,
    release,
    team_release,
    vc_release,
)

__version__ = "0.1.0"
