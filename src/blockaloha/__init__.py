"""Block-Aloha wireless control networks.

Closed-form controllability, latency and age-of-information analytics for
slotted-Aloha control networks over a Poisson field of interferers, a
per-block access-probability optimizer, and Monte Carlo simulators that
validate every formula.
"""

from .latency import (
    BlockHistory,
    DegenerateHistoryError,
    HistoryState,
    expected_paoi,
    expected_peak_latency,
    pcl_pmf,
)
from .montecarlo import (
    Estimate,
    episode_rng,
    simulate_bernoulli,
    simulate_policy_chain,
    simulate_renewal_pcl,
    simulate_spatial,
)
from .optimizer import (
    MetricsRecord,
    OptimizerConfig,
    block_recursion,
    optimize_block,
    run_horizon,
)
from .plant import (
    BlockTrace,
    PlantModel,
    control_sequence,
    controllability_index,
    controllability_matrix,
    default_plant,
    estimate_state,
    run_block,
)
from .runlength import BlockShape, chi, chi_bruteforce
from .spatial import (
    AccessPolicy,
    NetworkParams,
    RegimeDensities,
    default_disk_radius,
    effective_densities,
    interference_integral,
    parse_power_watts,
    slot_success_prob,
)

__version__ = "0.1.0"
