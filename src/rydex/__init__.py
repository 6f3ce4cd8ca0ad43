"""Spin-exchange interactions and entanglement protocols for Rydberg atom pairs.

From measured quantum defects this package computes van der Waals
interaction coefficients of two-atom Rydberg pair states, including the
spin-exchange structure that splits the symmetric and antisymmetric
doubly excited Bell states, and propagates the pulse sequences that
turn that splitting into ground-state entanglement: pairwise Bell-state
preparation, a SWAP-like gate, and the step schedule linking pairs into
an entangled chain.
"""

from .atoms import (
    CHANNEL_FINE_STRUCTURE,
    DefectDataError,
    DefectSeries,
    QuantumDefectModel,
    RydbergLevel,
    clebsch_gordan,
    level_energy,
    quantum_defect,
)
from .radial import (
    E2A02_GHZ_UM3,
    RadialOrbital,
    effective_orbital,
    radial_integral,
)
from .vdw import (
    SPIN_BASIS,
    C6Pair,
    ChannelContribution,
    CriticalRadius,
    InteractionMatrix,
    SingularChannelError,
    VPlusMinus,
    c6_pair,
    channel_c6,
    critical_radius,
    interaction_matrix,
    interference_decomposition,
    v_plus_minus,
)
from .dynamics import (
    CHANNELS,
    PRODUCT_BASIS_8,
    SUPERPOSITION_BASIS_8,
    HamiltonianMatrix,
    Pulse2Analytics,
    PulseSpec,
    QuantumState,
    build_blocked2,
    build_full8,
    build_swap_2pi,
    propagate,
    propagate_sampled,
    pulse2_analytics,
    relabeling_matrix,
    tau2_approximate,
)
from .protocols import (
    RYDBERG_POPULATION_THRESHOLD,
    SWAP_MATRIX_IDEAL,
    ChainFidelityEstimate,
    ChainResult,
    ChainSpec,
    PairCouplings,
    PairwiseOptimum,
    ProtocolResult,
    PulseSchedule,
    SchedulePulse,
    SpectatorBlockade,
    SwapGateResult,
    Trajectory,
    chain_fidelity_estimate,
    chain_ideal_state,
    chain_protocol,
    optimize_pairwise,
    pair_couplings,
    pairwise_entangle,
    swap_gate,
)
from .harness import (
    FidelityHistogram,
    RobustnessConfig,
    robustness_scan,
    run_figure,
    run_table,
)

__version__ = "0.1.0"
