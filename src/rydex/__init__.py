"""Spin-exchange interactions and entanglement protocols for Rydberg atom pairs.

From measured quantum defects this package computes van der Waals
interaction coefficients of two-atom Rydberg pair states, including the
spin-exchange structure that splits the symmetric and antisymmetric
doubly excited Bell states, and propagates the pulse sequences that
turn that splitting into ground-state entanglement: pairwise Bell-state
preparation, a SWAP-like gate, and the step schedule linking pairs into
an entangled chain.

The names below are loaded on first use (PEP 562), so ``import rydex``
imports no layer and a program pays only for the layers it reads.
"""

import importlib

# layer module -> the public names the package re-exports from it
_EXPORTS = {
    "atoms": ("CHANNEL_FINE_STRUCTURE", "DefectDataError", "DefectSeries", "QuantumDefectModel",
              "clebsch_gordan", "quantum_defect"),
    "radial": ("E2A02_GHZ_UM3", "radial_integral"),
    "vdw": ("SPIN_BASIS", "C6Pair", "ChannelContribution", "CriticalRadius", "InteractionMatrix",
            "InterferenceDecomposition", "SingularChannelError", "VPlusMinus", "c6_pair", "channel_c6", "critical_radius",
            "interaction_matrix", "interference_decomposition", "v_plus_minus"),
    "dynamics": ("CHANNELS", "PRODUCT_BASIS_8", "HamiltonianMatrix", "Pulse2Analytics",
                 "PulseSpec", "QuantumState", "build_blocked2", "build_full8", "build_swap_2pi",
                 "propagate", "propagate_sampled", "pulse2_analytics", "tau2_approximate"),
    "protocols": ("RYDBERG_POPULATION_THRESHOLD", "SWAP_MATRIX_IDEAL", "ChainFidelityEstimate",
                  "ChainResult", "ChainSpec", "PairCouplings", "PairwiseOptimum",
                  "ProtocolResult", "PulseSchedule", "SchedulePulse", "SpectatorBlockade",
                  "SwapGateResult", "Trajectory", "chain_fidelity_estimate", "chain_ideal_state",
                  "chain_protocol", "optimize_pairwise", "pair_couplings", "pairwise_entangle",
                  "swap_gate"),
    "harness": ("FidelityHistogram", "RobustnessConfig", "robustness_scan", "run_figure",
                "run_table"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
