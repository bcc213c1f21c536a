"""Sparse Fock-space simulation of loss-resilient multimode photon-pair states.

Builds the N-pair entangled state family over paired signal/idler mode
registers, pushes the signal through a beamsplitter loss channel, and
evaluates target-detection error rates both in closed form and through
brute-force Fock-space oracles.
"""

__version__ = "0.1.0"

from .combinat import (
    LogProb,
    compositions,
    count_compositions,
    falling_ratio_exact,
    falling_ratio_logs,
    sum_log_probs,
)
from .detection import (
    Baselines,
    DetectionReport,
    FalseAlarmTerm,
    TableNoise,
    ThermalNoise,
    apply_projector,
    detection_report,
    false_alarm_terms,
    p_fa_closed,
    p_fa_oracle,
    p_md_closed,
    p_md_oracle,
    projector_components,
    single_photon_baselines,
)
from .fock import (
    AMPLITUDE_CAP,
    BACKGROUND,
    IDLER,
    PRUNE_THRESHOLD,
    SIGNAL,
    AmplitudeCapError,
    SparseState,
    combine,
)
from .loss import (
    LossComponent,
    absorption_weight,
    beamsplitter_oracle,
    loss_component,
    returned_mixture,
    split_by_environment,
)
from .states import (
    annihilate_signal,
    loss_identity_residual,
    pair_create,
    pair_state_direct,
    pair_state_recursive,
)

__all__ = [
    "AMPLITUDE_CAP",
    "AmplitudeCapError",
    "BACKGROUND",
    "Baselines",
    "DetectionReport",
    "FalseAlarmTerm",
    "IDLER",
    "LogProb",
    "LossComponent",
    "PRUNE_THRESHOLD",
    "SIGNAL",
    "SparseState",
    "TableNoise",
    "ThermalNoise",
    "absorption_weight",
    "annihilate_signal",
    "apply_projector",
    "beamsplitter_oracle",
    "combine",
    "compositions",
    "count_compositions",
    "detection_report",
    "false_alarm_terms",
    "falling_ratio_exact",
    "falling_ratio_logs",
    "loss_component",
    "loss_identity_residual",
    "p_fa_closed",
    "p_fa_oracle",
    "p_md_closed",
    "p_md_oracle",
    "pair_create",
    "pair_state_direct",
    "pair_state_recursive",
    "projector_components",
    "returned_mixture",
    "single_photon_baselines",
    "split_by_environment",
    "sum_log_probs",
]
