"""Mode-division-multiplexed free-space optical link simulator.

Seed-deterministic end-to-end model of a DP-QPSK MDM link through
emulated atmospheric turbulence: von Karman phase screens, LP/LG modal
coupling, pilot-aided coherent DSP, and MMSE / SIC MIMO decoding.
"""

from .screens import (
    PhaseScreen,
    ScreenConfig,
    batch_generate,
    generate_screen,
    iter_screens,
    kolmogorov_structure_function,
    read_screen,
    structure_function,
    write_screen,
)
from .optics import (
    ModalCoupler,
    ModeSpec,
    polarization_expand,
)
from .framing import Frame, FrameLayout, assemble_frames, mode_delays
from .channel import osnr_to_n0, propagate, wiener_phase
from .dsp import (
    cancel_phase,
    equalize,
    estimate_channel,
    estimate_phase,
    hard_decision,
    mmse_decode,
    sic_decode,
    sic_order,
)
from .harness import (
    ExperimentConfig,
    MonteCarloSummary,
    RunReport,
    monte_carlo,
    net_spectral_efficiency,
    run_realization,
    scintillation_stats,
    sweep_osnr,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "Frame",
    "FrameLayout",
    "ModalCoupler",
    "ModeSpec",
    "MonteCarloSummary",
    "PhaseScreen",
    "RunReport",
    "ScreenConfig",
    "assemble_frames",
    "batch_generate",
    "cancel_phase",
    "equalize",
    "estimate_channel",
    "estimate_phase",
    "generate_screen",
    "hard_decision",
    "iter_screens",
    "kolmogorov_structure_function",
    "mmse_decode",
    "mode_delays",
    "monte_carlo",
    "net_spectral_efficiency",
    "osnr_to_n0",
    "polarization_expand",
    "propagate",
    "read_screen",
    "run_realization",
    "scintillation_stats",
    "sic_decode",
    "sic_order",
    "structure_function",
    "sweep_osnr",
    "wiener_phase",
    "write_screen",
]
