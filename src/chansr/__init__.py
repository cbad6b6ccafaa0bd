"""Pilot-aided OFDM channel estimation lab.

Synthesizes tapped-delay-line fading channels, forms LS pilot estimates, and
reconstructs the full time-frequency grid with a dual-attention
super-resolution network trained under an optional quadratic anchor penalty
for sequential (continual) training across channel profiles.
"""

__version__ = "0.1.0"

from .channel import (OfdmConfig, PilotPattern, TdlProfile, dft_matrix, generate_channel,
                      interpolate_bilinear, load_tdl_profile, ls_estimate, make_pilot_observation)
from .config import RunConfig
from .dataset import ChannelDataset, generate_dataset, load_dataset, save_dataset
from .evaluate import EvalReport, forgetting_report, nmse, sweep
from .model import ModelParams, forward, init_params, load_params, save_params
from .training import FisherDiag, estimate_fisher, ewc_loss, train_task

__all__ = [
    "OfdmConfig", "PilotPattern", "TdlProfile", "ChannelDataset", "ModelParams", "RunConfig",
    "FisherDiag", "EvalReport", "load_tdl_profile", "generate_channel", "make_pilot_observation",
    "ls_estimate", "interpolate_bilinear", "dft_matrix", "generate_dataset", "save_dataset",
    "load_dataset", "init_params", "forward", "save_params", "load_params", "train_task",
    "estimate_fisher", "ewc_loss", "nmse", "sweep", "forgetting_report",
]
