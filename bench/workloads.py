"""Benchmark workloads: the configs each one generates from a seed.

The config parameters mirror the shipped files under configs/ (and, for
rate-synth768, a larger variant of rate_curves).  They are held here rather
than read from configs/ so that a later edit to a shipped config cannot
silently change what the benchmark measures.  The seed argument only moves
master_seed; seed 0 reproduces the shipped master seeds exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

DEFAULT_SEED = 0
# Never used while tuning the benchmark; re-check a performance claim on it.
HELD_OUT_SEED = 7919

_SYNTH_CHANNEL = {
    "profile": "synthetic", "num_paths": 20, "l_max": 3, "k_max": 5, "frac_doppler": True,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # otfsftn sub-command: "rate" or "ber"
    config: dict  # config mapping; its master_seed is the base seed
    threads: int
    llr: bool = False

    @property
    def mn(self) -> int:
        return self.config["M"] * self.config["N"]

    @property
    def alphas(self) -> list[float]:
        a = self.config["alpha"]
        return list(a) if isinstance(a, list) else [a]

    @property
    def trials(self) -> int:
        """Trials per sweep: rate counts one channel per (alpha, beta)
        instance, BER counts one frame."""
        if self.command == "rate":
            # the sweep adds two alpha = 1 Nyquist instances
            return self.config["trials"] * (len(self.alphas) + 2)
        return self.config["trials"] * len(self.alphas) * len(self.config["snr_db_grid"])

    def config_for(self, seed: int) -> dict:
        cfg = dict(self.config)
        cfg["master_seed"] = (self.config["master_seed"] + seed) % 2**63
        return cfg

    def config_text(self, seed: int) -> str:
        # JSON is valid YAML, and exact for every value used here
        return json.dumps(self.config_for(seed), indent=1) + "\n"

    def cli_args(self, config_path: str, csv_path: str, llr_path: str) -> list[str]:
        args = [self.command, "--config", config_path, "--out", csv_path,
                "--threads", str(self.threads)]
        if self.llr:
            args += ["--llr-out", llr_path]
        return args


WORKLOADS = (
    Workload(
        name="rate-synth384",
        why="shipped rate_curves (MN=384, 20-path synthetic): per-trial precoder EVDs and "
        "the effective channel dominate; link does no work",
        command="rate",
        config={
            "M": 64, "N": 6, "alpha": [0.8, 0.9], "beta": 0.25,
            "snr_db_grid": [0, 5, 10, 15, 20, 25], "master_seed": 1, "trials": 20,
            "cp_len": 4, "channel": _SYNTH_CHANNEL,
        },
        threads=1,
    ),
    Workload(
        name="ber-awgn512",
        why="shipped awgn_qpsk_ber (identity channel, MN=512, 5000 frames): frame and noise "
        "kernels; bypasses per-trial channel and precoder work",
        command="ber",
        config={
            "M": 32, "N": 16, "alpha": 1.0, "beta": 0.25, "snr_db_grid": [0, 2, 4, 6, 8],
            "master_seed": 13, "trials": 1000, "channel": {"profile": "identity"},
        },
        threads=1,
    ),
    Workload(
        name="ber-eva192-llr-t2",
        why="shipped eva_ber with LLR output on 2 worker threads: every layer on every trial, "
        "the worker pool and the soft-output path",
        command="ber",
        config={
            "M": 32, "N": 6, "alpha": 0.8, "beta": 0.25, "delta_f_hz": 30000, "cp_len": 3,
            "snr_db_grid": [8, 12, 16, 20], "master_seed": 2, "trials": 50,
            "target_rate_bps_hz": 1.5, "channel": {"profile": "eva", "nu_max_hz": 2000},
        },
        threads=2,
        llr=True,
    ),
    Workload(
        name="rate-synth768",
        why="rate_curves at M=128 (MN=768), one alpha, one trial: cubic EVD cost and the "
        "resident-matrix working set dominate peak RSS",
        command="rate",
        config={
            "M": 128, "N": 6, "alpha": 0.8, "beta": 0.25, "snr_db_grid": [0, 10, 20],
            "master_seed": 1, "trials": 1, "cp_len": 4, "channel": _SYNTH_CHANNEL,
        },
        threads=1,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
