"""Output checks for benchmark runs.  Each returns a list of failure messages.

Checks that hold for any seed:
  * rate: every value finite, pa >= no_pa at every (snr, alpha), MI
    nondecreasing in SNR on every curve, and the expected row set;
  * BER: exact bit counts, 0 <= errors <= bits, ber = errors / bits; on the
    identity channel each point's error count lies within Z binomial standard
    deviations of bits * Q(sqrt(snr));
  * LLR dump: one finite record per transmitted bit.
At the default seed the CSV is also compared with reference/<workload>.csv,
generated by the library before any optimisation: MI within MI_RTOL, bit
counts exact, error counts within Z standard deviations of the difference of
two independent binomials.  Both tolerances admit a changed eigenbasis or
summation order but not a changed model.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from pathlib import Path

from workloads import Workload

Z = 5.0  # two-sided false-alarm rate about 6e-7 per point
MI_RTOL = 1e-6
PRINT_RTOL = 1e-9  # the CSV prints 12 significant digits
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _finite(rows: list[dict], keys: tuple[str, ...]) -> list[str]:
    bad = [f"{k}={r[k]!r}" for r in rows for k in keys if not math.isfinite(float(r[k]))]
    return [f"non-finite values: {', '.join(bad[:5])}"] if bad else []


def check_rate(rows: list[dict], wl: Workload) -> list[str]:
    fails = _finite(rows, ("snr_db", "alpha", "beta", "mi_bits", "rate_bps_hz"))
    if fails:
        return fails
    snrs = len(wl.config["snr_db_grid"])
    expected = snrs * (2 * len(wl.alphas) + 2)
    if len(rows) != expected:
        fails.append(f"{len(rows)} rows, expected {expected}")
    curves = defaultdict(list)
    for r in rows:
        curves[(float(r["alpha"]), float(r["beta"]), r["mode"])].append(
            (float(r["snr_db"]), float(r["mi_bits"])))
    for key, pts in curves.items():
        mi = [m for _, m in sorted(pts)]
        if any(b < a for a, b in zip(mi, mi[1:])):
            fails.append(f"MI decreases with SNR on curve {key}")
    for (alpha, beta, mode), pts in curves.items():
        if mode != "pa":
            continue
        uniform = dict(curves.get((alpha, beta, "no_pa"), []))
        for snr, mi in pts:
            if snr not in uniform:
                fails.append(f"no no_pa row at snr {snr}, alpha {alpha}")
            elif mi < uniform[snr] * (1.0 - PRINT_RTOL):
                fails.append(f"pa {mi} < no_pa {uniform[snr]} at snr {snr}, alpha {alpha}")
    return fails


def _bits_per_frame(wl: Workload, alpha: float) -> int | None:
    cfg = wl.config
    target = cfg.get("target_rate_bps_hz")
    if target is not None:
        # the bit loader's rate inversion (coding factor 3/4, even total)
        total = target * (1.0 + cfg["beta"]) * wl.mn * alpha * (4.0 / 3.0)
        return 2 * int(round(total / 2.0))
    if cfg["channel"]["profile"] == "identity":
        return 2 * wl.mn  # QPSK on every subchannel: all gains are equal
    return None


def _q(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def check_ber(rows: list[dict], wl: Workload) -> list[str]:
    fails = _finite(rows, ("snr_db", "alpha", "ber"))
    if fails:
        return fails
    expected = len(wl.alphas) * len(wl.config["snr_db_grid"])
    if len(rows) != expected:
        fails.append(f"{len(rows)} rows, expected {expected}")
    identity = wl.config["channel"]["profile"] == "identity"
    for r in rows:
        snr_db, alpha = float(r["snr_db"]), float(r["alpha"])
        bits, errors = int(r["bits"]), int(r["errors"])
        per_frame = _bits_per_frame(wl, alpha)
        if per_frame is not None and bits != per_frame * wl.config["trials"]:
            fails.append(f"snr {snr_db}: {bits} bits, expected {per_frame * wl.config['trials']}")
        if not 0 <= errors <= bits or abs(float(r["ber"]) - errors / max(bits, 1)) > 1e-11:
            fails.append(f"snr {snr_db}: inconsistent counts {errors}/{bits}, ber {r['ber']}")
        if identity:
            p = _q(math.sqrt(10.0 ** (snr_db / 10.0)))
            band = Z * math.sqrt(bits * p * (1.0 - p))
            if abs(errors - bits * p) > band:
                fails.append(
                    f"snr {snr_db}: {errors} errors, closed form {bits * p:.1f} +- {band:.1f}")
    return fails


def check_llr(path: Path, total_bits: int) -> list[str]:
    count = 0
    bad = 0
    with path.open() as f:
        for line in f:
            if line.startswith("#") or line.startswith("frame,"):
                continue
            count += 1
            bad += not math.isfinite(float(line.rsplit(",", 1)[1]))
    fails = [] if count == total_bits else [f"{count} LLR records, CSV has {total_bits} bits"]
    return fails + ([f"{bad} non-finite LLRs"] if bad else [])


def check_reference(rows: list[dict], wl: Workload) -> list[str]:
    ref = read_csv(REFERENCE_DIR / f"{wl.name}.csv")
    fields = ("snr_db", "alpha", "beta", "mode") if wl.command == "rate" else ("snr_db", "alpha")
    got = {tuple(r[f] for f in fields): r for r in rows}
    fails = []
    for r in ref:
        key = tuple(r[f] for f in fields)
        g = got.get(key)
        if g is None:
            fails.append(f"reference row {key} missing")
        elif wl.command == "rate":
            want, have = float(r["mi_bits"]), float(g["mi_bits"])
            if abs(have - want) > MI_RTOL * abs(want):
                fails.append(f"{key}: MI {have} vs reference {want}")
        else:
            n = int(r["bits"])
            if int(g["bits"]) != n:
                fails.append(f"{key}: {g['bits']} bits vs reference {n}")
            e_ref, e = int(r["errors"]), int(g["errors"])
            p = (e + e_ref) / (2.0 * n)
            band = Z * math.sqrt(2.0 * n * p * (1.0 - p)) + 1.0
            if abs(e - e_ref) > band:
                fails.append(f"{key}: {e} errors vs reference {e_ref} +- {band:.1f}")
    return fails


def check_outputs(wl: Workload, csv_path: Path, llr_path: Path, default_seed: bool) -> list[str]:
    rows = read_csv(csv_path)
    if wl.command == "rate":
        fails = check_rate(rows, wl)
    else:
        fails = check_ber(rows, wl)
        if wl.llr and not fails:
            fails += check_llr(llr_path, sum(int(r["bits"]) for r in rows))
    if default_seed and not fails:
        fails += check_reference(rows, wl)
    return fails
