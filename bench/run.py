"""Benchmark for otfsftn: sweep throughput per workload, per-layer times from a trace.

One workload, one result (the last stdout line is a JSON object):
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
Every workload, untraced and then traced, every metric printed and saved:
    python3 bench/run.py --all [--seed N] [--seconds S]     (writes .bench_out/BENCH.json)
Regenerate BENCHMARK.json from the definitions in this file:
    python3 bench/run.py --write-spec

Every sweep runs the otfsftn CLI in a fresh child interpreter (child.py)
with the source tree's src/ on PYTHONPATH and the caller's BLAS settings
left as they are.  --trace 0 runs PROBES set-up probes, then sweeps until
--seconds have passed (at least one), and reports medians of the end-to-end
metrics.  --trace 1 runs the probes, one untraced sweep and one traced sweep,
and reports the per-layer metrics.  Every sweep's outputs are checked
(checks.py); artefacts go to .bench_out/ under the source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_outputs
from tracer import COUNTERS, LATENCY, SPAN_NAMES, SWEEP
from workloads import BY_NAME, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
RUN_SECONDS = 12
PROBES = 5
CHILD_TIMEOUT_S = 170

# (name, unit, better, bound as a share of the parent's median).  On a shared
# 2-core VM the machine's speed drifts by 10-20 % over minutes and OpenBLAS's
# spinning worker threads amplify it, so the timing bounds sit at the 0.25
# ceiling; peak RSS repeats to about 0.2 %.
END_TO_END = (
    ("sweep_s", "s", "lower", 0.25),
    ("trials_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    defs = []
    for name in SPAN_NAMES:
        defs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                 (f"{name}.errors", "count", "lower")]
        if name in LATENCY:
            defs += [(f"{name}.p50_ms", "ms", "lower"), (f"{name}.p90_ms", "ms", "lower")]
    return tuple(defs) + (
        (f"{SWEEP}.self_s", "s", "lower"),
        ("precoder.hermitian_evd_desc.per_trial", "calls/trial", "lower"),
        ("precoder.hermitian_evd_desc.n3_e9", "1e9", "lower"),
        ("precoder.floored", "count", "lower"),
        ("precoder.waterfill.active_frac", "frac", "higher"),
        ("link.bit_loading.loaded_frac", "frac", "higher"),
        ("precoder.resident_matrices_est", "matrices", "lower"),
        ("trace_overhead_frac", "frac", "lower"),
        ("trace_coverage_frac", "frac", "higher"),
    )


PER_LAYER = _per_layer()


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


@dataclass
class Child:
    """One finished child process and what it reported."""

    code: int
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None = None
    sweep_s: float | None = None
    report: dict = field(default_factory=dict)
    fails: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.fails


def run_child(mode: str, wl: Workload, out: Path, cli_args: list[str]) -> Child:
    result = out / f"{mode}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result), mode,
           str(out / "spans.jsonl"), "--", *cli_args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with open(out / f"{mode}.stderr", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    child = Child(code=code, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0)
    if code != 0 or not result.exists():
        tail = (out / f"{mode}.stderr").read_text(errors="replace")[-2000:]
        child.fails.append(f"{mode} child exited with {code}: {tail}")
        return child
    child.report = json.loads(result.read_text())
    child.setup_s = child.report["t_sweep_call"] - t_spawn
    if "t_done" in child.report:
        child.sweep_s = child.report["t_done"] - child.report["t_sweep_call"]
    return child


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return None
    return top[1] if Path(top[0]).resolve() == ROOT else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    out = OUT / wl.name
    out.mkdir(parents=True, exist_ok=True)
    cfg_path, csv_path, llr_path = out / "config.yaml", out / "out.csv", out / "llr.csv"
    cfg_path.write_text(wl.config_text(seed))
    cli_args = wl.cli_args(str(cfg_path), str(csv_path), str(llr_path))

    def sweep(mode: str) -> Child:
        child = run_child(mode, wl, out, cli_args)
        if child.code == 0:
            child.fails += check_outputs(wl, csv_path, llr_path, seed == DEFAULT_SEED)
        return child

    probes = [run_child("probe", wl, out, cli_args) for _ in range(PROBES)]
    sweeps = []
    start = time.monotonic()
    while not sweeps or (not trace and time.monotonic() - start < seconds):
        sweeps.append(sweep("sweep"))
    traced = sweep("trace") if trace else None

    children = probes + sweeps + ([traced] if traced else [])
    fails = [f for c in children for f in c.fails]
    done = [c for c in sweeps if c.sweep_s is not None]
    env = next((c.report["env"] for c in done), None)
    result = {
        "workload": wl.name,
        "attempted": len(children),
        "failed": sum(not c.ok for c in children),
        "fail_messages": fails,
        "env": {
            **(env or {}), "threads": wl.threads, "git_commit": _git_commit(),
            "src_sha256": _src_digest(), "seed": seed,
            "master_seed": wl.config_for(seed)["master_seed"],
            "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        },
        "samples": {"probes": len(probes), "sweeps": len(done),
                    "sweep_s": [c.sweep_s for c in done], "setup_s": [c.setup_s for c in children]},
        "metrics": {},
    }
    if not done:
        return result
    sweep_s = statistics.median(c.sweep_s for c in done)
    peak_rss_mb = statistics.median(c.peak_rss_mb for c in done)
    baseline_mb = statistics.median(c.peak_rss_mb for c in probes)
    if not trace:
        setups = [c.setup_s for c in probes + done if c.setup_s is not None]
        values = {
            "sweep_s": sweep_s,
            "trials_per_s": statistics.median(wl.trials / c.sweep_s for c in done),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(c.cpu_s for c in done),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {n: u for n, u, _, _ in END_TO_END}
    elif traced.sweep_s is not None:
        values = _layer_values(wl, traced, sweep_s, peak_rss_mb - baseline_mb)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        return result
    result["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    return result


def _layer_values(wl: Workload, traced: Child, sweep_s: float, working_set_mb: float) -> dict:
    summary = traced.report["trace"]
    stats, counts = summary["stats"], summary["counts"]
    values = {}
    for name in SPAN_NAMES:
        for key in ("calls", "self_s", "errors") + (("p50_ms", "p90_ms") if name in LATENCY else ()):
            values[f"{name}.{key}"] = stats[name][key]
    values[f"{SWEEP}.self_s"] = stats[SWEEP]["self_s"]
    c = {name: counts.get(name, {}) for name in COUNTERS}
    evd = "precoder.hermitian_evd_desc"
    values[f"{evd}.per_trial"] = stats[evd]["calls"] / wl.trials
    values[f"{evd}.n3_e9"] = c[evd].get("n3", 0.0) / 1e9
    values["precoder.floored"] = c["precoder.derive_subchannels"].get("floored", 0)
    wf, bl = c["precoder.waterfill"], c["link.bit_loading"]
    values["precoder.waterfill.active_frac"] = wf.get("active", 0) / max(wf.get("subchannels", 0), 1)
    values["link.bit_loading.loaded_frac"] = bl.get("loaded", 0) / max(bl.get("subchannels", 0), 1)
    values["precoder.resident_matrices_est"] = working_set_mb * 2**20 / (wl.mn**2 * 16)
    values["trace_overhead_frac"] = traced.sweep_s / sweep_s - 1.0
    self_total = sum(s["self_s"] for s in stats.values())
    values["trace_coverage_frac"] = self_total / traced.sweep_s
    return values


def _print_metrics(result: dict) -> None:
    s = result["samples"]
    print(f"[{result['workload']}] {s['sweeps']} sweep(s), {s['probes']} set-up probe(s); "
          f"failed_frac = {result['failed'] / result['attempted']:.4g} frac "
          f"({result['failed']} of {result['attempted']} runs)")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("samples " + json.dumps(s))
    for msg in result["fail_messages"]:
        print(f"FAILED: {msg}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(BY_NAME))
    mode.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    mode.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "otfsftn" / "cli.py").is_file():
        print(f"bench: no otfsftn source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload:
        result = run_workload(BY_NAME[args.workload], args.seed, args.seconds, bool(args.trace))
        _print_metrics(result)
        correct = result["failed"] == 0 and bool(result["metrics"])
        print(json.dumps({"correct": correct, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": result["metrics"]}))
        return 0 if correct else 1
    results = []
    for wl in WORKLOADS:
        for trace in (False, True):
            results.append(run_workload(wl, args.seed, args.seconds, trace))
            _print_metrics(results[-1])
    (OUT / "BENCH.json").write_text(json.dumps(results, indent=1) + "\n")
    print(f"results written to {OUT / 'BENCH.json'}")
    return 0 if all(r["failed"] == 0 and r["metrics"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
