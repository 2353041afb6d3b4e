"""One benchmark child: run the otfsftn CLI once in a fresh interpreter.

    python3 bench/child.py RESULT MODE SPANS -- <otfsftn CLI arguments>

MODE is "probe" (stop at the sweep call, for set-up time), "sweep" (an
untraced run) or "trace" (the same run with tracer.py installed, spans
written to SPANS).  RESULT receives the monotonic clock at the sweep call and
once the CLI has written its outputs, the environment, and the trace summary.
CLOCK_MONOTONIC is system-wide, so the parent can subtract its spawn time.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, as this process sees it."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_seen": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
    }


def main() -> int:
    result_path, mode, spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("probe", "sweep", "trace"):
        raise SystemExit(f"usage: {__doc__}")
    import otfsftn.cli as cli

    marks: dict = {}
    tracer = None
    if mode == "trace":
        from tracer import SWEEP, Tracer

        tracer = Tracer()
        tracer.install()

    def write(extra: dict) -> None:
        with open(result_path, "w") as f:
            json.dump({**marks, **extra}, f)

    def hook(sweep):
        def timed(*args, **kwargs):
            marks["t_sweep_call"] = time.monotonic()
            if mode == "probe":
                write({})
                raise SystemExit(0)
            return sweep(*args, **kwargs)

        return tracer.wrap(SWEEP, timed, root=True) if tracer else timed

    cli.run_rate_sweep = hook(cli.run_rate_sweep)
    cli.run_ber_sweep = hook(cli.run_ber_sweep)
    code = cli.main(cli_args)
    marks["t_done"] = time.monotonic()
    extra = {"env": environment()}
    if tracer is not None:
        extra["trace"] = tracer.summary()
        tracer.write(spans_path)
    write(extra)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
