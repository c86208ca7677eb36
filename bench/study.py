"""One timed closeeval study in a fresh interpreter, as a CLI user runs it.

Usage: python3 bench/study.py JOB.json

JOB.json names the subcommand, the config file, the output directory, the
monotonic time at which the parent launched this process, and where to
write the result.  setup_s runs from that launch until just before the
study call, so it covers interpreter start and importing closeeval, numpy
and scipy.  study_s is one cli.main call, until every output is written.
With "trace" set, closeeval's layers are traced and the spans written to
the job's spans path once the study has finished.  With "setup_only" set,
the process stops just before the study call, which gives setup_s alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import sys
import time


def _blas_threads():
    """(library, thread count) of the BLAS that numpy loaded."""
    import numpy as np
    name = np.__config__.CONFIG["Build Dependencies"]["blas"]
    library = f"{name.get('name')} {name.get('version')}"
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return library, int(fn())
    return library, None


def peak_rss_mb() -> float:
    """Peak resident memory of this process image (VmHWM).

    Not ru_maxrss: Linux carries the launching process's peak across exec
    into ru_maxrss, so a large parent would inflate the reading.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])/1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def environment() -> dict:
    import numpy
    import scipy
    library, threads = _blas_threads()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": library,
            "blas_threads": threads}


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    from closeeval import cli
    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    argv = [job["command"], job["config"], "--out", job["out"]]
    with open(job["log"], "w") as log, contextlib.redirect_stdout(log):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        code = 0 if job.get("setup_only") else cli.main(argv)
        t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"exit": code, "setup_s": t0 - job["launched"],
              "study_s": t1 - t0, "peak_rss_mb": peak_rss_mb(),
              "closeeval": os.path.dirname(sys.modules["closeeval"].__file__),
              "env": environment()}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write(job["spans"])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
