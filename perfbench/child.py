"""Run one ``qpbreed`` CLI command in a fresh process and report on it.

Usage: ``python3 child.py REPORT TRACE -- ARGS...`` with ``qpbreed`` importable
(the benchmark puts ``src`` on ``PYTHONPATH``). The command runs through the
real entry point, ``qpbreed.cli.main(ARGS)``. REPORT receives one JSON object:
the exit code, the monotonic clock reading once ``qpbreed.cli`` is imported,
the time spent inside the entry point, the process's peak RSS, the versions
of the numerical stack and, with TRACE 1, the call spans and cache counts.
The process exits with the command's exit code.
"""

import json
import sys
import time

import qpbreed.cli

IMPORTED_AT = time.monotonic()

import os  # noqa: E402  (after the set-up clock reading, on purpose)
import resource  # noqa: E402


def blas_info() -> dict:
    """Name, version and thread count of the BLAS library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    info = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    info = {key: info.get(key) for key in ("name", "version")}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["threads"] = int(getattr(lib, symbol)())
                return info
    info["threads"] = None
    return info


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py REPORT TRACE -- ARGS...")
    argv = sys.argv[4:]
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    try:
        code = qpbreed.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    report = {
        "exit_code": code,
        "imported_at": IMPORTED_AT,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["bytes"] = dict(tracer.bytes)
        report["caches"] = spans.cache_stats()
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
