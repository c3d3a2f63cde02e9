"""One benchmark pass in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json`` where the spec holds
``src`` (the directory tpspeckle must be imported from), ``outdir``,
``commands`` (a list of ``[id, argv]``), ``trace`` and ``probe``.

The child imports ``tpspeckle.cli``, which is the set-up every CLI user pays, and
then runs every command through ``tpspeckle.cli.main`` in this process,
so the lazy caches fill during the pass as they do for a CLI user.  A
probe only imports.  The child writes ``result.json`` into ``outdir``:
``import_done`` (the ``time.perf_counter`` reading after the import, on
the same monotonic clock as the parent), and for a pass also ``wall_s``,
the exit code of each command, ``rss_mb`` and an environment stamp.  A
traced pass adds per-layer metrics and writes its spans to ``spans``.
"""

import importlib
import json
import os
import resource
import sys
import time
import traceback

# symbol names of the OpenBLAS builds numpy and scipy ship
_BLAS_SYMBOLS = [(f"{prefix}get_config{suffix}", f"{prefix}get_num_threads{suffix}")
                 for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]


def _blas_libraries():
    """(OpenBLAS build string, thread count) for each OpenBLAS this process loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for config_name, threads_name in _BLAS_SYMBOLS:
            if hasattr(lib, config_name) and hasattr(lib, threads_name):
                config, threads = getattr(lib, config_name), getattr(lib, threads_name)
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                found.append((config().decode(), threads()))
                break
    return found


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = _blas_libraries()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": sorted({config for config, _ in blas}),
        "blas_threads": max((threads for _, threads in blas), default=None),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _run(cli, argv) -> int:
    """Exit code of one CLI command; a traceback counts as exit 1, as in a shell."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = importlib.import_module("tpspeckle.cli")  # the set-up being timed
    import_done = time.perf_counter()
    src = os.path.realpath(spec["src"])
    origin = os.path.realpath(cli.__file__)
    if os.path.commonpath([src, origin]) != src:
        sys.exit(f"tpspeckle was imported from {origin}, not from {src}")
    result = {"import_done": import_done}
    if not spec["probe"]:
        recorder = None
        if spec["trace"]:
            import tracer

            # by module path: the package re-exports a function named `correlation`
            layers = [importlib.import_module(f"tpspeckle.{m}") for m in ("rates", "montecarlo", "correlation")]
            recorder = tracer.install(cli, *layers)
        codes = {}
        start = time.perf_counter()
        for cmd_id, argv in spec["commands"]:
            codes[cmd_id] = _run(cli, argv + ["--out", os.path.join(spec["outdir"], cmd_id + ".csv")])
        wall = time.perf_counter() - start
        result.update(
            wall_s=wall,
            exit_codes=codes,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=_environment(),
        )
        if recorder is not None:
            result["layers"] = recorder.metrics()
            recorder.dump(spec["spans"])
    with open(os.path.join(spec["outdir"], "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
