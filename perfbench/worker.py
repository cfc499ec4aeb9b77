"""Benchmark worker: one fresh interpreter per set-up sample or measured run.

``run.py`` starts this script with ``src`` on PYTHONPATH. ``--mode setup``
imports isospec, writes the workload's inputs and stops; ``--mode run`` does
the same and then repeats the workload's CLI operation in-process for
``--seconds`` (a closed loop with one client), checking every output. With
``--trace 0`` the host's speed is measured around every operation
(``hostspeed.py``). With ``--trace 1`` operations alternate between untraced
and traced, so the tracing overhead is measured inside the run. The outcome
is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import hostspeed
from workloads import WORKLOADS


#: (config, thread count) symbols of the OpenBLAS builds numpy ships with
_OPENBLAS_SYMBOLS = [("scipy_openblas_get_config64_", "scipy_openblas_get_num_threads64_"),
                     ("scipy_openblas_get_config", "scipy_openblas_get_num_threads"),
                     ("openblas_get_config", "openblas_get_num_threads")]


def _openblas() -> dict:
    """OpenBLAS build string and thread count of the numpy in use, if found."""
    import numpy
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for config_name, threads_name in _OPENBLAS_SYMBOLS:
            config = getattr(lib, config_name, None)
            threads = getattr(lib, threads_name, None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"config": config().decode(), "threads": int(threads())}
    return {"config": None, "threads": None}


def metadata(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


class Probe:
    """Pass-through on ``isospec.cli.compare_spectra`` keeping both reports.

    ``verify --pipeline`` prints verdicts but not eigenvalues; the probe hands
    the two spectra it compared to the output check. It costs one Python call
    per operation.
    """

    def __init__(self):
        self.captured: list = []

    def install(self):
        from isospec import cli
        original = cli.compare_spectra

        def compare_spectra(ra, rb, *args, **kwargs):
            self.captured.append((ra, rb))
            return original(ra, rb, *args, **kwargs)

        cli.compare_spectra = compare_spectra
        return lambda: setattr(cli, "compare_spectra", original)


def run_op(workload, probe: Probe | None, recorder=None, op_id=None) -> dict:
    """One checked CLI invocation; returns wall, CPU and check outcome."""
    from isospec import cli
    argv = workload.argv()
    out, err = io.StringIO(), io.StringIO()
    restore = probe.install() if probe else None
    if probe:
        probe.captured.clear()
    rc, crash = None, ""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if recorder is None:
                rc = cli.main(argv)
            else:
                recorder.begin_op(op_id)
                with recorder.span("cli.main"):
                    rc = cli.main(argv)
    except SystemExit as exc:
        crash = f"SystemExit {exc.code}"
    except Exception:  # every failure of an operation is counted, not fatal
        crash = traceback.format_exc(limit=-1).strip().splitlines()[-1]
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if restore:
            restore()
    if crash:
        ok, reason, eig_err = False, crash, None
    else:
        res = workload.check(rc, out.getvalue(), probe.captured if probe else [])
        ok, reason, eig_err = res.ok, res.reason, res.eig_err
        if not ok and err.getvalue().strip():
            reason += f" ({err.getvalue().strip().splitlines()[-1]})"
    workload.op_index += 1
    return {"wall": wall, "cpu": cpu, "ok": ok, "reason": reason, "eig_err": eig_err}


def measure(workload, seconds: float, traced: bool, trace_file: str | None) -> dict:
    probe = Probe() if workload.wants_probe else None
    ops = []
    recorder = traced_ops = None
    # an untraced run times the calibration kernel either side of every
    # operation; host_chunk_s[i] is the mean chunk time around operation i
    host_chunk_s = []
    before = None if traced else hostspeed.calibrate()
    if traced:
        import layers
        from spans import Instrument, Recorder
        recorder, traced_ops = Recorder(), []
    deadline = time.perf_counter() + seconds
    while True:
        trace_this = traced and len(ops) % 2 == 1
        if trace_this:
            instrument = Instrument(recorder, "isospec")
            try:
                layers.install(instrument)
                ops.append(run_op(workload, probe, recorder, len(ops)))
            finally:
                instrument.restore()
            traced_ops.append(len(ops) - 1)
        else:
            ops.append(run_op(workload, probe))
            if not traced:
                after = hostspeed.calibrate(ops[-1]["wall"])
                host_chunk_s.append(statistics.fmean(before + after))
                before = after
        # a traced run needs one traced and two untraced operations: the first
        # operation pays first-call costs and is left out of the overhead ratio
        enough = not traced or (traced_ops and len(ops) - len(traced_ops) >= 2)
        if time.perf_counter() >= deadline and enough:
            break

    result = {
        "walls": [o["wall"] for o in ops],
        "cpus": [o["cpu"] for o in ops],
        "host_chunk_s": host_chunk_s,
        "failed": sum(not o["ok"] for o in ops),
        "reasons": sorted({o["reason"] for o in ops if not o["ok"]})[:5],
        "eig_errs": [o["eig_err"] for o in ops if o["eig_err"] is not None],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        untraced = [ops[i]["wall"] for i in range(1, len(ops)) if i not in traced_ops]
        per_layer, repeat = layers.summarize(recorder.spans, traced_ops, untraced)
        result["per_layer"] = per_layer
        result["counts_repeat"] = repeat
        result["traced_ops"] = len(traced_ops)
        if trace_file:
            with open(trace_file, "w") as f:
                json.dump(recorder.to_json_obj(), f)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, help="directory for the workload's inputs")
    ap.add_argument("--result", required=True, help="file receiving the JSON outcome")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    import isospec.cli  # noqa: F401  (set-up time includes the full import)
    workload = WORKLOADS[args.workload](args.dir, args.seed)
    workload.setup()
    result = {"ready": time.monotonic()}
    if args.mode == "run":
        result["meta"] = metadata(args.seed)
        result.update(measure(workload, args.seconds, bool(args.trace), args.trace_file))
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
