"""isospec benchmark: time the CLI's user-facing operations and check them.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-pipeline --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py`` and listed with their reasons in
``BENCHMARK.json``. Each run starts fresh interpreters (``worker.py``) with
``src`` on PYTHONPATH: a few that only set the workload up, to time set-up,
and one that sets up and then repeats the workload's operation for
``--seconds``. With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` the per-layer metrics from wrapped isospec functions, and the
spans are written to ``.perfbench_out/``. Operation times are reported scaled
to a reference host speed measured around each operation (``hostspeed.py``);
the raw medians are printed too. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-up samples per run, each in a fresh interpreter; the measured run's own
#: set-up is one of them
SETUP_SAMPLES = 5
#: every run ends well inside the 180 s a run may take
RUN_LIMIT_S = 170.0
OUT_DIR = ".perfbench_out"

#: op_s_norm and op_cpu_s_norm are operation wall and CPU times scaled to a
#: reference host speed (hostspeed.py); the raw medians are printed beside them
END_TO_END = [
    ("op_s_norm.p50", "s"),
    ("op_cpu_s_norm.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("eig_err_max", "1"),
]


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def start_worker(args, mode: str, workdir: str, result: str, timeout: float,
                 env: dict, trace_file: str | None = None) -> tuple[float, dict]:
    """Run worker.py to completion; returns (start time, its JSON outcome)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--dir", workdir,
           "--result", result, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    os.makedirs(workdir, exist_ok=True)
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, timeout=timeout, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"worker --mode {mode} exited {proc.returncode}")
    with open(result) as f:
        return t0, json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="isospec CLI benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = time.monotonic()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "isospec", "cli.py")):
        print("error: run from the root of an isospec checkout (src/isospec not found)",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("ISOSPEC_THREADS", None)     # measure the CLI's default parallelism

    out_root = os.path.join(root, OUT_DIR)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir = os.path.join(out_root, tag)
    trace_file = os.path.join(out_root, f"trace-{args.workload}-seed{args.seed}.json")
    try:
        setup_s = []
        # set-up time is an end-to-end metric; a traced run only needs its own set-up
        for k in range(0 if args.trace else SETUP_SAMPLES - 1):
            t0, res = start_worker(args, "setup", os.path.join(run_dir, f"setup{k}"),
                                   os.path.join(run_dir, f"setup{k}.json"),
                                   RUN_LIMIT_S - (time.monotonic() - started), env)
            setup_s.append(res["ready"] - t0)
        t0, res = start_worker(args, "run", os.path.join(run_dir, "run"),
                               os.path.join(run_dir, "run.json"),
                               RUN_LIMIT_S - (time.monotonic() - started), env,
                               trace_file if args.trace else None)
        setup_s.append(res["ready"] - t0)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    walls = res["walls"]
    attempted, failed = len(walls), res["failed"]
    meta = dict(res["meta"], git_sha=git_sha(root), workload=args.workload,
                seconds=args.seconds, trace=args.trace, ops=attempted)
    print("meta " + json.dumps(meta, sort_keys=True))
    print("op_s samples " + " ".join(f"{w:.4f}" for w in walls))
    for reason in res["reasons"]:
        print(f"failure: {reason}")

    if args.trace:
        metrics = {name: {"value": res["per_layer"][name][0], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        print(f"traced ops {res['traced_ops']} of {attempted}; "
              f"counts repeat exactly: {res['counts_repeat']}; spans in {trace_file}")
    else:
        eig_errs = res["eig_errs"]
        chunks = res["host_chunk_s"]
        values = {
            "op_s_norm.p50": statistics.median(hostspeed.normalised(walls, chunks)),
            "op_cpu_s_norm.p50": statistics.median(hostspeed.normalised(res["cpus"], chunks)),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": res["peak_rss_mb"],
            # no operation passed its check: report the worst representable error
            "eig_err_max": max(eig_errs) if eig_errs else sys.float_info.max,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"op_s.p50 {statistics.median(walls):.6g} s (raw)")
        print(f"op_cpu_s.p50 {statistics.median(res['cpus']):.6g} s (raw)")
        print(f"host chunk_s median {statistics.median(chunks):.6g} s "
              f"(reference {hostspeed.REF_CHUNK_S} s)")
        t = tail(walls)
        print("op_s.tail " + (f"{t[1]:.6g} s (p{t[0]:.1f} of {attempted} ops)" if t else
                              f"n/a s (no percentile has 10 of {attempted} ops beyond it; "
                              f"max {max(walls):.6g} s)"))
        print(f"fail_ratio {failed / attempted:.6g} 1 ({failed} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
