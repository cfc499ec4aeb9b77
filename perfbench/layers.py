"""Which isospec functions the traced run wraps, and the per-layer metrics
computed from their spans.

A layer is a module of the package. Each wrapped function records a span
named ``<module>.<function>``; ``quadrature`` calls take well under a
millisecond and are left inside their callers' self time. Times and counts
are per operation: they are summed over the spans of one CLI invocation, so
work done on several threads can sum to more than the operation's wall time
(``cli.main.s``).
"""

from __future__ import annotations

import os
import statistics

import numpy as np

MB = 1024.0 * 1024.0


# ---------------------------------------------------------------------------
# counts taken from call arguments and return values

def _final_batch_counts(span, args, result):
    lambdas = int(np.size(args["lams"]))
    span.counts["lambdas"] = lambdas
    span.counts["rk4_steps"] = lambdas * (args["grid"].n - 1)


def _oracle_counts(span, args, result):
    span.counts["pencil_dim"] = args["p"].n * args["n_nodes"]
    span.counts["oracle_values"] = [float(v) for v in result]


def _scan_counts(span, args, result):
    lo, hi = args["lambda_min"], args["lambda_max"]
    span.counts["eigs_found"] = sum(p.multiplicity for p in result.pairs)
    span.counts["oracle_in_window"] = sum(
        sum(1 for v in c.counts.get("oracle_values", ()) if lo <= v <= hi)
        for c in span.children if c.name == "spectrum.fd_oracle_eigenvalues")


def _kernel_counts(span, args, result):
    span.counts["rank"] = result.rank


def _wave_counts(span, args, result):
    span.counts["residual"] = result.max_residual


def _compare_counts(span, args, result):
    span.counts["shift"] = result.max_shift


def _write_counts(span, args, result):
    span.counts["bytes"] = os.path.getsize(args["path"])


OTHER_RESIDUALS = ("verify.residual_goursat", "verify.residual_transformed_eigen",
                   "verify.residual_endpoint", "verify.residual_representation")


def install(instrument) -> None:
    """Wrap every traced isospec function through ``instrument``."""
    from isospec import model, ode, serialize, spectrum, transform, verify
    add = instrument.add
    add(ode.integrate_final_batch, "ode.integrate_final_batch", _final_batch_counts)
    add(ode.integrate_ivp, "ode.integrate_ivp")
    add(ode.potential_tables, "ode.potential_tables")
    add(spectrum.scan_spectrum, "spectrum.scan_spectrum", _scan_counts)
    add(spectrum.fd_oracle_eigenvalues, "spectrum.fd_oracle_eigenvalues", _oracle_counts)
    add(spectrum.eigenbasis, "spectrum.eigenbasis")
    add(transform.build_perturbation, "transform.build_perturbation")
    add(transform.transform_problem, "transform.transform_problem")
    add(transform.solve_kernel, "transform.solve_kernel", _kernel_counts)
    add(verify.residual_wave_equation, "verify.residual_wave_equation", _wave_counts,
        memory=True)
    for name in OTHER_RESIDUALS:
        add(getattr(verify, name.split(".")[1]), name)
    add(verify.compare_spectra, "verify.compare_spectra", _compare_counts)
    add(model.load_problem, "model.load_problem")
    add(serialize.write_json, "serialize.write_json", _write_counts)
    add(serialize.write_csv, "serialize.write_csv", _write_counts)


# ---------------------------------------------------------------------------
# per-operation metrics

class OpSpans:
    """The spans of one operation, grouped by name."""

    def __init__(self, spans):
        self.by_name: dict[str, list] = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)

    def calls(self, name):
        return len(self.by_name.get(name, ()))

    def seconds(self, *names):
        return sum(s.duration for n in names for s in self.by_name.get(n, ()))

    def share(self, *names):
        """Seconds in the named spans over the operation's wall time."""
        return self.seconds(*names) / self.seconds("cli.main")

    def self_seconds(self, name):
        return sum(s.self_time for s in self.by_name.get(name, ()))

    def total(self, name, key):
        return sum(s.counts.get(key, 0) for s in self.by_name.get(name, ()))

    def peak(self, name, key):
        return max((s.counts.get(key, 0) for s in self.by_name.get(name, ())), default=0)


def _per_eig(o: OpSpans):
    found = o.total("spectrum.scan_spectrum", "eigs_found")
    return o.total("ode.integrate_final_batch", "lambdas") / found if found else 0.0


IFB, SCAN, ORACLE = "ode.integrate_final_batch", "spectrum.scan_spectrum", "spectrum.fd_oracle_eigenvalues"
WAVE = "verify.residual_wave_equation"

#: (metric, unit, better, value from one operation's spans). Counts repeat
#: exactly between operations; times and shares are medians over operations.
#: A layer that some workload never enters reports its time as a share of the
#: operation (``.share``, 0 when absent) rather than in seconds, so that every
#: ``s`` metric is a time measured on every workload.
OP_METRICS = [
    (f"{IFB}.calls", "count", "lower", lambda o: o.calls(IFB)),
    (f"{IFB}.s", "s", "lower", lambda o: o.seconds(IFB)),
    (f"{IFB}.lambdas", "count", "lower", lambda o: o.total(IFB, "lambdas")),
    (f"{IFB}.rk4_steps", "count", "lower", lambda o: o.total(IFB, "rk4_steps")),
    ("ode.integrate_ivp.calls", "count", "lower", lambda o: o.calls("ode.integrate_ivp")),
    ("ode.integrate_ivp.s", "s", "lower", lambda o: o.seconds("ode.integrate_ivp")),
    ("ode.potential_tables.calls", "count", "lower", lambda o: o.calls("ode.potential_tables")),
    ("ode.potential_tables.s", "s", "lower", lambda o: o.seconds("ode.potential_tables")),
    (f"{SCAN}.calls", "count", "lower", lambda o: o.calls(SCAN)),
    (f"{SCAN}.s", "s", "lower", lambda o: o.seconds(SCAN)),
    (f"{SCAN}.self_s", "s", "lower", lambda o: o.self_seconds(SCAN)),
    (f"{ORACLE}.calls", "count", "lower", lambda o: o.calls(ORACLE)),
    (f"{ORACLE}.s", "s", "lower", lambda o: o.seconds(ORACLE)),
    (f"{ORACLE}.pencil_dim", "count", "lower", lambda o: o.peak(ORACLE, "pencil_dim")),
    ("spectrum.eigenbasis.calls", "count", "lower", lambda o: o.calls("spectrum.eigenbasis")),
    ("spectrum.eigenbasis.s", "s", "lower", lambda o: o.seconds("spectrum.eigenbasis")),
    ("spectrum.eigs_found", "count", "higher", lambda o: o.total(SCAN, "eigs_found")),
    ("spectrum.oracle_in_window", "count", "higher", lambda o: o.total(SCAN, "oracle_in_window")),
    ("spectrum.lambdas_per_eig", "1", "lower", _per_eig),
    ("transform.build_perturbation.share", "1", "lower",
     lambda o: o.share("transform.build_perturbation")),
    ("transform.transform_problem.share", "1", "lower",
     lambda o: o.share("transform.transform_problem")),
    ("transform.solve_kernel.calls", "count", "lower", lambda o: o.calls("transform.solve_kernel")),
    ("transform.solve_kernel.share", "1", "lower", lambda o: o.share("transform.solve_kernel")),
    ("transform.rank", "count", "lower", lambda o: o.peak("transform.solve_kernel", "rank")),
    (f"{WAVE}.share", "1", "lower", lambda o: o.share(WAVE)),
    (f"{WAVE}.peak_mb", "MB", "lower", lambda o: o.peak(WAVE, "peak_bytes") / MB),
    ("verify.residuals_other.share", "1", "lower", lambda o: o.share(*OTHER_RESIDUALS)),
    ("verify.compare_spectra.share", "1", "lower", lambda o: o.share("verify.compare_spectra")),
    ("verify.iso_shift_max", "1", "lower", lambda o: o.peak("verify.compare_spectra", "shift")),
    ("verify.wave_residual", "1", "lower", lambda o: o.peak(WAVE, "residual")),
    ("model.load_problem.calls", "count", "lower", lambda o: o.calls("model.load_problem")),
    ("model.load_problem.s", "s", "lower", lambda o: o.seconds("model.load_problem")),
    ("serialize.write_json.calls", "count", "lower", lambda o: o.calls("serialize.write_json")),
    ("serialize.write_json.share", "1", "lower", lambda o: o.share("serialize.write_json")),
    ("serialize.write_csv.calls", "count", "lower", lambda o: o.calls("serialize.write_csv")),
    ("serialize.write_csv.share", "1", "lower", lambda o: o.share("serialize.write_csv")),
    ("serialize.bytes_written", "B", "lower",
     lambda o: o.total("serialize.write_json", "bytes") + o.total("serialize.write_csv", "bytes")),
    ("cli.main.s", "s", "lower", lambda o: o.seconds("cli.main")),
]

#: traced operation time over untraced operation time, medians of each
OVERHEAD = ("trace.overhead_ratio", "1", "lower")

PER_LAYER = [(name, unit, better) for name, unit, better, _ in OP_METRICS] + [OVERHEAD]


def summarize(spans, traced_ops, untraced_walls) -> tuple[dict, bool]:
    """Per-layer metrics over the traced operations.

    Returns ({metric: (value, unit)}, whether every count repeated exactly).
    """
    per_op = {op: [] for op in traced_ops}
    for s in spans:
        if s.op in per_op:
            per_op[s.op].append(s)
    rows = [{name: fn(OpSpans(ss)) for name, _, _, fn in OP_METRICS} for ss in per_op.values()]
    out = {}
    repeat = True
    for name, unit, _, _ in OP_METRICS:
        values = [r[name] for r in rows]
        if unit == "s" or name.endswith("share"):
            out[name] = (statistics.median(values), unit)
        else:
            repeat = repeat and all(v == values[0] for v in values)
            out[name] = (values[0], unit)
    traced = statistics.median(r["cli.main.s"] for r in rows)
    out[OVERHEAD[0]] = (traced / statistics.median(untraced_walls), OVERHEAD[1])
    return out, repeat
