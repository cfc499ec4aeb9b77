"""Tests of the benchmark's own checks and span recorder.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import math
import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Instrument, Recorder  # noqa: E402
from workloads import (COUPLED4_DIAG, WINDOW, WORKLOADS,  # noqa: E402
                       dirichlet_spectrum, match_closed_form)

H401 = math.pi / 400


def _pairs(values):
    """(lambda, multiplicity) pairs from a sorted multiplicity-expanded list."""
    out = []
    for v in values:
        if out and v == out[-1][0]:
            out[-1] = (v, out[-1][1] + 1)
        else:
            out.append((v, 1))
    return out


class TestClosedFormCheck:
    exact = dirichlet_spectrum(COUPLED4_DIAG, *WINDOW)

    def test_closed_form_has_sixteen_values_and_a_double_at_one(self):
        assert len(self.exact) == 16
        assert self.exact.count(1.0) == 2

    def test_accepts_the_closed_form(self):
        err, reason = match_closed_form(_pairs(self.exact), self.exact, H401)
        assert err == 0.0 and reason == ""

    def test_rejects_one_eigenvalue_shifted_by_1e_3(self):
        pairs = _pairs(self.exact)
        pairs[5] = (pairs[5][0] + 1e-3, pairs[5][1])
        err, reason = match_closed_form(pairs, self.exact, H401)
        assert err is None and "from" in reason

    def test_rejects_a_dropped_multiplicity(self):
        pairs = [(lam, 1) for lam, _ in _pairs(self.exact)]
        err, reason = match_closed_form(pairs, self.exact, H401)
        assert err is None and "multiplicity" in reason

    def test_rejects_a_missing_eigenvalue(self):
        err, reason = match_closed_form(_pairs(self.exact)[:-1], self.exact, H401)
        assert err is None and "distinct" in reason

    def test_reports_the_known_high_lambda_error_instead_of_failing(self):
        exact = dirichlet_spectrum((0.0,), 0.5, 2600.0)
        pairs = _pairs(exact)
        pairs[-1] = (pairs[-1][0] + 0.94, 1)
        err, reason = match_closed_form(pairs, exact, H401)
        assert err == pytest.approx(0.94) and reason == ""


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TestRecorder:
    def test_self_time_is_duration_minus_child_time(self):
        rec = Recorder(clock=FakeClock([0.0, 2.0, 5.0, 6.0, 6.5, 10.0]))
        with rec.span("outer") as outer:
            with rec.span("child"):
                pass
            with rec.span("child"):
                pass
        assert outer.duration == 10.0
        assert outer.self_time == pytest.approx(10.0 - 3.0 - 0.5)
        assert all(s.self_time == s.duration for s in outer.children)

    def test_overlapping_children_count_once(self):
        rec = Recorder(clock=FakeClock([0.0, 10.0]))
        outer = rec.start("outer")
        rec.finish(outer)
        for lo, hi in ((1.0, 4.0), (2.0, 6.0), (8.0, 12.0)):
            child = type(outer)("child", None, 0, lo, outer)
            child.end = hi
            outer.children.append(child)
        assert outer.self_time == pytest.approx(10.0 - 5.0 - 2.0)

    def test_worker_thread_spans_take_the_operation_span_as_parent(self):
        rec = Recorder()
        rec.begin_op(7)
        with rec.span("verify.check_isospectral") as outer:
            threads = [threading.Thread(target=lambda: rec.finish(rec.start("scan")))
                       for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
        scans = [s for s in rec.spans if s.name == "scan"]
        assert len(scans) == 2
        assert all(s.parent is outer and s.op == 7 for s in scans)
        assert len({s.thread for s in scans} | {outer.thread}) == 3


class TestInstrument:
    def test_wraps_every_binding_and_restores_it(self):
        from isospec import cli, ode, spectrum, transform
        originals = (ode.integrate_ivp, spectrum.integrate_ivp, transform.integrate_ivp,
                     cli.integrate_ivp)
        rec = Recorder()
        ins = Instrument(rec, "isospec")
        try:
            layers.install(ins)
            wrapped = (ode.integrate_ivp, spectrum.integrate_ivp, transform.integrate_ivp,
                       cli.integrate_ivp)
            assert all(b is wrapped[0] and b is not originals[0] for b in wrapped)
        finally:
            ins.restore()
        assert (ode.integrate_ivp, spectrum.integrate_ivp, transform.integrate_ivp,
                cli.integrate_ivp) == originals

    def test_counts_come_from_arguments(self):
        import numpy as np
        from isospec import builtin_problem, spectrum
        from isospec.model import Grid
        rec = Recorder()
        ins = Instrument(rec, "isospec")
        try:
            layers.install(ins)
            spectrum.characteristic_matrix(builtin_problem("scalar-zero"), 1.0, Grid.uniform(21))
        finally:
            ins.restore()
        (span,) = [s for s in rec.spans if s.name == "ode.integrate_final_batch"]
        assert span.counts == {"lambdas": 1, "rk4_steps": 20}
        assert np.isfinite(span.duration)


class TestHostSpeed:
    def test_a_host_twice_as_slow_reads_the_same(self):
        ref = hostspeed.REF_CHUNK_S
        quiet = hostspeed.normalised([1.0, 3.0], [ref, ref])
        slow = hostspeed.normalised([2.0, 6.0], [2 * ref, 2 * ref])
        assert quiet == pytest.approx([1.0, 3.0]) and slow == pytest.approx(quiet)

    def test_calibration_scales_with_the_operation(self):
        assert len(hostspeed.calibrate()) == hostspeed.MIN_CHUNKS
        assert all(t > 0 for t in hostspeed.calibrate())
        long_op = hostspeed.REF_CHUNK_S * (hostspeed.MIN_CHUNKS + 1) / hostspeed.SHARE
        n = round(hostspeed.SHARE * long_op / hostspeed.REF_CHUNK_S)
        assert n > hostspeed.MIN_CHUNKS and len(hostspeed.calibrate(long_op)) == n


class TestBenchmarkFile:
    def test_names_match_the_code(self):
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
            bench = json.load(f)
        assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
        assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
        assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
        assert ([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
                == layers.PER_LAYER)
