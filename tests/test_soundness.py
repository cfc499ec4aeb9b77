"""Transform soundness: the re-scanned spectrum of every transformed builtin
matches the original for rank <= 2 selections from its first three eigenpairs
(tolerance 1e-3 at the 401-node grid; the measured shifts are orders of
magnitude smaller).
"""

import numpy as np
import pytest

import isospec as iso

WINDOWS = {
    "paper-example-2x2": (-5.0, 20.0),
    "scalar-zero": (0.5, 10.0),
    "free-2x2": (0.5, 5.0),
}

CASES = [
    ("scalar-zero", [(0, 1, 1.0)]),
    ("scalar-zero", [(0, 1, -0.5)]),
    ("scalar-zero", [(1, 1, 0.7), (2, 1, 2.0)]),
    ("free-2x2", [(0, 1, 1.5)]),
    ("free-2x2", [(0, 1, 0.4), (0, 2, -0.3)]),     # both branches of one eigenspace
    ("free-2x2", [(0, 2, 1.0), (1, 1, 0.8)]),
    ("paper-example-2x2", [(0, 1, -0.5)]),
    ("paper-example-2x2", [(1, 1, 2.0), (1, 2, 0.5)]),
    ("paper-example-2x2", [(0, 1, 0.8), (2, 1, 1.2)]),
]


@pytest.fixture(scope="module")
def base_reports():
    return {name: iso.scan_spectrum(iso.builtin_problem(name), *window)
            for name, window in WINDOWS.items()}


@pytest.mark.parametrize("name,entries", CASES)
def test_rank_le_2_transform_is_isospectral(base_reports, name, entries):
    problem = iso.builtin_problem(name)
    report = base_reports[name]
    pert = iso.build_perturbation(report, entries)
    new_problem, _ = iso.transform_problem(problem, pert)
    assert iso.validate_problem(new_problem).all_passed
    rescan = iso.scan_spectrum(new_problem, *WINDOWS[name])
    comparison = iso.compare_spectra(report, rescan, 1e-3)
    assert comparison.passed, (
        f"{name} with {entries}: shift {comparison.max_shift:.3e}, "
        f"multiplicities match: {comparison.multiplicity_match}"
    )


def test_check_isospectral_self_comparison_passes():
    scalar = iso.builtin_problem("scalar-zero")
    report = iso.check_isospectral(scalar, scalar, (0.5, 5.0), 1e-8)
    assert report.passed
