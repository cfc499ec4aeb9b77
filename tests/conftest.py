import numpy as np
import pytest

import isospec as iso

import oracles


def transformed(problem, pert, **extra):
    """transform_problem's problem and kernel, with the transformed
    selections psi, dpsi, in one dict."""
    new_problem, kernel = iso.transform_problem(problem, pert)
    psi, dpsi = iso.transform_eigenfunction(kernel, pert.phis, pert.phi_derivs)
    return dict(extra, pert=pert, kernel=kernel, problem=new_problem, psi=psi, dpsi=dpsi)


@pytest.fixture(scope="session")
def paper():
    return iso.builtin_problem("paper-example-2x2")


@pytest.fixture(scope="session")
def scalar():
    return iso.builtin_problem("scalar-zero")


@pytest.fixture(scope="session")
def paper_report(paper):
    return iso.scan_spectrum(paper, -5.0, 20.0)


@pytest.fixture(scope="session")
def scalar_report(scalar):
    return iso.scan_spectrum(scalar, 0.5, 10.0)


@pytest.fixture(scope="session")
def mixed_rank_one(paper, paper_report):
    """Full rank-one pipeline for phi0 = (sin 2x, sin x), c = 1 at n = 401."""
    return transformed(paper, oracles.mixed_perturbation(paper_report))


@pytest.fixture(scope="session")
def mixed_rank_one_801(paper):
    report = iso.scan_spectrum(paper, -5.0, 20.0, iso.Grid.uniform(801))
    return transformed(paper, oracles.mixed_perturbation(report), report=report)


@pytest.fixture(scope="session")
def scalar_transform(scalar, scalar_report):
    return transformed(scalar, iso.build_perturbation(scalar_report, [(0, 1, 1.0)]))


@pytest.fixture(scope="session")
def neumann_left():
    """Scalar problem with phi'(0) = 0 on the left, Dirichlet on the right."""
    return iso.Problem(iso.ConstantDiagonalPotential([0.0]),
                       iso.BoundaryPair(np.zeros((1, 1)), np.eye(1)),
                       iso.BoundaryPair(np.eye(1), np.zeros((1, 1))))


@pytest.fixture(scope="session")
def neumann_transform(neumann_left):
    report = iso.scan_spectrum(neumann_left, 0.0, 8.0)
    return transformed(neumann_left, iso.build_perturbation(report, [(0, 1, 1.0)]), report=report)
