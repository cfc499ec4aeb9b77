"""Run the library and every CLI command with scipy blocked, in the current directory.

Usage: python cli_without_scipy.py (in an empty directory, with isospec
importable). Exits 0 when validate, example, spectrum --out --dump-path,
transform --out, verify of two problems and verify --pipeline --out all exit
0, the finite-difference oracle matches the closed form of the paper example,
and no scipy module is loaded; otherwise exits with a message.
"""

import contextlib
import io
import json
import sys

import numpy as np

sys.modules["scipy"] = None        # every import of scipy or a submodule now fails

import isospec  # noqa: E402
from isospec.cli import main  # noqa: E402


def run(*argv, stdout=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    if rc != 0:
        sys.exit(f"isospec {' '.join(argv)} exited {rc}")
    if stdout:
        with open(stdout, "w") as f:
            f.write(out.getvalue())


window = ["--min", "-5", "--max", "20"]
run("example", "paper-example-2x2", stdout="problem.json")
run("example", "paper-example-2x2", "--perturbation", stdout="pert.json")
run("validate", "problem.json")
run("spectrum", "problem.json", *window, "--dump-path", "2", "--out", "s")
run("transform", "problem.json", "pert.json", *window, "--out", "t")
# the transformed problem, its potential a spline through the written CSV
with open("problem.json") as f:
    problem = json.load(f)
with open("t/boundary.json") as f:
    boundary = json.load(f)
problem["potential"] = {"kind": "grid", "path": "t/q_potential.csv"}
problem["left"]["A"], problem["right"]["A"] = boundary["Atilde"], boundary["AtildeRight"]
with open("transformed.json", "w") as f:
    json.dump(problem, f)
run("verify", "problem.json", "transformed.json", *window)
run("verify", "problem.json", "pert.json", "--pipeline", *window, "--out", "v")

# the oracle on P = diag(-3, 0), Dirichlet: p_j + 4/h^2 sin^2(k h / 2), k = 1 .. 199
h = np.pi / 200
k = np.arange(1, 200)
exact = np.sort((np.array([-3.0, 0.0])[:, None] + 4 / h**2 * np.sin(k * h / 2) ** 2).ravel())
fd = isospec.fd_oracle_eigenvalues(isospec.builtin_problem("paper-example-2x2"), 201)
if fd.shape != exact.shape:
    sys.exit(f"the oracle gave {fd.size} eigenvalues; the closed form has {exact.size}")
err = np.max(np.abs(fd - exact) / np.abs(exact))
if not err <= 1e-9:
    sys.exit(f"the oracle is {err:.3e} off the closed form")

loaded = sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None)
sys.exit(f"isospec loaded {loaded}" if loaded else 0)
