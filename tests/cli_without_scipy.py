"""Run every CLI command with scipy blocked, in the current directory.

Usage: python cli_without_scipy.py (in an empty directory, with isospec
importable). Exits 0 when validate, example, spectrum --out --dump-path,
transform --out, verify of two problems and verify --pipeline --out all exit
0 and no scipy module is loaded; otherwise exits with a message.
"""

import contextlib
import io
import json
import sys

sys.modules["scipy"] = None        # every import of scipy or a submodule now fails

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
loaded = sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None)
sys.exit(f"the CLI loaded {loaded}" if loaded else 0)
