"""Print the sha256 prefix of every report file of a fixed set of CLI runs,
and of the vectors of one library run.

    PYTHONPATH=src python tests/report_digests.py

Each line reads ``<config> <file> <sha256[:16]>``.  A change meant to keep
the digits prints the same lines before and after; one that moves them
shows which reports moved, to be stated with their keys.  The runs are the
report configs of ``tests/test_cli.py`` (fd-verify on the n=8 square;
fd-verify and corollary3, with the trig and the rotational force, on the
two-ring disk and the clamped n=4 square; the configs of
``test_reports_are_byte_identical`` and ``test_convergence_pipeline``) and
the seed-3 inputs of the fd-square (n=32) and cli-solve benchmark
workloads.  The gradient-sweep workload writes no report: its two lines
hash, as little-endian float64 bytes, the seed-3 unit's clamped cold
solve on ``disk_mesh(24)`` (u then lambda, ``u_lam``) and its 25 L1
values in direction order (``L1``).  Not a ``test_*`` file: pytest does
not collect it.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repo root, for perfbench

import numpy as np  # noqa: E402

import shapederiv as sd  # noqa: E402
from perfbench.workloads import CliSolve, FdSquare, GradientSweep  # noqa: E402
from shapederiv.cli import main  # noqa: E402

_SQUARE8 = "[mesh]\nkind = unit_square\nn = 8\nneumann_sides = right\n\n"
_SQUARE4 = "[mesh]\nkind = unit_square\nn = 4\nneumann_sides = right\n\n"
_AFFINE = "[velocity]\nkind = affine\nmatrix = 0.3 0.1 -0.2 0.15\n\n"
_ROTATION = "[velocity]\nkind = rotation\nomega = 1.0\n\n"
_TRIG = "[force]\nname = trig\n\n"
_RUN = "[run]\ns_list = 1e-2 1e-3\n\n"
_COROLLARY3 = "[run]\nomega = 1.0\ns_list = 1e-2 1e-3\n\n"

# name -> (command, config text)
_RUNS = {
    "fd-verify-square8": (
        "fd-verify",
        "[run]\ns_list = 1e-2 3e-3 1e-3\n\n" + _SQUARE8
        + "[velocity]\nkind = affine\nmatrix = 0.3 0.1 -0.2 0.15\nb = 0.05 -0.04\n\n" + _TRIG,
    ),
    "fd-verify-disk2": ("fd-verify", _RUN + "[mesh]\nkind = disk\nrings = 2\n\n" + _TRIG + _ROTATION),
    "fd-verify-clamped4": ("fd-verify", _RUN + "[mesh]\nkind = unit_square\nn = 4\n\n" + _TRIG + _ROTATION),
    "corollary3-disk2": ("corollary3", _COROLLARY3 + "[mesh]\nkind = disk\nrings = 2\n\n[force]\nname = rotational\n"),
    "corollary3-clamped4": ("corollary3", _COROLLARY3 + "[mesh]\nkind = unit_square\nn = 4\n\n[force]\nname = rotational\n"),
    "corollary3-trig-disk2": ("corollary3", _COROLLARY3 + "[mesh]\nkind = disk\nrings = 2\n\n" + _TRIG),
    "corollary3-trig-clamped4": ("corollary3", _COROLLARY3 + "[mesh]\nkind = unit_square\nn = 4\n\n" + _TRIG),
    "fd-verify-square4": ("fd-verify", "[run]\ns_list = 1e-2 3e-3\n\n" + _SQUARE4 + _AFFINE + _TRIG),
    "shape-derivative-square4": ("shape-derivative", _SQUARE4 + _AFFINE + _TRIG),
    "stokes-solve-square4": ("stokes-solve", _SQUARE4 + _TRIG),
    "qp-demo": ("qp-demo", "[run]\ns_list = 1e-2 3e-3\n"),
    "convergence": ("convergence", "[run]\nn_list = 2 4\n"),
}
_SEED = 3
_WORKLOADS = {"fd-square-n32": ("fd-verify", FdSquare()), "cli-solve-n24": ("stokes-solve", CliSolve())}


def _digests(name: str, out: Path) -> list[str]:
    return [f"{name} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()[:16]}" for path in sorted(out.iterdir())]


def _sha(values: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()[:16]


def _sweep_digests(workdir: str) -> list[str]:
    """The seed-3 gradient-sweep unit's calls: one solve, then L1 per direction."""
    data = GradientSweep().setup(_SEED, workdir).data
    system = sd.assemble(data["mesh"], data["force"])
    solution = sd.solve_stokes(system, pin_pressure=True)
    l1 = [
        sd.stokes_shape_derivative(system, solution, sd.assemble_perturbation(system.space, fld, data["force"]), fld).L1
        for fld in data["fields"]
    ]
    name = "gradient-sweep-disk24"
    return [f"{name} u_lam {_sha(np.concatenate([solution.u, solution.lam]))}", f"{name} L1 {_sha(l1)}"]


def main_digests() -> int:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for name, (command, text) in _RUNS.items():
            cfg = os.path.join(tmp, f"{name}.cfg")
            Path(cfg).write_text(text, encoding="ascii")
            runs[name] = (command, cfg)
        for name, (command, workload) in _WORKLOADS.items():
            work = os.path.join(tmp, name)
            os.mkdir(work)
            runs[name] = (command, workload.setup(_SEED, work).files[0])
        for name, (command, cfg) in runs.items():
            out = Path(tmp) / f"{name}-out"
            if main([command, "--config", cfg, "--output", str(out)]) != 0:
                print(f"{name}: {command} failed", file=sys.stderr)
                return 1
            lines += _digests(name, out)
        lines += _sweep_digests(tmp)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
