"""Config parsing, command pipelines, report files and determinism."""

import numpy as np
import pytest

import shapederiv as sd
from shapederiv.cli import main
from shapederiv.cli.config import parse_config
from shapederiv.cli.report import read_kv
from shapederiv.errors import ConfigError


def write(path, text):
    path.write_text(text)
    return str(path)


# --- config validation ---------------------------------------------------------


def test_unknown_command():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent", "frobnicate")


def test_unknown_section_and_key(tmp_path):
    cfg = write(tmp_path / "a.cfg", "[wat]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(cfg, "stokes-solve")
    cfg = write(tmp_path / "b.cfg", "[mesh]\nkind = unit_square\nbanana = 3\n")
    with pytest.raises(ConfigError, match="banana"):
        parse_config(cfg, "stokes-solve")


def test_command_mismatch(tmp_path):
    cfg = write(tmp_path / "a.cfg", "[run]\ncommand = qp-demo\n")
    with pytest.raises(ConfigError, match="command"):
        parse_config(cfg, "convergence")


def test_s_list_must_decrease(tmp_path):
    cfg = write(tmp_path / "a.cfg", "[run]\ns_list = 1e-3 1e-2\n")
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config(cfg, "qp-demo")
    cfg = write(tmp_path / "b.cfg", "[run]\ns_list = 1e-2 -1e-3\n")
    with pytest.raises(ConfigError, match="positive"):
        parse_config(cfg, "qp-demo")


FD_SQUARE = {
    ("run", "s_list"): "1e-2 1e-3",
    ("mesh", "kind"): "unit_square",
    ("mesh", "n"): "2",
    ("mesh", "neumann_sides"): "right",
    ("velocity", "kind"): "affine",
    ("velocity", "matrix"): "0.3 0.1 -0.2 0.15",
    ("force", "name"): "trig",
}


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("run", "steps", "abc"),
        ("run", "s_list", "1e-2 nan"),
        ("run", "omega", "inf"),
        ("mesh", "n", "0"),
        ("mesh", "n", "2.5"),
        ("velocity", "window", "0.1 0.85 -1 2"),  # with the ramp below: out of range
        ("force", "scale", "nan"),
        ("tolerances", "residual_tol", "nan"),
        ("tolerances", "max_iter", "0"),
        ("tolerances", "max_iter", "0.5"),
        ("tolerances", "max_iter", "2.5"),
    ],
)
def test_malformed_numbers_exit_2(tmp_path, capsys, section, key, value):
    entries = dict(FD_SQUARE)
    entries[(section, key)] = value
    if key == "window":
        entries[("velocity", "ramp")] = "0.9"
    sections = {}
    for (sec, k), v in entries.items():
        sections.setdefault(sec, []).append(f"{k} = {v}")
    text = "\n\n".join(f"[{sec}]\n" + "\n".join(lines) for sec, lines in sections.items())
    cfg = write(tmp_path / "bad.cfg", text + "\n")
    assert main(["fd-verify", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ConfigError:")


def _qp_cut_after_a(tmp_path):
    qp = sd.ConeQP(A=np.eye(2), B=np.eye(2), f=np.array([1.0, 2.0]))
    path = tmp_path / "inst.txt"
    sd.save_qp(path, qp)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: lines.index("B 2 2") + 1]) + "\n")
    return "qp-demo", f"[qp]\npath = {path}\n", "block B expects 2 row(s), the file ends at line 6"


def _qp_blocks_disagree(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("cone-qp v1\ncone inequality\nA 2 2\n1 0\n0 1\nB 1 3\n1 0 0\nf 2\n1 1\n")
    return "qp-demo", f"[qp]\npath = {path}\n", "line 6: block B has shape (1, 3)"


def _qp_perturbation_disagrees(tmp_path):
    qp = sd.ConeQP(A=np.eye(2), B=np.eye(2), f=np.array([1.0, 2.0]))
    direction = sd.PerturbationDirection(A1=np.zeros((2, 2)), B1=np.zeros((1, 2)), f1=np.zeros(2))
    path = tmp_path / "inst.txt"
    sd.save_qp(path, qp, direction)
    return "qp-demo", f"[qp]\npath = {path}\n", "block B1 has shape (1, 2), expected (2, 2)"


def _qp_missing_file(tmp_path):
    return "qp-demo", f"[qp]\npath = {tmp_path / 'absent.txt'}\n", "absent.txt"


def _mesh_cut_in_half(tmp_path):
    path = tmp_path / "mesh.txt"
    sd.write_mesh(path, sd.unit_square_mesh(2))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    text = f"[mesh]\nkind = file\npath = {path}\n\n[force]\nname = constant\nvalue = 1 0\n"
    return "stokes-solve", text, "block T"


@pytest.mark.parametrize(
    "case",
    [_qp_missing_file, _qp_cut_after_a, _qp_blocks_disagree, _qp_perturbation_disagrees, _mesh_cut_in_half],
)
def test_malformed_input_files_exit_2(tmp_path, capsys, case):
    command, text, where = case(tmp_path)
    cfg = write(tmp_path / "run.cfg", text)
    assert main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:")
    assert where in err


def test_missing_sections_reported(tmp_path):
    cfg = write(tmp_path / "a.cfg", "[mesh]\nkind = unit_square\n")
    with pytest.raises(ConfigError, match="force"):
        parse_config(cfg, "stokes-solve")
    cfg = write(tmp_path / "b.cfg", "[force]\nname = trig\n")
    with pytest.raises(ConfigError, match="mesh"):
        parse_config(cfg, "fd-verify")


def test_exit_codes(tmp_path):
    bad = write(tmp_path / "bad.cfg", "[mesh]\nkind = unit_square\nbanana = 1\n")
    assert main(["stokes-solve", "--config", bad, "--output", str(tmp_path / "o")]) == 2
    # valid config, module-level failure: pure-Dirichlet square without pinning
    cfg = write(
        tmp_path / "sing.cfg",
        "[mesh]\nkind = unit_square\nn = 2\n\n[force]\nname = trig\n\n[velocity]\nkind = zero\n",
    )
    assert main(["shape-derivative", "--config", cfg, "--output", str(tmp_path / "o2")]) == 1


# --- pipelines ------------------------------------------------------------------


def test_stokes_solve_pipeline(tmp_path):
    cfg = write(
        tmp_path / "run.cfg",
        "[mesh]\nkind = unit_square\nn = 4\nneumann_sides = right\n\n"
        "[force]\nname = constant\nvalue = 1 0\n",
    )
    out = tmp_path / "out"
    assert main(["stokes-solve", "--config", cfg, "--output", str(out)]) == 0
    kv = read_kv(out / "report.kv")
    assert float(kv["result.u_max"]) <= 1e-9
    assert kv["config.mesh.kind"] == "unit_square"
    assert int(kv["result.solver_iterations"]) > 0
    assert f"{kv['result.solver_iterations']} Schur-complement CG iterations" in (
        out / "summary.txt"
    ).read_text()
    # nodal pressure matches x1 - 1
    rows = (out / "pressure.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        _, x, _, lam = row.split(",")
        assert abs(float(lam) - (float(x) - 1.0)) <= 1e-9
    assert (out / "summary.txt").exists() and (out / "velocity.csv").exists()


def test_fd_verify_zero_field_reports_exact(tmp_path):
    cfg = write(
        tmp_path / "run.cfg",
        "[mesh]\nkind = unit_square\nn = 2\nneumann_sides = right\n\n"
        "[velocity]\nkind = zero\n\n[force]\nname = trig\n",
    )
    out = tmp_path / "out"
    assert main(["fd-verify", "--config", cfg, "--output", str(out)]) == 0
    kv = read_kv(out / "report.kv")
    assert kv["result.slope"] == "exact"
    assert "exact (all errors 0)" in (out / "summary.txt").read_text()


def test_qp_demo_bundled_instance(tmp_path):
    cfg = write(tmp_path / "run.cfg", "[run]\ns_list = 1e-2 3e-3 1e-3\n\n[tolerances]\nmax_iter = 200\n")
    out = tmp_path / "out"
    assert main(["qp-demo", "--config", cfg, "--output", str(out)]) == 0
    kv = read_kv(out / "report.kv")
    assert kv["config.tolerances.max_iter"] == "200"
    assert kv["result.cone"] == "equality"
    assert kv["result.active_set_steps"] == "0"
    assert int(kv["result.n"]) == 6
    assert float(kv["result.slope"]) >= 1.8
    table = (out / "fd_table.csv").read_text().strip().splitlines()
    assert table[0] == "s,fd,L1,abs_err"
    assert len(table) == 4


def test_qp_demo_custom_instance(tmp_path):
    qp = sd.ConeQP(A=np.eye(2), B=np.eye(2), f=np.array([1.0, 2.0]), cone=sd.ConeKind.EQUALITY)
    path = tmp_path / "inst.txt"
    sd.save_qp(path, qp)
    cfg = write(tmp_path / "run.cfg", f"[qp]\npath = {path}\n")
    out = tmp_path / "out"
    assert main(["qp-demo", "--config", cfg, "--output", str(out)]) == 0
    kv = read_kv(out / "report.kv")
    assert kv["result.u"].split() == ["0", "0"]
    assert "result.L1" not in kv  # no perturbation block in the file
    # u >= 0 with f = (1, -2): constraint 1 enters, a full step, then the stop test
    qp = sd.ConeQP(A=np.eye(2), B=np.eye(2), f=np.array([1.0, -2.0]))
    sd.save_qp(path, qp)
    assert main(["qp-demo", "--config", cfg, "--output", str(out)]) == 0
    kv = read_kv(out / "report.kv")
    assert kv["result.u"].split() == ["1", "0"]
    assert kv["result.active_set_steps"] == "3"
    assert "3 active-set steps" in (out / "summary.txt").read_text()


def test_fd_verify_pipeline_slope(tmp_path):
    cfg = write(
        tmp_path / "run.cfg",
        "[run]\ns_list = 1e-2 3e-3 1e-3\n\n"
        "[mesh]\nkind = unit_square\nn = 8\nneumann_sides = right\n\n"
        "[velocity]\nkind = affine\nmatrix = 0.3 0.1 -0.2 0.15\nb = 0.05 -0.04\n\n"
        "[force]\nname = trig\n",
    )
    out = tmp_path / "out"
    assert main(["fd-verify", "--config", cfg, "--output", str(out)]) == 0
    kv = read_kv(out / "report.kv")
    assert float(kv["result.slope"]) >= 1.8


def test_corollary3_pipeline(tmp_path):
    cfg = write(
        tmp_path / "run.cfg",
        "[run]\nomega = 1.0\ns_list = 1e-2 1e-3\n\n[mesh]\nkind = disk\nrings = 2\n\n"
        "[force]\nname = rotational\n",
    )
    out = tmp_path / "out"
    assert main(["corollary3", "--config", cfg, "--output", str(out)]) == 0
    kv = read_kv(out / "report.kv")
    assert kv["result.slope"] == "exact"
    assert abs(float(kv["result.L1"])) <= 1e-10


def test_convergence_pipeline(tmp_path):
    cfg = write(tmp_path / "run.cfg", "[run]\nn_list = 2 4\n")
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--output", str(out)]) == 0
    rows = (out / "convergence.csv").read_text().strip().splitlines()
    assert rows[0] == "n,h,h1_error,order"
    assert len(rows) == 3


def test_mesh_from_file(tmp_path):
    mesh = sd.unit_square_mesh(2, {"right"})
    mesh_path = tmp_path / "m.txt"
    sd.write_mesh(mesh_path, mesh)
    cfg = write(
        tmp_path / "run.cfg",
        f"[mesh]\nkind = file\npath = {mesh_path}\n\n[force]\nname = constant\nvalue = 1 0\n",
    )
    out = tmp_path / "out"
    assert main(["stokes-solve", "--config", cfg, "--output", str(out)]) == 0
    kv = read_kv(out / "report.kv")
    assert float(kv["result.u_max"]) <= 1e-9


def test_reports_are_byte_identical(tmp_path):
    cfg = write(
        tmp_path / "run.cfg",
        "[run]\ns_list = 1e-2 3e-3\n\n"
        "[mesh]\nkind = unit_square\nn = 4\nneumann_sides = right\n\n"
        "[velocity]\nkind = affine\nmatrix = 0.3 0.1 -0.2 0.15\n\n[force]\nname = trig\n",
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["fd-verify", "--config", cfg, "--output", str(out1)]) == 0
    assert main(["fd-verify", "--config", cfg, "--output", str(out2)]) == 0
    assert (out1 / "report.kv").read_bytes() == (out2 / "report.kv").read_bytes()
    assert (out1 / "fd_table.csv").read_bytes() == (out2 / "fd_table.csv").read_bytes()
    # stokes-solve adds the CG iteration count and the lobpcg inf-sup estimate
    out3, out4 = tmp_path / "o3", tmp_path / "o4"
    assert main(["stokes-solve", "--config", cfg, "--output", str(out3)]) == 0
    assert main(["stokes-solve", "--config", cfg, "--output", str(out4)]) == 0
    assert (out3 / "report.kv").read_bytes() == (out4 / "report.kv").read_bytes()
    # qp-demo on the bundled instance adds the active-set step count
    out5, out6 = tmp_path / "o5", tmp_path / "o6"
    assert main(["qp-demo", "--config", cfg, "--output", str(out5)]) == 0
    assert main(["qp-demo", "--config", cfg, "--output", str(out6)]) == 0
    assert (out5 / "report.kv").read_bytes() == (out6 / "report.kv").read_bytes()
    assert (out5 / "fd_table.csv").read_bytes() == (out6 / "fd_table.csv").read_bytes()
