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
    # [DEFAULT] is not a section to configparser; its keys are still checked
    cfg = write(tmp_path / "c.cfg", "[DEFAULT]\nbanana = 1\ns_list = 5\n")
    with pytest.raises(ConfigError, match=r"\[DEFAULT\].*banana"):
        parse_config(cfg, "qp-demo")


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


def _every_key(mesh_kind):
    return (
        "[run]\ncommand = fd-verify\nsteps = 16\ns_list = 2e-2 5e-3 1e-3\nn_list = 2 4\nomega = 0.7\n\n"
        f"[mesh]\nkind = {mesh_kind}\nn = 3\nrings = 2\nneumann_sides = right, top\npath = mesh.txt\n\n"
        "[velocity]\nkind = quadratic\nb = 0.05 -0.04\nmatrix = 0.3 0.1 -0.2 0.15\nomega = 0.5\n"
        "coeffs = 0 0.1 0 0.2 0 0.3 0 0 0.1 0 0.2 0.1\nwindow = 0.1 0.9 0.2 0.8\nramp = 0.3\n\n"
        "[force]\nname = constant\nvalue = 1 0.5\nscale = 1.5\n\n"
        "[traction]\nname = constant-left\nvalue = 3 0.25\n\n"
        "[qp]\npath = qp.txt\n\n"
        "[tolerances]\nresidual_tol = 1e-8\nmax_iter = 50\n"
    )


_RESOLVED_RUN = [
    ("config.command", "fd-verify"),
    ("config.run.steps", "16"),
    ("config.run.s_list", "0.02 0.0050000000000000001 0.001"),
    ("config.run.n_list", "2 4"),
    ("config.run.omega", "0.69999999999999996"),
]
_RESOLVED_MESH = {
    "unit_square": [
        ("config.mesh.kind", "unit_square"),
        ("config.mesh.n", "3"),
        ("config.mesh.neumann_sides", "right top"),
    ],
    "disk": [("config.mesh.kind", "disk"), ("config.mesh.rings", "2")],
    "file": [("config.mesh.kind", "file"), ("config.mesh.path", "mesh.txt")],
}
_RESOLVED_REST = [
    ("config.velocity.kind", "quadratic"),
    ("config.velocity.b", "0.050000000000000003 -0.040000000000000001"),
    (
        "config.velocity.coeffs",
        "0 0.10000000000000001 0 0.20000000000000001 0 0.29999999999999999 "
        "0 0 0.10000000000000001 0 0.20000000000000001 0.10000000000000001",
    ),
    ("config.velocity.matrix", "0.29999999999999999 0.10000000000000001 -0.20000000000000001 0.14999999999999999"),
    ("config.velocity.omega", "0.5"),
    ("config.velocity.ramp", "0.29999999999999999"),
    ("config.velocity.window", "0.10000000000000001 0.90000000000000002 0.20000000000000001 0.80000000000000004"),
    ("config.force.name", "constant"),
    ("config.force.scale", "1.5"),
    ("config.force.value", "1 0.5"),
    ("config.traction.name", "constant-left"),
    ("config.traction.value", "3 0.25"),
    ("config.qp.path", "qp.txt"),
    ("config.tolerances.max_iter", "50"),
    ("config.tolerances.residual_tol", "1e-08"),
]


@pytest.mark.parametrize("mesh_kind", sorted(_RESOLVED_MESH))
def test_resolved_config_golden(tmp_path, mesh_kind):
    # Every key of every section is set; the mesh kind picks which mesh keys
    # are recorded.  Order and digits are part of report.kv's format.
    cfg = parse_config(write(tmp_path / "all.cfg", _every_key(mesh_kind)), "fd-verify")
    assert cfg.resolved_items() == _RESOLVED_RUN + _RESOLVED_MESH[mesh_kind] + _RESOLVED_REST


def test_traction_value_is_recorded(tmp_path):
    base = (
        "[mesh]\nkind = unit_square\nn = 4\nneumann_sides = left right\n\n"
        "[force]\nname = constant\nvalue = 1 0\n\n[traction]\nname = constant-left\n"
    )
    kv = {}
    for value in ("2 0", "5 0"):
        out = tmp_path / value.replace(" ", "_")
        assert main(["stokes-solve", "--config", write(tmp_path / "t.cfg", base + f"value = {value}\n"), "--output", str(out)]) == 0
        kv[value] = read_kv(out / "report.kv")
    assert kv["2 0"]["config.traction.value"] == "2 0"
    assert kv["5 0"]["config.traction.value"] == "5 0"
    # the two runs differ only in the traction, and so do their results
    assert float(kv["5 0"]["result.lambda_max"]) - float(kv["2 0"]["result.lambda_max"]) == pytest.approx(3.0, abs=1e-9)


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
        ("run", "s_list", ""),
        ("run", "n_list", ""),
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


def _qp_block_repeated(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("cone-qp v1\ncone inequality\nA 1 1\n1\nA 1 1\n5\nB 1 1\n1\nf 1\n1\n")
    return "qp-demo", f"[qp]\npath = {path}\n", "line 5: block A repeats the one at line 3"


def _qp_missing_file(tmp_path):
    return "qp-demo", f"[qp]\npath = {tmp_path / 'absent.txt'}\n", "absent.txt"


def _mesh_cut_in_half(tmp_path):
    path = tmp_path / "mesh.txt"
    sd.write_mesh(path, sd.unit_square_mesh(2))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    text = f"[mesh]\nkind = file\npath = {path}\n\n[force]\nname = constant\nvalue = 1 0\n"
    return "stokes-solve", text, "block T"


def _mesh_overlapping_triangles(tmp_path):
    # Both triangles are counterclockwise with their apex above edge 0 -> 1,
    # so they cover the same ground and share that edge in one direction.
    path = tmp_path / "mesh.txt"
    path.write_text(
        "tri-mesh v1\nV 4\n0 0\n1 0\n0.5 1\n0.6 0.5\nT 2\n0 1 2\n0 1 3\n"
        "E 5\n0 1 D\n1 2 D\n2 0 N\n1 3 D\n3 0 D\n"
    )
    text = f"[mesh]\nkind = file\npath = {path}\n\n[force]\nname = constant\nvalue = 1 0\n"
    return "stokes-solve", text, "edge 0 -> 1 appears twice in the same direction"


def _qp_path_empty(tmp_path):
    # an empty path used to fall back to the bundled instance without a word
    return "qp-demo", "[qp]\npath =\n", "qp.path is empty"


def _corollary3_mesh_file_with_neumann_edge(tmp_path):
    path = tmp_path / "mesh.txt"
    sd.write_mesh(path, sd.unit_square_mesh(2, {"right"}))
    text = f"[mesh]\nkind = file\npath = {path}\n\n[force]\nname = trig\n"
    return "corollary3", text, f"mesh file {path}: corollary3 needs a pure-Dirichlet mesh"


def _traction_constant_left_without_left_neumann_edge(tmp_path):
    # constant-left acts only left of x = 1/2; with the right side Neumann it
    # used to apply no load without a word
    text = (
        "[mesh]\nkind = unit_square\nn = 4\nneumann_sides = right\n\n"
        "[force]\nname = constant\nvalue = 1 0\n\n[traction]\nname = constant-left\nvalue = 2 0\n"
    )
    return "stokes-solve", text, "traction 'constant-left' applies no load"


@pytest.mark.parametrize(
    "case",
    [
        _qp_missing_file,
        _qp_path_empty,
        _qp_cut_after_a,
        _qp_blocks_disagree,
        _qp_perturbation_disagrees,
        _qp_block_repeated,
        _mesh_cut_in_half,
        _mesh_overlapping_triangles,
        _corollary3_mesh_file_with_neumann_edge,
        _traction_constant_left_without_left_neumann_edge,
    ],
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


def test_exit_codes(tmp_path, capsys):
    bad = write(tmp_path / "bad.cfg", "[mesh]\nkind = unit_square\nbanana = 1\n")
    assert main(["stokes-solve", "--config", bad, "--output", str(tmp_path / "o")]) == 2
    # valid config, module-level failure: no Dirichlet edge leaves the velocity free
    cfg = write(
        tmp_path / "sing.cfg",
        "[mesh]\nkind = unit_square\nn = 2\nneumann_sides = left right bottom top\n\n"
        "[force]\nname = trig\n\n[velocity]\nkind = zero\n",
    )
    assert main(["shape-derivative", "--config", cfg, "--output", str(tmp_path / "o2")]) == 1
    assert capsys.readouterr().err.endswith("error: EmptyDirichletBoundary: no Dirichlet edges: velocity stiffness would be singular\n")


def test_pure_dirichlet_mesh_pins_the_pressure(tmp_path):
    # Without a Neumann edge the pressure is fixed only up to a constant:
    # fd-verify and shape-derivative pin it, as stokes-solve and corollary3 do.
    text = (
        "[run]\nomega = 1.0\ns_list = 1e-2 1e-3\n\n[mesh]\nkind = disk\nrings = 2\n\n"
        "[force]\nname = trig\n\n[velocity]\nkind = rotation\nomega = 1.0\n"
    )
    cfg = write(tmp_path / "run.cfg", text)
    kv = {}
    for command in ("fd-verify", "shape-derivative", "corollary3"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--output", str(out)]) == 0
        kv[command] = read_kv(out / "report.kv")
    assert kv["fd-verify"]["result.L1"] == kv["corollary3"]["result.L1"]
    assert kv["shape-derivative"]["result.L1"] == kv["fd-verify"]["result.L1"]
    assert (tmp_path / "fd-verify" / "fd_table.csv").read_bytes() == (tmp_path / "corollary3" / "fd_table.csv").read_bytes()


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


def test_qp_demo_max_iter_bounds_the_fd_re_solves(tmp_path, capsys):
    # The base solve takes 7 active-set steps, the re-solve at s = +1e-2 takes 10.
    rng = np.random.default_rng(38)
    q = rng.standard_normal((6, 6))
    qp = sd.ConeQP(A=q @ q.T + np.eye(6), B=rng.standard_normal((5, 6)), f=rng.standard_normal(6))
    direction = sd.PerturbationDirection(
        A1=np.zeros((6, 6)), B1=rng.standard_normal((5, 6)), f1=rng.standard_normal(6)
    )
    assert sd.solve_saddle_point(qp).iterations == 7
    path = tmp_path / "inst.txt"
    sd.save_qp(path, qp, direction)
    for max_iter, code in ((7, 1), (10, 0)):
        cfg = write(
            tmp_path / "run.cfg",
            f"[run]\ns_list = 1e-2 1e-3\n\n[qp]\npath = {path}\n\n[tolerances]\nmax_iter = {max_iter}\n",
        )
        assert main(["qp-demo", "--config", cfg, "--output", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err.startswith("error: MaxIterations:")


def test_qp_demo_even_family_is_not_exact(tmp_path):
    # E(s) = -1/2 (1 + s^2): every central quotient equals L1 = 0, but the
    # forward quotient is off by s/2, so the table has only a one-sided slope.
    qp = sd.ConeQP(A=np.eye(2), B=np.array([[1.0, 0.0]]), f=np.array([1.0, 0.0]), cone=sd.ConeKind.EQUALITY)
    direction = sd.PerturbationDirection(A1=np.zeros((2, 2)), B1=np.zeros((1, 2)), f1=np.array([0.0, 1.0]))
    path = tmp_path / "inst.txt"
    sd.save_qp(path, qp, direction)
    cfg = write(tmp_path / "run.cfg", f"[qp]\npath = {path}\n")
    out = tmp_path / "out"
    assert main(["qp-demo", "--config", cfg, "--output", str(out)]) == 0
    kv = read_kv(out / "report.kv")
    assert kv["result.slope"] == ""
    assert float(kv["result.one_sided_slope"]) == pytest.approx(1.0, abs=1e-6)
    assert "one-sided slope 1" in (out / "summary.txt").read_text()


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


@pytest.mark.parametrize(
    "section,line", [("mesh", "neumann_sides = top"), ("force", "name = trig"), ("tolerances", "max_iter = 5")]
)
def test_convergence_rejects_sections_it_never_reads(tmp_path, capsys, section, line):
    # the manufactured problem fixes mesh, force and traction: these keys
    # would be recorded in report.kv without changing the run
    cfg = write(tmp_path / "run.cfg", f"[run]\nn_list = 2 4\n\n[{section}]\n{line}\n")
    assert main(["convergence", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:")
    assert f"[{section}]" in err


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
    out7, out8 = tmp_path / "o7", tmp_path / "o8"
    assert main(["shape-derivative", "--config", cfg, "--output", str(out7)]) == 0
    assert main(["shape-derivative", "--config", cfg, "--output", str(out8)]) == 0
    assert (out7 / "report.kv").read_bytes() == (out8 / "report.kv").read_bytes()
    # shape-derivative reports the head of the same computation as fd-verify
    kv_fd, kv_sd = read_kv(out1 / "report.kv"), read_kv(out7 / "report.kv")
    for key in ("result.L1", "result.E1", "result.dual_term", "result.energy"):
        assert kv_sd[key] == kv_fd[key]
    assert float(kv_sd["result.L1"]) != 0.0
    assert "result.slope" not in kv_sd and not (out7 / "fd_table.csv").exists()
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
