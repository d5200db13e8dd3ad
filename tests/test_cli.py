"""Config parsing, command pipelines, report files and determinism."""

import os
import threading

import numpy as np
import pytest

import shapederiv as sd
from shapederiv import cli, stokes_fem
from shapederiv.cli import main
from shapederiv.cli.config import _KINDS, RunConfig, parse_config
from shapederiv.cli.report import ReportWriter, fmt17, read_kv, rows17
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


_S_LIST = ("s_list = 2e-2 5e-3 1e-3\n", ("config.run.s_list", "0.02 0.0050000000000000001 0.001"))
# mesh kind -> the lines setting every key it reads, and what report.kv records for them.  Each
# mesh kind comes with one velocity kind, so that the three goldens record every velocity key.
_MESH_KEYS = {
    "unit_square": ("n = 3\nneumann_sides = right, top\n", [("config.mesh.n", "3"), ("config.mesh.neumann_sides", "right top")]),
    "disk": ("rings = 2\n", [("config.mesh.rings", "2")]),
    "file": ("path = mesh.txt\n", [("config.mesh.path", "mesh.txt")]),
}
_VELOCITY_KEYS = {
    "unit_square": (
        "affine",
        "b = 0.05 -0.04\nmatrix = 0.3 0.1 -0.2 0.15\n",
        [
            ("config.velocity.b", "0.050000000000000003 -0.040000000000000001"),
            ("config.velocity.matrix", "0.29999999999999999 0.10000000000000001 -0.20000000000000001 0.14999999999999999"),
        ],
    ),
    "disk": ("rotation", "omega = 0.5\n", [("config.velocity.omega", "0.5")]),
    "file": (
        "quadratic",
        "coeffs = 0 0.1 0 0.2 0 0.3 0 0 0.1 0 0.2 0.1\n",
        [
            (
                "config.velocity.coeffs",
                "0 0.10000000000000001 0 0.20000000000000001 0 0.29999999999999999 "
                "0 0 0.10000000000000001 0 0.20000000000000001 0.10000000000000001",
            )
        ],
    ),
}


@pytest.mark.parametrize("mesh_kind", sorted(_MESH_KEYS))
def test_resolved_config_golden(tmp_path, mesh_kind):
    # fd-verify with every key it reads set; the mesh kind picks which mesh
    # keys are read and recorded.  Order and digits are part of report.kv's format.
    velocity_kind, velocity_lines, velocity_items = _VELOCITY_KEYS[mesh_kind]
    text = (
        f"[run]\ncommand = fd-verify\nsteps = 16\n{_S_LIST[0]}\n"
        f"[mesh]\nkind = {mesh_kind}\n{_MESH_KEYS[mesh_kind][0]}\n"
        f"[velocity]\nkind = {velocity_kind}\n{velocity_lines}window = 0.1 0.9 0.2 0.8\nramp = 0.3\n\n"
        "[force]\nname = constant\nvalue = 1 0.5\n"
    )
    cfg = parse_config(write(tmp_path / "all.cfg", text), "fd-verify")
    assert cfg.resolved_items() == [
        ("config.command", "fd-verify"),
        ("config.run.steps", "16"),
        _S_LIST[1],
        ("config.mesh.kind", mesh_kind),
        *_MESH_KEYS[mesh_kind][1],
        ("config.velocity.kind", velocity_kind),
        *velocity_items,
        ("config.velocity.ramp", "0.29999999999999999"),
        ("config.velocity.window", "0.10000000000000001 0.90000000000000002 0.20000000000000001 0.80000000000000004"),
        ("config.force.name", "constant"),
        ("config.force.value", "1 0.5"),
    ]


# command -> a config setting every key it reads, and the items report.kv records, in order
_RESOLVED = {
    "qp-demo": (
        f"[run]\n{_S_LIST[0]}\n[qp]\npath = qp.txt\n\n[tolerances]\nmax_iter = 50\n",
        [_S_LIST[1], ("config.qp.path", "qp.txt"), ("config.tolerances.max_iter", "50")],
    ),
    "stokes-solve": (
        f"[mesh]\nkind = unit_square\n{_MESH_KEYS['unit_square'][0]}\n[force]\nname = trig\nscale = 1.5\n\n"
        "[traction]\nname = constant-left\nvalue = 3 0.25\n\n[tolerances]\nresidual_tol = 1e-8\n",
        [
            ("config.mesh.kind", "unit_square"),
            *_MESH_KEYS["unit_square"][1],
            ("config.force.name", "trig"),
            ("config.force.scale", "1.5"),
            ("config.traction.name", "constant-left"),
            ("config.traction.value", "3 0.25"),
            ("config.tolerances.residual_tol", "1e-08"),
        ],
    ),
    # [run] and [mesh] are recorded with their defaults
    "shape-derivative": (
        "[mesh]\n\n[velocity]\nkind = zero\n\n[force]\nname = manufactured-trig\n",
        [
            ("config.mesh.kind", "unit_square"),
            ("config.mesh.n", "4"),
            ("config.mesh.neumann_sides", "none"),
            ("config.velocity.kind", "zero"),
            ("config.force.name", "manufactured-trig"),
        ],
    ),
    "corollary3": (
        f"[run]\nsteps = 16\n{_S_LIST[0]}omega = 0.7\n\n[mesh]\nkind = disk\n{_MESH_KEYS['disk'][0]}\n"
        "[force]\nname = rotational\nscale = 1.5\n",
        [
            ("config.run.steps", "16"),
            _S_LIST[1],
            ("config.run.omega", "0.69999999999999996"),
            ("config.mesh.kind", "disk"),
            *_MESH_KEYS["disk"][1],
            ("config.force.name", "rotational"),
            ("config.force.scale", "1.5"),
        ],
    ),
    "convergence": ("[run]\nn_list = 2 4\n", [("config.run.n_list", "2 4")]),
}


@pytest.mark.parametrize("command", sorted(_RESOLVED))
def test_resolved_config_of_each_command(tmp_path, command):
    text, items = _RESOLVED[command]
    cfg = parse_config(write(tmp_path / "all.cfg", text), command)
    assert cfg.resolved_items() == [("config.command", command), *items]


_WINDOW = sd.CutoffWindow(lo=(-0.2, 0.1), hi=(0.9, 1.3), ramp=0.3)


@pytest.mark.parametrize(
    "kind,keys,field",
    [
        ("quadratic", "coeffs = 0 0.1 0 0.2 0 0.3 0 0 0.1 0 0.2 0.1",
         sd.QuadraticField(coeffs=((0, 0.1, 0, 0.2, 0, 0.3), (0, 0, 0.1, 0, 0.2, 0.1)), window=_WINDOW)),
        ("rotation", "omega = 0.5", sd.RotationField(0.5, window=_WINDOW)),
    ],
    ids=["quadratic", "rotation"],
)
def test_window_maps_to_the_cutoff_box(tmp_path, kind, keys, field):
    # window = xlo xhi ylo yhi; the box is not symmetric in x and y, so a
    # swapped axis builds a different, still valid window
    text = (
        f"[mesh]\nkind = unit_square\n\n[velocity]\nkind = {kind}\n{keys}\n"
        "window = -0.2 0.9 0.1 1.3\nramp = 0.3\n\n[force]\nname = trig\n"
    )
    cfg = parse_config(write(tmp_path / "run.cfg", text), "shape-derivative")
    assert cfg.build_velocity() == field


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


# a malformed value -> its parser's message.  fd-verify reads neither
# n_list, omega nor [tolerances]: every value is parsed before the check of
# what the command reads, so these fail on the value too.
_PARSE_ERRORS = {
    ("run", "steps", "abc"): "run.steps: expected an integer, got 'abc'",
    ("run", "s_list", "1e-2 nan"): "run.s_list: expected a finite number, got 'nan'",
    ("run", "s_list", ""): "run.s_list needs at least one step",
    ("run", "n_list", ""): "run.n_list needs at least one mesh size",
    ("run", "n_list", "4 4"): "run.n_list must be strictly increasing",
    ("run", "n_list", "8 4"): "run.n_list must be strictly increasing",
    ("run", "omega", "inf"): "run.omega: expected a finite number, got 'inf'",
    ("mesh", "n", "0"): "mesh.n must be >= 1",
    ("mesh", "n", "2.5"): "mesh.n: expected an integer, got '2.5'",
    # with the ramp below: out of range
    ("velocity", "window", "0.1 0.85 -1 2"): "velocity: ramp fraction must lie in (0, 0.5]",
    ("force", "scale", "nan"): "force.scale: expected a finite number, got 'nan'",
    ("tolerances", "residual_tol", "nan"): "tolerances.residual_tol: expected a finite number, got 'nan'",
    ("tolerances", "residual_tol", "0"): "tolerances.residual_tol must be strictly positive",
    ("tolerances", "residual_tol", "-1e-9"): "tolerances.residual_tol must be strictly positive",
    ("tolerances", "max_iter", "0"): "tolerances.max_iter must be >= 1",
    ("tolerances", "max_iter", "0.5"): "tolerances.max_iter: expected an integer, got '0.5'",
    ("tolerances", "max_iter", "2.5"): "tolerances.max_iter: expected an integer, got '2.5'",
}


@pytest.mark.parametrize("section,key,value", list(_PARSE_ERRORS))
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
    assert capsys.readouterr().err == f"error: ConfigError: {_PARSE_ERRORS[section, key, value]}\n"


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


def _qp_size_not_a_decimal_digit(tmp_path):
    # "²" passes str.isdigit, but int() cannot parse it
    path = tmp_path / "inst.txt"
    path.write_text("cone-qp v1\ncone inequality\nA ² 2\n1 0\n0 1\nB 1 2\n1 0\nf 2\n1 1\n", encoding="utf-8")
    return "qp-demo", f"[qp]\npath = {path}\n", "line 3: block A expects 2 non-negative integer size(s)"


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


def _mesh_vertex_in_no_triangle(tmp_path):
    # used to pass validation and exit 1 as a rank-deficient pairing
    mesh = sd.unit_square_mesh(4, {"right"})
    path = tmp_path / "mesh.txt"
    vertices = np.vstack([mesh.vertices, [0.5, 0.55]])
    sd.write_mesh(path, sd.TriMesh(vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_tags))
    text = f"[mesh]\nkind = file\npath = {path}\n\n[force]\nname = trig\n"
    return "stokes-solve", text, f"vertex {mesh.num_vertices} belongs to no triangle"


def _mesh_byte_not_utf8(tmp_path):
    path = tmp_path / "mesh.txt"
    sd.write_mesh(path, sd.unit_square_mesh(2, {"right"}))
    lines = path.read_bytes().split(b"\n")
    lines[3] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    text = f"[mesh]\nkind = file\npath = {path}\n\n[force]\nname = trig\n"
    return "stokes-solve", text, f"{path}, line 4: byte 0xff is not UTF-8"


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
        _qp_size_not_a_decimal_digit,
        _mesh_cut_in_half,
        _mesh_overlapping_triangles,
        _mesh_vertex_in_no_triangle,
        _mesh_byte_not_utf8,
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


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"[mesh]\n# caf\xe9\nkind = unit_square\n\n[force]\nname = trig\n")
    assert main(["stokes-solve", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: cannot read config:") and "0xe9" in err


@pytest.mark.parametrize("output", ["taken", "taken/sub"], ids=["file", "below-a-file"])
def test_output_that_cannot_be_a_directory_exits_2(tmp_path, capsys, monkeypatch, output):
    (tmp_path / "taken").write_text("")
    cfg = write(tmp_path / "run.cfg", "[run]\ns_list = 1e-2\n")
    assert main(["qp-demo", "--config", cfg, "--output", str(tmp_path / output)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ConfigError: cannot write the report to {tmp_path / output}:")
    assert err.count("\n") == 1
    # the output is checked before the pipeline runs: stokes-solve never assembles

    def no_assembly(*args):
        raise AssertionError("assembled a system for an output that cannot be written")

    monkeypatch.setattr(cli, "assemble", no_assembly)
    cfg = write(tmp_path / "solve.cfg", "[mesh]\nkind = unit_square\n\n[force]\nname = trig\n")
    assert main(["stokes-solve", "--config", cfg, "--output", str(tmp_path / output)]) == 2
    assert capsys.readouterr().err.startswith(f"error: ConfigError: cannot write the report to {tmp_path / output}:")


_VELOCITY = "[velocity]\nkind = affine\nmatrix = 0.3 0.1 -0.2 0.15\n\n"


@pytest.mark.parametrize(
    "command,sections,message",
    [
        ("shape-derivative", _VELOCITY + "[force]\nname = constant\nscale = 5\n",
         "force name 'constant' does not read key 'scale'"),
        ("shape-derivative", _VELOCITY + "[force]\nname = trig\nvalue = 1 0\n",
         "force name 'trig' does not read key 'value'"),
        ("shape-derivative", "[velocity]\nkind = zero\nmatrix = 0.3 0.1 -0.2 0.15\n\n[force]\nname = trig\n",
         "velocity kind 'zero' does not read key 'matrix'"),
        ("shape-derivative", "[velocity]\nkind = zero\nomega = 2\n\n[force]\nname = trig\n",
         "velocity kind 'zero' does not read key 'omega'"),
        ("shape-derivative", _VELOCITY.replace("\n\n", "\nramp = 0.3\n\n") + "[force]\nname = trig\n",
         "velocity kind 'affine' does not read key 'ramp'"),
        ("stokes-solve", "[force]\nname = trig\n\n[traction]\nname = none\nvalue = 2 0\n",
         "traction name 'none' does not read key 'value'"),
        ("shape-derivative", "[velocity]\nkind = constant\n\n[force]\nname = trig\n",
         "velocity kind 'constant' is missing key 'b'"),
    ],
    ids=["constant-scale", "trig-value", "zero-matrix", "zero-omega", "ramp-without-window", "none-value",
         "constant-without-b"],
)
def test_keys_that_do_not_fit_the_kind_exit_2(tmp_path, capsys, command, sections, message):
    # a key the kind does not read would be recorded in report.kv without
    # changing the run
    cfg = write(tmp_path / "run.cfg", "[mesh]\nkind = unit_square\nn = 2\nneumann_sides = right\n\n" + sections)
    assert main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"


@pytest.mark.parametrize(
    "mesh,message",
    [
        ("kind = disk\nrings = 2\nn = 8\n", "mesh kind 'disk' does not read key 'n'"),
        ("kind = unit_square\nn = 2\nrings = 2\n", "mesh kind 'unit_square' does not read key 'rings'"),
        ("kind = file\npath = mesh.txt\nneumann_sides = right\n", "mesh kind 'file' does not read key 'neumann_sides'"),
        ("kind = file\n", "mesh kind 'file' is missing key 'path'"),
    ],
    ids=["disk-n", "unit_square-rings", "file-neumann_sides", "file-without-path"],
)
def test_mesh_keys_that_do_not_fit_the_kind_exit_2(tmp_path, capsys, mesh, message):
    # a mesh key of another kind would change nothing: the kind's defaults apply
    cfg = write(tmp_path / "run.cfg", f"[mesh]\n{mesh}\n[force]\nname = trig\n")
    assert main(["stokes-solve", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"


_DISK_TRIG = "[mesh]\nkind = disk\nrings = 2\n\n[force]\nname = trig\n\n"


@pytest.mark.parametrize(
    "command,text,message",
    [
        ("stokes-solve", _DISK_TRIG + "[qp]\npath = /nonexistent\n", "command 'stokes-solve' does not read [qp]"),
        ("stokes-solve", _DISK_TRIG + "[velocity]\nkind = zero\n", "command 'stokes-solve' does not read [velocity]"),
        ("stokes-solve", _DISK_TRIG + "[tolerances]\nmax_iter = 5\n",
         "command 'stokes-solve' does not read key 'tolerances.max_iter'"),
        ("stokes-solve", "[run]\nsteps = 3\n\n" + _DISK_TRIG, "command 'stokes-solve' does not read key 'run.steps'"),
        ("shape-derivative", _DISK_TRIG + "[velocity]\nkind = zero\n\n[traction]\nname = none\n",
         "command 'shape-derivative' does not read [traction]"),
        ("fd-verify", "[run]\nomega = 2\n\n" + _DISK_TRIG + "[velocity]\nkind = zero\n",
         "command 'fd-verify' does not read key 'run.omega'"),
        ("corollary3", _DISK_TRIG + "[velocity]\nkind = zero\n", "command 'corollary3' does not read [velocity]"),
        ("qp-demo", "[mesh]\nkind = unit_square\n", "command 'qp-demo' does not read [mesh]"),
        ("qp-demo", "[run]\nn_list = 2 4\n", "command 'qp-demo' does not read key 'run.n_list'"),
    ],
    ids=["stokes-qp", "stokes-velocity", "stokes-max_iter", "stokes-steps", "derivative-traction", "fd-omega",
         "corollary3-velocity", "qp-mesh", "qp-n_list"],
)
def test_sections_and_keys_the_command_does_not_read_exit_2(tmp_path, capsys, command, text, message):
    # such a setting would be recorded in report.kv without changing the run
    cfg = write(tmp_path / "run.cfg", text)
    assert main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"


_SQUARE = "[mesh]\nkind = unit_square\nn = 2\nneumann_sides = left right\n\n"
# every command runs: stokes-solve and shape-derivative below, once for every
# kind of each section that they build
_READ_RUNS = {
    "qp-demo": ("qp-demo", "[run]\ns_list = 1e-2\n"),
    "fd-verify": ("fd-verify", "[run]\ns_list = 1e-2\n\n" + _DISK_TRIG + "[velocity]\nkind = rotation\n"),
    "corollary3": ("corollary3", "[run]\ns_list = 1e-2\n\n" + _DISK_TRIG),
    "convergence": ("convergence", "[run]\nn_list = 2\n"),
    "velocity-window": ("shape-derivative", _SQUARE + "[force]\nname = trig\n\n"
                        "[velocity]\nkind = rotation\nwindow = 0.1 0.9 0.1 0.9\nramp = 0.3\n"),
}
_NEEDED = {"path": "mesh.txt", "b": "0.1 0", "matrix": "0.3 0.1 -0.2 0.15", "coeffs": "0 0.1 0 0.2 0 0.3 0 0 0.1 0 0.2 0.1"}
_KIND_RUNS = {  # section -> the command that builds it, and the other sections it needs
    "mesh": ("stokes-solve", "[force]\nname = trig\n"),
    "velocity": ("shape-derivative", _SQUARE + "[force]\nname = trig\n"),
    "force": ("stokes-solve", _SQUARE),
    "traction": ("stokes-solve", _SQUARE + "[force]\nname = trig\n"),
}


def _kind_run(section, field, kind, builder):
    command, others = _KIND_RUNS[section]
    needed = "".join(f"{key} = {_NEEDED[key]}\n" for key in builder.needs.values())
    return command, f"[{section}]\n{field} = {kind}\n{needed}\n{others}"


_READ_RUNS.update(
    (f"{section}-{kind}", _kind_run(section, field, kind, builder))
    for section, (field, kinds) in _KINDS.items()
    for kind, builder in kinds.items()
)


@pytest.mark.parametrize("run", sorted(_READ_RUNS))
def test_each_run_reads_exactly_its_declared_keys(tmp_path, monkeypatch, run):
    # RunConfig.reads decides what a file may set and what report.kv records;
    # the keys the pipeline reads through RunConfig.value must be those
    command, text = _READ_RUNS[run]
    monkeypatch.chdir(tmp_path)
    sd.write_mesh("mesh.txt", sd.unit_square_mesh(2))
    cfg = parse_config(write(tmp_path / "run.cfg", text), command)
    declared = {(section, key) for section, keys in cfg.reads().items() for key in keys}
    logged, value = set(), RunConfig.value
    monkeypatch.setattr(RunConfig, "value", lambda self, section, key: logged.add((section, key)) or value(self, section, key))
    cli._PIPELINES[command](cfg, ReportWriter(str(tmp_path / "out")))
    assert logged == declared


def test_stokes_solve_factors_once(tmp_path, monkeypatch):
    # solve_stokes and inf_sup_constant share the system's Schur operator,
    # with a Neumann side and on a clamped disk alike
    built = []
    schur = stokes_fem._SchurComplement

    def counted(*args, **kwargs):
        built.append(args)
        return schur(*args, **kwargs)

    monkeypatch.setattr(stokes_fem, "_SchurComplement", counted)
    for name, mesh in (("square", "kind = unit_square\nn = 4\nneumann_sides = right"), ("disk", "kind = disk\nrings = 3")):
        built.clear()
        cfg = write(tmp_path / f"{name}.cfg", f"[mesh]\n{mesh}\n\n[force]\nname = trig\n")
        assert main(["stokes-solve", "--config", cfg, "--output", str(tmp_path / name)]) == 0
        assert float(read_kv(tmp_path / name / "report.kv")["result.inf_sup"]) > 0.0
        assert len(built) == 1


def test_qp_comment_in_utf8_is_read(tmp_path):
    qp = sd.ConeQP(A=np.eye(2), B=np.eye(2), f=np.array([1.0, -2.0]))
    plain, accented = tmp_path / "plain.txt", tmp_path / "accented.txt"
    sd.save_qp(plain, qp)
    lines = plain.read_text().splitlines(keepends=True)
    accented.write_text("".join([lines[0], "# café\n", *lines[1:]]), encoding="utf-8")
    results = []
    for path in (plain, accented):
        out = tmp_path / path.stem
        assert main(["qp-demo", "--config", write(tmp_path / "run.cfg", f"[qp]\npath = {path}\n"), "--output", str(out)]) == 0
        results.append({k: v for k, v in read_kv(out / "report.kv").items() if k.startswith("result.")})
    assert results[0] == results[1] and results[0]


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
    assert not any((tmp_path / "o2").iterdir())  # made before the run, left empty by its failure


def test_stokes_solve_at_the_ends_of_the_double_range(tmp_path, capsys):
    # A load of 1e-160 solves as the unit load does, scaled; at 1e160 the
    # solve succeeds but the energy passes the largest double: one error
    # line and no warning (warnings are errors under the test settings).
    text = "[mesh]\nkind = unit_square\nn = 4\nneumann_sides = right\n\n[force]\nname = trig\nscale = {}\n"
    kv = {}
    for scale in ("1", "1e-160"):
        out = tmp_path / scale
        assert main(["stokes-solve", "--config", write(tmp_path / f"{scale}.cfg", text.format(scale)), "--output", str(out)]) == 0
        kv[scale] = read_kv(out / "report.kv")
    assert kv["1e-160"]["result.solver_iterations"] == kv["1"]["result.solver_iterations"]
    assert float(kv["1e-160"]["result.u_max"]) == pytest.approx(1e-160 * float(kv["1"]["result.u_max"]), rel=1e-12)
    capsys.readouterr()
    big = write(tmp_path / "big.cfg", text.format("1e160"))
    assert main(["stokes-solve", "--config", big, "--output", str(tmp_path / "big")]) == 1
    assert capsys.readouterr().err == (
        "error: SingularSystem: the energy overflows: the load is too large for double precision\n"
    )


@pytest.mark.parametrize("command", ["shape-derivative", "fd-verify"])
def test_a_velocity_that_overflows_at_a_vertex_exits_1(tmp_path, capsys, command):
    cfg = write(
        tmp_path / "run.cfg",
        "[mesh]\nkind = unit_square\nn = 4\nneumann_sides = right\n\n[force]\nname = trig\n\n"
        "[velocity]\nkind = quadratic\ncoeffs = 0 0 0 1e308 1e308 1e308 0 0 0 1e308 1e308 1e308\n",
    )
    assert main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: DimensionMismatch: velocity field is not finite at every mesh vertex\n"


def test_first_failing_fd_step_is_reported(tmp_path, capsys):
    # Transport by +0.8 flips a triangle; the later steps run on other
    # threads, but the error is that of the first failing step in order.
    cfg = write(
        tmp_path / "run.cfg",
        "[run]\ns_list = 0.8 0.5\n\n[mesh]\nkind = unit_square\nn = 8\nneumann_sides = right\n\n"
        "[force]\nname = trig\n\n[velocity]\nkind = quadratic\ncoeffs = 0 0 0 3 1 -2 0 0 0 -2 2 1\n",
    )
    assert main(["fd-verify", "--config", cfg, "--output", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: InvertedElement: transport by s=0.8 flipped a triangle\n"


_FD_RUNS = {
    "fd-verify": "[run]\ns_list = 1e-2 3e-3 1e-3\n\n"
    "[mesh]\nkind = unit_square\nn = 8\nneumann_sides = right\n\n"
    "[velocity]\nkind = affine\nmatrix = 0.3 0.1 -0.2 0.15\nb = 0.05 -0.04\n\n"
    "[force]\nname = trig\n",
    "fd-verify-pinned": "[run]\ns_list = 1e-2 1e-3\n\n[mesh]\nkind = disk\nrings = 2\n\n"
    "[force]\nname = trig\n\n[velocity]\nkind = rotation\nomega = 1.0\n",
    "corollary3": "[run]\nomega = 1.0\ns_list = 1e-2 1e-3\n\n[mesh]\nkind = disk\nrings = 2\n\n"
    "[force]\nname = rotational\n",
    "qp-demo": "[run]\ns_list = 1e-2 3e-3 1e-3\n\n[tolerances]\nmax_iter = 200\n",
}


@pytest.mark.parametrize("run", sorted(_FD_RUNS))
def test_one_cpu_reports_equal_the_threaded_ones(tmp_path, monkeypatch, run):
    # With one CPU the re-solves run in a plain loop on the calling thread;
    # the reports do not depend on which path ran.  qp-demo's active-set
    # re-solves hold the GIL, so they stay on the calling thread.
    cfg = write(tmp_path / "run.cfg", _FD_RUNS[run])
    command = run.removesuffix("-pinned")
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(os, "cpu_count", lambda: 1)
        assert main([command, "--config", cfg, "--output", str(tmp_path / "one")]) == 0
    assert started == []
    assert main([command, "--config", cfg, "--output", str(tmp_path / "all")]) == 0
    assert bool(started) == (command != "qp-demo" and (os.cpu_count() or 1) > 1)
    for name in ("report.kv", "fd_table.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


def test_pure_dirichlet_mesh_pins_the_pressure(tmp_path):
    # Without a Neumann edge the pressure is fixed only up to a constant:
    # fd-verify and shape-derivative pin it, as stokes-solve does.  corollary3
    # is fd-verify with a rotation velocity, and reports every result alike.
    # each command is given only the sections and keys it reads
    for kind, size in (("disk", "rings = 2"), ("unit_square", "n = 4")):
        mesh_force = f"[mesh]\nkind = {kind}\n{size}\n\n[force]\nname = trig\n"
        velocity = "\n[velocity]\nkind = rotation\nomega = 1.0\n"
        texts = {
            "fd-verify": "[run]\ns_list = 1e-2 1e-3\n\n" + mesh_force + velocity,
            "shape-derivative": mesh_force + velocity,
            "corollary3": "[run]\nomega = 1.0\ns_list = 1e-2 1e-3\n\n" + mesh_force,
        }
        results = {}
        for command, text in texts.items():
            out = tmp_path / kind / command
            cfg = write(tmp_path / f"{kind}-{command}.cfg", text)
            assert main([command, "--config", cfg, "--output", str(out)]) == 0
            results[command] = {k: v for k, v in read_kv(out / "report.kv").items() if k.startswith("result.")}
        assert {"result.L1", "result.E1", "result.dual_term", "result.energy", "result.slope"} <= results["corollary3"].keys()
        assert results["corollary3"] == results["fd-verify"]
        assert results["shape-derivative"] == {k: results["fd-verify"][k] for k in results["shape-derivative"]}
        fd_tables = [(tmp_path / kind / command / "fd_table.csv").read_bytes() for command in ("fd-verify", "corollary3")]
        assert fd_tables[0] == fd_tables[1]


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


def test_qp_demo_custom_instance(tmp_path, capsys):
    qp = sd.ConeQP(A=np.eye(2), B=np.eye(2), f=np.array([1.0, 2.0]), cone=sd.ConeKind.EQUALITY)
    path = tmp_path / "inst.txt"
    sd.save_qp(path, qp)
    cfg = write(tmp_path / "run.cfg", f"[qp]\npath = {path}\n")
    out = tmp_path / "out"
    assert main(["qp-demo", "--config", cfg, "--output", str(out)]) == 0
    kv = read_kv(out / "report.kv")
    assert kv["result.u"].split() == ["0", "0"]
    assert "result.L1" not in kv  # no perturbation block in the file
    assert "config.run.s_list" not in kv  # so no re-solves read it
    s_list = write(tmp_path / "s_list.cfg", f"[run]\ns_list = 1e-2\n\n[qp]\npath = {path}\n")
    assert main(["qp-demo", "--config", s_list, "--output", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: ConfigError: the qp file has no perturbation block, "
        "so command 'qp-demo' does not read key 'run.s_list'\n"
    )
    # u >= 0 with f = (1, -2): the base solve starts from the crash set {1},
    # which A^{-1}f = f violates, so a full step, then the stop test
    qp = sd.ConeQP(A=np.eye(2), B=np.eye(2), f=np.array([1.0, -2.0]))
    sd.save_qp(path, qp)
    assert main(["qp-demo", "--config", cfg, "--output", str(out)]) == 0
    kv = read_kv(out / "report.kv")
    assert kv["result.u"].split() == ["1", "0"]
    assert kv["result.active_set_steps"] == "2"
    assert "2 active-set steps" in (out / "summary.txt").read_text()


def test_qp_demo_refuses_an_a_whose_inverse_overflows(tmp_path, capsys):
    # Cholesky accepts A = [[1e-320]], but A^{-1}B' is not finite.
    path = write(tmp_path / "inst.txt", "cone-qp v1\ncone inequality\nA 1 1\n1e-320\nB 1 1\n1\nf 1\n1\n")
    cfg = write(tmp_path / "run.cfg", f"[qp]\npath = {path}\n")
    assert main(["qp-demo", "--config", cfg, "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: NotPositiveDefinite: matrix A is singular to working precision: A^{-1}B' or A^{-1}f is not finite\n"
    )


@pytest.mark.parametrize(
    "A, B, f, max_iter, error, steps",
    [
        # The crash set {0, 1} is dependent to roundoff in the energy inner
        # product (tests/test_core_minimax.py::
        # test_ill_conditioned_crash_set_raises_where_cold_does_not); the
        # cold path never holds both rows and ends on {0} after 2 steps.
        ([[1.0, 0.0], [0.0, 1e34]], [[1.0, 0.0], [1.0, 1.0]], [-1.0, 1.0], 200, sd.RankDeficientB, 2),
        # From the crash set {0, 1} row 1 must leave: 4 steps to the
        # terminal set {0}, which the cold path reaches in 3.
        ([[2.0, -1.0, 0.0], [-1.0, 7.0, -3.0], [0.0, -3.0, 3.0]], [[1.0, -1.0, 1.0], [0.0, 1.0, 1.0]],
         [-2.0, 0.0, 0.0], 3, sd.MaxIterations, 3),
    ],
    ids=["dependent", "max_iter"],
)
def test_qp_demo_falls_back_to_the_cold_start(tmp_path, A, B, f, max_iter, error, steps):
    qp = sd.ConeQP(A=A, B=B, f=f)
    with pytest.raises(error):
        sd.solve_saddle_point(qp, max_iter, start=sd.crash_start(qp))
    path = tmp_path / "inst.txt"
    sd.save_qp(path, qp)
    cfg = write(tmp_path / "run.cfg", f"[qp]\npath = {path}\n\n[tolerances]\nmax_iter = {max_iter}\n")
    out = tmp_path / "out"
    assert main(["qp-demo", "--config", cfg, "--output", str(out)]) == 0
    kv = read_kv(out / "report.kv")
    cold = sd.solve_saddle_point(qp)
    assert kv["result.active_set_steps"] == str(steps) == str(cold.iterations)
    assert [float(v) for v in kv["result.lambda"].split()] == cold.lam.tolist()


def test_qp_demo_max_iter_bounds_the_fd_re_solves(tmp_path, capsys):
    # u >= 0 with A = B = I and f = (-1, 1, 1, 1): the cold base solve adds
    # row 0 and stops after 3 active-set steps.  At s = +1e-2, f1 turns
    # f_1 and f_2 negative, so the re-solve warm-started from {0} adds
    # rows 1 and 2 and takes 4; the other re-solves take 2.
    qp = sd.ConeQP(A=np.eye(4), B=np.eye(4), f=np.array([-1.0, 1.0, 1.0, 1.0]))
    direction = sd.PerturbationDirection(
        A1=np.zeros((4, 4)), B1=np.zeros((4, 4)), f1=np.array([0.0, -200.0, -200.0, 0.0])
    )
    sp = sd.solve_saddle_point(qp)
    assert (sp.iterations, sp.active_set) == (3, {0})
    warm = sd.solve_saddle_point(sd.perturbed_qp(qp, direction, 1e-2), start=sp.active_set)
    assert (warm.iterations, warm.active_set) == (4, {0, 1, 2})
    path = tmp_path / "inst.txt"
    sd.save_qp(path, qp, direction)
    for max_iter, code in ((3, 1), (4, 0)):
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


def test_corollary3_on_the_unit_square(tmp_path, capsys):
    # A unit_square without neumann_sides is pure Dirichlet.
    text = "[run]\ns_list = 1e-2 1e-3\n\n[mesh]\nkind = unit_square\nn = 4\n{}\n[force]\nname = rotational\n"
    for sides, code in (("", 0), ("neumann_sides = right\n", 2)):
        cfg = write(tmp_path / "run.cfg", text.format(sides))
        assert main(["corollary3", "--config", cfg, "--output", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == (
        "error: ConfigError: mesh.neumann_sides: corollary3 needs a pure-Dirichlet mesh, but the mesh has Neumann edges\n"
    )


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


@pytest.mark.parametrize("command", ["stokes-solve", "qp-demo"])
def test_non_ascii_input_path_is_recorded(tmp_path, command):
    if command == "stokes-solve":
        path = tmp_path / "méš.txt"
        sd.write_mesh(path, sd.unit_square_mesh(2, {"right"}))
        text = f"[mesh]\nkind = file\npath = {path}\n\n[force]\nname = constant\nvalue = 1 0\n"
        key = "config.mesh.path"
    else:
        path = tmp_path / "qéš.txt"
        sd.save_qp(path, sd.ConeQP(A=np.eye(2), B=np.eye(2), f=np.array([1.0, 2.0])))
        text, key = f"[qp]\npath = {path}\n", "config.qp.path"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 0
    assert read_kv(out / "report.kv")[key] == str(path)


def test_table_rows_format_each_value_as_fmt17():
    # velocity.csv and pressure.csv format a whole table with one %.17g call;
    # oracle: fmt17 per value, over special values and random bit patterns
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1 / 3]
    drawn = np.random.default_rng(7).integers(0, 2**64, 390, dtype=np.uint64).view(np.float64)
    values = np.concatenate([special, drawn]).reshape(-1, 4)
    assert rows17(values) == [",".join([str(k), *map(fmt17, row)]) for k, row in enumerate(values)]
    assert rows17(np.empty((0, 3))) == []


def test_reports_are_byte_identical(tmp_path):
    # each command is given only the sections and keys it reads
    run, mesh = "[run]\ns_list = 1e-2 3e-3\n\n", "[mesh]\nkind = unit_square\nn = 4\nneumann_sides = right\n\n"
    velocity, force = "[velocity]\nkind = affine\nmatrix = 0.3 0.1 -0.2 0.15\n\n", "[force]\nname = trig\n"
    cfg = write(tmp_path / "run.cfg", run + mesh + velocity + force)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["fd-verify", "--config", cfg, "--output", str(out1)]) == 0
    assert main(["fd-verify", "--config", cfg, "--output", str(out2)]) == 0
    assert (out1 / "report.kv").read_bytes() == (out2 / "report.kv").read_bytes()
    assert (out1 / "fd_table.csv").read_bytes() == (out2 / "fd_table.csv").read_bytes()
    out7, out8 = tmp_path / "o7", tmp_path / "o8"
    cfg = write(tmp_path / "derivative.cfg", mesh + velocity + force)
    assert main(["shape-derivative", "--config", cfg, "--output", str(out7)]) == 0
    assert main(["shape-derivative", "--config", cfg, "--output", str(out8)]) == 0
    assert (out7 / "report.kv").read_bytes() == (out8 / "report.kv").read_bytes()
    # shape-derivative reports the head of the same computation as fd-verify
    kv_fd, kv_sd = read_kv(out1 / "report.kv"), read_kv(out7 / "report.kv")
    for key in ("result.L1", "result.E1", "result.dual_term", "result.energy"):
        assert kv_sd[key] == kv_fd[key]
    assert float(kv_sd["result.L1"]) != 0.0
    assert "result.slope" not in kv_sd and not (out7 / "fd_table.csv").exists()
    # stokes-solve adds the CG iteration count and the Rayleigh-Ritz inf-sup estimate
    out3, out4 = tmp_path / "o3", tmp_path / "o4"
    cfg = write(tmp_path / "solve.cfg", mesh + force)
    assert main(["stokes-solve", "--config", cfg, "--output", str(out3)]) == 0
    assert main(["stokes-solve", "--config", cfg, "--output", str(out4)]) == 0
    assert (out3 / "report.kv").read_bytes() == (out4 / "report.kv").read_bytes()
    # qp-demo on the bundled instance adds the active-set step count
    out5, out6 = tmp_path / "o5", tmp_path / "o6"
    cfg = write(tmp_path / "qp.cfg", run)
    assert main(["qp-demo", "--config", cfg, "--output", str(out5)]) == 0
    assert main(["qp-demo", "--config", cfg, "--output", str(out6)]) == 0
    assert (out5 / "report.kv").read_bytes() == (out6 / "report.kv").read_bytes()
    assert (out5 / "fd_table.csv").read_bytes() == (out6 / "fd_table.csv").read_bytes()
