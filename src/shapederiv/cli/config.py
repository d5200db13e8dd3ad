"""Run configuration: one INI-style file per reproducible run.

The file is flat and sectioned; every key is validated against the
section's vocabulary and unknown keys are rejected, so a config either
parses completely or fails with a ConfigError naming the offender.  The
resolved configuration is embedded in every machine report.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..fields import force_by_name, traction_by_name
from ..flow import (
    AffineField,
    ConstantField,
    CutoffWindow,
    QuadraticField,
    RotationField,
    VelocityField,
    ZeroField,
)
from ..mesh import TriMesh, disk_mesh, read_mesh, unit_square_mesh

COMMANDS = (
    "qp-demo",
    "stokes-solve",
    "shape-derivative",
    "fd-verify",
    "corollary3",
    "convergence",
)

_ALLOWED_KEYS = {
    "run": {"command", "steps", "s_list", "n_list", "omega"},
    "mesh": {"kind", "n", "rings", "neumann_sides", "path"},
    "velocity": {"kind", "b", "matrix", "omega", "coeffs", "window", "ramp"},
    "force": {"name", "value", "scale"},
    "traction": {"name", "value"},
    "qp": {"path"},
    "tolerances": {"residual_tol", "max_iter"},
}

_SIDES = {"left", "right", "bottom", "top"}


def _number(text: str, name: str, cast=float, minimum=None):
    """Parse one finite number with ``cast``; anything else is a ConfigError."""
    kind = "an integer" if cast is int else "a number"
    try:
        value = cast(text)
    except ValueError:
        raise ConfigError(f"{name}: expected {kind}, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name}: expected a finite number, got {text!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    return value


def _floats(text: str, name: str, count: int | None = None) -> tuple[float, ...]:
    vals = tuple(_number(t, name) for t in text.replace(",", " ").split())
    if count is not None and len(vals) != count:
        raise ConfigError(f"{name}: expected {count} numbers, got {len(vals)}")
    return vals


def _ints(text: str, name: str) -> tuple[int, ...]:
    return tuple(_number(t, name, int) for t in text.replace(",", " ").split())


@dataclass
class RunConfig:
    """Validated run description; builders construct the actual objects."""

    command: str
    steps: int = 64
    s_list: tuple[float, ...] = (1e-2, 3e-3, 1e-3)
    n_list: tuple[int, ...] = (4, 8, 16)
    omega: float = 1.0
    mesh_kind: str | None = None
    mesh_n: int = 4
    mesh_rings: int = 4
    neumann_sides: tuple[str, ...] = ()
    mesh_path: str | None = None
    velocity_kind: str | None = None
    velocity_params: dict = field(default_factory=dict)
    force_name: str | None = None
    force_params: dict = field(default_factory=dict)
    traction_name: str = "none"
    traction_params: dict = field(default_factory=dict)
    qp_path: str | None = None
    tolerances: dict = field(default_factory=dict)

    def build_mesh(self) -> TriMesh:
        if self.mesh_kind == "unit_square":
            return unit_square_mesh(self.mesh_n, set(self.neumann_sides))
        if self.mesh_kind == "disk":
            return disk_mesh(self.mesh_rings)
        if self.mesh_kind == "file":
            try:
                return read_mesh(self.mesh_path)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"mesh file: {exc}") from None
        raise ConfigError(f"command '{self.command}' needs a [mesh] section")

    def build_velocity(self) -> VelocityField:
        p = self.velocity_params
        kind = self.velocity_kind
        try:
            window = None
            if "window" in p:
                w = p["window"]
                window = CutoffWindow(lo=(w[0], w[2]), hi=(w[1], w[3]), ramp=p.get("ramp", 0.25))
            if kind == "zero":
                return ZeroField(window=window)
            if kind == "constant":
                return ConstantField(b=p["b"], window=window)
            if kind == "affine":
                m = p["matrix"]
                return AffineField(M=((m[0], m[1]), (m[2], m[3])), b=p.get("b", (0.0, 0.0)), window=window)
            if kind == "rotation":
                return RotationField(p.get("omega", 1.0), window=window)
            if kind == "quadratic":
                c = p["coeffs"]
                return QuadraticField(coeffs=(tuple(c[:6]), tuple(c[6:])), window=window)
        except KeyError as exc:
            raise ConfigError(f"velocity kind '{kind}' is missing key {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"velocity: {exc}") from None
        raise ConfigError(f"command '{self.command}' needs a [velocity] section")

    def build_force(self):
        name = self.force_name or ("manufactured-trig" if self.command == "convergence" else None)
        if name is None:
            raise ConfigError(f"command '{self.command}' needs a [force] section")
        try:
            return force_by_name(name, **self.force_params)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None

    def build_traction(self):
        try:
            return traction_by_name(self.traction_name, **self.traction_params)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None

    def resolved_items(self) -> list[tuple[str, str]]:
        """Flat, ordered view of every setting, embedded in reports."""
        items = [
            ("config.command", self.command),
            ("config.run.steps", str(self.steps)),
            ("config.run.s_list", " ".join(f"{s:.17g}" for s in self.s_list)),
            ("config.run.n_list", " ".join(str(n) for n in self.n_list)),
            ("config.run.omega", f"{self.omega:.17g}"),
        ]
        if self.mesh_kind:
            items.append(("config.mesh.kind", self.mesh_kind))
            if self.mesh_kind == "unit_square":
                items.append(("config.mesh.n", str(self.mesh_n)))
                items.append(("config.mesh.neumann_sides", " ".join(self.neumann_sides) or "none"))
            elif self.mesh_kind == "disk":
                items.append(("config.mesh.rings", str(self.mesh_rings)))
            elif self.mesh_kind == "file":
                items.append(("config.mesh.path", str(self.mesh_path)))
        if self.velocity_kind:
            items.append(("config.velocity.kind", self.velocity_kind))
            for key in sorted(self.velocity_params):
                val = self.velocity_params[key]
                if isinstance(val, tuple):
                    items.append((f"config.velocity.{key}", " ".join(f"{v:.17g}" for v in val)))
                else:
                    items.append((f"config.velocity.{key}", f"{val:.17g}"))
        if self.force_name:
            items.append(("config.force.name", self.force_name))
            for key in sorted(self.force_params):
                val = self.force_params[key]
                if isinstance(val, tuple):
                    items.append((f"config.force.{key}", " ".join(f"{v:.17g}" for v in val)))
                else:
                    items.append((f"config.force.{key}", f"{val:.17g}"))
        if self.traction_name != "none":
            items.append(("config.traction.name", self.traction_name))
        if self.qp_path:
            items.append(("config.qp.path", str(self.qp_path)))
        for key in sorted(self.tolerances):
            items.append((f"config.tolerances.{key}", f"{self.tolerances[key]:.17g}"))
        return items


def parse_config(path, command: str) -> RunConfig:
    """Read and validate a config file for the given command."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}'; expected one of {', '.join(COMMANDS)}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    if parser.defaults():
        # [DEFAULT] is not among parser.sections(), so its keys would
        # escape the checks below.
        raise ConfigError(f"keys under [DEFAULT] are not allowed: {', '.join(parser.defaults())}")
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")

    cfg = RunConfig(command=command)

    if parser.has_section("run"):
        run = parser["run"]
        if "command" in run and run["command"] != command:
            raise ConfigError(
                f"config names command '{run['command']}' but '{command}' was requested"
            )
        if "steps" in run:
            cfg.steps = _number(run["steps"], "run.steps", int, minimum=1)
        if "s_list" in run:
            cfg.s_list = _floats(run["s_list"], "run.s_list")
            if not cfg.s_list:
                raise ConfigError("run.s_list needs at least one step")
            if any(s <= 0 for s in cfg.s_list):
                raise ConfigError("run.s_list must be strictly positive")
            if any(b >= a for a, b in zip(cfg.s_list, cfg.s_list[1:])):
                raise ConfigError("run.s_list must be strictly decreasing")
        if "n_list" in run:
            cfg.n_list = _ints(run["n_list"], "run.n_list")
            if not cfg.n_list:
                raise ConfigError("run.n_list needs at least one mesh size")
            if any(n < 1 for n in cfg.n_list):
                raise ConfigError("run.n_list entries must be >= 1")
        if "omega" in run:
            cfg.omega = _number(run["omega"], "run.omega")

    if parser.has_section("mesh"):
        mesh = parser["mesh"]
        cfg.mesh_kind = mesh.get("kind", "unit_square")
        if cfg.mesh_kind not in ("unit_square", "disk", "file"):
            raise ConfigError(f"unknown mesh kind '{cfg.mesh_kind}'")
        if "n" in mesh:
            cfg.mesh_n = _number(mesh["n"], "mesh.n", int, minimum=1)
        if "rings" in mesh:
            cfg.mesh_rings = _number(mesh["rings"], "mesh.rings", int, minimum=1)
        if "neumann_sides" in mesh:
            sides = tuple(mesh["neumann_sides"].replace(",", " ").split())
            bad = set(sides) - _SIDES
            if bad:
                raise ConfigError(f"unknown Neumann sides {sorted(bad)!r}")
            cfg.neumann_sides = sides
        if "path" in mesh:
            cfg.mesh_path = mesh["path"]
        if cfg.mesh_kind == "file" and not cfg.mesh_path:
            raise ConfigError("mesh kind 'file' needs mesh.path")

    if parser.has_section("velocity"):
        vel = parser["velocity"]
        cfg.velocity_kind = vel.get("kind")
        if cfg.velocity_kind not in ("zero", "constant", "affine", "rotation", "quadratic"):
            raise ConfigError(f"unknown velocity kind '{cfg.velocity_kind}'")
        if "b" in vel:
            cfg.velocity_params["b"] = _floats(vel["b"], "velocity.b", 2)
        if "matrix" in vel:
            cfg.velocity_params["matrix"] = _floats(vel["matrix"], "velocity.matrix", 4)
        if "omega" in vel:
            cfg.velocity_params["omega"] = _number(vel["omega"], "velocity.omega")
        if "coeffs" in vel:
            cfg.velocity_params["coeffs"] = _floats(vel["coeffs"], "velocity.coeffs", 12)
        if "window" in vel:
            cfg.velocity_params["window"] = _floats(vel["window"], "velocity.window", 4)
        if "ramp" in vel:
            cfg.velocity_params["ramp"] = _number(vel["ramp"], "velocity.ramp")

    if parser.has_section("force"):
        force = parser["force"]
        cfg.force_name = force.get("name")
        if not cfg.force_name:
            raise ConfigError("[force] needs a name")
        if "value" in force:
            cfg.force_params["value"] = _floats(force["value"], "force.value", 2)
        if "scale" in force:
            cfg.force_params["scale"] = _number(force["scale"], "force.scale")

    if parser.has_section("traction"):
        traction = parser["traction"]
        cfg.traction_name = traction.get("name", "none")
        if "value" in traction:
            cfg.traction_params["value"] = _floats(traction["value"], "traction.value", 2)

    if parser.has_section("qp"):
        cfg.qp_path = parser["qp"].get("path")

    if parser.has_section("tolerances"):
        tol = parser["tolerances"]
        if "residual_tol" in tol:
            cfg.tolerances["residual_tol"] = _number(tol["residual_tol"], "tolerances.residual_tol")
        if "max_iter" in tol:
            cfg.tolerances["max_iter"] = _number(tol["max_iter"], "tolerances.max_iter", int, minimum=1)

    _check_required(cfg)
    return cfg


def _check_required(cfg: RunConfig) -> None:
    need_mesh = cfg.command in ("stokes-solve", "shape-derivative", "fd-verify", "corollary3")
    if need_mesh and cfg.mesh_kind is None:
        raise ConfigError(f"command '{cfg.command}' needs a [mesh] section")
    if cfg.command in ("shape-derivative", "fd-verify") and cfg.velocity_kind is None:
        raise ConfigError(f"command '{cfg.command}' needs a [velocity] section")
    if cfg.command in ("stokes-solve", "shape-derivative", "fd-verify", "corollary3") and cfg.force_name is None:
        raise ConfigError(f"command '{cfg.command}' needs a [force] section")
    if cfg.command == "corollary3" and cfg.mesh_kind == "unit_square":
        raise ConfigError("corollary3 needs a pure-Dirichlet mesh (disk or file)")
