"""Run configuration: one INI-style file per reproducible run.

The file is flat and sectioned; every key is validated against the
section's vocabulary and unknown keys are rejected, so a config either
parses completely or fails with a ConfigError naming the offender.  The
resolved configuration is embedded in every machine report.

``_SCHEMA`` is that vocabulary, written once: section -> key -> parser,
default and when the key is recorded, in report.kv order.  The kinds and
names a key may take are the keys of the registries just above it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ..errors import ConfigError
from ..fields import ConstantForce, LeftEdgeTraction, RotationalForce, TrigForce, trig_manufactured
from ..flow import (
    AffineField,
    ConstantField,
    CutoffWindow,
    QuadraticField,
    RotationField,
    VelocityField,
    ZeroField,
)
from ..mesh import _SIDES, NEUMANN, TriMesh, disk_mesh, read_mesh, unit_square_mesh

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


def _count(text: str, name: str) -> int:
    return _number(text, name, int, minimum=1)


def _words(text: str) -> list[str]:
    return text.replace(",", " ").split()


def _floats(count: int, rows: int = 1):
    """Parser of exactly ``count`` numbers, split into ``rows`` tuples if rows > 1."""

    def parse(text: str, name: str):
        vals = tuple(_number(t, name) for t in _words(text))
        if len(vals) != count:
            raise ConfigError(f"{name}: expected {count} numbers, got {len(vals)}")
        if rows == 1:
            return vals
        width = count // rows
        return tuple(vals[i : i + width] for i in range(0, count, width))

    return parse


def _s_list(text: str, name: str) -> tuple[float, ...]:
    steps = tuple(_number(t, name) for t in _words(text))
    if not steps:
        raise ConfigError(f"{name} needs at least one step")
    if any(s <= 0 for s in steps):
        raise ConfigError(f"{name} must be strictly positive")
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ConfigError(f"{name} must be strictly decreasing")
    return steps


def _n_list(text: str, name: str) -> tuple[int, ...]:
    sizes = tuple(_count(t, name) for t in _words(text))
    if not sizes:
        raise ConfigError(f"{name} needs at least one mesh size")
    return sizes


def _sides(text: str, name: str) -> tuple[str, ...]:
    sides = tuple(_words(text))
    bad = set(sides) - set(_SIDES)
    if bad:
        raise ConfigError(f"unknown Neumann sides {sorted(bad)!r}")
    return sides


def _path(text: str, name: str) -> str:
    if not text:
        raise ConfigError(f"{name} is empty")
    return text


def _choice(registry: dict):
    """Parser of one of the registry's names; a missing or empty name is an error."""

    def parse(text: str, name: str) -> str:
        section, key = name.split(".")
        if not text:
            raise ConfigError(f"[{section}] needs a {key}")
        if text not in registry:
            raise ConfigError(f"unknown {section} {key} '{text}'")
        return text

    return parse


def _pick(params: dict, **names) -> dict:
    """Constructor arguments from the given config keys: ``argument=key``."""
    return {arg: params[key] for arg, key in names.items() if key in params}


def _mesh_file(path: str) -> TriMesh:
    try:
        return read_mesh(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"mesh file: {exc}") from None


# Builders by kind or name.  A velocity, force or traction builder gets the
# keys its section sets and passes each on only when the file sets it, so
# the field's own default applies otherwise.
_MESH_KINDS = {
    "unit_square": lambda cfg: unit_square_mesh(cfg.value("mesh", "n"), set(cfg.value("mesh", "neumann_sides"))),
    "disk": lambda cfg: disk_mesh(cfg.value("mesh", "rings")),
    "file": lambda cfg: _mesh_file(cfg.value("mesh", "path")),
}
_VELOCITY_KINDS = {
    "zero": lambda p, window: ZeroField(window=window),
    "constant": lambda p, window: ConstantField(b=p["b"], window=window),
    "affine": lambda p, window: AffineField(M=p["matrix"], window=window, **_pick(p, b="b")),
    "rotation": lambda p, window: RotationField(window=window, **_pick(p, omega="omega")),
    "quadratic": lambda p, window: QuadraticField(coeffs=p["coeffs"], window=window),
}
_FORCES = {
    "constant": lambda p: ConstantForce(**_pick(p, value="value")),
    "rotational": lambda p: RotationalForce(**_pick(p, c="scale")),
    "trig": lambda p: TrigForce(**_pick(p, c="scale")),
    "manufactured-trig": lambda p: trig_manufactured().force,
}
_TRACTIONS = {
    "none": lambda p: None,
    "constant-left": lambda p: LeftEdgeTraction(**_pick(p, value="value")),
    "manufactured-trig": lambda p: trig_manufactured().traction,
}

# command -> the sections it cannot run without, in the order they are checked
_NEEDS = {
    "qp-demo": (),
    "stokes-solve": ("mesh", "force"),
    "shape-derivative": ("mesh", "velocity", "force"),
    "fd-verify": ("mesh", "velocity", "force"),
    "corollary3": ("mesh", "force"),
    "convergence": (),
}
COMMANDS = tuple(_NEEDS)

_REQUIRED = object()  # the default of a key its section cannot do without


class _Key(NamedTuple):
    parse: Callable[[str, str], object]  # (text, "section.key") -> value, or ConfigError
    default: object = None  # the value when the file leaves the key out
    # When report.kv records the key: "given" (the file sets it), "always"
    # (its default too), or a mesh kind (exactly when the mesh is of it).
    recorded: str = "given"


_SCHEMA = {
    "run": {
        "command": _Key(_choice(_NEEDS)),  # must name the requested command
        "steps": _Key(_count, 64, "always"),
        "s_list": _Key(_s_list, (1e-2, 3e-3, 1e-3), "always"),
        "n_list": _Key(_n_list, (4, 8, 16), "always"),
        "omega": _Key(_number, 1.0, "always"),
    },
    "mesh": {
        "kind": _Key(_choice(_MESH_KINDS), "unit_square", "always"),
        "n": _Key(_count, 4, "unit_square"),
        "neumann_sides": _Key(_sides, (), "unit_square"),
        "rings": _Key(_count, 4, "disk"),
        "path": _Key(_path, None, "file"),
    },
    "velocity": {
        "kind": _Key(_choice(_VELOCITY_KINDS), _REQUIRED),
        "b": _Key(_floats(2)),
        "coeffs": _Key(_floats(12, rows=2)),
        "matrix": _Key(_floats(4, rows=2)),
        "omega": _Key(_number),
        "ramp": _Key(_number),
        "window": _Key(_floats(4)),  # xlo xhi ylo yhi
    },
    "force": {
        "name": _Key(_choice(_FORCES), _REQUIRED),
        "scale": _Key(_number),
        "value": _Key(_floats(2)),
    },
    "traction": {
        "name": _Key(_choice(_TRACTIONS), "none"),
        "value": _Key(_floats(2)),
    },
    "qp": {"path": _Key(_path)},  # qp-demo reads the bundled instance without it
    "tolerances": {
        "max_iter": _Key(_count, 200),
        "residual_tol": _Key(_number, 1e-9),
    },
}


def _show(value) -> str:
    if isinstance(value, tuple):  # an empty tuple is a mesh with no Neumann side
        return " ".join(map(_show, value)) or "none"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass
class RunConfig:
    """Validated run description; builders construct the actual objects."""

    command: str
    # section -> key -> parsed value, for the keys the file sets; [run] is
    # always present, other sections only when the file has them.
    values: dict = field(default_factory=lambda: {"run": {}})

    def value(self, section: str, key: str):
        """The parsed value of ``section.key``, or its default."""
        return self.values.get(section, {}).get(key, _SCHEMA[section][key].default)

    def build_mesh(self) -> TriMesh:
        mesh = _MESH_KINDS[self.value("mesh", "kind")](self)
        if self.command == "corollary3" and NEUMANN in mesh.boundary_tags:
            raise ConfigError(
                f"mesh file {self.value('mesh', 'path')}: corollary3 needs a pure-Dirichlet mesh, "
                "but the file tags Neumann edges"
            )
        return mesh

    def build_velocity(self) -> VelocityField:
        p = self.values["velocity"]
        kind = p["kind"]
        try:
            window = None
            if "window" in p:
                w = p["window"]
                window = CutoffWindow(lo=(w[0], w[2]), hi=(w[1], w[3]), **_pick(p, ramp="ramp"))
            return _VELOCITY_KINDS[kind](p, window)
        except KeyError as exc:
            raise ConfigError(f"velocity kind '{kind}' is missing key {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"velocity: {exc}") from None

    def build_force(self):
        return _FORCES[self.value("force", "name")](self.values["force"])

    def build_traction(self):
        return _TRACTIONS[self.value("traction", "name")](self.values.get("traction", {}))

    def resolved_items(self) -> list[tuple[str, str]]:
        """Flat, ordered view of every setting, embedded in reports."""
        items = [("config.command", self.command)]
        mesh_kind = self.value("mesh", "kind")
        for section, given in self.values.items():
            if section == "traction" and self.value("traction", "name") == "none":
                continue
            for key, spec in _SCHEMA[section].items():
                if spec.recorded in ("always", mesh_kind) or (spec.recorded == "given" and key in given):
                    items.append((f"config.{section}.{key}", _show(self.value(section, key))))
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
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")

    cfg = RunConfig(command)
    for section, keys in _SCHEMA.items():
        if not parser.has_section(section):
            continue
        given = parser[section]
        cfg.values[section] = {
            key: spec.parse(given.get(key, ""), f"{section}.{key}")
            for key, spec in keys.items()
            if key in given or spec.default is _REQUIRED
        }

    requested = cfg.values["run"].pop("command", command)
    if requested != command:
        raise ConfigError(f"config names command '{requested}' but '{command}' was requested")
    if cfg.value("mesh", "kind") == "file" and cfg.value("mesh", "path") is None:
        raise ConfigError("mesh kind 'file' needs mesh.path")
    for section in _NEEDS[command]:
        if section not in cfg.values:
            raise ConfigError(f"command '{command}' needs a [{section}] section")
    if command == "convergence" and len(cfg.values) > 1:
        # the manufactured problem fixes the mesh, force and traction
        raise ConfigError(f"convergence reads only [run], not [{list(cfg.values)[1]}]")
    if command == "corollary3" and cfg.value("mesh", "kind") == "unit_square":
        raise ConfigError("corollary3 needs a pure-Dirichlet mesh (disk or file)")
    return cfg
