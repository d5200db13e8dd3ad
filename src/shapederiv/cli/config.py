"""Run configuration: one INI-style file per reproducible run.

The file is flat and sectioned; a section or key that is unknown, or that
the command does not read, is a ConfigError naming it, so a config either
parses completely or fails.  The keys the run reads are embedded in every
machine report.

``_SCHEMA`` is the vocabulary, written once: section -> key -> parser and
default, in report.kv order.  ``_KINDS`` and ``_READS`` above it say which
keys each kind and each command read.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ..errors import ConfigError
from ..fields import ConstantForce, LeftEdgeTraction, RotationalForce, TrigForce, trig_manufactured
from ..flow import AffineField, ConstantField, CutoffWindow, QuadraticField, RotationField, ZeroField
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


def _positive(text: str, name: str) -> float:
    value = _number(text, name)
    if value <= 0:
        raise ConfigError(f"{name} must be strictly positive")
    return value


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
    steps = tuple(_positive(t, name) for t in _words(text))
    if not steps:
        raise ConfigError(f"{name} needs at least one step")
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ConfigError(f"{name} must be strictly decreasing")
    return steps


def _n_list(text: str, name: str) -> tuple[int, ...]:
    sizes = tuple(_count(t, name) for t in _words(text))
    if not sizes:
        raise ConfigError(f"{name} needs at least one mesh size")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(f"{name} must be strictly increasing")
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


def _set(**args) -> dict:
    """The arguments that are not None; a constructor's own default applies to the rest."""
    return {arg: value for arg, value in args.items() if value is not None}


def _mesh_file(path: str) -> TriMesh:
    try:
        return read_mesh(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"mesh file: {exc}") from None


class _Builder(NamedTuple):
    """A kind's constructor and the keys it reads, as constructor argument -> key."""

    make: Callable
    needs: dict = {}  # keys the section must set
    takes: dict = {}  # keys passed on when set, else with their _SCHEMA default unless it is None


# section -> the key that names its kind, and the builder of each kind.  The
# mesh builders look their function up at call time, so that a wrapper
# installed on the mesh module sees the call.
_KINDS = {
    "mesh": ("kind", {
        "unit_square": _Builder(lambda **a: unit_square_mesh(**a), takes={"n": "n", "neumann_sides": "neumann_sides"}),
        "disk": _Builder(lambda **a: disk_mesh(**a), takes={"rings": "rings"}),
        "file": _Builder(_mesh_file, needs={"path": "path"}),
    }),
    "velocity": ("kind", {
        "zero": _Builder(ZeroField),
        "constant": _Builder(ConstantField, needs={"b": "b"}),
        "affine": _Builder(AffineField, needs={"M": "matrix"}, takes={"b": "b"}),
        "rotation": _Builder(RotationField, takes={"omega": "omega"}),
        "quadratic": _Builder(QuadraticField, needs={"coeffs": "coeffs"}),
    }),
    "force": ("name", {
        "constant": _Builder(ConstantForce, takes={"value": "value"}),
        "rotational": _Builder(RotationalForce, takes={"c": "scale"}),
        "trig": _Builder(TrigForce, takes={"c": "scale"}),
        "manufactured-trig": _Builder(lambda: trig_manufactured().force),
    }),
    "traction": ("name", {
        "none": _Builder(lambda: None),
        "constant-left": _Builder(LeftEdgeTraction, takes={"value": "value"}),
        "manufactured-trig": _Builder(lambda: trig_manufactured().traction),
    }),
}

# command -> (the kind sections it cannot run without, in the order they are
# checked; the other keys it reads).  Where it reads the key that names a
# kind, it reads that kind's keys too.  Any other section or key is a ConfigError.
_READS = {
    "qp-demo": ((), ("run.s_list", "qp.path", "tolerances.max_iter")),
    "stokes-solve": (("mesh", "force"), ("traction.name", "tolerances.residual_tol")),
    "shape-derivative": (("mesh", "velocity", "force"), ()),
    "fd-verify": (("mesh", "velocity", "force"), ("run.steps", "run.s_list")),
    "corollary3": (("mesh", "force"), ("run.steps", "run.s_list", "run.omega")),
    "convergence": ((), ("run.n_list",)),  # the manufactured problem fixes mesh, force and traction
}
COMMANDS = tuple(_READS)

_REQUIRED = object()  # the default of a key its section cannot do without


class _Key(NamedTuple):
    parse: Callable[[str, str], object]  # (text, "section.key") -> value, or ConfigError
    default: object = None  # the value when the file leaves the key out


_SCHEMA = {
    "run": {
        "command": _Key(_choice(_READS)),  # must name the requested command
        "steps": _Key(_count, 64),
        "s_list": _Key(_s_list, (1e-2, 3e-3, 1e-3)),
        "n_list": _Key(_n_list, (4, 8, 16)),
        "omega": _Key(_number, 1.0),
    },
    "mesh": {
        "kind": _Key(_choice(_KINDS["mesh"][1]), "unit_square"),
        "n": _Key(_count, 4),
        "neumann_sides": _Key(_sides, ()),
        "rings": _Key(_count, 4),
        "path": _Key(_path),
    },
    "velocity": {
        "kind": _Key(_choice(_KINDS["velocity"][1]), _REQUIRED),
        "b": _Key(_floats(2)),
        "coeffs": _Key(_floats(12, rows=2)),
        "matrix": _Key(_floats(4, rows=2)),
        "omega": _Key(_number),
        "ramp": _Key(_number),
        "window": _Key(_floats(4, rows=2)),  # xlo xhi, ylo yhi
    },
    "force": {
        "name": _Key(_choice(_KINDS["force"][1]), _REQUIRED),
        "scale": _Key(_number),
        "value": _Key(_floats(2)),
    },
    "traction": {
        "name": _Key(_choice(_KINDS["traction"][1]), "none"),
        "value": _Key(_floats(2)),
    },
    "qp": {"path": _Key(_path)},  # qp-demo reads the bundled instance without it
    "tolerances": {
        "max_iter": _Key(_count, 200),
        "residual_tol": _Key(_positive, 1e-9),
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
    # "section.key" of the keys the run found it does not read (see skip)
    skipped: set = field(default_factory=set)

    def value(self, section: str, key: str):
        """The parsed value of ``section.key``, or its default."""
        return self.values.get(section, {}).get(key, _SCHEMA[section][key].default)

    def reads(self) -> dict[str, list[str]]:
        """section -> the keys this run reads, in _SCHEMA order."""
        needs, other = _READS[self.command]
        read = {*other, *(f"{section}.{_KINDS[section][0]}" for section in needs)}
        for section, (field, kinds) in _KINDS.items():
            if f"{section}.{field}" in read:
                _, need, take = kinds[self.value(section, field)]
                read |= {f"{section}.{key}" for key in (*need.values(), *take.values())}
        if "velocity.kind" in read:  # every velocity kind reads the window, and the ramp only with it
            read |= {"velocity.window", "velocity.ramp"} if self.value("velocity", "window") else {"velocity.window"}
        read -= self.skipped
        listed = {section: [key for key in spec if f"{section}.{key}" in read] for section, spec in _SCHEMA.items()}
        return {section: keys for section, keys in listed.items() if keys or section == "run"}  # run.command is read

    def skip(self, section: str, key: str, reason: str) -> None:
        """Leave out a key the run turns out not to read; a ConfigError if the file sets it."""
        if key in self.values.get(section, {}):
            raise ConfigError(f"{reason}, so command '{self.command}' does not read key '{section}.{key}'")
        self.skipped.add(f"{section}.{key}")

    def _check_reads(self) -> None:
        """A needed section or key left out is a ConfigError, as is one the run does not read."""
        for section in _READS[self.command][0]:
            if section not in self.values:
                raise ConfigError(f"command '{self.command}' needs a [{section}] section")
        reads = self.reads()
        for section, given in self.values.items():
            if section not in reads:
                raise ConfigError(f"command '{self.command}' does not read [{section}]")
            owner, prefix, needs = f"command '{self.command}'", f"{section}.", {}
            if section in _KINDS:
                field, kinds = _KINDS[section]
                name = self.value(section, field)
                owner, prefix, needs = f"{section} {field} '{name}'", "", kinds[name].needs
            unread = [key for key in given if key not in reads[section]]
            missing = [key for key in needs.values() if key not in given]
            for problem, keys in (("does not read", unread), ("is missing", missing)):
                if keys:
                    raise ConfigError(f"{owner} {problem} key '{prefix}{keys[0]}'")

    def build(self, section: str, **extra):
        """Build the kind ``section`` names; build_mesh and build_velocity add their rules."""
        field, kinds = _KINDS[section]
        make, needs, takes = kinds[self.value(section, field)]
        return make(**_set(**{arg: self.value(section, key) for arg, key in {**needs, **takes}.items()}), **extra)

    def build_mesh(self) -> TriMesh:
        mesh = self.build("mesh")
        if self.command == "corollary3" and NEUMANN in mesh.boundary_tags:
            where = f"mesh file {self.value('mesh', 'path')}" if self.value("mesh", "path") else "mesh.neumann_sides"
            raise ConfigError(f"{where}: corollary3 needs a pure-Dirichlet mesh, but the mesh has Neumann edges")
        return mesh

    def build_velocity(self) -> QuadraticField:
        window = self.value("velocity", "window")
        try:
            if window is not None:  # rows (xlo, xhi), (ylo, yhi) -> lo, hi
                window = CutoffWindow(*zip(*window), **_set(ramp=self.value("velocity", "ramp")))
            return self.build("velocity", window=window)
        except ValueError as exc:
            raise ConfigError(f"velocity: {exc}") from None

    def resolved_items(self) -> list[tuple[str, str]]:
        """Flat, ordered view of the settings this run reads, embedded in
        reports: [run] and [mesh] with their defaults, the other sections as
        far as the file sets them, and a traction of none not at all."""
        items = [("config.command", self.command)]
        for section, keys in self.reads().items():
            if section != "traction" or self.value("traction", "name") != "none":
                shown = [key for key in keys if key in self.values.get(section, {}) or section in ("run", "mesh")]
                items += [(f"config.{section}.{key}", _show(self.value(section, key))) for key in shown]
        return items


def parse_config(path, command: str) -> RunConfig:
    """Read and validate a config file for the given command."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}'; expected one of {', '.join(COMMANDS)}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    if parser.defaults():
        # [DEFAULT] is not among parser.sections(), so its keys would
        # escape the checks below.
        raise ConfigError(f"keys under [DEFAULT] are not allowed: {', '.join(parser.defaults())}")
    cfg = RunConfig(command)
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        given = parser[section]
        for key in given:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
        cfg.values[section] = {
            key: spec.parse(given.get(key, ""), f"{section}.{key}")
            for key, spec in _SCHEMA[section].items()
            if key in given or spec.default is _REQUIRED
        }

    requested = cfg.values["run"].pop("command", command)
    if requested != command:
        raise ConfigError(f"config names command '{requested}' but '{command}' was requested")
    cfg._check_reads()
    return cfg
