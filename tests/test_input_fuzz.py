"""Mutated input files end in a categorized error, never a raw exception.

Each example takes a valid QP instance, mesh or config file, drops,
duplicates or swaps a few lines or tokens, or puts a byte that is not
UTF-8 in place of one, and reads it back.  ``parse_config`` may accept the
result or raise ConfigError, the only error the CLI expects from it.  The
QP and mesh readers may also raise ValueError or OSError, which their CLI
callers turn into a ConfigError; anything else fails the test.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapederiv as sd
from shapederiv.cli.config import parse_config
from shapederiv.errors import ConfigError


def _qp_text(path):
    qp = sd.ConeQP(A=[[2.0, 0.5], [0.5, 1.0]], B=[[1.0, 1.0]], f=[1.0, -2.0])
    direction = sd.PerturbationDirection(A1=np.diag([0.1, -0.2]), B1=[[0.0, 0.5]], f1=[0.3, 0.0])
    sd.save_qp(path, qp, direction)


def _mesh_text(path):
    sd.write_mesh(path, sd.unit_square_mesh(2, {"right"}))


def _config_text(path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            "[run]\ncommand = fd-verify\ns_list = 1e-2 3e-3\nsteps = 8\nn_list = 2 4\nomega = 1.0\n\n"
            "[mesh]\nkind = unit_square\nn = 2\nneumann_sides = right\nrings = 2\npath = mesh.txt\n\n"
            "[velocity]\nkind = affine\nmatrix = 0.3 0.1 -0.2 0.15\nb = 0.05 -0.04\nomega = 0.5\n"
            "coeffs = 0 0.1 0 0.2 0 0.3 0 0 0.1 0 0.2 0.1\nwindow = 0.1 0.9 0.1 0.9\nramp = 0.25\n\n"
            "[force]\nname = trig\nscale = 1.5\nvalue = 1 0\n\n"
            "[traction]\nname = constant-left\nvalue = 2 0\n\n"
            "[qp]\npath = qp.txt\n\n"
            "[tolerances]\nresidual_tol = 1e-9\nmax_iter = 50\n"
        )


FILE_ERRORS = (ValueError, OSError, sd.ShapeDerivError)
# reader -> (writer of a valid file, reader, the errors it may raise)
READERS = {
    "load_qp": (_qp_text, sd.load_qp, FILE_ERRORS),
    "read_mesh": (_mesh_text, sd.read_mesh, FILE_ERRORS),
    "parse_config": (_config_text, lambda path: parse_config(path, "fd-verify"), ConfigError),
}


def _mutate(lines: list[str], data) -> list[str]:
    rows = [line.split() for line in lines]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        if not rows:
            break
        op = data.draw(st.sampled_from(["drop", "duplicate", "swap"]), label="op")
        i = data.draw(st.integers(0, len(rows) - 1), label="line")
        if op == "drop":
            del rows[i]
        elif op == "duplicate":
            rows.insert(i, list(rows[i]))
        else:
            slots = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
            (r1, c1), (r2, c2) = data.draw(st.tuples(st.sampled_from(slots), st.sampled_from(slots)), label="tokens")
            rows[r1][c1], rows[r2][c2] = rows[r2][c2], rows[r1][c1]
    return [" ".join(row) for row in rows]


def _read_mutated(reader, mutate):
    """Write the reader's valid file, replace its bytes by ``mutate(bytes)``
    and read it back."""
    write_valid, read, allowed = READERS[reader]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        write_valid(path)
        with open(path, "rb") as fh:
            raw = mutate(fh.read())
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            read(path)
        except allowed:
            pass


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_inputs_raise_only_categorized_errors(reader, data):
    def mutate(raw):
        lines = _mutate(raw.decode("ascii").splitlines(), data)
        return ("\n".join(lines) + "\n").encode("ascii")

    _read_mutated(reader, mutate)


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_non_utf8_byte_raises_only_categorized_errors(reader, data):
    def mutate(raw):
        i = data.draw(st.integers(0, len(raw) - 1), label="byte")
        # a stray continuation byte, lead bytes before ASCII, and a byte UTF-8 never uses
        bad = data.draw(st.sampled_from([0x80, 0xC3, 0xE9, 0xFF]), label="value")
        return raw[:i] + bytes([bad]) + raw[i + 1 :]

    _read_mutated(reader, mutate)
