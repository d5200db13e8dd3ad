"""Report files: human summary, machine key-value store, CSV tables.

Machine outputs use 17 significant digits and a fixed key order, so a
repeated run with the same config produces byte-identical files; the
summary rounds to 6 digits for reading.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import ConfigError


def fmt17(x: float) -> str:
    return f"{float(x):.17g}"


def fmt6(x: float) -> str:
    return f"{float(x):.6g}"


def vec17(values) -> str:
    return " ".join(fmt17(v) for v in values)


def rows17(values: np.ndarray) -> list[str]:
    """CSV rows "k,v_1,...,v_m" of a 2-d array, k the row index, each v as
    fmt17 writes it (``%.17g`` is the same conversion), made by one % call."""
    n, m = values.shape
    flat = tuple(v for k, row in enumerate(values.tolist()) for v in (k, *row))
    return ((f"%d{',%.17g' * m}\n" * n) % flat).splitlines()


class ReportWriter:
    """Collects key-value pairs, summary lines and CSV tables, then writes
    summary.txt, report.kv and one file per table into the output directory,
    which it makes at once: one that cannot be made or written is a ConfigError."""

    def __init__(self, output_dir: str):
        self.output_dir = output_dir
        self.kv: list[tuple[str, str]] = []
        self.summary: list[str] = []
        self.tables: dict[str, tuple[str, list[str]]] = {}
        try:
            os.makedirs(output_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write the report to {output_dir}: {exc}") from None

    def add_kv(self, key: str, value) -> None:
        if isinstance(value, float):
            value = fmt17(value)
        self.kv.append((key, str(value)))

    def add_summary(self, line: str = "") -> None:
        self.summary.append(line)

    def add_table(self, name: str, header: str, rows: list[str]) -> None:
        self.tables[name] = (header, rows)

    def write(self) -> list[str]:
        """Write report.kv, summary.txt and the tables as UTF-8; returns their paths."""
        files = {
            "report.kv": [f"{key} = {value}" for key, value in self.kv],
            "summary.txt": self.summary,
            **{name: [header, *rows] for name, (header, rows) in self.tables.items()},
        }
        written = []
        try:
            for name, lines in files.items():
                path = os.path.join(self.output_dir, name)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.writelines(line + "\n" for line in lines)
                written.append(path)
        except OSError as exc:
            raise ConfigError(f"cannot write the report to {self.output_dir}: {exc}") from None
        return written


def read_kv(path) -> dict[str, str]:
    """Parse a report.kv file back into a dict (test and tooling helper)."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if " = " in line:
                key, value = line.rstrip("\n").split(" = ", 1)
                out[key] = value
    return out
