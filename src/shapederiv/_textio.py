"""Line-numbered parsing shared by the QP-instance and mesh text formats.

Every error is a ValueError that names the file, the block and the line,
so a caller can turn a malformed file into one categorized error.  Float
blocks are parsed in C by ``np.loadtxt``; the row-by-row parse runs only
on a block that it does not read cleanly, and is the one that raises.
"""

from __future__ import annotations

import numpy as np


def numbered_lines(path, comment: str | None = None) -> list[tuple[int, str]]:
    """Non-blank lines of a UTF-8 text file, stripped, with their 1-based
    numbers.  Lines that start with ``comment`` are skipped.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = list(enumerate(fh, 1))
    for number, line in lines:
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:  # a byte that is not UTF-8, escaped to U+DC80..U+DCFF
            raise ValueError(f"{path}, line {number}: byte 0x{ord(line[exc.start]) - 0xDC00:02x} is not UTF-8") from None
    return [
        (number, line.strip())
        for number, line in lines
        if line.strip() and not (comment and line.startswith(comment))
    ]


def block_sizes(path, line: tuple[int, str], block: str, count: int) -> list[int]:
    """The ``count`` non-negative integer sizes after the block name on ``line``."""
    number, text = line
    tokens = text.split()[1:]
    sizes = [int(t) for t in tokens if t.isdecimal()]
    if len(tokens) != count or len(sizes) != count:
        raise ValueError(f"{path}, line {number}: block {block} expects {count} non-negative integer size(s)")
    return sizes


def block_rows(lines, pos: int, path, block: str, rows: int, width: int, parse) -> list:
    """Parse ``lines[pos:pos + rows]``, each a row of ``width`` tokens, with ``parse``."""
    if pos + rows > len(lines):
        last = lines[-1][0] if lines else 0
        raise ValueError(
            f"{path}: block {block} expects {rows} row(s), the file ends at line {last} "
            f"after {len(lines) - pos} of them"
        )
    out = []
    for number, text in lines[pos:pos + rows]:
        tokens = text.split()
        if len(tokens) != width:
            raise ValueError(
                f"{path}, line {number}: block {block} expects {width} value(s) per row, got {len(tokens)}"
            )
        try:
            out.append(parse(tokens))
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: block {block}: {exc}") from None
    return out


def float_block(lines, pos: int, path, block: str, rows: int, width: int) -> np.ndarray:
    """A ``rows`` x ``width`` array of finite floats from ``lines[pos:pos + rows]``.

    The block is parsed in C by ``np.loadtxt``, which reads a token as
    ``float()`` does (both call ``PyOS_string_to_double``) but accepts fewer
    spellings: no ``_`` separators and no non-ASCII digits.  A block that it
    rejects, reads to another shape or to a value that is not finite is
    parsed again row by row, which alone raises, so the errors name the line
    as before.
    """
    texts = [text for _, text in lines[pos:pos + rows]]
    if texts and len(texts) == rows:  # loadtxt warns on empty input
        try:
            a = np.loadtxt(texts, dtype=float, ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            if a.shape == (rows, width) and np.isfinite(a).all():
                return a
    return _float_rows(lines, pos, path, block, rows, width)


def _float_rows(lines, pos: int, path, block: str, rows: int, width: int) -> np.ndarray:
    """``float_block`` row by row, with ``float()`` on each token."""
    a = np.array(
        block_rows(lines, pos, path, block, rows, width, lambda tokens: [float(t) for t in tokens]),
        dtype=float,
    ).reshape(rows, width)
    bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}, line {lines[pos + bad[0]][0]}: block {block}: values must be finite")
    return a
