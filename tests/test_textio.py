"""The C-level float block parse returns the row-by-row parse's array, bit
for bit, and leaves every error to it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapederiv as sd
from shapederiv import _textio
from shapederiv._textio import _float_rows, float_block

_FORMATS = [repr, lambda v: f"{v:.17g}", lambda v: f"{v:.6e}", lambda v: repr(v) if repr(v)[0] == "-" else f"+{v!r}"]
# float() reads these and loadtxt does not, so they take the row path
_ROW_ONLY = ["1_0", "١", "-٣.٥", "2_5e-1_0"]


def _parse(lines, rows, width):
    """(array, None) or (None, error message) for each parse."""
    out = []
    for parse in (float_block, _float_rows):
        try:
            out.append((parse(lines, 1, "f.txt", "A", rows, width), None))
        except ValueError as exc:
            out.append((None, str(exc)))
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rows=st.integers(1, 4),
    width=st.integers(1, 4),
    data=st.data(),
)
def test_block_parse_matches_the_row_parse_bitwise(rows, width, data):
    token = st.builds(lambda f, v: f(v), st.sampled_from(_FORMATS), st.floats(allow_nan=False, allow_infinity=False))
    widths = [width]
    if data.draw(st.booleans(), label="mixed"):
        # tokens that only float() reads or that neither reads, and rows
        # with a token missing or one too many
        token = st.one_of(token, st.sampled_from(_ROW_ONLY + ["nan", "inf", "1e400", "0x10", "1,5"]))
        widths = [width] * 6 + [width - 1, width + 1]
    texts = []
    for _ in range(rows):
        n = data.draw(st.sampled_from(widths))
        sep = data.draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        texts.append(sep.join(data.draw(st.lists(token, min_size=n, max_size=n))) or "x")
    lines = [(1, "A"), *((k + 2, text) for k, text in enumerate(texts))]
    (got, got_err), (ref, ref_err) = _parse(lines, rows, width)
    assert got_err == ref_err
    if ref is not None:
        assert got.shape == ref.shape == (rows, width) and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


def test_clean_blocks_skip_the_row_parse(monkeypatch):
    def row_parse(*args):
        raise AssertionError("row parse")

    monkeypatch.setattr(_textio, "_float_rows", row_parse)
    lines = [(1, "A"), (2, "1.5\t-2e-3 +4"), (3, "0 -0 1e308")]
    assert float_block(lines, 1, "f.txt", "A", 2, 3).tobytes() == np.array([[1.5, -2e-3, 4], [0, -0.0, 1e308]]).tobytes()
    for row_only in _ROW_ONLY:
        with pytest.raises(AssertionError, match="row parse"):
            float_block([(1, "A"), (2, row_only)], 1, "f.txt", "A", 1, 1)


def test_zero_row_blocks_keep_their_errors(tmp_path):
    # loadtxt warns on empty input, and the suite turns warnings into errors,
    # so a block with no rows, or none left in the file, never reaches it.
    cases = [
        ("tri-mesh v1\nV 0\nT 1\n0 1 2\nE 0\n", sd.read_mesh, ", line 4: block T: vertex index out of range 0..-1"),
        ("cone-qp v1\ncone inequality\nA 0 0\nB 0 0\nf 1\n1\n", sd.load_qp,
         ", line 5: block f has shape (1,), expected (0,) for the 0 x 0 block A"),
        ("cone-qp v1\ncone inequality\nA 0 0\nB 0 0\nf 0\n", sd.load_qp,
         ": block f expects 1 row(s), the file ends at line 5 after 0 of them"),
    ]
    for k, (text, read, message) in enumerate(cases):
        path = tmp_path / f"{k}.txt"
        path.write_text(text, encoding="ascii")
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value) == f"{path}{message}"
