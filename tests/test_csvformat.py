"""The CSV writer writes each value's repr, on bounded memory."""

import io
import math
import struct
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import SPECIAL

from siou import _csvformat, cli

FAST_BITS = (struct.unpack("<Q", struct.pack("<d", 1e-4))[0], struct.unpack("<Q", struct.pack("<d", 1e16))[0] - 1)
POWERS = [2.0**e for e in range(-14, 54)]
EDGES = [0.0, 1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), 9999999999999998.0, 1e16, 2.0**53,
         *POWERS, *(math.nextafter(x, 0.0) for x in POWERS), *(math.nextafter(x, math.inf) for x in POWERS), *SPECIAL]


def _oracle(values, labels=None):
    """The lines of ``values`` from Python's repr, in the wide layout or with ``labels`` the long: the reference."""
    rows = values.tolist()
    if labels is None:
        return "".join(",".join(map(repr, row)) + "\r\n" for row in rows).encode()
    return "".join(f"{r},{label},{v!r}\r\n" for r, row in enumerate(rows) for label, v in zip(labels, row)).encode()


def _written(values, labels=None):
    out = io.BytesIO()
    _csvformat.write_csv(out, values, labels)
    return out.getvalue()


def _check(values):
    assert _written(values) == _oracle(values)
    labels = [f"c{j}" for j in range(values.shape[1])]
    assert _written(values, labels) == _oracle(values, labels)


def test_the_edge_values_match_repr():
    values = np.array(EDGES + [-x for x in EDGES])
    _check(values[:, None])
    _check(values.reshape(-1, 2))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.floats(0.0, 0.2))
def test_random_bit_patterns_match_repr(seed, ncols, outside):
    # Bit patterns in the formatter's class, with either sign, and a share `outside` of any bits at all, so that
    # values in the class and values that take their repr share blocks and rows.
    gen = np.random.default_rng(seed)
    n = 64 * ncols
    bits = gen.integers(*FAST_BITS, size=n, dtype=np.uint64, endpoint=True) | gen.integers(0, 2, n, np.uint64) << 63
    anywhere = gen.random(n) < outside
    bits[anywhere] = gen.integers(0, 2**64 - 1, anywhere.sum(), np.uint64, endpoint=True)
    _check(bits.view(np.float64).reshape(-1, ncols))


def test_the_formatter_tables_stay_under_64_kb():
    tables = [v for v in vars(_csvformat).values() if isinstance(v, np.ndarray)]
    assert sum(t.nbytes for t in tables) < 64 * 1024


def test_the_writer_peak_is_a_few_blocks_not_the_values(tmp_path):
    values = np.random.default_rng(3).standard_normal((200_000, 6))
    tracemalloc.start()
    try:
        cli._write_csv(str(tmp_path / "x.csv"), [str(j) for j in range(6)], values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "x.csv").stat().st_size
    # A block's buffers and temporaries take about 350 bytes a value; the text of all values is 24 MB.
    assert peak < 1000 * _csvformat.BLOCK_VALUES < size / 5
