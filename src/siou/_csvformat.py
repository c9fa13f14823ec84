"""siou's CSV writer: each float64 value as Python's ``repr``, formatted a block of values at a time in numpy.

A value in the formatter's class, {±0} ∪ [1e-4, 1e16), has a ``repr`` in
fixed notation, which the block formatter writes. Its digits are the
shortest decimal that rounds back to the value, the one nearest the value
among those, and the even one of two nearest. The Schubfach algorithm
(R. Giulietti, "The Schubfach way to render doubles", 2020) finds them with
three round-to-odd products of the value's significand by a 126-bit power
of ten, here on 32-bit limbs of uint64 arrays. Each value gets a fixed slot
of bytes that holds every piece its text may need, and one boolean mask per
block keeps the text's bytes. Any other value (nan, ±inf, a subnormal,
0 < |x| < 1e-4, |x| ≥ 1e16) takes its ``repr`` from Python, written into
the start of its own slot; the tests hold the writer to ``repr`` itself.
"""

import numpy as np

BLOCK_VALUES = 2**12  # values per block, at least one row; a block takes 350 to 450 bytes a value at its peak

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_BE_LO, _BE_HI = 1009, 1076  # the biased exponents of 2^-14 and 2^53, the binades of 1e-4 and 1e16


def _powers() -> tuple[np.ndarray, ...]:
    """Per biased exponent in [_BE_LO, _BE_HI]: k = floor(log10 2^q), the shift h, and 10^-k as g1, g0.

    q = be - 1075 is the exponent of the significand's unit. g = g1 2^63 + g0 is
    floor(10^-k 2^-r) + 1 with r chosen to put g in [2^125, 2^126), from Python
    integers. In this range k <= 0, so 10^-k 2^-r is an integer. g1 and g0 come
    as 32-bit limbs.
    """
    rows = []
    for q in range(_BE_LO - 1075, _BE_HI - 1075 + 1):
        k = len(str(2**q)) - 1 if q >= 0 else -len(str(2**-q))
        log2 = (10**-k).bit_length() - 1  # floor(log2 10^-k)
        g = (10**-k << 125 - log2) + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        rows.append((k, q + log2 + 2, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    k, *rest = np.array(rows, dtype=np.int64).T
    return (k, *(col.astype(_U) for col in rest))


_K, _H, _G1H, _G1L, _G0H, _G0L = _powers()
_G1, _G0 = (_G1H << _U(32)) | _G1L, (_G0H << _U(32)) | _G0L
# The ASCII digits of 0000 to 9999, four to a uint32, so that a uint8 view reads them in order.
_QUADS = (np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48
          ).astype(np.uint8).view(np.uint32)[:, 0]
_ZERO_DIGITS = _U(int.from_bytes(b"0" * 8, "little"))


def _mulhi(a1, a0, b1, b0):
    """The high 64 bits of a b, for a = a1 2^32 + a0 < 2^63 and b = b1 2^32 + b0 < 2^60 in 32-bit limbs.

    The bounds keep a1 b0 + a0 b1 + (a0 b0 >> 32), the middle of the product, below 2^64.
    """
    return a1 * b1 + ((a1 * b0 + a0 * b1 + ((a0 * b0) >> _U(32))) >> _U(32))


def _round_to_odd(y1, y0, x1):
    """floor(P / 2^127) with its last bit set when P / 2^127 is not an integer, for P = g cp.

    (y1, y0) is g1 cp and x1 the high half of g0 cp, each with its 64-bit halves;
    as in Schubfach, the low half of g0 cp and the last bit of y0 are left out.
    """
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _interval(bits: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, ...]:
    """4 |x| 10^-k and the ends of the interval that rounds to x, scaled alike and rounded to odd; and c's last bit.

    ``j`` is each value's binade, its biased exponent less _BE_LO, and c its
    significand. The interval's ends are x less and plus half the float
    spacing. A power of two takes the same steps as any value, so its
    interval reaches down to the next float below, twice as far as the
    midpoint that rounding uses; for every power of two in [_BE_LO, _BE_HI]
    that still gives the shortest digits.
    """
    c = (bits & _U(2**52 - 1)) | _U(2**52)
    h, g1, g0 = _H[j], _G1[j], _G0[j]
    cp = c << (h + _U(2))  # 4c 2^h; the ends are cp -+ d with d = 2^(h + 1)
    c1, c0 = cp >> _U(32), cp & _M32
    y1, y0 = _mulhi(_G1H[j], _G1L[j], c1, c0), g1 * cp
    x1, x0 = _mulhi(_G0H[j], _G0L[j], c1, c0), g0 * cp
    # g d, as 64-bit halves, is g shifted left by h + 1; the ends' products are those of g cp less or plus it.
    up, down = h + _U(1), _U(63) - h
    d1h, d1l, d0h, d0l = g1 >> down, g1 << up, g0 >> down, g0 << up
    y0r = y0 + d1l
    return (_round_to_odd(y1, y0, x1), _round_to_odd(y1 - d1h - (y0 < d1l), y0 - d1l, x1 - d0h - (x0 < d0l)),
            _round_to_odd(y1 + d1h + (y0r < y0), y0r, x1 + d0h + (x0 + d0l < x0)), c & _U(1))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest digits of each float64 with uint64 ``bits``: ``f`` and ``k`` with |x| = f 10^k exactly.

    f has 16 or 17 digits, trailing zeros included. A value whose biased
    exponent is below _BE_LO, 0 among them, is taken in the lowest binade and
    gets meaningless digits; none may lie above _BE_HI.
    """
    j = np.maximum((bits >> _U(52)) & _U(0x7FF), _U(_BE_LO)).astype(np.intp) - _BE_LO
    vb, vbl, vbr, odd = _interval(bits, j)
    # The interval holds a digit string d when vbl + odd <= 4d and 4d + odd <= vbr (both ends belong when c is even).
    s = vb >> _U(2)
    s10 = s // _U(10) * _U(10)
    u10, w10 = vbl + odd <= s10 << _U(2), ((s10 + _U(10)) << _U(2)) + odd <= vbr
    u, w = vbl + odd <= s << _U(2), ((s + _U(1)) << _U(2)) + odd <= vbr
    mid = (s << _U(2)) + _U(2)
    nearer = (vb < mid) | ((vb == mid) & ((s & _U(1)) == _U(0)))  # s is nearer, or as near and even
    f = s + (~np.where(u != w, u, nearer)).astype(_U)  # s, or s + 1
    f = np.where(u10 != w10, np.where(u10, s10, s10 + _U(10)), f)  # one of the two 10-multiples beats both
    return f, _K[j]


def _divmod(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """x // d and x % d of a uint64 array; numpy divides by a constant fast, but not in np.divmod or %."""
    q = x // _U(d)
    return q, x - q * _U(d)


def _digits(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digits of each uint64 in ``f`` below 10^17, zero-padded to 17, and the count of trailing zeros.

    The digits come as the first one's ASCII code and an (n, 4) uint32 array
    whose uint8 view holds the other 16. A 0 has 16 trailing zeros.
    """
    hi, lo = _divmod(f, 10**8)
    lead, hi = _divmod(hi, 10**8)
    quads = np.empty((len(f), 4), np.intp)
    quads[:, 0], quads[:, 1] = _divmod(hi, 10**4)
    quads[:, 2], quads[:, 3] = _divmod(lo, 10**4)
    text = _QUADS[quads]
    # As little-endian words less "0" in each byte, 8 digits leave one zero high byte per trailing zero. No byte
    # exceeds 9, so the conversion to float64 keeps each word's bit length.
    word = text.view("<u8") ^ _ZERO_DIGITS
    last = np.where(word[:, 1] == _U(0), word[:, 0], word[:, 1])
    zeros = (64 - np.frexp(last.astype(np.float64))[1]) // 8 + 8 * (word[:, 1] == _U(0))
    return (lead + _U(48)).astype(np.uint8), text, zeros


# A value's slot: "-", "0.000", its 17 digits, ".", its 17 digits again. Its text keeps the sign when negative and
# then "0." with -p zeros and the digits when p <= 0, else the first copy's first p digits, ".", and the second
# copy from digit p to the last nonzero digit, at least one. p is the decimal point's place: x = 0.d1d2... 10^p.
_ZEROS, _INT, _POINT, _FRAC, _VALUE = 1, 6, 23, 24, 41
_P_MIN, _P_MAX = -3, 16
_FIXED = np.frombuffer(b"-0.000", np.uint8)


def _masks() -> np.ndarray:
    """The kept bytes of slot columns 1 to 40, one row per (p, significant digits) pair."""
    p, nsig = (a.ravel() for a in np.meshgrid(np.arange(_P_MIN, _P_MAX + 1), np.arange(18), indexing="ij"))
    col = np.arange(1, _VALUE)
    end = np.maximum(nsig, p + 1)[:, None]  # one digit after the point at least
    p = p[:, None]
    below_one = ((col >= _ZEROS) & (col < _ZEROS + 2 - p)) | ((col >= _FRAC) & (col < _FRAC + nsig[:, None]))
    above_one = ((col >= _INT) & (col < _INT + p)) | (col == _POINT) | ((col >= _FRAC + p) & (col < _FRAC + end))
    return np.where(p <= 0, below_one, above_one)


_MASKS = _masks()
_POW10 = _U(10) ** np.arange(1, 17, dtype=_U)


class _Slots:
    """One block's byte slots and kept-byte mask for a row layout, reused from block to block.

    Each value has a slot: the row index when ``index``, its column's lead
    right-aligned, the value's slot, and its column's tail. The leads, tails
    and the value slots' fixed bytes are written once, and again after a ``repr`` covered them.
    """

    def __init__(self, rows: int, leads: list[bytes], tails: list[bytes], index: bool):
        self.index, self.at = index, 17 * index + max(map(len, leads))
        width = self.at + _VALUE + max(map(len, tails))
        self.buf = np.zeros((rows, len(leads), width), np.uint8)
        self.keep = np.zeros((rows, len(leads), width), bool)
        for j, (lead, tail) in enumerate(zip(leads, tails)):
            for start, text in ((self.at - len(lead), lead), (self.at + _VALUE, tail)):
                self.buf[:, j, start : start + len(text)] = np.frombuffer(text, np.uint8)
                self.keep[:, j, start : start + len(text)] = True
        self.buf[..., self.at : self.at + _INT], self.buf[..., self.at + _POINT] = _FIXED, ord(".")

    def text(self, block: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The bytes of the lines of ``block``, whose rows are numbered ``rows``.

        A value outside the class is formatted as 0, and then its ``repr``, at
        most 24 bytes, covers the start of its slot until the text is cut.
        """
        (n, ncols), at = block.shape, self.at
        buf, keep = self.buf[:n], self.keep[:n]
        values = block.reshape(-1)
        absolute = np.abs(values)
        outside = ~(((absolute >= 1e-4) & (absolute < 1e16)) | (absolute == 0.0))
        other = np.flatnonzero(outside)
        bits = np.where(outside, _U(0), values.view(_U)) if other.size else values.view(_U)  # tables cover the class
        f, k = _shortest(bits)
        short = f < _U(10**16)
        f = np.where(short, f * _U(10), f)  # 17 digits
        p = k + 17 - short
        zero = (bits << _U(1)) == _U(0)
        f[zero], p[zero] = 0, 1
        lead, text, zeros = _digits(f)
        for start in (at + _INT, at + _FRAC):
            buf[..., start] = lead.reshape(n, ncols)
            buf[..., start + 1 : start + 17] = text.view(np.uint8).reshape(n, ncols, 16)
        code = (p - _P_MIN) * 18 + 17 - zeros
        np.take(_MASKS, code.reshape(n, ncols), axis=0, out=keep[..., at + 1 : at + _VALUE])
        keep[..., at] = (bits >> _U(63)).reshape(n, ncols).astype(bool)
        if self.index:
            r = rows.astype(_U)
            lead, text, _ = _digits(r)
            buf[..., 0] = lead[:, None]
            buf[..., 1:17] = text.view(np.uint8).reshape(n, 1, 16)
            keep[..., :17] = np.arange(17) >= 16 - (r[:, None] >= _POW10).sum(axis=1)[:, None, None]
        if other.size:  # numpy's fixed-width bytes truncate silently; a value slot holds any repr
            reprs = np.array(list(map(repr, values[other].tolist())), f"S{_VALUE}")
            slots = np.s_[other, at : at + _VALUE]
            buf.reshape(n * ncols, -1)[slots] = reprs.view(np.uint8).reshape(-1, _VALUE)
            keep.reshape(n * ncols, -1)[slots] = np.arange(_VALUE) < np.strings.str_len(reprs)[:, None]
        out = buf[keep]
        if other.size:
            buf[..., at : at + _INT], buf[..., at + _POINT] = _FIXED, ord(".")
        return out


def write_csv(fh, values: np.ndarray, labels=None) -> None:
    """Write the rows of 2-D float64 ``values`` (one column at least) to binary ``fh`` as CSV lines.

    A line ends in ``\\r\\n``. Without ``labels``, a row is one line of its
    values joined by commas. With ``labels``, one CSV field per column, each
    value is one line: its row index, its column's label and the value. Each
    value's text is its ``repr``, written a block of values at a time.
    """
    nrows, ncols = values.shape
    if labels is None:
        index, leads, tails = False, [""] * ncols, [","] * (ncols - 1) + ["\r\n"]
    else:
        index, leads, tails = True, [f",{label}," for label in labels], ["\r\n"] * ncols
    step = max(1, BLOCK_VALUES // ncols)
    slots = _Slots(min(step, nrows), [s.encode("utf-8") for s in leads], [s.encode("utf-8") for s in tails], index)
    values = np.ascontiguousarray(values, dtype=np.float64)
    for first in range(0, nrows, step):
        fh.write(slots.text(values[first : first + step], np.arange(first, min(first + step, nrows))))
