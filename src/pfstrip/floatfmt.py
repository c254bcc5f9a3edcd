"""CSV rows of a float64 matrix, each value exactly as '%.16e' % x writes it.

For 1e-6 <= |x| < 1e17, s = 16 - floor(log10 |x|) is in [0, 22], 10^s is exact, and Dekker's
TwoProduct gives x 10^s = p + e exactly.  p + e rounded half to even holds the 17 digits if
10^16 <= p + e before rounding and < 10^17 after it (p is then an even integer, and a log10
one off fails the check).  Other values, such as 0, -0.0, inf and nan, take '%.16e'.
"""

from collections.abc import Iterator

import numpy as np

SLOT = 32     # 8 words: NUL, sign lead-digit point, 16 digits in 4, exponent, separator
BLOCK = 2048  # values formatted at once; bounds the temporaries of one write
_POW10 = np.array([float(10 ** s) for s in range(23)])
_SPLIT = 134217729.0   # 2^27 + 1
_D = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)   # _DIGITS4[i]: "%04d" % i, one word
_DIGITS4 = np.stack(np.broadcast_arrays(*np.ix_(_D, _D, _D, _D)), -1).view(np.uint32).ravel()
_LEAD = np.array([b"\0%s%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10)])
_EXP = np.array([b"e%+03d" % (16 - s) for s in range(23)])


def _format(v: np.ndarray, words: np.ndarray) -> None:
    """Right-align the text of each v[i] in bytes 4 to 27 of its slot, words[i, 1:7]."""
    a = np.abs(v)
    fast = (a >= 1e-6) & (a < 1e17)   # false for nan
    a = np.where(fast, a, 1.0)
    s = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 22)
    pw = _POW10[s]
    p = a * pw
    t, u = a * _SPLIT, pw * _SPLIT   # Veltkamp's split, then Dekker's TwoProduct
    ah, ph = t - (t - a), u - (u - pw)
    al, pl = a - ah, pw - ph
    e = ((ah * ph - p) + ah * pl + al * ph) + al * pl
    n = p.astype(np.int64)   # p >= 2^53 is even, so n + rint(e) rounds half to even
    fast &= n + np.floor(e).astype(np.int64) >= 10 ** 16
    n += np.rint(e).astype(np.int64)
    fast &= n < 10 ** 17
    lead, n = np.divmod(np.where(fast, n, 10 ** 16), 10 ** 16)
    words[:, 1] = _LEAD.view(np.uint32)[np.where(v < 0.0, lead + 10, lead)]
    for j, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4), start=2):
        q, n = np.divmod(n, scale)
        words[:, j] = _DIGITS4[q]
    words[:, 5] = _DIGITS4[n]
    words[:, 6] = _EXP.view(np.uint32)[s]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.frombuffer(b"".join([b"%24.16e" % x for x in v[slow].tolist()]), np.uint8)
        words[slow, 1:7] = np.where(text == ord(" "), 0, text).view(np.uint32).reshape(-1, 6)


def csv_rows(z: np.ndarray) -> Iterator[np.ndarray]:
    """z's rows as CSV bytes ('%.16e' values, ',' between, '\\n' after), in whole-row chunks."""
    rows = min(z.shape[0], max(1, BLOCK // z.shape[1]))
    slots = np.zeros((rows, z.shape[1], SLOT), np.uint8)
    slots[:, :, 28] = ord(",")
    slots[:, -1, 28] = ord("\n")
    for i in range(0, z.shape[0], rows):
        block = z[i:i + rows]
        flat = slots[:len(block)].reshape(-1)
        _format(block.ravel(), flat.view(np.uint32).reshape(-1, SLOT // 4))
        yield flat[flat != 0]
