"""CSV rows of float64 values in exactly the bytes of ``'%.17e'``.

``'%.17e' % v`` prints the 18 significant digits N of |v|, rounded to
nearest from |v| 10^(17-e) with e = floor(log10 |v|), as ``d.ddd...de+XX``.
CPython converts one value at a time (about 0.9 us per value, most of the
cost of writing a trace with ``np.savetxt``). Here every step is a
whole-array numpy operation:

* |v| 10^(17-e) is formed as a double-double: Dekker's (1971) error-free
  product of |v| with the double nearest 10^(17-e), plus |v| times the
  remainder of that power. For |v| in [1e-280, 1e280) no intermediate
  leaves the normal range and the absolute error stays below 1e-13, so
  rounding it gives N exactly unless its fraction lies within 1e-6 of 1/2
  (exact ties included);
* the digits come in pairs from passes of ``// 100`` by a scalar, and
  sign, digits, exponent and separators are looked up as byte pairs in
  a fixed-width buffer whose pad bytes are dropped at the end.

Values this cannot decide are formatted by ``'%.17e' % v`` one by one:
non-finite values, |v| outside [1e-280, 1e280), fractions within 1e-6 of a
tie, and N outside (1e17, 1e18), where log10 put e off by one or rounding
carries into the next decade. The output is byte-identical to ``'%.17e'``
by construction; zero (either sign) is written directly.
"""

from __future__ import annotations

import functools

import numpy as np

# rows formatted per call, so that the buffer and temporaries of a chunk
# stay small: on the benchmark's lasso_export workload (README config,
# up to 303 columns) 256-row chunks raised the peak RSS from ~98 to
# ~107 MiB, while 8-row chunks saved <1 MiB and cost ~15% more run time
CHUNK_ROWS = 32

# |v| in [_LOW, _HIGH) keeps every product of the double-double normal
_LOW, _HIGH = 1e-280, 1e280
_E_MAX = 281                    # largest |e| there, log10 off by one included
_SPLIT = 134217729.0            # 2^27 + 1, Dekker's splitting factor
_WIDTH = 25                     # widest field: -d.<17 digits>e-XXX
_U16 = np.dtype("<u2")          # a byte pair, first byte first


@functools.cache
def _tables():
    """Lookup tables, indexed by e + _E_MAX or by a two-digit number.

    Built on the first export rather than at import. ``pow10`` rows are
    hi, head(hi), tail(hi), lo with hi + lo = 10^(17-e) to ~2^-106
    relative and head + tail = hi exactly, each part fitting 26 bits.
    """
    pow10 = []
    for e in range(-_E_MAX, _E_MAX + 1):
        # 10^(17-e) = num / den; int / int is correctly rounded
        num, den = 10 ** max(17 - e, 0), 10 ** max(e - 17, 0)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        c = _SPLIT * hi
        head = c - (c - hi)
        pow10.append((hi, head, hi - head, lo))
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    two = np.stack([np.repeat(ascii_digits, 10), np.tile(ascii_digits, 10)],
                   axis=1)                          # "00" .. "99"
    lead = np.zeros_like(two)                       # (pad, d0) of 10 d0 + d1
    lead[:, 1] = two[:, 0]
    dot = np.full_like(two, ord("."))               # (".", d1) of 10 d0 + d1
    dot[:, 1] = two[:, 1]
    e = np.arange(-_E_MAX, _E_MAX + 1)
    exp = np.zeros((e.size, 6), dtype=np.uint8)     # "e", sign, h, t, u, pad
    exp[:, 0] = ord("e")
    exp[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    exp[:, 2] = np.where(abs(e) >= 100, ord("0") + abs(e) // 100, 0)
    exp[:, 3:5] = two[abs(e) % 100]
    out = {"pow10": np.array(pow10).T.copy()}
    for name, table in (("two", two), ("lead", lead), ("dot", dot),
                        ("exp", exp)):
        out[name] = table.view(_U16).reshape(table.shape[0], -1).squeeze()
    for table in out.values():
        table.flags.writeable = False
    return out


def _decimal_digits(a, pow10):
    """Exponent e and 18-digit integer N of each positive ``a``, with a mask
    of the entries whose N is certain."""
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, head, tail, lo = pow10[:, e + _E_MAX]
    # Dekker's two-product: p + err == a * hi exactly
    p = a * hi
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    err = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
    # a 10^(17-e) = p + r; p is an integer, as a 10^(17-e) > 1e16 > 2^53
    r = err + a * lo
    floor_r = np.floor(r)
    frac = r - floor_r
    p = np.minimum(p, 2e18)             # where e is off, keep the cast in range
    n = p.astype(np.int64) + floor_r.astype(np.int64) + (frac > 0.5)
    sure = (n > 10**17) & (n < 10**18) & (np.abs(frac - 0.5) > 1e-6)
    return e, n, sure


def format_rows(block, newline):
    """Bytes of ``block`` (R, C) as R CSV lines of ``'%.17e'`` fields joined
    by ``,``, each line ended by ``newline`` (one or two characters)."""
    t = _tables()
    block = np.asarray(block, dtype=np.float64)
    n_rows, n_cols = block.shape
    v = block.ravel()
    a = np.abs(v)
    zero = a == 0.0
    fast = zero | ((a >= _LOW) & (a < _HIGH))
    e, n, sure = _decimal_digits(np.where(fast & ~zero, a, 1.0), t["pow10"])
    e[zero] = 0
    n[zero] = 0
    fast &= sure | zero

    # a field is 14 byte pairs, 0 bytes being pad: (sign, d0) (".", d1)
    # (d2, d3) .. (d16, d17) ("e", sign) (h, t) (u, sep) (sep, pad)
    buf = np.empty((v.size, 14), dtype=_U16)
    for j in range(9, 1, -1):
        q = n // 100
        buf[:, j] = np.take(t["two"], n - 100 * q)
        n = q
    # n < 100 where N is sure; the rest is overwritten below
    n = np.minimum(n, 99)
    buf[:, 0] = np.take(t["lead"], n) | np.signbit(v) * np.uint16(ord("-"))
    buf[:, 1] = np.take(t["dot"], n)
    buf[:, 10:13] = np.take(t["exp"], e + _E_MAX, axis=0)
    ends = np.zeros((n_cols, 4), dtype=np.uint8)      # (u, sep, sep, pad)
    ends[:-1, 1] = ord(",")
    ends[-1, 1:1 + len(newline)] = list(newline.encode("ascii"))
    ends = ends.view(_U16)
    fields = buf.reshape(n_rows, n_cols, 14)
    fields[..., 12] |= ends[:, 0]
    fields[..., 13] = ends[:, 1]
    out = buf.view(np.uint8)
    for i in np.flatnonzero(~fast):
        text = ("%.17e" % v[i]).encode("ascii")
        out[i, :_WIDTH] = 0
        out[i, :len(text)] = list(text)
    return out[out != 0].tobytes()


def write_csv(path, header, columns, newline):
    """Write a header line and the rows of the column blocks ``columns``
    (each (R, k)) to ``path``, formatting CHUNK_ROWS rows at a time."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + newline).encode("ascii"))
        for i in range(0, columns[0].shape[0], CHUNK_ROWS):
            rows = slice(i, i + CHUNK_ROWS)
            fh.write(format_rows(np.hstack([c[rows] for c in columns]),
                                 newline))
