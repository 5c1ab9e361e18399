"""Plant specification and validation.

The plant is an underactuated system of m coupled heat equations on (0, L),

    z_t = D z_xx + Q z + B * sum_j b_j(x) u_j(t),
    z_x(t, 0) = 0,      gamma1 * z(t, L) + gamma2 * z_x(t, L) = 0,

with diagonal diffusion D = diag{d_1, ..., d_m}, coupling Q in cascade form
(upper Hessenberg, zero strictly below the first subdiagonal, nonzero on it)
and the scalar control channels entering the first equation only, i.e.
B = e_1.  B is implicit everywhere and never stored.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import json
import math
import os
import stat
import sys
from typing import NamedTuple

import numpy as np
import orjson

from .errors import (
    BadShape,
    CascadeViolation,
    ControllabilityViolation,
    DegenerateBoundary,
    NonPositiveDiffusion,
    PlantInputError,
)


class _Coerced:
    """Base of a record (a NamedTuple) whose `__new__` converts or freezes its fields.

    A NamedTuple's `_make`, and with it `_replace`, builds the tuple without
    calling `__new__`; here both go through it.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ShapeFunction(NamedTuple):
    """Control distribution b_j(x) on [0, L].

    Kinds
    -----
    indicator   params = (a, b), the characteristic function of [a, b]
    polynomial  params = (c0, c1, ...), coefficients in ascending powers
    samples     params = (grid, values), piecewise-linear interpolant on a
                strictly increasing grid covering [0, L]
    """

    kind: str
    params: tuple

    @classmethod
    def indicator(cls, a: float, b: float) -> "ShapeFunction":
        return cls("indicator", (float(a), float(b)))

    @classmethod
    def polynomial(cls, *coefficients: float) -> "ShapeFunction":
        return cls("polynomial", tuple(float(c) for c in coefficients))

    @classmethod
    def samples(cls, grid, values) -> "ShapeFunction":
        return cls(
            "samples",
            (tuple(float(x) for x in grid), tuple(float(v) for v in values)),
        )

    def validate(self, L: float) -> None:
        if self.kind == "indicator":
            if len(self.params) != 2:
                raise BadShape("indicator shape needs exactly (a, b)")
            a, b = self.params
            if not (0.0 <= a < b <= L):
                raise BadShape(f"indicator bounds ({a}, {b}) must satisfy 0 <= a < b <= L")
        elif self.kind == "polynomial":
            if len(self.params) == 0:
                raise BadShape("polynomial shape needs at least one coefficient")
        elif self.kind == "samples":
            if len(self.params) != 2:
                raise BadShape("samples shape needs (grid, values)")
            grid, values = self.params
            if len(grid) != len(values) or len(grid) < 2:
                raise BadShape("samples grid and values must have equal length >= 2")
            g = np.asarray(grid, dtype=float)
            if np.any(np.diff(g) <= 0.0):
                raise BadShape("samples grid must be strictly increasing")
            if abs(g[0]) > 1e-12 or abs(g[-1] - L) > 1e-9 * max(1.0, L):
                raise BadShape("samples grid must cover [0, L]")
        else:
            raise BadShape(f"unknown shape kind {self.kind!r}")
        values = (tuple(self.params[0]) + tuple(self.params[1])
                  if self.kind == "samples" else self.params)
        if not all(map(math.isfinite, values)):
            raise BadShape(f"{self.kind} shape parameters must be finite")

    def __call__(self, x):
        """Evaluate pointwise; x may be a scalar or ndarray."""
        x = np.asarray(x, dtype=float)
        if self.kind == "indicator":
            a, b = self.params
            out = np.where((x >= a) & (x <= b), 1.0, 0.0)
        elif self.kind == "polynomial":
            out = np.polynomial.polynomial.polyval(x, np.asarray(self.params))
        else:
            grid, values = self.params
            out = np.interp(x, grid, values)
        return out if out.ndim else float(out)

    def l2_norm_sq(self, L: float) -> float:
        """Exact squared L2(0, L) norm."""
        if self.kind == "indicator":
            a, b = self.params
            return b - a
        if self.kind == "polynomial":
            sq = np.polynomial.polynomial.polymul(self.params, self.params)
            powers = np.arange(1, len(sq) + 1)
            return float(np.sum(sq * L**powers / powers))
        grid, values = self.params
        total = 0.0
        for x0, x1, y0, y1 in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
            total += (x1 - x0) * (y0 * y0 + y0 * y1 + y1 * y1) / 3.0
        return total


class _PlantFields(NamedTuple):
    m: int
    D: np.ndarray
    Q: np.ndarray
    L: float
    gamma1: float
    gamma2: float
    shapes: tuple[ShapeFunction, ...]


class PlantSpec(_Coerced, _PlantFields):
    """Raw plant data, prior to validation.

    D and Q are stored as read-only float copies, and shapes as a tuple.
    """

    __slots__ = ()

    def __new__(cls, m, D, Q, L, gamma1, gamma2, shapes):
        D = np.array(D, dtype=float)
        Q = np.array(Q, dtype=float)
        D.flags.writeable = False
        Q.flags.writeable = False
        return super().__new__(cls, m, D, Q, L, gamma1, gamma2, tuple(shapes))


class DiffusionIndices(NamedTuple):
    """sigma: first index from which all trailing diffusions coincide.

    sigma_bar = min{2*sigma - 3, 2m - 4}, clamped at 0, is the polynomial
    degree of the modal transform.
    """

    sigma: int
    sigma_bar: int


class ValidatedPlant(NamedTuple):
    """A PlantSpec whose invariants have all been confirmed."""

    m: int
    D: np.ndarray
    Q: np.ndarray
    L: float
    gamma1: float
    gamma2: float
    shapes: tuple[ShapeFunction, ...]
    indices: DiffusionIndices

    @property
    def d_last(self) -> float:
        return float(self.D[-1])


def diffusion_indices(D) -> DiffusionIndices:
    """Compute (sigma, sigma_bar) for the diffusion coefficients, by exact equality."""
    d = np.asarray(D, dtype=float)
    if np.any(d <= 0.0):
        raise NonPositiveDiffusion("all diffusion coefficients must be positive")
    m = len(d)
    sigma = m
    while sigma > 1 and d[sigma - 2] == d[m - 1]:
        sigma -= 1
    sigma_bar = max(0, min(2 * sigma - 3, 2 * m - 4))
    return DiffusionIndices(sigma=sigma, sigma_bar=sigma_bar)


def validate_plant(spec: PlantSpec) -> ValidatedPlant:
    """Check every structural invariant of the plant and tag it valid.

    Raises the specific violation subclass of PlantInputError on failure.
    """
    m = int(spec.m)
    if m < 1:
        raise PlantInputError("m must be a positive integer")
    D = np.asarray(spec.D, dtype=float)
    Q = np.asarray(spec.Q, dtype=float)
    if D.shape != (m,):
        raise PlantInputError(f"D must hold exactly m={m} coefficients")
    if Q.shape != (m, m):
        raise PlantInputError(f"Q must be {m}x{m}")
    if not (np.isfinite(D).all() and np.isfinite(Q).all()):
        raise PlantInputError("D and Q must be finite")
    for name in ("L", "gamma1", "gamma2"):
        if not math.isfinite(getattr(spec, name)):
            raise PlantInputError(f"{name} must be finite")
    indices = diffusion_indices(D)
    if not (float(spec.L) > 0.0):
        raise PlantInputError("domain length L must be positive")
    if spec.gamma1 == 0.0 and spec.gamma2 == 0.0:
        raise DegenerateBoundary("gamma1 and gamma2 cannot both vanish")
    if spec.gamma1 * spec.gamma2 < 0.0:
        # The problem then has a negative eigenvalue with a cosh
        # eigenfunction, which the cosine basis cannot represent.
        raise DegenerateBoundary("gamma1 and gamma2 must not have opposite signs")

    # Cascade form: zeros strictly below the first subdiagonal.
    for i in range(m):
        for j in range(i - 1):
            if Q[i, j] != 0.0:
                raise CascadeViolation(
                    f"Q[{i + 1},{j + 1}] = {Q[i, j]} lies below the first subdiagonal"
                )
    for i in range(m - 1):
        if Q[i + 1, i] == 0.0:
            raise ControllabilityViolation(
                f"subdiagonal entry Q[{i + 2},{i + 1}] is zero"
            )

    for shape in spec.shapes:
        shape.validate(float(spec.L))

    return ValidatedPlant(
        m=m,
        D=spec.D,
        Q=spec.Q,
        L=float(spec.L),
        gamma1=float(spec.gamma1),
        gamma2=float(spec.gamma2),
        shapes=tuple(spec.shapes),
        indices=indices,
    )


# ---------------------------------------------------------------------------
# JSON plant files.  All reals round-trip bit-exactly (json uses repr floats).

def record_to_dict(record) -> dict:
    """A record (a NamedTuple) as JSON data: one key per field, in field order.

    Arrays and tuples become lists, and nested records become objects.
    """
    return {name: _json_data(value) for name, value in zip(record._fields, record)}


def _json_data(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    # A record first: it is a tuple too.
    if hasattr(value, "_fields"):
        return record_to_dict(value)
    if isinstance(value, (tuple, list)):
        return [_json_data(v) for v in value]
    return value


def shape_from_dict(obj: dict) -> ShapeFunction:
    kind = obj["kind"]
    params = obj["params"]
    if kind == "samples":
        return ShapeFunction.samples(params[0], params[1])
    return ShapeFunction(kind, tuple(float(p) for p in params))


def plant_to_dict(plant) -> dict:
    """The plant file of a PlantSpec or ValidatedPlant: PlantSpec's fields alone."""
    names = PlantSpec._fields
    return {k: v for k, v in record_to_dict(plant).items() if k in names}


def plant_from_dict(obj: dict) -> PlantSpec:
    try:
        return PlantSpec(
            m=int(obj["m"]),
            D=np.asarray(obj["D"], dtype=float),
            Q=np.asarray(obj["Q"], dtype=float),
            L=float(obj["L"]),
            gamma1=float(obj["gamma1"]),
            gamma2=float(obj["gamma2"]),
            shapes=tuple(shape_from_dict(s) for s in obj.get("shapes", [])),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise PlantInputError(f"malformed plant file: {exc}") from exc


def read_json(path: str):
    """The data of the UTF-8 JSON file at path.

    orjson parses it: 0.47 ms against json's 2.7 ms on the 391 kB gains file
    of the wide-actuation benchmark workload.
    A file that orjson refuses, such as one holding the NaN and Infinity
    literals that `write_json` writes for non-finite floats, is parsed by
    json, so a file that neither parses raises json's JSONDecodeError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        return json.loads(data.decode("utf-8"))


def load_plant(path: str) -> PlantSpec:
    try:
        obj = read_json(path)
    except json.JSONDecodeError as exc:
        raise PlantInputError(f"plant file is not valid JSON: {exc}") from exc
    return plant_from_dict(obj)


def _libc_renameat2():
    """libc's renameat2, or None where it is missing or the platform is not Linux."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        fn = ctypes.CDLL(None, use_errno=True).renameat2
    except (OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p,
                   ctypes.c_uint)
    fn.restype = ctypes.c_int
    return fn


_RENAMEAT2 = _libc_renameat2()
_RENAME_EXCHANGE = 2  # <linux/fs.h>
# The kernel or filesystem lacks the exchange, or the target went away.
_REPLACE_INSTEAD = (errno.EINVAL, errno.ENOSYS, errno.EOPNOTSUPP, errno.ENOENT)


def _replace(tmp: str, path: str) -> None:
    """Move the finished file `tmp` to `path`, as os.replace does.

    On ext4, a rename over an existing file makes the kernel write the new
    file back and later free its blocks, which blocks os.replace for
    milliseconds (auto_da_alloc).  So an existing regular file or symlink is
    swapped with `tmp` by renameat2(RENAME_EXCHANGE), and the old content,
    now under the temp name, is unlinked.  A missing or directory target,
    and a system or filesystem without the exchange, go through os.replace.
    """
    try:
        exchange = not stat.S_ISDIR(os.lstat(path).st_mode)
    except FileNotFoundError:
        exchange = False
    if exchange and _RENAMEAT2 is not None:
        # Absolute paths make renameat2 ignore its directory fds; -1 turns a
        # relative path into EBADF rather than a lookup somewhere else.
        if _RENAMEAT2(-1, os.fsencode(os.path.abspath(tmp)),
                      -1, os.fsencode(os.path.abspath(path)), _RENAME_EXCHANGE) == 0:
            os.unlink(tmp)
            return
        code = ctypes.get_errno()
        if code not in _REPLACE_INSTEAD:
            raise OSError(code, os.strerror(code), path)
    os.replace(tmp, path)


@contextlib.contextmanager
def atomic_write(path: str):
    """Yield a binary file that replaces `path` when the block completes.

    The bytes go to `<path>.tmp.<pid>` first.  If the block raises, the tmp
    file is deleted and `path` is left as it was.  A reader sees the old or
    the new whole file, never a missing or partial one (see `_replace`).
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    fh = open(tmp, "wb")
    try:
        with fh:
            yield fh
        _replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Float text.  The CSVs hold every row as ",".join(map(repr, row)), and the
# JSON files are written as json.dump(obj, fh, indent=2) writes them.  orjson
# writes both, and the float text is then edited into repr's.
#
# orjson writes the same shortest round-trip digits as repr (Ryu), and with
# OPT_INDENT_2 json.dump's indent=2 layout.  Which values it writes
# differently follows from the value alone, by where its magnitude lies among
# the cuts in _CUTS:
#
#   [1e-9, 1e-5)   e-6 ... e-9, where repr writes e-06 ... e-09;
#   [1e-5, 1e-4)   positional 0.000015, where repr writes 1.5e-05;
#   >= 1e16        e16 and e100, where repr writes e+16 and e+100.
#
# These cuts are exact: a shortest round-trip decimal lies inside its
# double's rounding interval, and no power of ten is the midpoint of two
# doubles, so a double below the double 1e-9 never prints as 1e-09.
#
# _repr_floats writes each edit into the text in place.  Where it inserts or
# drops bytes, it writes a marker byte that orjson never writes, and one
# bytes.replace per kind of marker written (a memchr and memcpy pass) then
# splices the text.
#
# orjson writes NaN and +-inf as null, so a CSV block holding any of them is
# formatted by repr instead, and a JSON document by json (see write_json).
#
# The text is kept as the ASCII bytes it was spliced in, and written to the
# files as it is: decoding it to a str only for the file to encode it again
# would copy every byte twice.

_CUTS = np.array([[1e-9], [1e-5], [1e-4], [1e16], [1e100]])


def _repr_floats(b: np.ndarray, before, ends, values) -> list:
    """Edit orjson's text of the finite floats `values` in the byte array `b` into repr's.

    Value i lies strictly between bytes before[i] and ends[i], and b[ends[i]]
    is a comma or a newline.  Returns the (marker, replacement) pairs of the
    markers written, to be replaced, in any order, in the bytes of `b`.
    """
    # over[j, i]: |v_i| is at least cut j, so over[j] > over[j + 1] is the
    # band [cut j, cut j + 1).
    over = np.abs(values) >= _CUTS
    splices = []
    # ...e-d: the minus becomes -0.
    tiny = np.flatnonzero(over[0] > over[1])
    if tiny.size:
        b[ends[tiny] - 2] = 1
        splices.append((b"\1", b"-0"))
    # ...edd or ...eddd: the e becomes e+.
    big = np.flatnonzero(over[3])
    if big.size:
        b[ends[big] - 3 - over[4, big]] = 2
        splices.append((b"\2", b"e+"))
    # [-]0.0000d1[d2...dk]: 0.000 is dropped, d1 moves onto the last 0 and is
    # followed by a dot if more digits follow, and e-05 goes in before the
    # separator.
    pos = np.flatnonzero(over[1] > over[2])
    if pos.size:
        start = before[pos] + 1 + (values[pos] < 0)
        dotted = ends[pos] > start + 7
        b[start + 5] = b[start + 6]
        b[start + 6] = np.where(dotted, ord("."), 0)
        b[start[:, None] + np.arange(5)] = 0
        line_end = b[ends[pos]] == ord("\n")
        b[ends[pos]] = np.where(line_end, 4, 3)
        splices.append((b"\0", b""))
        if not line_end.all():
            splices.append((b"\3", b"e-05,"))
        if line_end.any():
            splices.append((b"\4", b"e-05\n"))
    return splices


def _csv_lines(block: np.ndarray) -> bytes:
    """The rows of a 2-D float block as ASCII CSV lines, each ending in a newline."""
    block = np.ascontiguousarray(block, dtype=float)
    if not block.size:
        return b""
    flat = block.ravel()
    if not np.isfinite(block).all():
        return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()
    b = np.frombuffer(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY),
                      dtype=np.uint8).copy()  # [v1,v2,...,vn]
    # Value i lies strictly between bytes bounds[i] and bounds[i + 1]: the
    # commas, found in one scan, end the values, and the one after the last
    # value of each row becomes a newline.
    bounds = np.concatenate(([0], np.flatnonzero(b == ord(",")), [b.size - 1]))
    ends = bounds[1:]
    cols = block.shape[1]
    b[ends[cols - 1::cols]] = ord("\n")
    splices = _repr_floats(b, bounds, ends, flat)
    # One copy of the text alive at a time: with the array kept through the
    # splices, the benchmark's peak RSS read about 0.3 MB higher.  The copy
    # drops the opening bracket.
    text = b[1:].tobytes()
    del b
    for marker, replacement in splices:
        text = text.replace(marker, replacement)
    return text


def _json_default(obj):
    """A float ndarray as its tolist(), for orjson and json; TypeError for anything else."""
    if type(obj) is np.ndarray and obj.dtype.type is np.float64:
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_places(obj):
    """(lines, columns, values) of the floats in the indent=2 text of `obj`, or None.

    In json.dump's layout a non-empty list, tuple or dict puts each item on a
    line of its own and closes on the next, and a dict value follows its key.
    The floats of a list lie on the lines after its opening bracket.  A 1-D
    or 2-D float ndarray is placed as one block: value (i, j) of an (r, c)
    block lies 2 + i(c + 2) + j lines below its opening bracket, and value j
    of a 1-D block 1 + j.  Raises orjson's JSONEncodeError where orjson
    writes `obj` unlike json.dump (see write_json), and TypeError at a value
    json.dump cannot write.
    """
    lines, cols, values = [], [], []  # of the Python floats
    blocks = []  # (lines, columns, values) of each array

    def walk(obj, line, col, pad):
        """The line `obj` ends on, when it starts at (line, col) on a line indented by pad."""
        if isinstance(obj, float):
            lines.append(line)
            cols.append(col)
            values.append(obj)
            return line
        if isinstance(obj, dict):
            for key, value in obj.items():
                if type(key) is not str or not (key.isascii() and key.isprintable()):
                    raise orjson.JSONEncodeError
                key_text = json.encoder.encode_basestring_ascii(key)
                line = walk(value, line + 1, pad + 4 + len(key_text), pad + 2)
            return line + 1 if obj else line
        if isinstance(obj, str) and not (obj.isascii() and obj.isprintable()):
            raise orjson.JSONEncodeError
        if obj is None or isinstance(obj, (str, int)):
            return line
        if isinstance(obj, (list, tuple)):
            if obj and set(map(type, obj)) == {float}:
                lines.extend(range(line + 1, line + 1 + len(obj)))
                cols.extend([pad + 2] * len(obj))
                values.extend(obj)
                return line + len(obj) + 1
            for item in obj:
                line = walk(item, line + 1, pad + 2, pad + 2)
            return line + 1 if obj else line
        if type(obj) is not np.ndarray or obj.dtype.type is not np.float64:
            _json_default(obj)  # raises TypeError
        if not 0 < obj.ndim < 3:
            return walk(obj.tolist(), line, col, pad)
        if obj.size:
            r, c = obj.shape if obj.ndim == 2 else (1, obj.size)
            first = line + obj.ndim + (c + 2) * np.arange(r)
            blocks.append(((first[:, None] + np.arange(c)).ravel(),
                           np.full(obj.size, pad + 2 * obj.ndim), obj.ravel()))
        # The lines from the opening bracket to the closing one.
        span = 1
        for n in reversed(obj.shape):
            span = n * span + 2 if n else 1
        return line + span - 1

    walk(obj, 0, 0, 0)
    if values:
        blocks.append((np.array(lines), np.array(cols), np.array(values, dtype=float)))
    if not blocks:
        return None
    places = tuple(map(np.concatenate, zip(*blocks)))
    if not np.isfinite(places[2]).all():
        raise orjson.JSONEncodeError
    return places


def write_json(path: str, obj) -> None:
    """Atomically write `obj` as json.dump(obj, fh, indent=2) does, plus a newline.

    A float ndarray may stand as a leaf, and is written as json.dump writes
    its tolist().  orjson lays the document out, `_float_places` places each
    float on its line, one scan for newlines gives each float's end, and
    `_repr_floats` edits the float text.  A document that orjson writes
    unlike json.dump or not at all, one holding a non-finite float, a string
    or key outside printable ASCII, a key that is not a str or an int beyond
    64 bits, is written by json.dumps(obj, indent=2) itself, arrays through
    tolist().  Unserializable objects raise TypeError before the file is
    opened.
    """
    try:
        places = _float_places(obj)
        text = orjson.dumps(obj, default=_json_default, option=orjson.OPT_INDENT_2
                            | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)
    except orjson.JSONEncodeError:
        text = (json.dumps(obj, indent=2, default=_json_default) + "\n").encode()
    else:
        if places:
            lines, cols, values = places
            # Edited in place through an array view, and written as it is.
            text = bytearray(text)
            b = np.frombuffer(text, dtype=np.uint8)
            newlines = np.flatnonzero(b == ord("\n"))
            # Each float is the last value on its line.
            ends = newlines[lines]
            ends -= b[ends - 1] == ord(",")
            splices = _repr_floats(b, np.append(-1, newlines)[lines] + cols, ends, values)
            del b
            for marker, replacement in splices:
                text = text.replace(marker, replacement)
    with atomic_write(path) as fh:
        fh.write(text)


def save_plant(plant, path: str) -> None:
    write_json(path, plant_to_dict(plant))


def example_plant_dict() -> dict:
    """A 3x3 unstable cascade with distinct diffusions, used by docs and tests."""
    return {
        "m": 3,
        "D": [4.0, 5.0, 6.0],
        "Q": [[10.0, 4.0, 8.0], [1.0, 10.0, 2.0], [0.0, 1.0, 20.0]],
        "L": math.pi,
        "gamma1": 1.0,
        "gamma2": 0.0,
        "shapes": [
            {"kind": "indicator", "params": [0.1, 0.2]},
            {"kind": "indicator", "params": [0.2, 0.3]},
            {"kind": "indicator", "params": [0.3, 0.4]},
        ],
    }
