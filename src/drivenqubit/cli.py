"""Command-line front end: simulations, predictors, scans, and reports.

All physical inputs are dimensionless in units of the tunnelling
splitting (delta = 1 internally, time unit 1/delta); ``--delta`` only
rescales the emitted numbers back to absolute units.  Output is fully
deterministic: CSV carries data rows only (17 significant digits, LF
endings) and the JSON mirror carries a ``meta`` block whose sole
provenance field is the package version.

Exit codes: 0 success, 2 configuration error, 3 regime or bracketing
error, 4 numerical failure (an ArithmeticError such as an overflow
included), 141 stdout closed by its reader before the output was written
(as ``| head`` does; 128 + SIGPIPE, what a shell reports for a process
that signal ends).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import stat
import sys
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import __version__
from .analysis import _MAX_SCAN_CELLS, classify_regime, measure_resonance_width, scan_resonance_map
from .dynamics import (
    _MAX_SAMPLES,
    DriveParams,
    QubitState,
    TimeSeries,
    _count,
    _is_number,
    _positive,
    propagate_exact,
)
from .errors import BracketError, ConfigError, InsufficientDataError, QuadratureError, RegimeError
from .rwa import cdt_amplitudes, rwa_predict
from .transfer_matrix import (
    crossing_times,
    decompose_full_cycle,
    full_cycle_matrix,
    propagate_tm,
    tm_fast_resonance_check,
    tm_resonance_width,
    tm_slow_frequency,
    tm_slow_resonance_lhs,
)

__all__ = ["main"]

_PARAM_BY_FLAG = {"eps0": "epsilon0", "amp": "amplitude", "omega": "omega"}


class _Key(NamedTuple):
    type: type
    default: Any
    help: str


# Every config key once.  A --flag overrides the config file, which
# overrides the default here.
_KEYS: dict[str, _Key] = {
    "eps0": _Key(float, 0.0, "static bias, units of delta"),
    "amp": _Key(float, 0.0, "drive amplitude, units of delta"),
    "omega": _Key(float, 1.0, "drive angular frequency, units of delta"),
    "phi": _Key(float, 0.0, "drive phase offset, radians"),
    "delta": _Key(float, 1.0, "output unit rescale (inputs stay in units of delta)"),
    "cycles": _Key(int, 20, "number of drive periods to integrate"),
    "steps-per-period": _Key(int, 256, "integrator substeps per drive period"),
    "axis1": _Key(str, None, "swept axis, param:start:stop:num (param in eps0|amp|omega)"),
    "axis2": _Key(str, None, "second swept axis, same syntax"),
    "omega-min": _Key(float, None, "low edge of the frequency sweep"),
    "omega-max": _Key(float, None, "high edge of the frequency sweep"),
    "omega-points": _Key(int, None, "number of sweep points (>= 5)"),
    "out": _Key(str, None, "output path (default: stdout)"),
    "format": _Key(str, "csv", "output format, csv or json"),
}

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}

# Rows of the simulate CSV, and values of a JSON ``_Column`` or chunks of a
# JSON document, formatted at a time: the writer's memory is this block, not
# the length of the trace.
_CSV_BLOCK_ROWS = 4096


def _write(out: str | None, chunks: Iterable[bytes]) -> None:
    """Write a handler's byte chunks to the file ``out``, or to stdout when it is None, as they are made.

    The first chunk is made before ``out`` is opened, so a run that fails
    there leaves a file of that name as it was; a run that fails after it
    removes the partial file.  A stdout with no byte ``buffer`` (a text
    stream such as ``io.StringIO``) is written the same text.
    """
    chunks = iter(chunks)
    first = next(chunks)
    if out is None:
        stream = getattr(sys.stdout, "buffer", None)
        if stream is None:
            sys.stdout.writelines(chunk.decode() for chunk in itertools.chain([first], chunks))
            return
        sys.stdout.flush()
        stream.write(first)
        stream.writelines(chunks)
        stream.flush()
        return
    try:
        with open(out, "wb") as fh:
            try:
                fh.write(first)
                fh.writelines(chunks)
            except BaseException:
                # Only a regular file is removed: never a device such as /dev/null.
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    os.unlink(out)
                raise
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out!r}: {exc}") from exc


class _Column(list):
    """A column that json's encoder reads as a list, made a block at a time.

    The list itself stays empty: its length is size and its items come from
    block(i, j), the items i..j-1 (Python floats, or the rows of a grid),
    _CSV_BLOCK_ROWS at a time.  So a JSON document holds no column whole.
    """

    def __init__(self, size: int, block: Callable[[int, int], Iterable[Any]]) -> None:
        super().__init__()
        self.size, self.block = size, block

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[float]:
        for i in range(0, self.size, _CSV_BLOCK_ROWS):
            yield from self.block(i, min(i + _CSV_BLOCK_ROWS, self.size))


# ---------------------------------------------------------------------------
# %.17g text of float blocks

# One formatted value: '%.17g' (at most 24 characters), NUL padding, and its
# separator in the last byte.  Deleting the NULs of a row of fields gives the
# row's text.
_FIELD = 32
_WORD = np.dtype("<u8")


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a = high + low exactly, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _quads() -> np.ndarray:
    """The text of 0000..9999 in the low 32 bits of little-endian words; entries 10000 on have trailing zeros as NUL."""
    n = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1).astype(np.uint8)
    significant = np.maximum.accumulate(digits[:, ::-1], axis=1)[:, ::-1] > 0
    text = np.concatenate([digits + 48, (digits + 48) * significant])
    return text.view("<u4").ravel().astype(_WORD)


def _words(texts: Iterable[bytes]) -> np.ndarray:
    """Texts of at most 24 bytes as three little-endian words each: row k holds word k of every text."""
    return np.frombuffer(b"".join(t.ljust(24, b"\0") for t in texts), _WORD).reshape(-1, 3).T.copy()


# The decimal exponents E that _g17 lays out itself, at index E + 4.  For
# each: 10**(16 - E) (exact, since 10**k is a double for k <= 22), the mask
# of the digits before the point, the text inserted after them ("." for
# E >= 0, "0.0..." in front for E < 0), and the shift in bits of the digits
# after it.
_EXPONENTS = range(-4, 17)
_SCALE = np.array([float(10 ** (16 - e)) for e in _EXPONENTS])
_SCALE_HIGH, _SCALE_LOW = _split(_SCALE)
_QUAD_TEXT = _quads()
_ZEROS = np.frombuffer(b"0" * 8, _WORD)[0]
_INSERTS = [b"0." + b"0" * (-1 - e) if e < 0 else b"\0" * (e + 1) + b"." * (e < 16) for e in _EXPONENTS]
_HEAD = _words(b"\xff" * (e + 1) for e in _EXPONENTS)
_INSERT = _words(_INSERTS)
_SHIFT = np.array([8 * len(t.strip(b"\0")) for t in _INSERTS], _WORD)


def _significands(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, e, n): where ok, values[i] = n[i] * 10**(e[i] - 20) to 17 digits, n in [10**16, 10**17).

    e is the decimal exponent plus 4, the index into the exponent tables.
    n = round-half-even(v * 10**(20 - e)) is exact: Dekker's two-product
    gives v * 10**(20 - e) as hi + lo, and hi, above 2**53, is an even
    integer, so n = hi + rint(lo).  Where ok is False, n is 10**16.  Each
    temporary is reused or dropped once it is read, so the peak is a few
    arrays of the block's size.
    """
    ok = (values >= 1e-4) & (values < 1e17)
    v = np.where(ok, values, 1.0)
    e = np.log10(v)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    e += 4
    np.clip(e, 0, len(_EXPONENTS) - 1, out=e)
    hi = v * _SCALE[e]
    v_high, v_low = _split(v)
    del v
    s_high, s_low = _SCALE_HIGH[e], _SCALE_LOW[e]
    # lo = ((v_high*s_high - hi) + v_high*s_low + v_low*s_high) + v_low*s_low, in that order.
    lo = v_high * s_high
    lo -= hi
    v_high *= s_low
    lo += v_high
    s_high *= v_low
    lo += s_high
    s_low *= v_low
    lo += s_low
    del v_high, v_low, s_high, s_low
    np.rint(lo, out=lo)
    n = hi.astype(np.int64)
    del hi
    n += lo.astype(np.int64)
    del lo
    ok &= n >= 10**16
    ok &= n < 10**17
    n[~ok] = 10**16
    return ok, e, n


def _digit_words(n: np.ndarray) -> list[np.ndarray]:
    """The 17 digits of n as bytes 0-16 of three words, trailing zeros as NUL; n is used up.

    The first digit, then four 4-digit groups from the table, whose second
    half (index + 10000) writes the trailing zeros of the last nonzero group
    and of every group after it as NUL.
    """
    head = n // 10**16
    n -= head * 10**16
    g1 = n // 10**12
    n -= g1 * 10**12
    g2 = n // 10**8
    n -= g2 * 10**8
    g3 = n // 10**4
    n -= g3 * 10**4
    g4 = n
    g4 += 10_000
    zero = g4 == 10_000
    g3 += zero * 10_000
    zero &= g3 == 10_000
    g2 += zero * 10_000
    zero &= g2 == 10_000
    g1 += zero * 10_000
    q1, q2, q3, q4 = (_QUAD_TEXT[g] for g in (g1, g2, g3, g4))
    del g1, g2, g3, g4, zero
    # Each word is built in place in the first array it reads; head is
    # 1..9, so its int64 bits are its uint64 bits.
    word0 = head.view(_WORD)
    word0 += 48
    q1 <<= 8
    word0 |= q1
    word0 |= q2 << 40
    q2 >>= 24
    q3 <<= 8
    q2 |= q3
    q2 |= q4 << 40
    q4 >>= 24
    return [word0, q2, q4]


def _g17(x: np.ndarray, seps: bytes) -> np.ndarray:
    """The ``'%.17g'`` text of a block of floats, one NUL-padded _FIELD-byte field per value.

    ``x`` has one column per byte of ``seps``.  Row i of the result, with its
    NUL bytes deleted, is the bytes of ``'%.17g' % v`` followed by its
    column's separator, for each value v of ``x[i]`` in turn.

    A value in [1e-4, 1e17) has a decimal exponent E in [-4, 16], and its
    text is its 17-digit significand (``_significands``; Gay 1990 for the
    correctly rounded conversion) with a point put in and the trailing
    zeros of the fraction dropped.  A significand in [10**16, 10**17) also
    confirms E, which comes from log10: none of these doubles lies within a
    relative 5e-17 below 10**E.  Every other value (zero, negative, inf,
    NaN, out of range, or a significand outside that range) is formatted by
    ``'%.17g'`` itself.
    """
    rows, columns = x.shape
    values = np.ascontiguousarray(x, dtype=np.float64).ravel()
    ok, e, n = _significands(values)
    # Digits before the point stay (a zero dropped there is put back as
    # "0"), the insert follows, and the rest moves up by the insert's
    # length; the point goes only where a fraction digit is left.  Each
    # column of out is built in place, and each word keeps only its moved
    # digits once its head is written.
    words = _digit_words(n)
    del n
    out = np.zeros((rows * columns, _FIELD // 8), _WORD)
    for k, w in enumerate(words):
        head = _HEAD[k][e]
        np.bitwise_or(w, _ZEROS, out=out[:, k])
        out[:, k] &= head
        np.invert(head, out=head)
        w &= head  # the moved digits
    del head
    point = words[0] | words[1]
    point |= words[2]
    point = np.uint64(0) - (point != 0)
    shift = _SHIFT[e]
    for k, w in enumerate(words):
        insert = _INSERT[k][e]
        insert &= point
        out[:, k] |= insert
        del insert
        if k:
            # The carry from the word before, which is not read again.
            words[k - 1] >>= 64 - shift
            out[:, k] |= words[k - 1]
        out[:, k] |= w << shift
    del words, point, shift, e
    fields = out.view(np.uint8)
    other = np.flatnonzero(~ok)
    text = b"".join((b"%.17g" % v).ljust(_FIELD - 1, b"\0") for v in values[other].tolist())
    fields[other, :-1] = np.frombuffer(text, np.uint8).reshape(-1, _FIELD - 1)
    fields = fields.reshape(rows, columns * _FIELD)
    fields[:, _FIELD - 1::_FIELD] = np.frombuffer(seps, np.uint8)
    return fields


def _csv(
    header: str, size: int, block: Callable[[int, int], tuple[list[Any], Iterable[tuple[int, bytes]] | None]]
) -> Iterator[bytes]:
    """A CSV table: the header, then the bytes of each block of _CSV_BLOCK_ROWS rows.

    ``block(i, j)`` is called for each block in turn and gives the number
    columns of rows i..j-1, formatted by _g17, and for a table that ends in
    a text column the (row - i, text) pairs of its non-empty fields in row
    order, or None for a table without one.  Only one block is formatted at
    a time, so a run holds its own arrays and one block, never a list per
    column.  Numbers and texts need no quoting.
    """
    yield header.encode() + b"\n"
    for i in range(0, size, _CSV_BLOCK_ROWS):
        columns, texts = block(i, min(i + _CSV_BLOCK_ROWS, size))
        fields = _g17(np.column_stack(columns), b"," * (len(columns) - 1) + b"\n")
        view = memoryview(fields).cast("B")
        pieces, start = [], 0
        if texts is not None:
            # The text field's comma goes in byte 30 of the last number
            # field, always padding since a %.17g text has at most 24 bytes,
            # and each text goes in before the end of line of its row.
            fields[:, -2] = ord(",")
            for row, text in texts:
                end = (row + 1) * fields.shape[1] - 1
                pieces += (view[start:end], text)
                start = end
        pieces.append(view[start:])
        yield b"".join(pieces).translate(None, b"\0")
        # Free this block before the next is formatted.
        del columns, texts, fields, view, pieces


def _json(cfg: dict[str, Any], body: dict[str, Any]) -> Iterator[bytes]:
    """The JSON document of body after a ``meta`` block of the run's keys, as json.dumps(..., indent=2) writes it.

    The encoder's chunks, which json.dumps would join into one string, are
    joined _CSV_BLOCK_ROWS at a time instead.  An inf or NaN is a ValueError (exit 4), never non-JSON text.
    """
    meta = {"generated_by": f"drivenqubit {__version__}"}
    meta.update((k, v) for k, v in cfg.items() if k not in ("out", "format"))
    chunks = json.JSONEncoder(indent=2, allow_nan=False).iterencode({"meta": meta, **body})
    while text := "".join(itertools.islice(chunks, _CSV_BLOCK_ROWS)):
        yield text.encode()
    yield b"\n"


def _json_grid(values: np.ndarray, scale: float) -> _Column:
    """The rows of values * scale as JSON lists, NaN as null, one block of one row's cells at a time."""

    def row(k: int) -> _Column:
        def cells(i: int, j: int) -> list[float | None]:
            return [None if math.isnan(v) else v for v in (values[k, i:j] * scale).tolist()]

        return _Column(values.shape[1], cells)

    return _Column(len(values), lambda i, j: map(row, range(i, j)))


# ---------------------------------------------------------------------------
# configuration assembly

def _load_config_file(path: str, command: str) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a flat JSON object")
    unknown = sorted(set(raw) - set(_COMMANDS[command].keys))
    if unknown:
        raise ConfigError(f"unknown config keys for {command!r}: {', '.join(unknown)}")
    return raw


def _coerce(key: str, value: Any) -> Any:
    """Config-file values arrive as JSON types; normalize to the key's flag type.

    null is accepted only where it is the default (no value); a number is
    one by ``_is_number``, so an int too large for a float is refused here.
    """
    kind, default, _ = _KEYS[key]
    if value is None and default is None:
        return None
    ok = _is_number(value) if kind is float else isinstance(value, kind) and not isinstance(value, bool)
    if not ok:
        raise ConfigError(f"config key {key!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return kind(value)


def _merge_config(args: argparse.Namespace) -> dict[str, Any]:
    command = args.command
    file_values: dict[str, Any] = {}
    if args.config:
        file_values = _load_config_file(args.config, command)
    cfg: dict[str, Any] = {}
    for key in _COMMANDS[command].keys:
        flag_value = getattr(args, key.replace("-", "_"))
        if flag_value is not None:
            cfg[key] = flag_value
        elif key in file_values:
            cfg[key] = _coerce(key, file_values[key])
        else:
            cfg[key] = _KEYS[key].default
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg['format']!r}")
    if "delta" in cfg:
        _positive("delta", cfg["delta"])
    # A scan axis sets its drive key at every cell, so a value given for that key would go unread.
    for axis in ("axis1", "axis2"):
        swept = str(cfg.get(axis)).split(":")[0]
        if swept in _PARAM_BY_FLAG and (getattr(args, swept) is not None or swept in file_values):
            raise ConfigError(f"{axis} sweeps {swept}, so {swept} cannot also be given")
    return cfg


def _drive_params(cfg: dict[str, Any]) -> DriveParams:
    return DriveParams(
        delta=1.0,
        epsilon0=cfg["eps0"],
        amplitude=cfg["amp"],
        omega=cfg["omega"],
        phi=cfg.get("phi", 0.0),
    )


def _parse_axis(spec: str, label: str) -> tuple[str, np.ndarray]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError(f"{label} must look like param:start:stop:num, got {spec!r}")
    flag_name, start_s, stop_s, num_s = parts
    if flag_name not in _PARAM_BY_FLAG:
        raise ConfigError(f"{label} parameter must be one of {sorted(_PARAM_BY_FLAG)}, got {flag_name!r}")
    try:
        start, stop, num = float(start_s), float(stop_s), int(num_s)
    except ValueError as exc:
        raise ConfigError(f"{label} has non-numeric fields: {spec!r}") from exc
    return _PARAM_BY_FLAG[flag_name], np.linspace(start, stop, _count(f"{label} point count", num, 1, _MAX_SCAN_CELLS))


# ---------------------------------------------------------------------------
# subcommands: each computes its results, then returns its output as byte chunks

def cmd_simulate(cfg: dict[str, Any]) -> Iterable[bytes]:
    p = _drive_params(cfg)
    cycles = _count("cycles", cfg["cycles"], 1, _MAX_SAMPLES)
    scale = cfg["delta"]
    ts = propagate_exact(p, QubitState.up(), cycles * p.period, steps_per_period=cfg["steps-per-period"])

    # The P_up_tm column appears wherever propagate_tm applies (A > eps0,
    # phi = 0), the same test predict and scan use.
    try:
        _, t_c2 = crossing_times(p)
        n_strobe = int(math.floor((ts.t_end - t_c2) / p.period))
    except RegimeError:
        n_strobe = 0
    strobe = propagate_tm(p, QubitState.up(), n_strobe) if n_strobe >= 1 else None

    if cfg["format"] == "json":
        body: dict[str, Any] = {
            "t": _Column(len(ts), lambda i, j: _times(ts, scale, i, j).tolist()),
            "P_up": _Column(len(ts), lambda i, j: ts.values[i:j].tolist()),
        }
        if strobe is not None:
            body["P_up_tm"] = {
                "t": _Column(len(strobe), lambda i, j: _times(strobe, scale, i, j).tolist()),
                "values": _Column(len(strobe), lambda i, j: strobe.values[i:j].tolist()),
            }
        return _json(cfg, body)
    if strobe is None:
        return _csv("t,P_up", len(ts), lambda i, j: ([_times(ts, scale, i, j), ts.values[i:j]], None))
    # Each strobe sample goes in the row nearest its time.  The samples are
    # a period (at least 16 rows) apart and lie inside the trace, so the
    # rows are distinct, increasing and in range.
    rows = np.rint(strobe.times() / ts.dt).astype(np.intp)
    texts = [b"%.17g" % value for value in strobe.values.tolist()]

    def block(i: int, j: int) -> tuple[list[Any], Iterable[tuple[int, bytes]]]:
        a, b = np.searchsorted(rows, [i, j])
        return [_times(ts, scale, i, j), ts.values[i:j]], zip((rows[a:b] - i).tolist(), texts[a:b])

    return _csv("t,P_up,P_up_tm", len(ts), block)


def _times(ts: TimeSeries, scale: float, i: int, j: int) -> np.ndarray:
    """Times i..j-1 of ts divided by scale, as ``ts.times() / scale`` has them."""
    return (ts.t0 + ts.dt * np.arange(i, j)) / scale


def cmd_predict(cfg: dict[str, Any]) -> Iterable[bytes]:
    if cfg["format"] != "json":
        raise ConfigError("predict emits a JSON report; use --format json")
    p = _drive_params(cfg)
    # The transfer-matrix block goes first: outside its regime it raises
    # RegimeError before any other predictor can fail.
    deco = decompose_full_cycle(full_cycle_matrix(p))
    scale = cfg["delta"]
    regime = classify_regime(p)
    rwa = rwa_predict(p)
    _, residual = tm_fast_resonance_check(p)
    try:
        tm_width = tm_resonance_width(p) * scale
    except RegimeError:  # n < 1 (eps0 = 0 included): no detuning slope
        tm_width = None
    slow = tm_slow_resonance_lhs(p)
    return _json(cfg, {
        "regime": dataclasses.asdict(regime),
        "rwa": {
            "n": rwa.n,
            "omega_osc": rwa.omega_osc * scale,
            "width": None if rwa.width is None else rwa.width * scale,
            "valid": regime.rwa,
        },
        "tm": {
            "zeta_fc": deco.zeta_fc,
            "theta_fc": deco.theta_fc,
            "phi_fc": deco.phi_fc,
            "omega_osc": tm_slow_frequency(p) * scale,
            "width": tm_width,
            "resonance_residual": residual,
        },
        "slow": {
            "lhs": slow.lhs,
            "nearest_integer": slow.nearest_integer,
        },
    })


def cmd_scan(cfg: dict[str, Any]) -> Iterable[bytes]:
    if not cfg["axis1"] or not cfg["axis2"]:
        raise ConfigError("scan requires --axis1 and --axis2 (param:start:stop:num)")
    axis1 = _parse_axis(cfg["axis1"], "axis1")
    axis2 = _parse_axis(cfg["axis2"], "axis2")
    # The one drive key the axes leave fixed is the only one the scan reads.
    fixed = [flag for flag, param in _PARAM_BY_FLAG.items() if param not in (axis1[0], axis2[0])]
    if len(fixed) != 1:
        raise ConfigError(f"axis1 and axis2 must name different parameters, got {axis1[0]!r} twice")
    result = scan_resonance_map((_PARAM_BY_FLAG[fixed[0]], cfg[fixed[0]]), axis1, axis2, cfg["steps-per-period"])
    scale = cfg["delta"]
    # Each grid with the factor that gives it in units of delta.
    grids = {"omega_est": scale, "amplitude": 1.0, "omega_rwa": scale, "omega_tm": scale, "slow_lhs": 1.0}

    if cfg["format"] == "json":
        def axis(values: np.ndarray) -> _Column:
            return _Column(len(values), lambda i, j: (values[i:j] * scale).tolist())

        return _json(cfg, {
            "fixed": {"name": result.fixed_name, "value": result.fixed_value * scale},
            "axis1": {"name": result.axis1_name, "values": axis(result.axis1)},
            "axis2": {"name": result.axis2_name, "values": axis(result.axis2)},
            **{name: _json_grid(getattr(result, name), s) for name, s in grids.items()},
            # Tuples, which the encoder writes as lists, so no copy is made.
            "flags": result.flags,
        })
    n2 = len(result.axis2)
    flat = [(getattr(result, name).ravel(), s) for name, s in grids.items()]
    cells = itertools.chain.from_iterable(result.flags)

    def block(i: int, j: int) -> tuple[list[Any], Iterable[tuple[int, bytes]]]:
        k = np.arange(i, j)
        columns = [result.axis1[k // n2] * scale, result.axis2[k % n2] * scale, *(g[i:j] * s for g, s in flat)]
        return columns, [(r, ";".join(cell).encode()) for r, cell in enumerate(itertools.islice(cells, j - i)) if cell]

    return _csv("axis1,axis2," + ",".join(grids) + ",flags", len(result.axis1) * n2, block)


def cmd_classify(cfg: dict[str, Any]) -> Iterable[bytes]:
    r = classify_regime(_drive_params(cfg))
    if cfg["format"] == "json":
        return _json(cfg, dataclasses.asdict(r))
    regions = ",".join(str(b).lower() for b in (r.rabi, r.rwa, r.tm))
    return [
        b"label,drive_ratio,frequency_ratio,speed_ratio,rabi,rwa,tm,tm_speed\n",
        ("%s,%.17g,%.17g,%.17g,%s,%s\n" % (r.label, *r.ratios, regions, r.tm_speed or "")).encode(),
    ]


def cmd_cdt(cfg: dict[str, Any]) -> Iterable[bytes]:
    amplitudes = [a * cfg["delta"] for a in cdt_amplitudes(cfg["omega"])]
    k = list(range(1, len(amplitudes) + 1))
    if cfg["format"] == "json":
        return _json(cfg, {"k": k, "amplitudes": amplitudes})
    return _csv("k,amplitude", len(k), lambda i, j: ([k[i:j], amplitudes[i:j]], None))


def cmd_width(cfg: dict[str, Any]) -> Iterable[bytes]:
    for key in ("omega-min", "omega-max", "omega-points"):
        if cfg[key] is None:
            raise ConfigError(f"width requires --{key}")
    grid = np.linspace(
        _positive("omega-min", cfg["omega-min"]),
        _positive("omega-max", cfg["omega-max"]),
        _count("omega-points", cfg["omega-points"], 5, _MAX_SCAN_CELLS),
    )
    p = _drive_params({**cfg, "omega": grid[0]})  # the sweep replaces omega at every point
    hwhm = measure_resonance_width(p, grid, cfg["steps-per-period"])
    hwhm *= cfg["delta"]
    if cfg["format"] == "json":
        return _json(cfg, {"hwhm": hwhm})
    return _csv("hwhm", 1, lambda i, j: ([[hwhm]], None))


class _Command(NamedTuple):
    handler: Callable[[dict[str, Any]], Iterable[bytes]]
    help: str
    keys: tuple[str, ...]


# predict and scan run at phi = 0 and classify does not depend on it, so they take no phase;
# classify prints unit-free ratios, so it takes no delta, and width sweeps omega, so it takes no omega.
_POINT = ("eps0", "amp", "omega")
_DRIVE = _POINT + ("delta",)
_OUTPUT = ("out", "format")

# Every subcommand once.  Its keys are its flags and config-file keys, in
# the order of --help and of the JSON meta block.
_COMMANDS: dict[str, _Command] = {
    "simulate": _Command(
        cmd_simulate, "exact P_up trace (with TM strobe column when applicable)",
        _POINT + ("phi", "delta", "cycles", "steps-per-period") + _OUTPUT,
    ),
    "predict": _Command(cmd_predict, "RWA + transfer-matrix resonance report (JSON)", _DRIVE + _OUTPUT),
    "scan": _Command(
        cmd_scan, "2-D resonance map over two drive parameters",
        _DRIVE + ("steps-per-period", "axis1", "axis2") + _OUTPUT,
    ),
    "classify": _Command(cmd_classify, "validity-region label for a parameter point", _POINT + _OUTPUT),
    "cdt": _Command(cmd_cdt, "tunnelling-suppression drive amplitudes for a given omega", ("omega", "delta") + _OUTPUT),
    "width": _Command(
        cmd_width, "measured HWHM of a resonance versus drive frequency",
        ("eps0", "amp", "phi", "delta", "omega-min", "omega-max", "omega-points", "steps-per-period") + _OUTPUT,
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivenqubit",
        description="Strongly driven two-level system: exact propagation and resonance predictors.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"drivenqubit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help, allow_abbrev=False)
        for key in command.keys:
            kind, default, text = _KEYS[key]
            sub.add_argument(f"--{key}", type=kind, help=text if default is None else f"{text} (default {default})")
        sub.add_argument("--config", help="flat JSON config file; flags override its keys")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        # An overflow to inf (a --delta of 1e-310, say) is printed as inf in
        # CSV and refused in JSON; numpy's warnings about it would add lines
        # to stderr beside that one outcome.
        with np.errstate(all="ignore"):
            _write(cfg["out"], _COMMANDS[args.command].handler(cfg))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RegimeError, BracketError) as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return 3
    except (QuadratureError, InsufficientDataError, ValueError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at devnull so that the
        # interpreter's last flush of what is left finds no broken pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
