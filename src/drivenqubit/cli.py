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
import json
import math
import os
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
from .specfun import MAX_J0_ZERO_INDEX
from .transfer_matrix import (
    crossing_times,
    decompose_full_cycle,
    full_cycle_matrix,
    propagate_tm,
    tm_fast_resonance_check,
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
    "n": _Key(int, None, "resonance order (>= 1)"),
    "omega-min": _Key(float, None, "low edge of the frequency sweep"),
    "omega-max": _Key(float, None, "high edge of the frequency sweep"),
    "omega-points": _Key(int, None, "number of sweep points (>= 5)"),
    "out": _Key(str, None, "output path (default: stdout)"),
    "format": _Key(str, "csv", "output format, csv or json (default csv)"),
}

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}

# Rows of the simulate CSV formatted at a time: the writer's memory is this
# block, not the length of the trace.
_CSV_BLOCK_ROWS = 4096


def _write(out: str | None, lines: Iterable[str]) -> None:
    """Write lines to the file ``out``, or to stdout when it is None, as they are formatted."""
    if out is None:
        sys.stdout.writelines(lines)
        sys.stdout.flush()
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out!r}: {exc}") from exc


def _rows(header: str, pattern: str, *columns: Sequence[Any]) -> Iterator[str]:
    """CSV lines: the header, then ``pattern % row`` for each row of the columns.

    Fields are %.17g numbers (enough to round-trip any float64), flag names
    and labels: none needs quoting.
    """
    yield header + "\n"
    yield from map(pattern.__mod__, zip(*columns))


def _json(cfg: dict[str, Any], body: dict[str, Any]) -> list[str]:
    """The JSON document of body after a ``meta`` block of the run's keys."""
    meta = {"generated_by": f"drivenqubit {__version__}"}
    meta.update((k, v) for k, v in cfg.items() if k not in ("out", "format"))
    return [json.dumps({"meta": meta, **body}, indent=2) + "\n"]


def _json_value(x: float) -> float | None:
    return None if (isinstance(x, float) and math.isnan(x)) else x


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
    _positive("delta", cfg["delta"])
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
# subcommands: each computes its results, then returns its output lines

def cmd_simulate(cfg: dict[str, Any]) -> Iterable[str]:
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
        body: dict[str, Any] = {"t": (ts.times() / scale).tolist(), "P_up": ts.values.tolist()}
        if strobe is not None:
            body["P_up_tm"] = {"t": (strobe.times() / scale).tolist(), "values": strobe.values.tolist()}
        return _json(cfg, body)
    if strobe is None:
        return _trace_csv(ts, scale, None)
    # A row takes the strobe sample nearest its time; a later sample wins a shared row.
    marks: dict[int, float] = {}
    for t_k, value in zip(strobe.times().tolist(), strobe.values.tolist()):
        idx = int(round(t_k / ts.dt))
        if 0 <= idx < ts.values.size:
            marks[idx] = value
    return _trace_csv(ts, scale, marks)


def _trace_csv(ts: TimeSeries, scale: float, marks: dict[int, float] | None) -> Iterator[str]:
    """The simulate CSV: the header, then one string per block of _CSV_BLOCK_ROWS rows.

    Only one block's rows are formatted at a time, so a run holds its trace
    array and one block, never a list per column.  ``marks`` maps a row
    index to its strobe value; with marks, every row has a P_up_tm field,
    empty except at those rows, and without (None) there is no such column.
    """
    if marks is None:
        yield "t,P_up\n"
        pattern, marks = "%.17g,%.17g\n", {}
    else:
        yield "t,P_up,P_up_tm\n"
        pattern = "%.17g,%.17g,\n"
    strobe_rows = sorted(marks)
    k = 0
    for i in range(0, ts.values.size, _CSV_BLOCK_ROWS):
        j = min(i + _CSV_BLOCK_ROWS, ts.values.size)
        t = ((ts.t0 + ts.dt * np.arange(i, j)) / scale).tolist()
        rows = list(map(pattern.__mod__, zip(t, ts.values[i:j].tolist())))
        while k < len(strobe_rows) and strobe_rows[k] < j:
            idx = strobe_rows[k]
            rows[idx - i] = rows[idx - i][:-1] + "%.17g\n" % marks[idx]
            k += 1
        yield "".join(rows)


def cmd_predict(cfg: dict[str, Any]) -> Iterable[str]:
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
    slow = tm_slow_resonance_lhs(p)
    return _json(cfg, {
        "regime": dataclasses.asdict(regime),
        "rwa": {
            "n": rwa.n,
            "omega_osc": rwa.omega_osc * scale,
            "width": None if rwa.width is None else rwa.width * scale,
            "valid": rwa.valid,
        },
        "tm": {
            "zeta_fc": deco.zeta_fc,
            "theta_fc": deco.theta_fc,
            "phi_fc": deco.phi_fc,
            "omega_osc": p.omega * deco.zeta_fc / (2.0 * math.pi) * scale,
            "resonance_residual": residual,
        },
        "slow": {
            "lhs": slow.lhs,
            "nearest_integer": slow.nearest_integer,
        },
    })


def cmd_scan(cfg: dict[str, Any]) -> Iterable[str]:
    if not cfg["axis1"] or not cfg["axis2"]:
        raise ConfigError("scan requires --axis1 and --axis2 (param:start:stop:num)")
    axis1 = _parse_axis(cfg["axis1"], "axis1")
    axis2 = _parse_axis(cfg["axis2"], "axis2")
    fixed_candidates = set(_PARAM_BY_FLAG.values()) - {axis1[0], axis2[0]}
    if len(fixed_candidates) != 1:
        raise ConfigError(f"axis1 and axis2 must name different parameters, got {axis1[0]!r} twice")
    fixed_name = fixed_candidates.pop()
    fixed_flag = next(flag for flag, param in _PARAM_BY_FLAG.items() if param == fixed_name)
    result = scan_resonance_map((fixed_name, cfg[fixed_flag]), axis1, axis2, cfg["steps-per-period"])
    scale = cfg["delta"]
    grids = {
        "omega_est": result.omega_est * scale,
        "amplitude": result.amplitude,
        "omega_rwa": result.omega_rwa * scale,
        "omega_tm": result.omega_tm * scale,
        "slow_lhs": result.slow_lhs,
    }

    if cfg["format"] == "json":
        return _json(cfg, {
            "fixed": {"name": result.fixed_name, "value": result.fixed_value * scale},
            "axis1": {"name": result.axis1_name, "values": (result.axis1 * scale).tolist()},
            "axis2": {"name": result.axis2_name, "values": (result.axis2 * scale).tolist()},
            **{name: [[_json_value(v) for v in row] for row in g.tolist()] for name, g in grids.items()},
            "flags": [[list(cell) for cell in row] for row in result.flags],
        })
    n1, n2 = len(result.axis1), len(result.axis2)
    return _rows(
        "axis1,axis2," + ",".join(grids) + ",flags",
        "%.17g," * 7 + "%s\n",
        np.repeat(result.axis1 * scale, n2).tolist(),
        np.tile(result.axis2 * scale, n1).tolist(),
        *(g.ravel().tolist() for g in grids.values()),
        [";".join(cell) for row in result.flags for cell in row],
    )


def cmd_classify(cfg: dict[str, Any]) -> Iterable[str]:
    r = classify_regime(_drive_params(cfg))
    if cfg["format"] == "json":
        return _json(cfg, dataclasses.asdict(r))
    regions = ",".join(str(b).lower() for b in (r.rabi, r.rwa, r.tm))
    return [
        "label,drive_ratio,frequency_ratio,speed_ratio,rabi,rwa,tm,tm_speed\n",
        "%s,%.17g,%.17g,%.17g,%s,%s\n" % (r.label, *r.ratios, regions, r.tm_speed or ""),
    ]


def cmd_cdt(cfg: dict[str, Any]) -> Iterable[str]:
    amplitudes = [a * cfg["delta"] for a in cdt_amplitudes(cfg["omega"], MAX_J0_ZERO_INDEX)]
    k = list(range(1, len(amplitudes) + 1))
    if cfg["format"] == "json":
        return _json(cfg, {"k": k, "amplitudes": amplitudes})
    return _rows("k,amplitude", "%d,%.17g\n", k, amplitudes)


def cmd_width(cfg: dict[str, Any]) -> Iterable[str]:
    for key in ("n", "omega-min", "omega-max", "omega-points"):
        if cfg[key] is None:
            raise ConfigError(f"width requires --{key}")
    p = _drive_params(cfg)
    grid = np.linspace(
        _positive("omega-min", cfg["omega-min"]),
        _positive("omega-max", cfg["omega-max"]),
        _count("omega-points", cfg["omega-points"], 5, _MAX_SCAN_CELLS),
    )
    hwhm = measure_resonance_width(p, cfg["n"], grid, cfg["steps-per-period"])
    hwhm *= cfg["delta"]
    if cfg["format"] == "json":
        return _json(cfg, {"n": cfg["n"], "hwhm": hwhm})
    return _rows("n,hwhm", "%d,%.17g\n", [cfg["n"]], [hwhm])


class _Command(NamedTuple):
    handler: Callable[[dict[str, Any]], Iterable[str]]
    help: str
    keys: tuple[str, ...]


# predict and scan run at phi = 0 and classify does not depend on it, so they take no phase.
_DRIVE = ("eps0", "amp", "omega", "delta")
_PHASED_DRIVE = ("eps0", "amp", "omega", "phi", "delta")
_OUTPUT = ("out", "format")

# Every subcommand once.  Its keys are its flags and config-file keys, in
# the order of --help and of the JSON meta block.
_COMMANDS: dict[str, _Command] = {
    "simulate": _Command(
        cmd_simulate, "exact P_up trace (with TM strobe column when applicable)",
        _PHASED_DRIVE + ("cycles", "steps-per-period") + _OUTPUT,
    ),
    "predict": _Command(cmd_predict, "RWA + transfer-matrix resonance report (JSON)", _DRIVE + _OUTPUT),
    "scan": _Command(
        cmd_scan, "2-D resonance map over two drive parameters",
        _DRIVE + ("steps-per-period", "axis1", "axis2") + _OUTPUT,
    ),
    "classify": _Command(cmd_classify, "validity-region label for a parameter point", _DRIVE + _OUTPUT),
    "cdt": _Command(cmd_cdt, "tunnelling-suppression drive amplitudes for a given omega", ("omega", "delta") + _OUTPUT),
    "width": _Command(
        cmd_width, "measured HWHM of a resonance versus drive frequency",
        _PHASED_DRIVE + ("n", "omega-min", "omega-max", "omega-points", "steps-per-period") + _OUTPUT,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivenqubit",
        description="Strongly driven two-level system: exact propagation and resonance predictors.",
    )
    parser.add_argument("--version", action="version", version=f"drivenqubit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for key in command.keys:
            sub.add_argument(f"--{key}", type=_KEYS[key].type, help=_KEYS[key].help)
        sub.add_argument("--config", help="flat JSON config file; flags override its keys")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
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
