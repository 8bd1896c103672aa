"""Command-line front end: simulations, predictors, scans, and reports.

All physical inputs are dimensionless in units of the tunnelling
splitting (delta = 1 internally, time unit 1/delta); ``--delta`` only
rescales the emitted numbers back to absolute units.  Output is fully
deterministic: CSV carries data rows only (17 significant digits, LF
endings) and the JSON mirror carries a ``meta`` block whose sole
provenance field is the package version.

Exit codes: 0 success, 2 configuration error, 3 regime or bracketing
error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .analysis import (
    _MAX_SCAN_CELLS, ScanConfig, classify_regime, extract_frequency, measure_resonance_width, scan_resonance_map,
)
from .dynamics import DriveParams, QubitState, propagate_exact
from .errors import BracketError, ConfigError, InsufficientDataError, QuadratureError, RegimeError
from .rwa import cdt_amplitudes, rwa_predict
from .specfun import MAX_J0_ZERO_INDEX
from .transfer_matrix import (
    crossing_times,
    decompose_full_cycle,
    full_cycle_matrix,
    propagate_tm,
    tm_fast_resonance_check,
    tm_slow_frequency,
    tm_slow_resonance_lhs,
)

__all__ = ["main"]

_PARAM_BY_FLAG = {"eps0": "epsilon0", "amp": "amplitude", "omega": "omega"}

# Built-in defaults; a --flag overrides the config file, which overrides these.
_DEFAULTS: dict[str, Any] = {
    "eps0": 0.0,
    "amp": 0.0,
    "omega": 1.0,
    "phi": 0.0,
    "delta": 1.0,
    "cycles": 20,
    "steps-per-period": 256,
    "format": "csv",
    "out": None,
    "axis1": None,
    "axis2": None,
    "n": None,
    "omega-min": None,
    "omega-max": None,
    "omega-points": None,
}

_COMMON_KEYS = ("eps0", "amp", "omega", "phi", "delta", "out", "format")
_ALLOWED_KEYS = {
    "simulate": _COMMON_KEYS + ("cycles", "steps-per-period"),
    "predict": _COMMON_KEYS,
    "scan": _COMMON_KEYS + ("steps-per-period", "axis1", "axis2"),
    "classify": _COMMON_KEYS,
    "cdt": ("omega", "delta", "out", "format"),
    "width": _COMMON_KEYS + ("steps-per-period", "n", "omega-min", "omega-max", "omega-points"),
}


def _fmt(x: float) -> str:
    """17 significant digits: enough to round-trip any float64 exactly."""
    return f"{x:.17g}"


def _json_value(x: float) -> float | None:
    return None if (isinstance(x, float) and math.isnan(x)) else x


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out!r}: {exc}") from exc


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    # Fields are %.17g numbers, flag names and labels: none needs quoting.
    # Rows go into one buffer as they are joined, so no per-row string list builds up.
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _json_text(obj: dict[str, Any]) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _meta(cfg: dict[str, Any], keys: Sequence[str]) -> dict[str, Any]:
    block: dict[str, Any] = {"generated_by": f"drivenqubit {__version__}"}
    for key in keys:
        block[key] = cfg[key]
    return block


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
    allowed = set(_ALLOWED_KEYS[command])
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys for {command!r}: {', '.join(unknown)}")
    return raw


def _coerce(key: str, value: Any) -> Any:
    """Config-file values arrive as JSON types; normalize to flag types."""
    if value is None:
        return None
    if key in ("cycles", "steps-per-period", "n", "omega-points"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
        return value
    if key in ("eps0", "amp", "omega", "phi", "delta", "omega-min", "omega-max"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
        return float(value)
    if key in ("out", "format", "axis1", "axis2"):
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
        return value
    raise ConfigError(f"unhandled config key {key!r}")


def _merge_config(args: argparse.Namespace) -> dict[str, Any]:
    command = args.command
    file_values: dict[str, Any] = {}
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config, command)
    cfg: dict[str, Any] = {}
    for key in _ALLOWED_KEYS[command]:
        flag_value = getattr(args, key.replace("-", "_"), None)
        if flag_value is not None:
            cfg[key] = flag_value
        elif key in file_values:
            cfg[key] = _coerce(key, file_values[key])
        else:
            cfg[key] = _DEFAULTS[key]
    if cfg.get("format") not in (None, "csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg['format']!r}")
    if "delta" in cfg and not (isinstance(cfg["delta"], float) and math.isfinite(cfg["delta"]) and cfg["delta"] > 0):
        raise ConfigError(f"delta must be a positive number, got {cfg['delta']!r}")
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
    if num < 1:
        raise ConfigError(f"{label} point count must be >= 1, got {num}")
    if num > _MAX_SCAN_CELLS:
        raise ConfigError(f"{label} point count {num} exceeds the {_MAX_SCAN_CELLS}-cell scan guard")
    return _PARAM_BY_FLAG[flag_name], np.linspace(start, stop, num)


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(cfg: dict[str, Any]) -> int:
    p = _drive_params(cfg)
    cycles = cfg["cycles"]
    if not (isinstance(cycles, int) and cycles >= 1):
        raise ConfigError(f"cycles must be a positive integer, got {cycles!r}")
    spp = cfg["steps-per-period"]
    scale = cfg["delta"]
    ts = propagate_exact(p, QubitState.up(), cycles * p.period, steps_per_period=spp)
    times = ts.times()

    strobe = None
    if classify_regime(p).tm and p.phi == 0.0:
        _, t_c2 = crossing_times(p)
        n_strobe = int(math.floor((ts.t_end - t_c2) / p.period))
        if n_strobe >= 1:
            strobe = propagate_tm(p, QubitState.up(), n_strobe)

    if cfg["format"] == "csv":
        header = ["t", "P_up"] + (["P_up_tm"] if strobe is not None else [])
        tm_col = [""] * len(times)
        if strobe is not None:
            for k, value in enumerate(strobe.values):
                idx = int(round((strobe.t0 + k * strobe.dt) / ts.dt))
                if 0 <= idx < len(tm_col):
                    tm_col[idx] = _fmt(value)
        rows = []
        for i in range(len(times)):
            row = [_fmt(times[i] / scale), _fmt(float(ts.values[i]))]
            if strobe is not None:
                row.append(tm_col[i])
            rows.append(row)
        _write_text(cfg["out"], _csv_text(header, rows))
    else:
        payload: dict[str, Any] = {
            "meta": _meta(cfg, ("eps0", "amp", "omega", "phi", "delta", "cycles", "steps-per-period")),
            "t": [t / scale for t in times.tolist()],
            "P_up": ts.values.tolist(),
        }
        if strobe is not None:
            payload["P_up_tm"] = {
                "t": [(strobe.t0 + k * strobe.dt) / scale for k in range(len(strobe))],
                "values": strobe.values.tolist(),
            }
        _write_text(cfg["out"], _json_text(payload))
    return 0


def cmd_predict(cfg: dict[str, Any]) -> int:
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
    payload = {
        "meta": _meta(cfg, ("eps0", "amp", "omega", "phi", "delta")),
        "regime": {
            "label": regime.label,
            "ratios": list(regime.ratios),
            "rabi": regime.rabi,
            "rwa": regime.rwa,
            "tm": regime.tm,
            "tm_speed": regime.tm_speed,
        },
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
            "omega_osc": tm_slow_frequency(p) * scale,
            "resonance_residual": residual,
        },
        "slow": {
            "lhs": slow.lhs,
            "nearest_integer": slow.nearest_integer,
        },
    }
    _write_text(cfg["out"], _json_text(payload))
    return 0


def cmd_scan(cfg: dict[str, Any]) -> int:
    if not cfg["axis1"] or not cfg["axis2"]:
        raise ConfigError("scan requires --axis1 and --axis2 (param:start:stop:num)")
    axis1 = _parse_axis(cfg["axis1"], "axis1")
    axis2 = _parse_axis(cfg["axis2"], "axis2")
    fixed_candidates = set(_PARAM_BY_FLAG.values()) - {axis1[0], axis2[0]}
    if len(fixed_candidates) != 1:
        raise ConfigError(f"axis1 and axis2 must name different parameters, got {axis1[0]!r} twice")
    fixed_name = fixed_candidates.pop()
    fixed_flag = next(flag for flag, param in _PARAM_BY_FLAG.items() if param == fixed_name)
    result = scan_resonance_map(
        (fixed_name, cfg[fixed_flag]),
        axis1,
        axis2,
        ScanConfig(steps_per_period=cfg["steps-per-period"]),
    )
    scale = cfg["delta"]

    if cfg["format"] == "csv":
        header = ["axis1", "axis2", "omega_est", "amplitude", "omega_rwa", "omega_tm", "slow_lhs", "flags"]
        rows = []
        for i in range(len(result.axis1)):
            for j in range(len(result.axis2)):
                rows.append(
                    [
                        _fmt(float(result.axis1[i]) * scale),
                        _fmt(float(result.axis2[j]) * scale),
                        _fmt(float(result.omega_est[i, j]) * scale),
                        _fmt(float(result.amplitude[i, j])),
                        _fmt(float(result.omega_rwa[i, j]) * scale),
                        _fmt(float(result.omega_tm[i, j]) * scale),
                        _fmt(float(result.slow_lhs[i, j])),
                        ";".join(result.flags[i][j]),
                    ]
                )
        _write_text(cfg["out"], _csv_text(header, rows))
    else:
        payload = {
            "meta": _meta(cfg, ("eps0", "amp", "omega", "delta", "steps-per-period", "axis1", "axis2")),
            "fixed": {"name": result.fixed_name, "value": result.fixed_value},
            "axis1": {"name": result.axis1_name, "values": (result.axis1 * scale).tolist()},
            "axis2": {"name": result.axis2_name, "values": (result.axis2 * scale).tolist()},
            "omega_est": [[_json_value(v * scale) for v in row] for row in result.omega_est.tolist()],
            "amplitude": [[_json_value(v) for v in row] for row in result.amplitude.tolist()],
            "confidence": [[_json_value(v) for v in row] for row in result.confidence.tolist()],
            "omega_rwa": [[_json_value(v * scale) for v in row] for row in result.omega_rwa.tolist()],
            "omega_tm": [[_json_value(v * scale) for v in row] for row in result.omega_tm.tolist()],
            "slow_lhs": [[_json_value(v) for v in row] for row in result.slow_lhs.tolist()],
            "flags": [[list(cell) for cell in row] for row in result.flags],
        }
        _write_text(cfg["out"], _json_text(payload))
    return 0


def cmd_classify(cfg: dict[str, Any]) -> int:
    regime = classify_regime(_drive_params(cfg))
    if cfg["format"] == "csv":
        header = ["label", "drive_ratio", "frequency_ratio", "speed_ratio", "rabi", "rwa", "tm", "tm_speed"]
        row = [
            regime.label,
            _fmt(regime.ratios[0]),
            _fmt(regime.ratios[1]),
            _fmt(regime.ratios[2]),
            str(regime.rabi).lower(),
            str(regime.rwa).lower(),
            str(regime.tm).lower(),
            regime.tm_speed or "",
        ]
        _write_text(cfg["out"], _csv_text(header, [row]))
    else:
        payload = {
            "meta": _meta(cfg, ("eps0", "amp", "omega", "phi", "delta")),
            "label": regime.label,
            "ratios": list(regime.ratios),
            "rabi": regime.rabi,
            "rwa": regime.rwa,
            "tm": regime.tm,
            "tm_speed": regime.tm_speed,
        }
        _write_text(cfg["out"], _json_text(payload))
    return 0


def cmd_cdt(cfg: dict[str, Any]) -> int:
    scale = cfg["delta"]
    amplitudes = cdt_amplitudes(cfg["omega"], MAX_J0_ZERO_INDEX)
    if cfg["format"] == "csv":
        rows = [[str(k + 1), _fmt(a * scale)] for k, a in enumerate(amplitudes)]
        _write_text(cfg["out"], _csv_text(["k", "amplitude"], rows))
    else:
        payload = {
            "meta": _meta(cfg, ("omega", "delta")),
            "k": list(range(1, len(amplitudes) + 1)),
            "amplitudes": [a * scale for a in amplitudes],
        }
        _write_text(cfg["out"], _json_text(payload))
    return 0


def cmd_width(cfg: dict[str, Any]) -> int:
    for key in ("n", "omega-min", "omega-max", "omega-points"):
        if cfg[key] is None:
            raise ConfigError(f"width requires --{key}")
    if not (isinstance(cfg["n"], int) and cfg["n"] >= 1):
        raise ConfigError(f"n must be a positive integer, got {cfg['n']!r}")
    if not (cfg["omega-min"] < cfg["omega-max"]):
        raise ConfigError("omega-min must be less than omega-max")
    if not (isinstance(cfg["omega-points"], int) and cfg["omega-points"] >= 5):
        raise ConfigError(f"omega-points must be an integer >= 5, got {cfg['omega-points']!r}")
    p = _drive_params(cfg)
    grid = np.linspace(cfg["omega-min"], cfg["omega-max"], cfg["omega-points"])
    hwhm = measure_resonance_width(p, cfg["n"], grid, ScanConfig(steps_per_period=cfg["steps-per-period"]))
    scale = cfg["delta"]
    if cfg["format"] == "csv":
        _write_text(cfg["out"], _csv_text(["n", "hwhm"], [[str(cfg["n"]), _fmt(hwhm * scale)]]))
    else:
        payload = {
            "meta": _meta(cfg, ("eps0", "amp", "omega", "phi", "delta", "n", "omega-min", "omega-max", "omega-points")),
            "n": cfg["n"],
            "hwhm": hwhm * scale,
        }
        _write_text(cfg["out"], _json_text(payload))
    return 0


_COMMANDS: dict[str, Callable[[dict[str, Any]], int]] = {
    "simulate": cmd_simulate,
    "predict": cmd_predict,
    "scan": cmd_scan,
    "classify": cmd_classify,
    "cdt": cmd_cdt,
    "width": cmd_width,
}


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub: argparse.ArgumentParser, *, drive: bool = True) -> None:
    if drive:
        sub.add_argument("--eps0", type=float, help="static bias, units of delta")
        sub.add_argument("--amp", type=float, help="drive amplitude, units of delta")
        sub.add_argument("--phi", type=float, help="drive phase offset, radians")
    sub.add_argument("--omega", type=float, help="drive angular frequency, units of delta")
    sub.add_argument("--delta", type=float, help="output unit rescale (inputs stay in units of delta)")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    sub.add_argument("--config", help="flat JSON config file; flags override its keys")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivenqubit",
        description="Strongly driven two-level system: exact propagation and resonance predictors.",
    )
    parser.add_argument("--version", action="version", version=f"drivenqubit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="exact P_up trace (with TM strobe column when applicable)")
    _add_common(sim)
    sim.add_argument("--cycles", type=int, help="number of drive periods to integrate")
    sim.add_argument("--steps-per-period", type=int, help="integrator substeps per drive period")

    pred = subs.add_parser("predict", help="RWA + transfer-matrix resonance report (JSON)")
    _add_common(pred)

    scan = subs.add_parser("scan", help="2-D resonance map over two drive parameters")
    _add_common(scan)
    scan.add_argument("--axis1", help="swept axis, param:start:stop:num (param in eps0|amp|omega)")
    scan.add_argument("--axis2", help="second swept axis, same syntax")
    scan.add_argument("--steps-per-period", type=int, help="integrator substeps per drive period")

    cls = subs.add_parser("classify", help="validity-region label for a parameter point")
    _add_common(cls)

    cdt = subs.add_parser("cdt", help="tunnelling-suppression drive amplitudes for a given omega")
    _add_common(cdt, drive=False)

    width = subs.add_parser("width", help="measured HWHM of a resonance versus drive frequency")
    _add_common(width)
    width.add_argument("--n", type=int, help="resonance order (>= 1)")
    width.add_argument("--omega-min", type=float, help="low edge of the frequency sweep")
    width.add_argument("--omega-max", type=float, help="high edge of the frequency sweep")
    width.add_argument("--omega-points", type=int, help="number of sweep points (>= 5)")
    width.add_argument("--steps-per-period", type=int, help="integrator substeps per drive period")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RegimeError, BracketError) as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return 3
    except (QuadratureError, InsufficientDataError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
