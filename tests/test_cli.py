"""Command-line front end: exit codes, formats, config merging, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from drivenqubit import __version__, dynamics
from drivenqubit.cli import _COMMANDS, _CSV_BLOCK_ROWS, main
from drivenqubit.dynamics import DriveParams, QubitState, propagate_exact
from drivenqubit.errors import QuadratureError
from drivenqubit.specfun import bessel_j0_zero, bessel_jn
from drivenqubit.transfer_matrix import crossing_times, propagate_tm

_SRC = str(Path(dynamics.__file__).resolve().parents[1])


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parser-level behaviour


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"drivenqubit {__version__}" in capsys.readouterr().out


def test_missing_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_a_usage_error():
    # The cdt subcommand takes no drive-shape flags at all.
    with pytest.raises(SystemExit) as exc:
        main(["cdt", "--omega", "5", "--eps0", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_help_lists_exactly_the_table_keys(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
    assert flags == {f"--{key}" for key in _COMMANDS[command].keys} | {"--config", "--help"}


# ---------------------------------------------------------------------------
# simulate


def test_simulate_csv_layout(capsys):
    code, out, err = _run(
        capsys,
        ["simulate", "--eps0", "5", "--amp", "30", "--omega", "5", "--cycles", "3", "--steps-per-period", "64"],
    )
    assert code == 0 and err == ""
    lines = out.split("\n")
    assert lines[-1] == ""
    lines = lines[:-1]
    assert lines[0] == "t,P_up,P_up_tm"
    assert len(lines) == 1 + 3 * 64 + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    assert "\r" not in out
    # 17-digit output round-trips the sample grid exactly.
    p = DriveParams(delta=1.0, epsilon0=5.0, amplitude=30.0, omega=5.0)
    dt = 3 * p.period / (3 * 64)
    assert float(lines[2].split(",")[0]) == dt


def test_simulate_strobe_column_is_sparse(capsys):
    code, out, _ = _run(
        capsys,
        ["simulate", "--eps0", "5", "--amp", "30", "--omega", "5", "--cycles", "3", "--steps-per-period", "64"],
    )
    assert code == 0
    cells = [line.split(",")[2] for line in out.splitlines()[1:]]
    filled = [c for c in cells if c != ""]
    # floor((3T - t_c2)/T) = 2 cycle points plus the anchor.
    assert len(filled) == 3
    assert all(0.0 <= float(c) <= 1.0 for c in filled)


def test_simulate_omits_strobe_when_inapplicable(capsys):
    # A < eps0: the bias never crosses zero, so propagate_tm does not apply.
    code, out, _ = _run(
        capsys,
        ["simulate", "--eps0", "1", "--amp", "0.5", "--omega", "4", "--cycles", "2", "--steps-per-period", "64"],
    )
    assert code == 0
    assert out.splitlines()[0] == "t,P_up"


def test_simulate_strobe_follows_the_crossing_check(capsys):
    # A > eps0 with A < delta: classify says tm=false, but predict and scan
    # (and propagate_tm itself) only need A > eps0 and phi = 0.
    argv = ["--eps0", "0.3", "--amp", "0.8", "--omega", "1"]
    code, out, _ = _run(capsys, ["simulate", *argv, "--cycles", "3", "--steps-per-period", "64"])
    assert code == 0
    assert out.splitlines()[0] == "t,P_up,P_up_tm"
    code, out, _ = _run(capsys, ["predict", *argv, "--format", "json"])
    assert code == 0 and json.loads(out)["tm"] is not None
    code, out, _ = _run(capsys, ["classify", *argv])
    assert code == 0 and out.splitlines()[1].split(",")[6] == "false"
    code, out, _ = _run(capsys, ["simulate", *argv, "--phi", "0.5", "--cycles", "3", "--steps-per-period", "64"])
    assert code == 0
    assert out.splitlines()[0] == "t,P_up"


@pytest.mark.parametrize(
    "eps0, amp, omega, delta, cycles",
    [
        ("5", "30", "5", "1", 3),
        ("1", "0.5", "4", "1", 3),
        ("5", "30", "5", "2.5", 3),
        # 9601 rows: two whole blocks and a part of a third.
        ("5", "30", "5", "1", 150),
        ("1", "0.5", "4", "1", 150),
        ("5", "30", "5", "2.5", 150),
    ],
    ids=["with-tm", "without-tm", "delta", "with-tm-blocks", "without-tm-blocks", "delta-blocks"],
)
def test_simulate_csv_matches_a_row_by_row_rendering(capsys, eps0, amp, omega, delta, cycles):
    code, out, _ = _run(
        capsys,
        [
            "simulate", "--eps0", eps0, "--amp", amp, "--omega", omega, "--delta", delta,
            "--cycles", str(cycles), "--steps-per-period", "64",
        ],
    )
    assert code == 0
    p = DriveParams(delta=1.0, epsilon0=float(eps0), amplitude=float(amp), omega=float(omega))
    ts = propagate_exact(p, QubitState.up(), cycles * p.period, steps_per_period=64)
    if cycles > 3:
        assert ts.values.size > _CSV_BLOCK_ROWS and ts.values.size % _CSV_BLOCK_ROWS
    tm = {}
    if p.amplitude > p.epsilon0:
        _, t_c2 = crossing_times(p)
        strobe = propagate_tm(p, QubitState.up(), int(math.floor((ts.t_end - t_c2) / p.period)))
        for k, value in enumerate(strobe.values):
            tm[int(round((strobe.t0 + k * strobe.dt) / ts.dt))] = f"{value:.17g}"
    lines = ["t,P_up,P_up_tm" if tm else "t,P_up"]
    for i, (t, value) in enumerate(zip(ts.times(), ts.values)):
        row = [f"{t / float(delta):.17g}", f"{value:.17g}"]
        if tm:
            row.append(tm.get(i, ""))
        lines.append(",".join(row))
    assert out == "\n".join(lines) + "\n"


def test_simulate_csv_memory_is_the_trace_and_one_block(tmp_path):
    # 512 001 rows.  A list of every row's fields would take about 80 bytes
    # a row; the trace array takes 8.
    rows = 8000 * 64 + 1
    target = tmp_path / "trace.csv"
    argv = [
        "simulate", "--eps0", "5", "--amp", "30", "--omega", "5",
        "--cycles", "8000", "--steps-per-period", "64", "--out", str(target),
    ]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    with open(target, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == rows + 1
    assert peak < 16 * rows + 4 * 2**20


def test_closed_stdout_ends_the_run_quietly():
    # The reader takes one line and closes the pipe, as `| head -1` does.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    argv = [
        sys.executable, "-m", "drivenqubit.cli", "simulate", "--eps0", "5", "--amp", "30", "--omega", "1",
        "--cycles", "400",
    ]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"t,P_up,P_up_tm\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    assert (code, err) == (141, b"")


def test_simulate_json_mirror(capsys):
    code, out, _ = _run(
        capsys,
        [
            "simulate", "--eps0", "5", "--amp", "30", "--omega", "5",
            "--cycles", "3", "--steps-per-period", "64", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["generated_by"] == f"drivenqubit {__version__}"
    assert payload["meta"]["amp"] == 30.0
    assert len(payload["t"]) == len(payload["P_up"]) == 3 * 64 + 1
    assert payload["P_up"][0] == 1.0
    assert len(payload["P_up_tm"]["values"]) == 3


# ---------------------------------------------------------------------------
# predict


def test_predict_report_shape(capsys):
    code, out, _ = _run(capsys, ["predict", "--eps0", "3", "--amp", "15", "--omega", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"meta", "regime", "rwa", "tm", "slow"}
    assert payload["regime"]["label"] == "TM_FAST"
    assert payload["rwa"]["n"] == -1
    assert payload["rwa"]["omega_osc"] == pytest.approx(abs(bessel_jn(1, 5.0)), rel=1e-12)
    assert payload["tm"]["omega_osc"] > 0.0
    assert payload["tm"]["zeta_fc"] == pytest.approx(payload["tm"]["omega_osc"] * 2.0 * math.pi / 3.0, rel=1e-12)
    assert payload["slow"]["nearest_integer"] == round(payload["slow"]["lhs"])


def test_predict_is_json_only(capsys):
    code, _, err = _run(capsys, ["predict", "--eps0", "3", "--amp", "15", "--omega", "3", "--format", "csv"])
    assert code == 2
    assert "config error" in err


def test_predict_needs_crossings(capsys):
    code, _, err = _run(capsys, ["predict", "--eps0", "5", "--amp", "3", "--omega", "2", "--format", "json"])
    assert code == 3
    assert "regime error" in err


def test_predict_and_classify_take_no_phase(capsys, tmp_path):
    # predict runs only at phi = 0 and classify does not depend on phi, so
    # a phase is refused, not ignored.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"phi": 0.5}))
    for command in ("predict", "classify"):
        argv = [command, "--eps0", "3", "--amp", "15", "--omega", "3", "--format", "json"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--phi", "0.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --phi 0.5" in capsys.readouterr().err
        code, out, err = _run(capsys, argv + ["--config", str(path)])
        assert (code, out, err) == (2, "", f"config error: unknown config keys for {command!r}: phi\n")


def test_predict_numerical_failure_exits_4(capsys):
    # eps0/omega = 300 asks for a photon order past the Bessel guard.
    code, _, err = _run(capsys, ["predict", "--eps0", "300", "--amp", "301", "--omega", "1", "--format", "json"])
    assert code == 4
    assert "numerical error" in err


def test_norm_drift_is_a_numerical_error(monkeypatch, capsys):
    exact_step_entries = dynamics._step_entries

    def leaky_step_entries(*args):
        u11, u12 = exact_step_entries(*args)
        return u11 * (1.0 + 1e-6), u12 * (1.0 + 1e-6)

    monkeypatch.setattr(dynamics, "_step_entries", leaky_step_entries)
    p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0)
    with pytest.raises(QuadratureError, match="norm drifted"):
        propagate_exact(p, QubitState.up(), 2.0 * p.period, steps_per_period=16)
    code, _, err = _run(
        capsys, ["simulate", "--eps0", "3", "--amp", "15", "--omega", "3", "--cycles", "2", "--steps-per-period", "16"]
    )
    assert code == 4
    assert "numerical error" in err


# ---------------------------------------------------------------------------
# scan


_SCAN_ARGS = [
    "scan", "--omega", "3",
    "--axis1", "eps0:8.9:9.1:2",
    "--axis2", "amp:15:15:1",
    "--steps-per-period", "64",
]


def test_scan_csv_header_and_rows(capsys):
    code, out, _ = _run(capsys, _SCAN_ARGS)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "axis1,axis2,omega_est,amplitude,omega_rwa,omega_tm,slow_lhs,flags"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 8.9 and float(row[1]) == 15.0
    assert 0.0 <= float(row[3]) <= 1.0
    assert math.isfinite(float(row[6]))


def test_scan_output_is_deterministic(capsys, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(_SCAN_ARGS + ["--out", str(first)]) == 0
    assert main(_SCAN_ARGS + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert b"\r" not in first.read_bytes()


def test_scan_json_layout(capsys):
    code, out, _ = _run(capsys, _SCAN_ARGS + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "meta", "fixed", "axis1", "axis2", "omega_est", "amplitude", "omega_rwa", "omega_tm", "slow_lhs", "flags",
    ]
    assert list(payload["meta"]) == ["generated_by", "eps0", "amp", "omega", "delta", "steps-per-period", "axis1", "axis2"]


def test_scan_takes_no_phase(capsys, tmp_path):
    # Scan cells always run at phi = 0, so a phase is refused, not ignored.
    with pytest.raises(SystemExit) as exc:
        main(_SCAN_ARGS + ["--phi", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --phi 0.5" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"phi": 0.5}))
    code, out, err = _run(capsys, _SCAN_ARGS + ["--config", str(path)])
    assert (code, out, err) == (2, "", "config error: unknown config keys for 'scan': phi\n")


def test_scan_cells_without_crossings(capsys):
    # Cells with A <= eps0 have no transfer-matrix prediction: NaN, not an
    # error.  At A = 0, J_n(0) = 0 for the n != 0 resonance, so no finite
    # prediction sizes the run and it takes the 5000-period cap.
    args = ["scan", "--omega", "3", "--axis1", "eps0:3:6:2", "--axis2", "amp:0:9:3", "--steps-per-period", "16"]
    code, out, _ = _run(capsys, args)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 6
    for eps0, amp, _, _, omega_rwa, omega_tm, slow_lhs, flags in rows:
        crossings = float(amp) > float(eps0)
        assert math.isfinite(float(omega_rwa))
        assert (omega_tm == "nan", slow_lhs == "nan") == (not crossings, not crossings)
        assert "error:" not in flags
        assert ("below_resolution" in flags.split(";")) == (float(amp) == 0.0)
    code, out, _ = _run(capsys, args + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    for i, eps0 in enumerate(payload["axis1"]["values"]):
        for j, amp in enumerate(payload["axis2"]["values"]):
            assert payload["omega_rwa"][i][j] is not None
            assert (payload["omega_tm"][i][j] is None) == (payload["slow_lhs"][i][j] is None) == (amp <= eps0)
            assert not any(flag.startswith("error:") for flag in payload["flags"][i][j])


def test_scan_requires_both_axes(capsys):
    code, _, err = _run(capsys, ["scan", "--omega", "3", "--axis1", "eps0:1:2:2"])
    assert code == 2
    assert "axis2" in err


@pytest.mark.parametrize(
    "axis1, axis2",
    [
        ("eps0:1:2", "amp:1:2:2"),
        ("tilt:1:2:2", "amp:1:2:2"),
        ("eps0:1:2:0", "amp:1:2:2"),
        ("eps0:a:2:2", "amp:1:2:2"),
        ("eps0:1:2:2", "eps0:3:4:2"),
        # 1e12 points would need 8 TB: the cell guard must fire before allocation.
        ("eps0:0:1:1000000000000", "amp:1:2:2"),
    ],
)
def test_scan_rejects_malformed_axes(capsys, axis1, axis2):
    code, _, err = _run(capsys, ["scan", "--omega", "3", "--axis1", axis1, "--axis2", axis2])
    assert code == 2
    assert err.startswith("config error:")


# ---------------------------------------------------------------------------
# classify and cdt


def test_classify_csv(capsys):
    code, out, _ = _run(capsys, ["classify", "--amp", "0.5", "--omega", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("label,")
    row = lines[1].split(",")
    assert row[0] == "RABI"
    assert row[4] == "true" and row[6] == "false"


def test_classify_json(capsys):
    code, out, _ = _run(capsys, ["classify", "--eps0", "3", "--amp", "15", "--omega", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "TM_FAST"
    assert payload["tm_speed"] == "FAST"


def test_cdt_lists_twenty_amplitudes(capsys):
    code, out, _ = _run(capsys, ["cdt", "--omega", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,amplitude"
    assert len(lines) == 21
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 21))
    first = float(lines[1].split(",")[1])
    assert first == pytest.approx(5.0 * bessel_j0_zero(1), rel=1e-14)


def test_cdt_delta_rescales_amplitudes(capsys):
    _, base, _ = _run(capsys, ["cdt", "--omega", "5"])
    _, scaled, _ = _run(capsys, ["cdt", "--omega", "5", "--delta", "2"])
    a = float(base.splitlines()[1].split(",")[1])
    b = float(scaled.splitlines()[1].split(",")[1])
    assert b == pytest.approx(2.0 * a, rel=1e-15)


# ---------------------------------------------------------------------------
# width


_WIDTH_ARGS = [
    "width", "--eps0", "5", "--amp", "8", "--omega", "5", "--n", "1",
    "--omega-min", "4.2", "--omega-max", "5.8", "--omega-points", "9",
    "--steps-per-period", "32",
]


def test_width_reports_hwhm(capsys):
    code, out, _ = _run(capsys, _WIDTH_ARGS + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 1
    assert 0.3 < payload["hwhm"] < 1.0


def test_width_meta_lists_every_run_key(capsys):
    code, out, _ = _run(capsys, _WIDTH_ARGS + ["--format", "json"])
    assert code == 0
    meta = json.loads(out)["meta"]
    assert list(meta) == ["generated_by", *(k for k in _COMMANDS["width"].keys if k not in ("out", "format"))]
    assert meta["steps-per-period"] == 32


def test_width_requires_sweep_arguments(capsys):
    code, _, err = _run(capsys, ["width", "--eps0", "5", "--amp", "8", "--omega", "5"])
    assert code == 2
    assert "width requires" in err


def test_width_bracketing_failure_exits_3(capsys):
    args = list(_WIDTH_ARGS)
    args[args.index("--omega-min") + 1] = "5.0"
    args[args.index("--omega-max") + 1] = "6.6"
    code, _, err = _run(capsys, args)
    assert code == 3
    assert "grid edge" in err


# ---------------------------------------------------------------------------
# config files and unit rescaling


def test_config_file_supplies_defaults(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eps0": 3.0, "amp": 15.0, "omega": 3.0, "format": "json"}))
    code, out, _ = _run(capsys, ["classify", "--config", str(path)])
    assert code == 0
    assert json.loads(out)["label"] == "TM_FAST"


def test_flags_override_config_file(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eps0": 3.0, "amp": 15.0, "omega": 3.0, "format": "json"}))
    code, out, _ = _run(capsys, ["classify", "--config", str(path), "--amp", "0.5", "--eps0", "0"])
    assert code == 0
    assert json.loads(out)["label"] == "RABI"


def test_config_rejects_unknown_keys(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cycles": 5}))
    code, _, err = _run(capsys, ["classify", "--config", str(path)])
    assert code == 2
    assert "unknown config keys" in err


def test_config_rejects_bad_json_and_missing_file(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("not json")
    assert _run(capsys, ["classify", "--config", str(path)])[0] == 2
    assert _run(capsys, ["classify", "--config", str(tmp_path / "absent.json")])[0] == 2


def test_unwritable_out_path_is_a_config_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, ["cdt", "--omega", "5", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert "cannot write output file" in err
    assert not target.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("steps-per-period", "many", "config key 'steps-per-period' must be an integer, got 'many'"),
        ("eps0", "big", "config key 'eps0' must be a number, got 'big'"),
        ("out", 5, "config key 'out' must be a string, got 5"),
        # null stands only for "no value", so it is refused where a key has a default.
        ("format", None, "config key 'format' must be a string, got None"),
        # An int past the float range is not a number (it was an OverflowError, exit 4).
        ("eps0", 10**400, f"config key 'eps0' must be a number, got {10**400}"),
    ],
    ids=["int", "float", "str", "null", "float-int-overflow"],
)
def test_config_type_checking(capsys, tmp_path, key, value, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    code, _, err = _run(capsys, ["simulate", "--amp", "1", "--omega", "2", "--config", str(path)])
    assert code == 2
    assert err == f"config error: {message}\n"


def test_format_is_checked_once_for_flags_and_files(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"format": "xml"}))
    expected = (2, "", "config error: format must be csv or json, got 'xml'\n")
    assert _run(capsys, ["classify", "--format", "xml"]) == expected
    assert _run(capsys, ["classify", "--config", str(path)]) == expected


_HUGE = "1000000000000"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--amp", "1", "--omega", "2", "--cycles", _HUGE, "--steps-per-period", "64"],
        ["simulate", "--amp", "1", "--omega", "2", "--steps-per-period", _HUGE],
        _SCAN_ARGS[:-1] + [_HUGE],
        # 5000 capped periods of 20 000 steps pass the 10^8-sample limit.
        _SCAN_ARGS[:-1] + ["20000"],
        _WIDTH_ARGS[:-1] + ["20000"],
        _WIDTH_ARGS[:-4] + ["--omega-points", _HUGE, "--steps-per-period", "32"],
        # Too large for a float, and past the one-block period of 65 536 steps.
        ["simulate", "--amp", "1", "--omega", "2", "--cycles", "1", "--steps-per-period", "1" + "0" * 400],
        ["simulate", "--eps0", "3", "--amp", "15", "--omega", "3", "--cycles", "1", "--steps-per-period", "2000000"],
    ],
    ids=["cycles", "steps-per-period", "scan-steps-per-period", "scan-steps-per-period-past-cap",
         "width-steps-per-period-past-cap", "omega-points", "steps-per-period-401-digits", "steps-per-period-past-block"],
)
def test_oversized_counts_are_config_errors(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("config error:")
    # Refused before any sample array is allocated.
    assert peak < 4 * 2**20


def test_delta_rescales_times_and_frequencies(capsys):
    base_args = ["simulate", "--eps0", "5", "--amp", "30", "--omega", "5", "--cycles", "1", "--steps-per-period", "64"]
    _, base, _ = _run(capsys, base_args)
    _, scaled, _ = _run(capsys, base_args + ["--delta", "2"])
    t_base = float(base.splitlines()[2].split(",")[0])
    t_scaled = float(scaled.splitlines()[2].split(",")[0])
    assert t_scaled == pytest.approx(0.5 * t_base, rel=1e-15)
    # Probabilities are unit-free and must not move.
    assert base.splitlines()[2].split(",")[1] == scaled.splitlines()[2].split(",")[1]

    code, out, _ = _run(capsys, ["predict", "--eps0", "3", "--amp", "15", "--omega", "3", "--format", "json"])
    ref = json.loads(out)
    code, out, _ = _run(
        capsys, ["predict", "--eps0", "3", "--amp", "15", "--omega", "3", "--delta", "2", "--format", "json"]
    )
    doubled = json.loads(out)
    assert doubled["rwa"]["omega_osc"] == pytest.approx(2.0 * ref["rwa"]["omega_osc"], rel=1e-15)
    assert doubled["tm"]["omega_osc"] == pytest.approx(2.0 * ref["tm"]["omega_osc"], rel=1e-15)
    # Angles are dimensionless.
    assert doubled["tm"]["theta_fc"] == ref["tm"]["theta_fc"]

    # A scan's fixed parameter is an energy or frequency like its axes.
    args = ["scan", "--omega", "3", "--axis1", "eps0:8.9:9.1:2", "--axis2", "amp:15:15:1", "--steps-per-period", "16"]
    _, out, _ = _run(capsys, args + ["--delta", "2", "--format", "json"])
    payload = json.loads(out)
    assert payload["axis1"]["values"] == [17.8, 18.2] and payload["axis2"]["values"] == [30.0]
    assert payload["fixed"] == {"name": "omega", "value": 6.0}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--eps0", "5", "--amp", "30", "--omega", "5", "--cycles", "3", "--steps-per-period", "64"],
        _SCAN_ARGS + ["--format", "json"],
    ],
    ids=["simulate-csv", "scan-json"],
)
def test_out_file_bytes_match_stdout(capsys, tmp_path, argv):
    target = tmp_path / "out"
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert _run(capsys, argv + ["--out", str(target)])[:2] == (0, "")
    assert target.read_bytes() == out.encode()


def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "trace.csv"
    code, out, _ = _run(
        capsys, ["simulate", "--amp", "1", "--omega", "2", "--cycles", "1", "--steps-per-period", "64", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "t,P_up"


# ---------------------------------------------------------------------------
# hostile input

_PREFIXES = {2: "config error: ", 3: "regime error: ", 4: "numerical error: "}


@pytest.mark.parametrize(
    "argv, config, expected",
    [
        (["simulate", "--omega", "0"], None, 2),
        (["classify", "--omega", "-1"], None, 2),
        (["simulate", "--eps0", "nan"], None, 2),
        (["predict", "--amp", "inf", "--format", "json"], None, 2),
        (["cdt", "--omega", "5", "--delta", "0"], None, 2),
        (["simulate", "--delta", "nan"], None, 2),
        (["cdt", "--omega", "inf"], None, 2),
        (["simulate", "--amp", "1", "--cycles", "0"], None, 2),
        (["simulate", "--amp", "1", "--cycles", "-3"], None, 2),
        # cycles * T would overflow a float: the count's bound refuses it first.
        (["simulate", "--amp", "1", "--cycles", "1" + "0" * 400], None, 2),
        (["scan", "--omega", "3", "--axis1", "eps0:0:1:-2", "--axis2", "amp:1:2:2"], None, 2),
        (_WIDTH_ARGS[:-2] + ["--n", "0"], None, 2),
        (_WIDTH_ARGS[:-2] + ["--omega-min", "0"], None, 2),
        (_WIDTH_ARGS[:-2] + ["--omega-max", "nan"], None, 2),
        (_WIDTH_ARGS[:-2] + ["--omega-points", "-1"], None, 2),
        (_WIDTH_ARGS[:-2] + ["--omega-min", "5.8", "--omega-max", "4.2"], None, 2),
        # v = omega*sqrt(A^2 - eps0^2) underflows to 0 and the adiabaticity divides by it.
        (["predict", "--eps0", "0", "--amp", "1e-300", "--omega", "3", "--format", "json"], None, 4),
        (["predict", "--amp", "1e300", "--omega", "3", "--format", "json"], None, 4),
        (["simulate", "--amp", "1"], {"cycles": 2.5}, 2),
        (["simulate", "--amp", "1"], {"steps-per-period": True}, 2),
        (_WIDTH_ARGS[:-4], {"omega-points": 9.0}, 2),
        (["classify", "--eps0", "1", "--amp", "2", "--omega", "0.5"], {"delta": 10**400}, 2),
    ],
    ids=[
        "omega-zero", "omega-negative", "eps0-nan", "amp-inf", "delta-zero", "delta-nan", "cdt-omega-inf",
        "cycles-zero", "cycles-negative", "cycles-huge", "axis-count-negative", "width-n-zero", "omega-min-zero",
        "omega-max-nan", "omega-points-negative", "omega-range-reversed", "amp-1e-300", "amp-1e300",
        "config-cycles-float", "config-steps-bool", "config-omega-points-float", "config-delta-int-overflow",
    ],
)
def test_hostile_input_exits_with_a_documented_code(capsys, tmp_path, argv, config, expected):
    # No traceback: every failure maps to exit 2, 3 or 4, with one prefixed
    # line on stderr and nothing on stdout.
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (expected, "")
    assert err.startswith(_PREFIXES[expected]) and err.count("\n") == 1
