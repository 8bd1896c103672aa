"""Command-line front end: exit codes, formats, config merging, determinism."""

import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivenqubit import __version__, cli, dynamics
from drivenqubit.analysis import ScanResult
from drivenqubit.cli import _COMMANDS, _CSV_BLOCK_ROWS, _csv, _g17, main
from drivenqubit.dynamics import DriveParams, QubitState, TimeSeries, propagate_exact
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


@pytest.mark.parametrize(
    "argv, unrecognized",
    [
        (["simulate", "--cyc", "1", "--amp", "1", "--steps-per", "16"], "--cyc 1 --steps-per 16"),
        # A prefix of three width flags, once refused as ambiguous among them.
        (["width", "--omega", "5", "--eps0", "5", "--amp", "8"], "--omega 5"),
        (["--vers", "cdt"], "--vers"),
    ],
    ids=["simulate", "width", "version"],
)
def test_flags_take_no_abbreviation(capsys, argv, unrecognized):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {unrecognized}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_help_lists_exactly_the_table_keys(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
    assert flags == {f"--{key}" for key in _COMMANDS[command].keys} | {"--config", "--help"}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_help_gives_each_key_its_default(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    # A key's help runs from its flag to the next "-", which no help text holds.
    text = " ".join(capsys.readouterr().out.split())
    for key in _COMMANDS[command].keys:
        default = cli._KEYS[key].default
        shown = re.search(rf"--{key} \S+ [^-]*?\(default (\S+)\)", text)
        assert (shown and shown.group(1)) == (None if default is None else str(default)), key


# ---------------------------------------------------------------------------
# every key changes the output

# A quick run of each command, as its flag values.  A scan reads the key of
# the one drive parameter that its axes leave fixed, so each of those keys
# is tested with the other two swept, and every other key with omega fixed.
_BASE_RUNS = {
    "simulate": {"eps0": "3", "amp": "15", "omega": "3", "cycles": "2", "steps-per-period": "16"},
    "predict": {"eps0": "3", "amp": "15", "omega": "3", "format": "json"},
    "scan": {"steps-per-period": "16"},
    "classify": {"eps0": "3", "amp": "15", "omega": "3"},
    "cdt": {"omega": "5"},
    "width": {
        "eps0": "5", "amp": "8", "omega-min": "4.2", "omega-max": "5.8", "omega-points": "9", "steps-per-period": "32",
    },
}
_SCAN_FIXED = {
    "eps0": {"eps0": "9", "axis1": "omega:2.9:3.1:2", "axis2": "amp:14:15:2"},
    "amp": {"amp": "15", "axis1": "eps0:8.9:9.1:2", "axis2": "omega:2.9:3.1:2"},
    "omega": {"omega": "3", "axis1": "eps0:8.9:9.1:2", "axis2": "amp:14:15:2"},
}
# Another valid value of each key, and where a command needs its own.
_OTHER = {
    "eps0": "4", "amp": "14", "omega": "2", "phi": "0.5", "delta": "2", "cycles": "3", "steps-per-period": "48",
    "axis1": "eps0:8.8:9.1:2", "axis2": "amp:14:15:3", "omega-min": "4.3", "omega-max": "5.7", "omega-points": "11",
    "format": "json",
}
_OTHER_IN = {
    ("classify", "eps0"): "16",  # eps0 enters only through tm's A > eps0
    ("width", "eps0"): "4.9",  # the grid still brackets the n = 1 resonance at omega = eps0
}
# Keys that leave the output as it is, on purpose.
_SAME_OUTPUT_ON_PURPOSE = {
    "out": "it sends the same bytes to a file instead of stdout",
    "predict.format": "json is its one legal value; the key stays so that predict --format json keeps working",
}
_KEYED_RUNS = [
    (command, key) for command, spec in _COMMANDS.items() for key in spec.keys
    if key not in _SAME_OUTPUT_ON_PURPOSE and f"{command}.{key}" not in _SAME_OUTPUT_ON_PURPOSE
]


def _output(capsys, command, values):
    """The output of command run with values as its flags, the JSON meta block left out."""
    argv = [command, *itertools.chain.from_iterable((f"--{key}", value) for key, value in values.items())]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, ""), argv
    if values.get("format") != "json":
        return out
    payload = json.loads(out)
    del payload["meta"]
    return payload


@pytest.mark.parametrize("command, key", _KEYED_RUNS, ids=[f"{command}-{key}" for command, key in _KEYED_RUNS])
def test_every_key_changes_the_output(capsys, command, key):
    # A key whose value changes no result is dropped, not kept for its echo
    # in the meta block; the keep-list above gives the exceptions.
    base = dict(_BASE_RUNS[command])
    if command == "scan":
        base.update(_SCAN_FIXED.get(key, _SCAN_FIXED["omega"]))
    other = {**base, key: _OTHER_IN.get((command, key), _OTHER[key])}
    assert base.get(key) != other[key]
    assert _output(capsys, command, base) != _output(capsys, command, other)


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
    "eps0, amp, omega, delta, cycles, spp",
    [
        ("5", "30", "5", "1", 3, 64),
        ("1", "0.5", "4", "1", 3, 64),
        ("5", "30", "5", "2.5", 3, 64),
        # 9601 rows: two whole blocks and a part of a third.
        ("5", "30", "5", "1", 150, 64),
        ("1", "0.5", "4", "1", 150, 64),
        ("5", "30", "5", "2.5", 150, 64),
        # P_up falls below 1e-4 in one row: exponent form.
        ("1", "15", "1", "1", 3, 64),
        # Every time below 1e-4: exponent form.
        ("5", "30", "5", "1e20", 3, 64),
        # Times from t = 1000 on are 1e17 or more: exponent form.
        ("5", "30", "0.5", "1e-14", 100, 64),
        # 32 771 rows, strobe rows 12 287 (a block's last) and 28 672 (a
        # block's first), and four blocks between them with none.
        ("0.0034", "5", "5", "1", 2, 16385),
    ],
    ids=[
        "with-tm", "without-tm", "delta", "with-tm-blocks", "without-tm-blocks", "delta-blocks",
        "small-p-up", "small-times", "large-times", "strobe-block-edges",
    ],
)
def test_simulate_csv_matches_a_row_by_row_rendering(capsys, eps0, amp, omega, delta, cycles, spp):
    code, out, _ = _run(
        capsys,
        [
            "simulate", "--eps0", eps0, "--amp", amp, "--omega", omega, "--delta", delta,
            "--cycles", str(cycles), "--steps-per-period", str(spp),
        ],
    )
    assert code == 0
    p = DriveParams(delta=1.0, epsilon0=float(eps0), amplitude=float(amp), omega=float(omega))
    ts = propagate_exact(p, QubitState.up(), cycles * p.period, steps_per_period=spp)
    if cycles > 3:
        assert ts.values.size > _CSV_BLOCK_ROWS and ts.values.size % _CSV_BLOCK_ROWS
    tm = {}
    if p.amplitude > p.epsilon0:
        _, t_c2 = crossing_times(p)
        strobe = propagate_tm(p, QubitState.up(), int(math.floor((ts.t_end - t_c2) / p.period)))
        for k, value in enumerate(strobe.values):
            tm[int(round((strobe.t0 + k * strobe.dt) / ts.dt))] = f"{value:.17g}"
    if spp > _CSV_BLOCK_ROWS:
        assert sorted(tm) == [3 * _CSV_BLOCK_ROWS - 1, 7 * _CSV_BLOCK_ROWS]
        assert ts.values.size == 8 * _CSV_BLOCK_ROWS + 3
    lines = ["t,P_up,P_up_tm" if tm else "t,P_up"]
    for i, (t, value) in enumerate(zip(ts.times(), ts.values)):
        row = [f"{t / float(delta):.17g}", f"{value:.17g}"]
        if tm:
            row.append(tm.get(i, ""))
        lines.append(",".join(row))
    assert out == "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "size, rows",
    [
        (3 * _CSV_BLOCK_ROWS + 5, [0, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, 3 * _CSV_BLOCK_ROWS + 4]),
        (2 * _CSV_BLOCK_ROWS, [2 * _CSV_BLOCK_ROWS - 1]),
        (7, []),
    ],
    ids=["edges-and-last-row", "last-row-ends-a-block", "no-marks"],
)
def test_trace_csv_splices_strobe_values_into_their_rows(size, rows):
    # A strobe row from the CLI lies at least a quarter period before the
    # trace's end, so marks on the last row of a trace are set by hand here.
    values = np.random.default_rng(size).random(size)
    ts = TimeSeries(0.5, 0.01, values)
    marks = {i: 1.0 / (i + 3) for i in rows}

    def block(i, j):
        texts = [(row - i, b"%.17g" % marks[row]) for row in rows if i <= row < j]
        return [ts.times()[i:j] / 2.0, values[i:j]], texts

    out = b"".join(_csv("t,P_up,P_up_tm", size, block))
    lines = ["t,P_up,P_up_tm"]
    for i, (t, value) in enumerate(zip(ts.times(), values)):
        lines.append(f"{t / 2.0:.17g},{value:.17g}," + (f"{marks[i]:.17g}" if i in marks else ""))
    assert out == ("\n".join(lines) + "\n").encode()


def _g17_rows(x, seps):
    return [row.tobytes().replace(b"\0", b"") for row in _g17(np.asarray(x, dtype=np.float64), seps)]


def _percent_17g_rows(x, seps):
    return [b"".join(b"%.17g" % v + bytes([sep]) for v, sep in zip(row, seps)) for row in x]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda m: st.lists(
            st.lists(st.one_of(st.floats(), st.floats(1e-5, 1e18)), min_size=m, max_size=m),
            min_size=1, max_size=300,
        )
    )
)
def test_g17_is_percent_17g(rows):
    seps = b",;\n"[-len(rows[0]):]
    assert _g17_rows(rows, seps) == _percent_17g_rows(rows, seps)


def _exact_ties():
    """(E, v) for doubles v = m * 2**(E - 17), m odd, in [10**E, 10**(E + 1)): v * 10**(16 - E) ends in .5."""
    ties = []
    for e in range(-4, 17):
        step = 2.0 ** (e - 17)
        low = math.ceil(10.0**e / step) | 1
        high = min(10 ** (e + 1) / step, 2**53)
        # Above 2**53 * step there is no odd m: at E = 16 every double is an even integer.
        if e < 16:
            assert low < high
        ms = list(range(low, int(high), max(2, int(high - low) // 100 * 2)))
        ties += [(e, m * step) for m in ms + [int(high) - 1 - int(high) % 2] if low <= m < high]
    return ties


def test_g17_fixed_cases():
    ties = _exact_ties()
    for e, v in ties:
        assert Fraction(10) ** e <= Fraction(v) < Fraction(10) ** (e + 1)
        assert (Fraction(v) * Fraction(10) ** (16 - e)).denominator == 2
    powers = [float(f"1e{k}") for k in range(-5, 18)]
    around = [np.nextafter(p, side) for p in powers for side in (0.0, math.inf)]
    x = [[v] for _, v in ties] + [[v] for v in powers + around + [1.0, 0.5, 1e16, 1e17]]
    assert _g17_rows(x, b"\n") == _percent_17g_rows(x, b"\n")


def test_g17_writes_the_fallback_values():
    x = [[0.0, -0.0, -1.5], [math.inf, -math.inf, math.nan], [5e-324, 9.9e-5, 1e300], [-1.2345678901234567e-100] * 3]
    assert _g17_rows(x, b",,\n") == [
        b"0,-0,-1.5\n", b"inf,-inf,nan\n", b"4.9406564584124654e-324,9.8999999999999994e-05,1.0000000000000001e+300\n",
        b"-1.2345678901234567e-100,-1.2345678901234567e-100,-1.2345678901234567e-100\n",
    ]


def test_g17_block_memory_is_a_few_arrays_of_its_size():
    # One 4096 x 7 block, the shape of a scan block: axes, frequencies and
    # amplitudes across the exponent range, and a NaN cell in every 20th
    # row.  Each temporary is reused or dropped once read, so one call peaks
    # at about 89 bytes a value (2.4 MiB); with every temporary kept alive
    # it read 177 bytes a value (4.8 MiB).
    rng = np.random.default_rng(29)
    x = np.column_stack(
        [np.linspace(8.0, 10.4, 4096), np.linspace(11.0, 17.0, 4096)]
        + [10.0 ** rng.uniform(-6.0, 3.0, 4096) for _ in range(5)]
    )
    x[::20, 2] = math.nan
    expected = _percent_17g_rows(x, b",,,,,,\n")
    tracemalloc.start()
    try:
        fields = _g17(x, b",,,,,,\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [row.tobytes().replace(b"\0", b"") for row in fields] == expected
    assert peak < 112 * x.size


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


@pytest.mark.parametrize("amp", [30.0, 2.0], ids=["with-strobe", "without-strobe"])
def test_simulate_json_is_json_dumps_of_the_trace(tmp_path, amp):
    # 5 121 rows, one full block and a partial one; at A <= eps0 there is no strobe column.
    target = tmp_path / "trace.json"
    argv = [
        "simulate", "--eps0", "5", "--amp", repr(amp), "--omega", "5", "--cycles", "80",
        "--steps-per-period", "64", "--delta", "2", "--format", "json", "--out", str(target),
    ]
    assert main(argv) == 0
    text = target.read_text(encoding="utf-8")
    p = DriveParams(delta=1.0, epsilon0=5.0, amplitude=amp, omega=5.0)
    ts = propagate_exact(p, QubitState.up(), 80 * p.period, steps_per_period=64)
    assert len(ts) > _CSV_BLOCK_ROWS and len(ts) % _CSV_BLOCK_ROWS
    body = {"meta": json.loads(text)["meta"], "t": (ts.times() / 2.0).tolist(), "P_up": ts.values.tolist()}
    if amp > 5.0:
        strobe = propagate_tm(p, QubitState.up(), int((ts.t_end - crossing_times(p)[1]) // p.period))
        body["P_up_tm"] = {"t": (strobe.times() / 2.0).tolist(), "values": strobe.values.tolist()}
    assert text == json.dumps(body, indent=2) + "\n"


def test_simulate_json_memory_is_the_trace_and_one_block(tmp_path):
    # 128 001 rows.  The document as lists and one string would take about
    # 310 bytes a row; the trace array takes 8.
    rows = 2000 * 64 + 1
    target = tmp_path / "trace.json"
    argv = [
        "simulate", "--eps0", "5", "--amp", "30", "--omega", "5",
        "--cycles", "2000", "--steps-per-period", "64", "--format", "json", "--out", str(target),
    ]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    with open(target, encoding="utf-8") as fh:
        assert len(json.load(fh)["P_up"]) == rows
    assert peak < 16 * rows + 4 * 2**20


def test_simulate_json_strobe_is_written_a_block_at_a_time(monkeypatch, tmp_path):
    # A coarse 21-sample trace that spans 20 000 periods, so the document is
    # almost all strobe: 20 000 samples.  Written a block at a time like the
    # trace, the strobe column costs its arrays and one block, and this run
    # peaks at 0.98 MiB.  Two whole lists of floats read 1.92 MiB.
    p = DriveParams(delta=1.0, epsilon0=5.0, amplitude=30.0, omega=5.0)
    trace = TimeSeries(0.0, 1000.0 * p.period, np.full(21, 0.5))
    monkeypatch.setattr(cli, "propagate_exact", lambda *args, **kwargs: trace)
    target = tmp_path / "trace.json"
    argv = ["simulate", "--eps0", "5", "--amp", "30", "--omega", "5", "--format", "json", "--out", str(target)]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    with open(target, encoding="utf-8") as fh:
        strobe = json.load(fh)["P_up_tm"]
    assert len(strobe["t"]) == len(strobe["values"]) == 20_000
    assert peak < 16 * 20_000 + 2**20


def _env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def test_closed_stdout_ends_the_run_quietly():
    # The reader takes one line and closes the pipe, as `| head -1` does.
    env = _env()
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


def test_overflow_to_inf_prints_no_numpy_warning():
    # t / 1e-310 overflows: JSON refuses the inf, CSV prints it.
    argv = [
        sys.executable, "-m", "drivenqubit.cli", "simulate", "--eps0", "3", "--amp", "15", "--omega", "3",
        "--cycles", "2", "--delta", "1e-310",
    ]
    run = subprocess.run([*argv, "--format", "json"], capture_output=True, env=_env(), timeout=300)
    assert run.returncode == 4
    assert run.stdout == b""
    assert re.fullmatch(rb"numerical error: [^\n]*\n", run.stderr)
    run = subprocess.run(argv, capture_output=True, env=_env(), timeout=300)
    assert (run.returncode, run.stderr) == (0, b"")
    assert b"\ninf,0." in run.stdout


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


@pytest.mark.parametrize("omega", ["0.5", "1", "2", "5"])
def test_predict_rwa_valid_is_the_classifier_rwa(capsys, omega):
    # One report, one answer: rwa.valid is classify_regime's omega/delta > 1.
    code, out, _ = _run(capsys, ["predict", "--eps0", "1", "--amp", "4", "--omega", omega, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rwa"]["valid"] is payload["regime"]["rwa"] is (float(omega) > 1.0)


# predict --format json at four (eps0, A, omega) points, meta left out, as
# recorded with numpy 2.4 and scipy 1.17.
_PREDICT_PINS = {
    ("3", "15", "3"): {
        "regime": {
            "label": "TM_FAST", "ratios": [15.0, 3.0, 45.0],
            "rabi": False, "rwa": True, "tm": True, "tm_speed": "FAST",
        },
        "rwa": {"n": -1, "omega_osc": 0.3275791375914652, "width": 0.3275791375914652, "valid": True},
        "tm": {
            "zeta_fc": 0.6973506388496178, "theta_fc": 6.2317024776862135, "phi_fc": -5.126314882405338,
            "omega_osc": 0.33296040372362334, "width": 0.33296040372362334, "resonance_residual": 0.0,
        },
        "slow": {"lhs": 3.2469756386326547, "nearest_integer": 3},
    },
    ("5", "30", "1"): {
        "regime": {
            "label": "TM_FAST", "ratios": [30.0, 1.0, 30.0],
            "rabi": False, "rwa": False, "tm": True, "tm_speed": "FAST",
        },
        "rwa": {"n": -5, "omega_osc": 0.14324029551207706, "width": 0.028648059102415413, "valid": False},
        "tm": {
            "zeta_fc": 0.9038032721175245, "theta_fc": 6.245020600020275, "phi_fc": -5.354768455567786,
            "omega_osc": 0.1438447583401334, "width": 0.028768951668026684, "resonance_residual": 0.0,
        },
        "slow": {"lhs": 19.364470614507773, "nearest_integer": 19},
    },
    ("0.5", "2", "0.05"): {
        "regime": {
            "label": "TM_SLOW", "ratios": [2.0, 0.05, 0.1],
            "rabi": False, "rwa": False, "tm": True, "tm_speed": "SLOW",
        },
        "rwa": {"n": -10, "omega_osc": 0.11938336278226086, "width": 0.011938336278226085, "valid": False},
        "tm": {
            "zeta_fc": 0.0003080017721330628, "theta_fc": -2.6069244310823074, "phi_fc": 1.8627684319948608,
            "omega_osc": 2.4510002258020265e-06, "width": 2.451000225802027e-07, "resonance_residual": 0.0,
        },
        "slow": {"lhs": 26.264790227563317, "nearest_integer": 26},
    },
    # eps0/omega = 1/3: the nearest resonance is n = 0, which has no width.
    ("1", "4", "3"): {
        "regime": {
            "label": "TM_FAST", "ratios": [4.0, 3.0, 12.0],
            "rabi": False, "rwa": True, "tm": True, "tm_speed": "FAST",
        },
        "rwa": {"n": 0, "omega_osc": 0.6025661697724921, "width": None, "valid": True},
        "tm": {
            "zeta_fc": 1.4435061503445654, "theta_fc": -2.0282014175324052, "phi_fc": 0.5469647230106847,
            "omega_osc": 0.6892234176326707, "width": None, "resonance_residual": 0.3333333333333333,
        },
        "slow": {"lhs": 0.8754930075854438, "nearest_integer": 1},
    },
}


def _assert_pinned(got, pinned):
    """Labels, booleans, integers and None exactly; every float within 1e-12 relative."""
    if isinstance(pinned, dict):
        assert list(got) == list(pinned)
        for key in pinned:
            _assert_pinned(got[key], pinned[key])
    elif isinstance(pinned, list):
        assert len(got) == len(pinned)
        for g, v in zip(got, pinned):
            _assert_pinned(g, v)
    elif isinstance(pinned, float):
        assert type(got) is float and got == pytest.approx(pinned, rel=1e-12, abs=0.0)
    else:
        assert type(got) is type(pinned) and got == pinned


@pytest.mark.parametrize("point", list(_PREDICT_PINS), ids=lambda point: "-".join(point))
def test_predict_prints_the_pinned_numbers(capsys, point):
    # Floats within a tolerance, not as bytes: scipy's jv and loggamma can
    # move in the last digits between versions.
    eps0, amp, omega = point
    code, out, _ = _run(capsys, ["predict", "--eps0", eps0, "--amp", amp, "--omega", omega, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload.pop("meta") == {
        "generated_by": f"drivenqubit {__version__}", "eps0": float(eps0), "amp": float(amp), "omega": float(omega),
        "delta": 1.0,
    }
    _assert_pinned(payload, _PREDICT_PINS[point])


# Golden CSV files: the scan_map grid without its seed jitter, the README
# width example, a short simulate with its P_up_tm strobe, cdt and classify.
_GOLDEN = Path(__file__).resolve().parent / "golden"
_GOLDEN_RUNS = {
    "scan_omega3.csv": ["scan", "--omega", "3", "--axis1", "eps0:8:10.4:10", "--axis2", "amp:11:17:10"],
    "width_readme.csv": [
        "width", "--eps0", "5", "--amp", "8", "--omega-min", "4.2", "--omega-max", "5.8", "--omega-points", "9",
    ],
    "simulate_short.csv": [
        "simulate", "--eps0", "3", "--amp", "15", "--omega", "3", "--cycles", "4", "--steps-per-period", "16",
    ],
    "cdt_omega5.csv": ["cdt", "--omega", "5"],
    "classify_point.csv": ["classify", "--eps0", "1", "--amp", "2", "--omega", "0.5"],
}


def _numeric(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", list(_GOLDEN_RUNS))
def test_cli_csv_matches_its_golden_file(capsys, name):
    # The header, the row count, the flags and every field that is not a
    # number (empty strobe fields, labels, booleans) exactly; every other
    # number within 1e-12 relative, the rule of
    # test_predict_prints_the_pinned_numbers.
    code, out, _ = _run(capsys, _GOLDEN_RUNS[name])
    assert code == 0
    got = [line.split(",") for line in out.splitlines()]
    pinned = [line.split(",") for line in (_GOLDEN / name).read_text(encoding="utf-8").splitlines()]
    assert got[0] == pinned[0]
    assert len(got) == len(pinned)
    for row, pin in zip(got[1:], pinned[1:]):
        assert len(row) == len(pin)
        for column, g, v in zip(pinned[0], row, pin):
            if column == "flags" or not _numeric(v):
                assert g == v, (column, pin)
            else:
                assert float(g) == pytest.approx(float(v), rel=1e-12, abs=0.0), (column, pin)


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


def test_scan_refuses_a_value_for_a_swept_key(capsys, tmp_path):
    # An axis sets its drive key at every cell, so a value given for that key,
    # by a flag or in the config file, is refused rather than left unread.
    axes = ["--axis1", "eps0:8.9:9.1:2", "--axis2", "amp:14:15:2", "--steps-per-period", "16"]
    code, out, err = _run(capsys, ["scan", "--eps0", "5", "--amp", "2", "--omega", "3", *axes])
    assert (code, out, err) == (2, "", "config error: axis1 sweeps eps0, so eps0 cannot also be given\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"amp": 2.0}))
    code, out, err = _run(capsys, ["scan", "--omega", "3", *axes, "--config", str(path)])
    assert (code, out, err) == (2, "", "config error: axis2 sweeps amp, so amp cannot also be given\n")
    # The fixed key, from either place, is read as before.
    path.write_text(json.dumps({"omega": 3.0}))
    assert _run(capsys, ["scan", *axes, "--config", str(path)])[:2] == _run(capsys, ["scan", "--omega", "3", *axes])[:2]


# Cells with A <= eps0 have no transfer-matrix prediction: NaN, not an
# error.  At A = 0, J_n(0) = 0 for the n != 0 resonance, so no finite
# prediction sizes the run and it takes the 5000-period cap.
_SCAN_WITHOUT_CROSSINGS_ARGS = [
    "scan", "--omega", "3", "--axis1", "eps0:3:6:2", "--axis2", "amp:0:9:3", "--steps-per-period", "16",
]


def test_scan_cells_without_crossings(capsys):
    args = _SCAN_WITHOUT_CROSSINGS_ARGS
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


def _synthetic_scan(n):
    """An n x n ScanResult whose numbers take every path of the CSV formatting, and whose cells hold 0, 1 or 2 flags."""
    rng = np.random.default_rng(n)
    special = np.array([math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 3.7e-5, -2.5e-9, 1e17, 6.02e23, -1.5, -8e20])

    def grid():
        x = rng.lognormal(0.0, 3.0, (n, n))
        picks = rng.random((n, n)) < 0.2
        x[picks] = rng.choice(special, int(picks.sum()))
        return x

    names = [(), ("suppressed",), ("ambiguous", "below_resolution"), ("error:QuadratureError",)]
    flags = tuple(tuple(names[k] for k in row) for row in rng.integers(0, len(names), (n, n)).tolist())
    axis1 = np.concatenate([special, rng.lognormal(0.0, 3.0, n - special.size)])
    return ScanResult(
        "omega", 3.0, "epsilon0", "amplitude", axis1, rng.uniform(-20.0, 20.0, n),
        grid(), grid(), grid(), grid(), grid(), flags,
    )


def _scan_csv(result, scale):
    """The scan CSV of result, rendered row by row with '%.17g'."""
    lines = [b"axis1,axis2,omega_est,amplitude,omega_rwa,omega_tm,slow_lhs,flags\n"]
    for i, a1 in enumerate(result.axis1.tolist()):
        for j, a2 in enumerate(result.axis2.tolist()):
            numbers = (
                a1 * scale, a2 * scale, result.omega_est[i, j] * scale, result.amplitude[i, j],
                result.omega_rwa[i, j] * scale, result.omega_tm[i, j] * scale, result.slow_lhs[i, j],
            )
            lines.append(((b"%.17g," * 7 + b"%s\n") % (*numbers, ";".join(result.flags[i][j]).encode())))
    return b"".join(lines)


def test_scan_csv_of_a_synthetic_result_matches_a_row_by_row_rendering(monkeypatch, tmp_path):
    # 4 900 cells: a whole block and a part of a second.
    result = _synthetic_scan(70)
    assert result.omega_est.size > _CSV_BLOCK_ROWS
    monkeypatch.setattr(cli, "scan_resonance_map", lambda *args: result)
    target = tmp_path / "scan.csv"
    argv = ["scan", "--omega", "3", "--axis1", "eps0:0:1:70", "--axis2", "amp:0:1:70", "--delta", "2"]
    assert main(argv + ["--out", str(target)]) == 0
    assert target.read_bytes() == _scan_csv(result, 2.0)


def test_scan_csv_memory_is_the_result_and_one_block(monkeypatch, tmp_path):
    result = _synthetic_scan(200)
    cells = result.omega_est.size
    monkeypatch.setattr(cli, "scan_resonance_map", lambda *args: result)
    target = tmp_path / "scan.csv"
    argv = ["scan", "--omega", "3", "--axis1", "eps0:0:1:200", "--axis2", "amp:0:1:200", "--out", str(target)]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    with open(target, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == cells + 1
    # The writer holds one 4096-row block of seven number columns: _g17
    # peaks at about 89 bytes a value, 2.4 MiB for the block's 28 672, and
    # the block's text is made twice more (spliced, then without padding),
    # so this run peaks at 4.0 MiB.  A list per column of every row (about
    # 222 bytes a cell) read 10.6 MiB.
    assert peak < 16 * cells + 7 * 2**20


def _json_scan(n1, n2):
    """An n1 x n2 ScanResult that JSON can hold: finite axes, about 5% NaN cells, and 0, 1 or 2 flags a cell."""
    rng = np.random.default_rng(n1 * n2)

    def grid():
        x = rng.lognormal(0.0, 3.0, (n1, n2))
        x[rng.random((n1, n2)) < 0.05] = math.nan
        return x

    names = [(), ("suppressed",), ("ambiguous", "below_resolution"), ("error:QuadratureError",)]
    flags = tuple(tuple(names[k] for k in row) for row in rng.integers(0, len(names), (n1, n2)).tolist())
    return ScanResult(
        "omega", 3.0, "epsilon0", "amplitude", rng.lognormal(0.0, 3.0, n1), rng.uniform(-20.0, 20.0, n2),
        grid(), grid(), grid(), grid(), grid(), flags,
    )


def _scan_json_argv(result, target):
    n1, n2 = result.omega_est.shape
    return [
        "scan", "--omega", "3", "--axis1", f"eps0:0:1:{n1}", "--axis2", f"amp:0:1:{n2}",
        "--format", "json", "--out", str(target),
    ]


@pytest.mark.parametrize("n1, n2", [(70, 70), (2, 4100), (4100, 2)], ids=["square", "long-rows", "many-rows"])
def test_scan_json_of_a_synthetic_result_is_json_dumps_of_its_lists(monkeypatch, tmp_path, n1, n2):
    # Rows longer than a block, and more rows than a block, are each split.
    result = _json_scan(n1, n2)
    monkeypatch.setattr(cli, "scan_resonance_map", lambda *args: result)
    target = tmp_path / "scan.json"
    assert main(_scan_json_argv(result, target) + ["--delta", "2"]) == 0
    text = target.read_text(encoding="utf-8")
    scales = {"omega_est": 2.0, "amplitude": 1.0, "omega_rwa": 2.0, "omega_tm": 2.0, "slow_lhs": 1.0}
    body = {
        "meta": json.loads(text)["meta"],
        "fixed": {"name": "omega", "value": 6.0},
        "axis1": {"name": "epsilon0", "values": (result.axis1 * 2.0).tolist()},
        "axis2": {"name": "amplitude", "values": (result.axis2 * 2.0).tolist()},
        **{
            name: [[None if math.isnan(v) else v for v in row] for row in (getattr(result, name) * s).tolist()]
            for name, s in scales.items()
        },
        "flags": [[list(cell) for cell in row] for row in result.flags],
    }
    assert text == json.dumps(body, indent=2) + "\n"


def test_scan_json_memory_is_the_result_and_one_block(monkeypatch, tmp_path):
    result = _json_scan(120, 120)
    cells = result.omega_est.size
    monkeypatch.setattr(cli, "scan_resonance_map", lambda *args: result)
    target = tmp_path / "scan.json"
    tracemalloc.start()
    try:
        code = main(_scan_json_argv(result, target))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    with open(target, encoding="utf-8") as fh:
        assert len(json.load(fh)["flags"]) == 120
    # The grids are written a block of one row's cells at a time, and the
    # flags straight from the result's tuples: this run peaks at 0.68 MiB
    # (a 400 x 400 map at 0.65 MiB).  Nested lists of every grid (about
    # 240 bytes a cell) read 3.9 MiB here and 35.9 MiB at 400 x 400.
    assert peak < 16 * cells + 2**20


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


def test_json_output_refuses_infinite_numbers(capsys):
    # omega * j_{0,k} overflows: JSON has no Infinity, so the run fails and writes nothing.
    code, out, err = _run(capsys, ["cdt", "--omega", "1e308", "--format", "json"])
    assert (code, out) == (4, "")
    assert err.startswith("numerical error:") and err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, later",
    [
        # t / 1e-310 is inf from the second row, in the document's first chunk.
        (["simulate", "--eps0", "3", "--amp", "15", "--omega", "3", "--cycles", "2", "--delta", "1e-310"], False),
        (["cdt", "--omega", "1e308"], False),
        # t / 5e-307 is inf from row 10 987 of 15 361, after the first chunk.
        (["simulate", "--eps0", "3", "--amp", "15", "--omega", "3", "--cycles", "60", "--delta", "5e-307"], True),
    ],
    ids=["simulate-first-chunk", "cdt-first-chunk", "simulate-later-chunk"],
)
def test_failed_run_leaves_no_partial_output_file(capsys, tmp_path, argv, later):
    argv = argv + ["--format", "json"]
    code, out, _ = _run(capsys, argv)
    assert code == 4 and (out != "") == later
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("kept\n")
    for target in (kept, fresh):
        code, out, err = _run(capsys, argv + ["--out", str(target)])
        assert (code, out) == (4, "") and err.startswith("numerical error:")
    # A first-chunk failure opens no file; a later one removes what it wrote.
    assert not fresh.exists()
    assert not kept.exists() if later else kept.read_text() == "kept\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_gets_the_bytes_of_the_out_file(capfdbinary, tmp_path, fmt):
    # 5 121 rows with a strobe column: two blocks.
    argv = [
        "simulate", "--eps0", "5", "--amp", "30", "--omega", "5", "--cycles", "80",
        "--steps-per-period", "64", "--format", fmt,
    ]
    target = tmp_path / "trace.out"
    assert main(argv + ["--out", str(target)]) == 0
    assert main(argv) == 0
    out = capfdbinary.readouterr().out
    assert out == target.read_bytes()
    assert fmt == "json" or out.startswith(b"t,P_up,P_up_tm\n")
    # A text stdout with no byte buffer gets the same text.
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main(argv) == 0
    assert text.getvalue().encode() == out


def test_cdt_delta_rescales_amplitudes(capsys):
    _, base, _ = _run(capsys, ["cdt", "--omega", "5"])
    _, scaled, _ = _run(capsys, ["cdt", "--omega", "5", "--delta", "2"])
    a = float(base.splitlines()[1].split(",")[1])
    b = float(scaled.splitlines()[1].split(",")[1])
    assert b == pytest.approx(2.0 * a, rel=1e-15)


# ---------------------------------------------------------------------------
# width


_WIDTH_ARGS = [
    "width", "--eps0", "5", "--amp", "8", "--omega-min", "4.2", "--omega-max", "5.8", "--omega-points", "9",
    "--steps-per-period", "32",
]


def test_width_reports_hwhm(capsys):
    code, out, _ = _run(capsys, _WIDTH_ARGS + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["meta", "hwhm"]
    assert 0.3 < payload["hwhm"] < 1.0


def test_width_meta_lists_every_run_key(capsys):
    code, out, _ = _run(capsys, _WIDTH_ARGS + ["--format", "json"])
    assert code == 0
    meta = json.loads(out)["meta"]
    assert list(meta) == ["generated_by", *(k for k in _COMMANDS["width"].keys if k not in ("out", "format"))]
    assert meta["steps-per-period"] == 32


def test_width_requires_sweep_arguments(capsys):
    code, _, err = _run(capsys, ["width", "--eps0", "5", "--amp", "8"])
    assert code == 2
    assert "width requires" in err


def test_width_bracketing_failure_exits_3(capsys):
    args = list(_WIDTH_ARGS)
    args[args.index("--omega-min") + 1] = "5.0"
    args[args.index("--omega-max") + 1] = "6.6"
    code, _, err = _run(capsys, args)
    assert code == 3
    assert "grid edge" in err


def _returned(monkeypatch, name):
    """A list that gets each value cli.<name> returns from here on."""
    values, real = [], getattr(cli, name)

    def record(*args, **kwargs):
        values.append(real(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(cli, name, record)
    return values


def _two_column_csv(header, rows):
    return (header + "\n" + "".join("%d,%.17g\n" % row for row in rows)).encode()


@pytest.mark.parametrize(
    "argv, name, render",
    [
        (_SCAN_ARGS, "scan_resonance_map", lambda result: _scan_csv(result, 1.0)),
        (_SCAN_WITHOUT_CROSSINGS_ARGS, "scan_resonance_map", lambda result: _scan_csv(result, 1.0)),
        (["cdt", "--omega", "5"], "cdt_amplitudes", lambda a: _two_column_csv("k,amplitude", enumerate(a, 1))),
        # omega * j_{0,k} overflows: every amplitude is inf.
        (["cdt", "--omega", "1e308"], "cdt_amplitudes", lambda a: _two_column_csv("k,amplitude", enumerate(a, 1))),
        (_WIDTH_ARGS, "measure_resonance_width", lambda hwhm: b"hwhm\n%.17g\n" % hwhm),
    ],
    ids=["scan", "scan-without-crossings", "cdt", "cdt-overflow", "width"],
)
def test_table_csv_matches_a_row_by_row_rendering(monkeypatch, tmp_path, argv, name, render):
    returned = _returned(monkeypatch, name)
    target = tmp_path / "table.csv"
    assert main(argv + ["--out", str(target)]) == 0
    assert len(returned) == 1
    out = target.read_bytes()
    assert out == render(returned[0])
    assert (b",inf\n" in out) == (argv[-1] == "1e308")


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


def test_config_null_stands_for_a_key_that_defaults_to_no_value(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"out": None}))
    argv = ["predict", "--eps0", "3", "--amp", "15", "--omega", "3", "--format", "json"]
    plain = _run(capsys, argv)
    assert plain[0] == 0
    assert _run(capsys, argv + ["--config", str(path)]) == plain


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
    assert doubled["tm"]["width"] == pytest.approx(2.0 * ref["tm"]["width"], rel=1e-15)
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
        (["cdt", "--omega", "5"], {"delta": 10**400}, 2),
    ],
    ids=[
        "omega-zero", "omega-negative", "eps0-nan", "amp-inf", "delta-zero", "delta-nan", "cdt-omega-inf",
        "cycles-zero", "cycles-negative", "cycles-huge", "axis-count-negative", "omega-min-zero",
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
