"""The three benchmark workloads: seeded inputs, one timed pass, output check.

Input generation uses numpy alone, so drivenqubit receives nothing but the
generated inputs.  Each workload object runs one pass of its job through
the package's public modules (looked up at call time, so a tracer that
rebinds module attributes sees every call) and checks the outputs of its
last pass against ``reference``.

* ``scan_map``: ``drivenqubit scan`` over a seed-jittered (eps0, A) grid at
  omega = 3 and the CLI's default 256 steps per period.  The grid avoids
  the Bessel nodes and the half-integer eps0/omega ties, where a cell's run
  length jumps by orders of magnitude, so every seed does nearly the same
  work.  Operation = one scan cell; point latency = one scan.
* ``simulate_trace``: ``drivenqubit simulate`` of 1000 drive cycles at 256
  steps per period to a CSV file (256k rows), at omega = 3 and a seed-drawn
  transfer-matrix point near (eps0, A) = (3, 15).  Operation and point = one
  simulate run.
* ``predict_grid``: the predictor calls of ``drivenqubit predict`` through
  the API for 1600 seed-drawn transfer-matrix points, 200 in each of eight
  strata (omega in {0.5, 1, 3, 5}, fast or slow crossing side).  Operation
  and point = one parameter point.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference

SCAN_OMEGA = 3.0
SCAN_EPS0 = (8.0, 10.4)
SCAN_AMP = (11.0, 17.0)
SCAN_JITTER = 0.05
STEPS_PER_PERIOD = 256
# omega = 3 with 1000 cycles is a case where the substep count comes out one
# above cycles * steps_per_period (256001); a period-aligned grid changes it.
SIM_OMEGA = 3.0
SIM_CYCLES = 1000
PREDICT_OMEGAS = (0.5, 1.0, 3.0, 5.0)
PREDICT_PER_STRATUM = 200

# Output-check tolerances.  Each is tighter than the acceptance criterion
# covering the same output (15% on frequencies, 1e-10 on the cycle round
# trip, byte-identical scans).
TOL_SCAN_OMEGA_BINS = 0.1  # omega_est, in spectral bins (about 1% here)
TOL_SCAN_AMPLITUDE = 2e-3
TOL_PREDICTION = 1e-9
TOL_TRACE = 1e-9
TOL_ROUND_TRIP = 1e-10


@dataclass
class Check:
    """Outcome of an output check: mismatching cells/points and largest deviation."""

    mismatches: int = 0
    max_err: float = 0.0
    notes: list[str] = field(default_factory=list)

    def compare(self, what: str, got: float, want: float, tol: float) -> None:
        if math.isnan(want) and math.isnan(got):
            return
        err = abs(got - want)
        if not err <= tol:
            self.mismatches += 1
            if len(self.notes) < 10:
                self.notes.append(f"{what}: got {got!r}, reference {want!r}")
        if math.isfinite(err):
            self.max_err = max(self.max_err, err)

    def compare_all(self, what: str, got: np.ndarray, want: np.ndarray, tol: float) -> None:
        err = np.abs(got - want)
        bad = np.flatnonzero(~(err <= tol))
        self.mismatches += int(bad.size)
        if bad.size and len(self.notes) < 10:
            self.notes.append(f"{what}: {bad.size} of {err.size} beyond {tol:g}, worst {np.nanmax(err):g}")
        if err.size:
            self.max_err = max(self.max_err, float(np.nanmax(err)))

    def expect(self, what: str, ok: bool) -> None:
        if not ok:
            self.mismatches += 1
            if len(self.notes) < 10:
                self.notes.append(what)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _timed_cli(dq, argv: list[str], out: Path) -> tuple[float, int, bytes]:
    """Run one CLI command writing to ``out``: (wall seconds, exit code, output bytes)."""
    t0 = time.perf_counter()
    code = dq.cli.main(argv + ["--out", str(out)])
    latency = time.perf_counter() - t0
    return latency, code, (out.read_bytes() if code == 0 else b"")


class ScanMap:
    name = "scan_map"

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False) -> None:
        j = _rng(seed, 1).uniform(-SCAN_JITTER, SCAN_JITTER, 4).tolist()
        self.n = 3 if tiny else 10
        e_lo, e_hi = SCAN_EPS0[0] + j[0], SCAN_EPS0[1] + j[1]
        a_lo, a_hi = SCAN_AMP[0] + j[2], SCAN_AMP[1] + j[3]
        self.eps0 = np.linspace(e_lo, e_hi, self.n)
        self.amp = np.linspace(a_lo, a_hi, self.n)
        self.argv = [
            "scan", "--omega", repr(SCAN_OMEGA),
            "--axis1", f"eps0:{e_lo!r}:{e_hi!r}:{self.n}",
            "--axis2", f"amp:{a_lo!r}:{a_hi!r}:{self.n}",
        ]
        self.out = out_dir / "scan_map.csv"
        self.ops_per_pass = self.n * self.n
        self.outputs: list[bytes] = []

    def run_pass(self, dq, set_op: Callable[[int], None]) -> tuple[list[float], int]:
        set_op(0)
        latency, code, text = _timed_cli(dq, self.argv, self.out)
        self.outputs.append(text)
        if code != 0:
            return [latency], self.ops_per_pass
        return [latency], text.count(b"error:")

    def check(self) -> Check:
        chk = Check()
        digests = {hashlib.sha256(b).hexdigest() for b in self.outputs}
        chk.expect(f"scan output differs between passes ({len(digests)} versions)", len(digests) == 1)
        rows = self.outputs[-1].decode().splitlines()
        chk.expect("scan header", rows[0] == "axis1,axis2,omega_est,amplitude,omega_rwa,omega_tm,slow_lhs,flags")
        chk.expect(f"scan has {len(rows) - 1} rows, expected {self.ops_per_pass}", len(rows) - 1 == self.ops_per_pass)
        for row, (e, a) in zip(rows[1:], ((e, a) for e in self.eps0 for a in self.amp)):
            f = row.split(",")
            chk.expect(f"cell coordinates {f[:2]} != ({e!r}, {a!r})", float(f[0]) == e and float(f[1]) == a)
            ref = reference.scan_cell(e, a, SCAN_OMEGA, STEPS_PER_PERIOD)
            where = f"cell ({e:.4f}, {a:.4f})"
            flags = tuple(x for x in f[7].split(";") if x)
            chk.expect(f"{where} flags {flags} != {ref['flags']}", sorted(flags) == sorted(ref["flags"]))
            chk.compare(f"{where} omega_est", float(f[2]), ref["omega_est"], TOL_SCAN_OMEGA_BINS * ref["bin"])
            chk.compare(f"{where} amplitude", float(f[3]), ref["amplitude"], TOL_SCAN_AMPLITUDE)
            chk.compare(f"{where} omega_rwa", float(f[4]), ref["omega_rwa"], TOL_PREDICTION)
            chk.compare(f"{where} omega_tm", float(f[5]), ref["omega_tm"], TOL_PREDICTION)
            chk.compare(f"{where} slow_lhs", float(f[6]), ref["slow_lhs"], TOL_PREDICTION)
        return chk


class SimulateTrace:
    name = "simulate_trace"

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False) -> None:
        r = _rng(seed, 2).uniform(-1.0, 1.0, 2).tolist()
        self.eps0 = 3.0 + 0.3 * r[0]
        self.amp = 15.0 + 0.5 * r[1]
        self.omega = SIM_OMEGA
        self.cycles = 20 if tiny else SIM_CYCLES
        self.argv = [
            "simulate", "--eps0", repr(self.eps0), "--amp", repr(self.amp), "--omega", repr(self.omega),
            "--cycles", str(self.cycles), "--steps-per-period", str(STEPS_PER_PERIOD),
        ]
        self.out = out_dir / "simulate_trace.csv"
        self.ops_per_pass = 1
        self.digests: set[str] = set()

    def run_pass(self, dq, set_op: Callable[[int], None]) -> tuple[list[float], int]:
        set_op(0)
        latency, code, text = _timed_cli(dq, self.argv, self.out)
        self.digests.add(hashlib.sha256(text).hexdigest())
        return [latency], int(code != 0)

    def check(self) -> Check:
        chk = Check()
        chk.expect(f"simulate output differs between passes ({len(self.digests)} versions)", len(self.digests) == 1)
        with open(self.out, encoding="utf-8") as fh:
            header = fh.readline().strip()
            chk.expect(f"simulate header {header!r}", header == "t,P_up,P_up_tm")
            data = np.loadtxt(fh, delimiter=",", usecols=(0, 1), ndmin=2)
        t, p_up = data[:, 0], data[:, 1]
        period = 2.0 * math.pi / self.omega
        t_end = self.cycles * period
        chk.compare("simulate t_end", float(t[-1]), t_end, 1e-9 * t_end)
        h = float(t[1])
        ref = reference.trace_p_up(self.eps0, self.amp, self.omega, h, t.size - 1)
        chk.compare_all("P_up", p_up, ref, TOL_TRACE)
        return chk


class PredictGrid:
    name = "predict_grid"

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False) -> None:
        rng = _rng(seed, 3)
        per = 2 if tiny else PREDICT_PER_STRATUM
        points = []
        for omega in PREDICT_OMEGAS:
            # Fast side A*omega >= 10, slow side A*omega < 10; A > eps0 and A > delta throughout.
            for lo, hi in ((max(10.0 / omega, 2.0), 30.0), (1.2, min(10.0 / omega, 8.0))):
                amp = rng.uniform(lo, hi, per)
                eps0 = amp * rng.uniform(0.0, 0.9, per)
                points += [(float(e), float(a), omega) for e, a in zip(eps0, amp)]
        self.points = points
        self.ops_per_pass = len(points)
        self.out = None
        self.results: list = []

    def run_pass(self, dq, set_op: Callable[[int], None]) -> tuple[list[float], int]:
        latencies = []
        results = []
        failed = 0
        clock = time.perf_counter
        for i, (eps0, amp, omega) in enumerate(self.points):
            set_op(i)
            t0 = clock()
            try:
                p = dq.dynamics.DriveParams(delta=1.0, epsilon0=eps0, amplitude=amp, omega=omega)
                regime = dq.analysis.classify_regime(p)
                rwa = dq.rwa.rwa_predict(p)
                cycle = dq.transfer_matrix.full_cycle_matrix(p)
                deco = dq.transfer_matrix.decompose_full_cycle(cycle)
                n_fast, residual = dq.transfer_matrix.tm_fast_resonance_check(p)
                slow = dq.transfer_matrix.tm_slow_resonance_lhs(p)
                omega_tm = dq.transfer_matrix.tm_slow_frequency(p)
            except Exception as exc:  # a raising point is a failed operation, not a crash
                latencies.append(clock() - t0)
                results.append(exc)
                failed += 1
                continue
            latencies.append(clock() - t0)
            results.append((regime, rwa, cycle, deco, n_fast, residual, slow, omega_tm))
        self.results = results
        return latencies, failed

    def check(self) -> Check:
        chk = Check()
        for (eps0, amp, omega), res in zip(self.points, self.results):
            where = f"point ({eps0:.4f}, {amp:.4f}, {omega:g})"
            if isinstance(res, Exception):
                chk.expect(f"{where} raised {type(res).__name__}: {res}", False)
                continue
            regime, rwa, cycle, deco, n_fast, residual, slow, omega_tm = res
            chk.expect(f"{where} label {regime.label}", regime.label == reference.regime_label(eps0, amp, omega))
            chk.expect(f"{where} rwa n {rwa.n}", rwa.n == reference.rwa_index(eps0, omega))
            chk.expect(f"{where} fast n {n_fast}", n_fast == reference.nearest_index(eps0 / omega))
            lhs = reference.slow_lhs(eps0, amp, omega)
            chk.expect(f"{where} slow n {slow.nearest_integer}", slow.nearest_integer == reference.nearest_index(lhs))
            chk.compare(f"{where} rwa omega", rwa.omega_osc, reference.rwa_frequency(eps0, amp, omega), TOL_PREDICTION)
            chk.compare(f"{where} residual", residual, abs(eps0 / omega - n_fast), TOL_PREDICTION)
            chk.compare(f"{where} slow lhs", slow.lhs, lhs, TOL_PREDICTION)
            chk.compare(f"{where} omega_tm", omega_tm, reference.tm_frequency(eps0, amp, omega), TOL_PREDICTION)
            rebuilt = reference.cycle_from_angles(deco.zeta_fc, deco.theta_fc, deco.phi_fc)
            chk.compare(f"{where} round trip", float(np.abs(rebuilt - cycle.as_matrix()).max()), 0.0, TOL_ROUND_TRIP)
        return chk


WORKLOADS = {w.name: w for w in (ScanMap, SimulateTrace, PredictGrid)}
