"""One-line mutants of ``src/drivenqubit`` and a runner that scores a pytest selection against them.

Usage (from the repository root)::

    python tools/mutants.py                      # every mutant against ``-x -q tests``
    python tools/mutants.py --only strobe-prelude-phase -- tests/test_cli.py -k golden

Each mutant replaces one text that occurs exactly once in its file.  It is
applied to a copy of ``src/`` in a temporary directory, never to ``src/``
itself, and the selection runs in a fresh process with that copy first on
``PYTHONPATH`` and its own hypothesis database in the temporary directory:
a falsifying example found on a mutant is never replayed by a later run.
A failing run kills the mutant; a passing one lets it survive.  The
runner prints one line per mutant and the score.

Against ``-x tests`` a surviving mutant costs a whole run of the tests
there, so this is not part of tier-1; ``tests/test_mutants.py`` only
checks that every mutant still applies.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/drivenqubit
    old: str
    new: str


MUTANTS = [
    # Scan sizing and line selection (analysis).
    Mutant("target-slow-periods", "analysis.py", "_TARGET_SLOW_PERIODS = 5.0", "_TARGET_SLOW_PERIODS = 4.0"),
    Mutant("min-drive-periods", "analysis.py", "_MIN_DRIVE_PERIODS = 50", "_MIN_DRIVE_PERIODS = 40"),
    Mutant("ambiguous-separation", "analysis.py", "_AMBIGUOUS_MIN_SEPARATION = 3", "_AMBIGUOUS_MIN_SEPARATION = 2"),
    # The closed-form spectrum's lines and bins: the rounding floor x1e5, the 3 dB factor x2, reach 2 -> 1.
    Mutant("line-floor", "analysis.py", ">= np.finfo(float).eps * top", ">= 1e5 * np.finfo(float).eps * top"),
    Mutant("strong-line", "analysis.py", "weight >= 0.5 * _AMBIGUOUS_RATIO", "weight >= 1.0 * _AMBIGUOUS_RATIO"),
    Mutant("line-reach", "analysis.py", "centre[:, None] + np.arange(-2, 3)", "centre[:, None] + np.arange(-1, 2)"),
    Mutant("spectral-peak-fill", "analysis.py", "masked = np.where(bins > 0, mags, 0.0)",
           "masked = np.where(bins > 0, mags, 0.001)"),
    Mutant("scan-default-spp", "analysis.py", "    steps_per_period: int = 128,\n) -> ScanResult:",
           "    steps_per_period: int = 129,\n) -> ScanResult:"),
    # Branches of the closed-form spectrum and the peak refinement (analysis).
    Mutant("hann-bins-phase-never", "analysis.py", "    if size % 2 == 0:\n", "    if False:\n"),
    Mutant("hann-bins-phase-always", "analysis.py", "    if size % 2 == 0:\n", "    if True:\n"),
    Mutant("form-bound-never", "analysis.py", "if _AMBIGUOUS_RATIO * mags[bins > 0].max() <=",
           "if False and _AMBIGUOUS_RATIO * mags[bins > 0].max() <="),
    Mutant("hann-envelope", "analysis.py", "np.divide(sb2 * np.cos(x), den", "np.divide(0.5 * sb2 * np.cos(x), den"),
    Mutant("peak-log-guard", "analysis.py", "if below > 0.0 and peak > 0.0 and above > 0.0:", "if True:"),
    Mutant("peak-curvature-guard", "analysis.py", "if curvature < 0.0:", "if True:"),
    Mutant("peak-bin-0-guard", "analysis.py", "if k >= 2 and 0 < i < bins.size - 1", "if 0 < i < bins.size - 1"),
    # The flag and sub-regime thresholds (analysis).
    Mutant("suppressed-amplitude", "analysis.py", "_SUPPRESSED_AMPLITUDE = 0.02", "_SUPPRESSED_AMPLITUDE = 0.025"),
    Mutant("tm-fast-min", "analysis.py", "_TM_FAST_MIN = 10.0", "_TM_FAST_MIN = 11.0"),
    Mutant("tm-slow-max", "analysis.py", "_TM_SLOW_MAX = 0.1", "_TM_SLOW_MAX = 0.11"),
    # The degenerate rules of the cycle decomposition (transfer_matrix).
    Mutant("decompose-full-flip", "transfer_matrix.py", "elif m >= 1.0 - _DEGENERATE_TOL:", "elif False:"),
    Mutant("decompose-theta-range", "transfer_matrix.py", "if theta <= -2.0 * math.pi:", "if False:"),
    # The one guard of the resonance width: no width below the n = 1 resonance (transfer_matrix).
    Mutant("tm-width-guard", "transfer_matrix.py", "if n < 1:", "if n < 0:"),
    # A config-file null for a key that defaults to no value (cli).
    Mutant("config-null", "cli.py", "if value is None and default is None:", "if False:"),
    # A value for a drive key that a scan axis sweeps, read as unset; and flags taking abbreviations (cli).
    Mutant("scan-swept-key", "cli.py", "if swept in _PARAM_BY_FLAG and", "if False and"),
    Mutant("cli-abbrev", "cli.py", "help=command.help, allow_abbrev=False)", "help=command.help)"),
    # A CLI key put back that changes no output (cli).
    Mutant("classify-delta-key", "cli.py", 'for a parameter point", _POINT + _OUTPUT)',
           'for a parameter point", _DRIVE + _OUTPUT)'),
    Mutant("width-omega-key", "cli.py", '("eps0", "amp", "phi", "delta", "omega-min"',
           '("eps0", "amp", "omega", "phi", "delta", "omega-min"'),
    # The midpoint step and the sample writer (dynamics).
    Mutant("step-bias-sign", "dynamics.py", "b = -0.5 * eps_mid", "b = +0.5 * eps_mid"),
    Mutant("form-values-clip", "dynamics.py", "return np.clip(out, 0.0, 1.0, out=out)", "return out"),
    # The simulate strobe path: propagate_tm, the stroboscope and the P_up_tm column.
    Mutant("strobe-skips-prelude", "dynamics.py", "u0, d0 = _apply(*pre, psi0.up_amp, psi0.down_amp)",
           "u0, d0 = psi0.up_amp, psi0.down_amp"),
    Mutant("strobe-prelude-phase", "transfer_matrix.py",
           "prelude = _compose_cycle(cr, 0.5 * ph.theta_tilde_1, ph.theta_tilde_2)",
           "prelude = _compose_cycle(cr, ph.theta_tilde_1, ph.theta_tilde_2)"),
    Mutant("strobe-start-time", "transfer_matrix.py",
           "return _stroboscope(psi0, prelude, cycle, n_cycles, t_c2, p.period)",
           "return _stroboscope(psi0, prelude, cycle, n_cycles, t_c1, p.period)"),
    Mutant("strobe-count", "cli.py", "n_strobe = int(math.floor((ts.t_end - t_c2) / p.period))",
           "n_strobe = int(math.floor((ts.t_end - t_c2) / p.period)) - 1"),
    Mutant("strobe-row-rounding", "cli.py", "rows = np.rint(strobe.times() / ts.dt)",
           "rows = np.floor(strobe.times() / ts.dt)"),
    Mutant("strobe-row-offset", "cli.py", "zip((rows[a:b] - i).tolist(), texts[a:b])",
           "zip((rows[a:b] - i + 1).tolist(), texts[a:b])"),
]


def apply(mutant: Mutant, src: Path) -> None:
    """Apply mutant to the package under src (a copy of the repository's src/)."""
    path = src / "drivenqubit" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant, pytest_args: list[str]) -> bool:
    """True if the selection fails (the mutant is killed) on a mutated copy of src/.

    A pytest exit other than pass, fail or a collection error (an internal
    or usage error, or no test selected) is raised, not scored.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        env = dict(
            os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
            HYPOTHESIS_STORAGE_DIRECTORY=str(Path(tmp) / ".hypothesis"),
        )
        where = subprocess.run(
            [sys.executable, "-c", "import drivenqubit; print(drivenqubit.__file__)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not where.startswith(str(src)):
            raise RuntimeError(f"the mutated copy was not imported: drivenqubit came from {where}")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *pytest_args],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        if done.returncode not in (0, 1, 2):  # 2: a collection error, as when the mutant breaks an import
            raise RuntimeError(f"pytest {' '.join(pytest_args)} exited {done.returncode}: not a test outcome")
        return done.returncode != 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run these mutants only")
    parser.add_argument("pytest_args", nargs="*", help="the pytest selection (default: -x -q tests)")
    args = parser.parse_args(argv)
    unknown = set(args.only or ()) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    pytest_args = args.pytest_args or ["-x", "-q", "tests"]
    killed = 0
    for m in chosen:
        dead = run(m, pytest_args)
        killed += dead
        print(f"{'killed' if dead else 'SURVIVED'}  {m.name}", flush=True)
    print(f"score: {killed}/{len(chosen)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
