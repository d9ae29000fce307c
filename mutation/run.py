"""The mutation catalog: deliberate faults that the checks must catch.

    python3 mutation/run.py

Run from the root of a source tree.  Each mutant is a (name, file, old,
new) entry of MUTANTS.  For each one the runner copies `src/`, `tests/`,
`pyproject.toml` and `README.md` into a temporary directory, replaces the
single occurrence of `old` in `file` with `new`, and runs
`python -m pytest -x -q` there and then `wavecorr verify` (under
PYTHONWARNINGS=error::RuntimeWarning, as CI runs it), with the copy's
`src/` first on PYTHONPATH.  A mutant is killed when either fails;
the runner prints the test or verify check that killed it and the time to
the kill.  The exit code is 1 when any mutant survives or its `old` text
does not occur exactly once in the source, else 0.

Add a mutant with each new check, written against the code as it stands.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")
SOLVER = "src/wavecorr/solver.py"
DISPERSION = "src/wavecorr/dispersion.py"

MUTANTS = [
    # 3*nmax points let the product of the top modes wrap onto a stored mode
    ("padded-length-3n", SOLVER,
     "    n = 3 * nmax + 1\n",
     "    n = 3 * nmax\n"),
    # the midpoint stages evaluated at the step's end phase
    ("half-step-phase-from-h", SOLVER,
     "np.exp(i_om * (0.5 * h))",
     "np.exp(i_om * h)"),
    # each step hands its half-step phase on as the next step's start
    ("hands-on-half-step-phase", SOLVER,
     "t_now, e0 = t_seg + i * h, e1\n",
     "t_now, e0 = t_seg + i * h, e1 if i == 0 else e0 * half\n"),
    # the n2 < 0 rows of the 2-d square scattered one grid row low
    ("2d-scatter-row-off-by-one", SOLVER,
     "grid[..., n - m:] = coeffs",
     "grid[..., n - m - 1:-1] = coeffs"),
    # the KP triad mirror flips n1 instead of n2
    ("mirror-flips-n1", DISPERSION,
     "        index = index[:, ::-1]\n",
     "        index = index[::-1]\n"),
    # the mirrored triad's weight keeps the unmirrored k and l
    ("mirror-reuses-unmirrored-kl", DISPERSION,
     "mirror[k[moved]], mirror[l[moved]]",
     "k[moved], l[moved]"),
    ("tilde-f-2.001", "src/wavecorr/kernels.py",
     "return 2.0 * half_sin * half_sin",
     "return 2.001 * half_sin * half_sin"),
    ("bracket-sign-flip", "src/wavecorr/covariance.py",
     "- ph[k] * lam2[n] * lam2[l]",
     "+ ph[k] * lam2[n] * lam2[l]"),
]


def _copy_tree(dest):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        else:
            shutil.copy2(src, dest / name)


def _apply(dest, path, old, new):
    target = dest / path
    text = target.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        return f"`old` occurs {count} times in {path}"
    target.write_text(text.replace(old, new), encoding="utf-8")
    return None


def _killer(dest):
    """The first failing test, else the first failing verify check, else None."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"))
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=dest, env=env, capture_output=True, text=True)
    if tests.returncode != 0:
        found = re.search(r"^(?:FAILED|ERROR) (\S+)", tests.stdout, re.MULTILINE)
        return found.group(1) if found else f"pytest exit {tests.returncode}"
    verify = subprocess.run(
        [sys.executable, "-c", "import sys; from wavecorr.cli import main; "
                               "sys.exit(main(['verify']))"],
        cwd=dest, env=dict(env, PYTHONWARNINGS="error::RuntimeWarning"),
        capture_output=True, text=True)
    if verify.returncode != 0:
        found = re.search(r"^(\S+)\s+FAIL\b", verify.stdout, re.MULTILINE)
        return "verify " + (found.group(1) if found else f"exit {verify.returncode}")
    return None


def main():
    bad = 0
    for name, path, old, new in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="wavecorr-mutant-") as tmp:
            dest = Path(tmp)
            _copy_tree(dest)
            problem = _apply(dest, path, old, new)
            killer = None if problem else _killer(dest)
        took = time.perf_counter() - start
        if problem:
            verdict = f"NOT APPLIED ({problem})"
        elif killer:
            verdict = f"killed by {killer}"
        else:
            verdict = "SURVIVED"
        bad += problem is not None or killer is None
        print(f"{name:28s} {verdict}  [{took:.1f} s]", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
