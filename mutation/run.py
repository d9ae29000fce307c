"""The mutation catalog: deliberate faults that the checks must catch.

    python3 mutation/run.py

Run from the root of a source tree.  Each mutant is a (name, file, old,
new, tests) entry of MUTANTS, where `tests` is the test file (or test
node) expected to kill it.  For each one the runner copies `src/`, `tests/`,
`pyproject.toml` and `README.md` into a temporary directory, replaces the
single occurrence of `old` in `file` with `new`, and runs
`python -m pytest -x -q <tests>` there, then the whole suite if that file
passes, and then `wavecorr verify` (under
PYTHONWARNINGS=error::RuntimeWarning, as CI runs it), with the copy's
`src/` first on PYTHONPATH.  A mutant is killed when any of these fails;
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
SAMPLING = "src/wavecorr/sampling.py"
T_SOLVER = "tests/test_solver.py"
T_DISPERSION = "tests/test_dispersion.py"
T_TRIADS = "tests/test_triad_sums.py"

MUTANTS = [
    # 3*nmax points let the product of the top modes wrap onto a stored mode
    ("padded-length-3n", SOLVER,
     "    n = 3 * nmax + 1\n",
     "    n = 3 * nmax\n", T_SOLVER),
    # 2*nmax + 2 points let most products of two high modes wrap
    ("padded-length-2n+2", SOLVER,
     "    n = 3 * nmax + 1\n",
     "    n = 2 * nmax + 2\n", T_SOLVER),
    # the midpoint stages evaluated at the step's end phase
    ("half-step-phase-from-h", SOLVER,
     "np.exp(i_om * (0.5 * h))",
     "np.exp(i_om * h)", T_SOLVER),
    # each step hands its half-step phase on as the next step's start
    ("hands-on-half-step-phase", SOLVER,
     "t_now, e0, f0 = t_seg + i * h, e1, f1\n",
     "t_now, (e0, f0) = t_seg + i * h, (e1, f1) if i == 0 else (e_half, f_half)\n",
     T_SOLVER),
    # the stepper's n1 = 1 phase row rolled one n2 place in 2-d
    ("kp-phase-row-rolled", SOLVER,
     "    i_om = 1j * dispersion.omega_grid(model, nmax)\n    v = np.array(",
     "    i_om = 1j * dispersion.omega_grid(model, nmax)\n"
     "    if dim == 2:\n        i_om[0] = np.roll(i_om[0], 1)\n    v = np.array(", T_SOLVER),
    # the right-hand side of each mode written to its neighbour
    ("rhs-shifted-one-mode", SOLVER,
     "        np.multiply(f, square(w, e), out=k)\n",
     "        k[...] = np.roll(f * square(w, e), 1, axis=-1)\n", T_SOLVER),
    # the n2 = -nmax row pair of the 2-d to-grid matrix moved one place
    ("2d-to-grid-row-moved", SOLVER,
     "    from_x2 = np.ascontiguousarray(to_x2.T / (n * n))\n",
     "    from_x2 = np.ascontiguousarray(to_x2.T / (n * n))\n"
     "    to_x2[:4] = to_x2[[2, 3, 0, 1]]\n", T_SOLVER),
    # the imaginary block of the 2-d x2 -> n2 matrix with its sign flipped
    ("2d-from-grid-imag-sign-flip", SOLVER,
     "    from_x2 = np.ascontiguousarray(to_x2.T / (n * n))\n",
     "    from_x2 = np.ascontiguousarray(to_x2.T / (n * n))\n"
     "    from_x2[n:] *= -1.0\n", T_SOLVER),
    # the 2-d n1 -> x1 fold as Re alone, without the conjugate half's factor 2
    ("2d-fold-without-factor-2", SOLVER,
     "(2.0 * c.T, -2.0 * s.T)",
     "(c.T, -s.T)", T_SOLVER),
    # the 2-d batch folded into one GEMM, whose rounding depends on its size
    ("2d-batch-in-one-gemm", SOLVER,
     "np.multiply(v, e, out=ve).view(float), to_x2, out=grid)",
     "np.multiply(v, e, out=ve).view(float).reshape(-1, to_x2.shape[0]), to_x2,"
     " out=grid.reshape(-1, 2 * n))", T_SOLVER),
    # one 2-d product allocates its result instead of writing its buffer
    ("2d-product-allocates", SOLVER,
     "        np.matmul(to_x1, planes, out=phys)\n",
     "        phys[...] = to_x1 @ planes\n", T_SOLVER),
    # every batch row solved at the first row's eps
    ("eps-rows-take-the-first", SOLVER,
     "-np.reshape(eps, rows + (1,) * dim)",
     "-np.reshape(np.ravel(eps)[0], (1,) * dim)", T_SOLVER),
    # a snapshot is a view of the state, which goes on stepping
    ("snapshot-without-copy", SOLVER,
     "                snaps.append((target, v.copy()))\n",
     "                snaps.append((target, v))\n", T_SOLVER),
    # a cached bound keeps the relation it first saw after an injection is undone
    ("max-abs-delta-cached", DISPERSION,
     "def max_abs_delta(model, nmax):\n",
     "@__import__(\"functools\").lru_cache(maxsize=None)\ndef max_abs_delta(model, nmax):\n",
     "tests/test_cli.py"),
    # BBM's pulsation with its sign flipped
    ("bbm-omega-sign-flip", DISPERSION,
     "    return -n1 / (1.0 + n1 * n1)\n",
     "    return n1 / (1.0 + n1 * n1)\n", T_DISPERSION),
    # KdV's pulsation doubled
    ("kdv-omega-2n3", DISPERSION,
     "def _omega_kdv(n1):\n    return n1 * n1 * n1\n",
     "def _omega_kdv(n1):\n    return 2.0 * n1 * n1 * n1\n", T_DISPERSION),
    # the KP triad mirror flips n1 instead of n2
    ("mirror-flips-n1", DISPERSION,
     "        index = index[:, ::-1]\n",
     "        index = index[::-1]\n", T_TRIADS),
    # the mirrored triad's weight keeps the unmirrored k and l
    ("mirror-reuses-unmirrored-kl", DISPERSION,
     "mirror[k[moved]], mirror[l[moved]]",
     "k[moved], l[moved]", T_TRIADS),
    # two modes of every datum share one draw
    ("sampler-shares-a-draw", SAMPLING,
     "        g = draw_noise(config.law, sample_stream(config.seed, index), count)\n",
     "        g = draw_noise(config.law, sample_stream(config.seed, index), count)\n"
     "        g[1] = g[0]\n", "tests/test_sampling.py"),
    # ... or its conjugate
    ("sampler-shares-a-conjugate-draw", SAMPLING,
     "        g = draw_noise(config.law, sample_stream(config.seed, index), count)\n",
     "        g = draw_noise(config.law, sample_stream(config.seed, index), count)\n"
     "        g[1] = np.conj(g[0])\n", "tests/test_sampling.py"),
    ("tilde-f-2.001", "src/wavecorr/kernels.py",
     "return 2.0 * half_sin * half_sin",
     "return 2.001 * half_sin * half_sin", "tests/test_kernels.py"),
    ("bracket-sign-flip", "src/wavecorr/covariance.py",
     "- ph[k] * lam2[n] * lam2[l]",
     "+ ph[k] * lam2[n] * lam2[l]", T_TRIADS),
    # the kurtosis term's half mode n/2 taken whenever n1 is even, whatever n2
    ("kurtosis-parity-of-n1-alone", "src/wavecorr/covariance.py",
     "    even = np.all(modes % 2 == 0, axis=-1)\n",
     "    even = modes[:, 0] % 2 == 0\n",
     "tests/test_covariance.py::TestExactExpectationOracle"),
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


def _killer(dest, first):
    """The first failing test of the file `first`, else of the whole suite,
    else the first failing verify check, else None."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"))
    for scope in ([first], []):
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *scope],
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
    for name, path, old, new, first in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="wavecorr-mutant-") as tmp:
            dest = Path(tmp)
            _copy_tree(dest)
            problem = _apply(dest, path, old, new)
            killer = None if problem else _killer(dest, first)
        took = time.perf_counter() - start
        if problem:
            verdict = f"NOT APPLIED ({problem})"
        elif killer:
            verdict = f"killed by {killer}"
        else:
            verdict = "SURVIVED"
        bad += problem is not None or killer is None
        print(f"{name:32s} {verdict}  [{took:.1f} s]", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
