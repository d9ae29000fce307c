"""Command-line surface: exit codes, file outputs, determinism, self-test."""

import hashlib
import json
import multiprocessing
import subprocess
import sys
import warnings

import numpy as np
import pytest

from wavecorr import cli
from wavecorr import covariance as cov
from wavecorr import dispersion as dsp
from wavecorr import sampling as smp
from wavecorr import solver


def run_cli(tmp_path, *args):
    return cli.main([*args, "--out", str(tmp_path)])


def reference_catalog(model, nmax):
    """resonances.csv as a 7-key lexsort and per-row %d / %.17g formatting write it."""
    dim = model.dimension
    ni, ki, li = dsp.enumerate_triads(dim, nmax)
    om = dsp.omega_full(model, nmax).ravel()
    d = om[ki] + om[li] - om[ni]
    full = dsp.full_modes(dim, nmax)
    n, k, l = full[ni], full[ki], full[li]
    order = np.lexsort([m[:, c] for m in (l, k, n) for c in reversed(range(dim))] + [np.abs(d)])
    cols = [m[:, c] for m in (n, k, l) for c in range(dim)] + [d, np.abs(d)]
    header = "n,k,l,delta,abs_delta"
    if model.kind == "kpii":
        cols.append(np.abs(d) / dsp.kpii_delta_bound(n, k, l))
        header += ",bound_ratio"
    row = ",".join([";".join(["%d"] * dim)] * 3) + ",%.17g" * (len(cols) - 3 * dim) + "\n"
    return header + "\n" + "".join(row % r for r in zip(*(c[order].tolist() for c in cols)))


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = cli.RunConfig.from_mapping(cli.load_config())
        assert cfg.model is dsp.BBM
        assert cfg["grid.nmax"] == 16

    def test_unknown_key_rejected(self, tmp_path):
        assert run_cli(tmp_path, "predict", "--set", "no.such.key=1") == 64

    def test_bad_epsilon_rejected(self, tmp_path):
        assert run_cli(tmp_path, "covariance", "--set", "run.epsilon=1.5") == 64
        assert run_cli(tmp_path, "covariance", "--set", "run.epsilon=-0.2") == 64

    @pytest.mark.parametrize("eps", ["0", "1e-300"])
    def test_picard_scan_epsilon_without_remainder_exits_64(self, tmp_path, capsys, eps):
        # the remainder divides by eps^2, which is 0 here or underflows to it
        assert run_cli(tmp_path, "picard-scan", "--set", f"run.epsilon={eps}") == 64
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: remainder extraction needs epsilon > 0")
        assert not (tmp_path / "picard_scan.csv").exists()

    def test_config_file_and_set_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "kdv", "grid.nmax": 6}))
        merged = cli.load_config(path, ["grid.nmax=9", "spectrum.family=constant"])
        assert merged["model"] == "kdv"
        assert merged["grid.nmax"] == 9
        assert merged["spectrum.family"] == "constant"

    def test_set_parses_json_values(self, tmp_path, capsys):
        merged = cli.load_config(None, ["run.t=[0.5,1.0]", "run.samples=true"])
        assert merged["run.t"] == [0.5, 1.0]
        assert merged["run.samples"] is True
        # JSON true is no integer, although Python's bool is an int
        assert run_cli(tmp_path, "predict", "--set", "run.samples=true") == 64
        assert capsys.readouterr().err.splitlines() == [
            "config error: run.samples must be an integer, got True"]

    @pytest.mark.parametrize("item", ["law.kurtosis=1.4", "spectrum.force=true",
                                      "diagnostics.draws=20000"])
    def test_deleted_keys_are_unknown(self, tmp_path, capsys, item):
        assert len(cli.KEYS) == 13
        assert run_cli(tmp_path, "predict", "--set", item) == 64
        key = item.split("=")[0]
        assert capsys.readouterr().err.splitlines() == [
            f"config error: unknown config key {key!r}"]

    @pytest.mark.parametrize("item", ["run.samples=abc", "run.epsilon=abc", "run.dt=[1]"])
    def test_malformed_value_exits_64(self, tmp_path, item):
        assert run_cli(tmp_path, "predict", "--set", item) == 64

    def test_non_integer_rejected(self, tmp_path):
        assert run_cli(tmp_path, "predict", "--set", "grid.nmax=2.5") == 64

    def test_seed_outside_64_bits_rejected(self, tmp_path, capsys):
        # the sampler keys Philox with 64 bits: 2^64 would rerun seed 0, -1 seed 2^64 - 1
        for seed in (0, 2 ** 64 - 1):
            mapping = cli.load_config(None, [f"run.seed={seed}"])
            assert cli.RunConfig.from_mapping(mapping)["run.seed"] == seed
        for seed in (-1, 2 ** 64):
            assert run_cli(tmp_path, "predict", "--set", f"run.seed={seed}") == 64
            assert capsys.readouterr().err.splitlines() == [
                f"config error: run.seed must lie in [0, 2^64), got {seed}"]

    @pytest.mark.parametrize("command", ["covariance", "picard-scan"])
    @pytest.mark.parametrize("item", ["run.dt=5e-324", "run.t=1e308"])
    def test_step_count_overflow_exits_64(self, tmp_path, capsys, command, item):
        # run.t / run.dt overflows to inf: no step count exists
        assert run_cli(tmp_path, command, "--set", item) == 64
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: run.t and run.dt:")
        assert line.endswith("has no finite step count")

    def test_regularity_gate_applies_to_dynamics(self, tmp_path):
        code = run_cli(tmp_path, "covariance", "--set", "model=kpii",
                       "--set", "spectrum.alpha=2.0", "--set", "run.samples=4")
        assert code == 64
        code = run_cli(tmp_path, "predict", "--set", "model=kpii",
                       "--set", "grid.nmax=4", "--set", "spectrum.alpha=2.0")
        assert code == 0  # analytic command skips the gate


class TestResonances:
    def test_kpii_clean_exit_and_unit_ratio(self, tmp_path):
        assert run_cli(tmp_path, "resonances", "--set", "model=kpii",
                       "--set", "grid.nmax=6") == 0
        lines = (tmp_path / "resonances.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["n", "k", "l", "delta", "abs_delta", "bound_ratio"]
        ratios = [float(row.split(",")[5]) for row in lines[1:]]
        assert min(ratios) >= 1.0 - 1e-12
        assert min(ratios) == pytest.approx(1.0, abs=1e-13)

    def test_bbm_no_zero_divisor(self, tmp_path):
        assert run_cli(tmp_path, "resonances", "--set", "model=bbm",
                       "--set", "grid.nmax=16") == 0
        lines = (tmp_path / "resonances.csv").read_text().strip().splitlines()
        assert all(float(r.split(",")[4]) > 0 for r in lines[1:])

    def test_kpi_reports_pell_divisor(self, tmp_path):
        assert run_cli(tmp_path, "resonances", "--set", "model=kpi",
                       "--set", "grid.nmax=16") == 0
        first = (tmp_path / "resonances.csv").read_text().splitlines()[1]
        assert float(first.split(",")[4]) == pytest.approx(1.0 / 56.0, rel=1e-10)

    def test_budget_guard(self, tmp_path):
        assert run_cli(tmp_path, "resonances", "--set", "grid.nmax=40") == 64

    def test_kpi_catalog_bytes_at_benchmark_size(self, tmp_path):
        # 588,240 rows from many multi-mode blocks, each expanded by the
        # mirrors of its k < l triads
        assert run_cli(tmp_path, "resonances", "--set", "model=kpi",
                       "--set", "grid.nmax=16") == 0
        digest = hashlib.sha256((tmp_path / "resonances.csv").read_bytes()).hexdigest()
        assert digest == "35abccb6af82b992b59267ddd88b0d255cb042eaa57779108a79a144a61c1b9f"

    @pytest.mark.parametrize("model,nmax", [("kdv", 12), ("bbm", 12), ("kpi", 6), ("kpii", 6),
                                            ("kdv", 1)])
    def test_bytes_match_row_by_row_reference(self, tmp_path, model, nmax):
        assert run_cli(tmp_path, "resonances", "--set", f"model={model}",
                       "--set", f"grid.nmax={nmax}") == 0
        expected = reference_catalog(dsp.get_model(model), nmax)
        assert (tmp_path / "resonances.csv").read_bytes() == expected.encode()

    def test_negative_zero_divisor_keeps_its_sign(self, tmp_path, monkeypatch):
        # odd modes at omega = -0.0, even ones at +0.0: two odd modes sum to
        # an even one, so those triads have delta = -0.0 - +0.0 = -0.0
        monkeypatch.setitem(dsp._OMEGA, "kdv", lambda n1: np.where(n1 % 2 == 1, -0.0, 0.0))
        assert run_cli(tmp_path, "resonances", "--set", "model=kdv",
                       "--set", "grid.nmax=12") == 2
        text = (tmp_path / "resonances.csv").read_text()
        assert text == reference_catalog(dsp.KDV, 12)
        assert ",-0,0\n" in text and ",0,0\n" in text

    @pytest.mark.parametrize("dim,nmax", [(1, 9), (2, 5)])
    def test_triads_arrive_in_label_order(self, dim, nmax):
        # the writer's single stable sort on |delta| relies on this order
        full = dsp.full_modes(dim, nmax)
        labels = np.concatenate([full[i] for i in dsp.enumerate_triads(dim, nmax)], axis=1)
        assert np.array_equal(np.lexsort(labels.T[::-1]), np.arange(len(labels)))

    def test_lemma_violation_alarms_exit_2(self, tmp_path, monkeypatch):
        # a broken dispersion relation (omega = n1) makes every KP-II triad
        # resonant: the no-resonance assertion must trip, not crash
        monkeypatch.setitem(dsp._OMEGA, "kpii", lambda n1, n2: n1 + 0.0 * n2)
        assert run_cli(tmp_path, "resonances", "--set", "model=kpii",
                       "--set", "grid.nmax=4") == 2

    @pytest.mark.parametrize("model,omega", [
        ("bbm", lambda n1: n1 / (1.0 + n1 * n1)),  # sign flipped: |delta| is unchanged
        ("kdv", lambda n1: 2.0 * n1 * n1 * n1),    # delta = -6 n1 k1 l1: |delta| >= 12
    ], ids=["bbm-sign-flipped", "kdv-doubled"])
    def test_signed_lemma_violation_alarms_exit_2(self, tmp_path, monkeypatch, model, omega):
        # both relations keep every |delta| away from zero; only a check of the
        # signed delta against the lemma's closed form sees them
        monkeypatch.setitem(dsp._OMEGA, model, omega)
        assert run_cli(tmp_path, "resonances", "--set", f"model={model}",
                       "--set", "grid.nmax=12") == 2


class TestPredict:
    def test_gibbs_gaussian_gives_zero_column(self, tmp_path):
        assert run_cli(tmp_path, "predict", "--set", "spectrum.family=bbm-gibbs",
                       "--set", "grid.nmax=12") == 0
        lines = (tmp_path / "predictions.csv").read_text().strip().splitlines()
        gs = [float(r.split(",")[4]) for r in lines[1:]]
        assert max(abs(g) for g in gs) <= 1e-13

    def test_time_zero_gives_zero_column(self, tmp_path):
        assert run_cli(tmp_path, "predict", "--set", "run.t=0.0",
                       "--set", "grid.nmax=8") == 0
        lines = (tmp_path / "predictions.csv").read_text().strip().splitlines()
        assert all(float(r.split(",")[4]) == 0.0 for r in lines[1:])

    @staticmethod
    def bbm_rate(spec, n, taus):
        """dG_n/dt at kurtosis 2, triad by triad: 4 phi(n) sin(delta tau)/delta times
        the equilibrium bracket (BBM has no zero delta)."""
        om_table, ph_table = dsp.omega_full(dsp.BBM, spec.nmax), dsp.phi_full(dsp.BBM, spec.nmax)
        om = {m: om_table[m + spec.nmax] for m in range(-spec.nmax, spec.nmax + 1) if m}
        ph = {m: ph_table[m + spec.nmax] for m in om}
        lam2 = {m: spec.lambda_sq[abs(m) - 1] for m in om}
        rate = np.zeros_like(taus)
        for k in om:
            l = n - k
            if l in om:  # active and inside the box
                delta = om[k] + om[l] - om[n]
                bracket = (ph[n] * lam2[k] * lam2[l] - ph[k] * lam2[n] * lam2[l]
                           - ph[l] * lam2[n] * lam2[k])
                rate += 4.0 * ph[n] * bracket * np.sin(delta * taus) / delta
        return rate

    def test_generic_profile_matches_quadrature_oracle(self, tmp_path):
        # golden values regenerated live: Simpson integration of the rate
        assert run_cli(tmp_path, "predict", "--set", "grid.nmax=6",
                       "--set", "run.t=1.0") == 0
        lines = (tmp_path / "predictions.csv").read_text().strip().splitlines()
        spec = smp.build_spectrum("sobolev", 3.0, 6, 1)
        panels = 400
        taus = np.linspace(0.0, 1.0, 2 * panels + 1)
        w = np.full(taus.size, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= (1.0 / panels) / 6.0
        for row in lines[1:]:
            cells = row.split(",")
            n = int(cells[1])
            rate = self.bbm_rate(spec, n, taus)
            assert float(cells[4]) == pytest.approx(float(np.sum(w * rate)), abs=1e-8)

    @pytest.mark.parametrize("law", ["random-phase", "complex-gaussian"])
    def test_size_envelope_and_truncation_columns(self, tmp_path, law):
        # s = 2.5 in both runs, so the envelope is l1^-5; only a kurtosis
        # other than 2 has a term that needs the doubled mode 2n
        runs = [(["model=kdv", "grid.nmax=4", "run.t=[0.5,1]"], ["0.5"] * 4 + ["1"] * 4,
                 ["1", "2", "3", "4"] * 2, {"3", "4"}),
                (["model=kpii", "grid.nmax=2", "spectrum.alpha=3.5"], ["1"] * 10,
                 [f"{n1};{n2}" for n1 in (1, 2) for n2 in range(-2, 3)],
                 {"1;-2", "1;2", "2;-2", "2;-1", "2;0", "2;1", "2;2"})]
        for i, (sets, times, modes, flagged) in enumerate(runs):
            out = tmp_path / str(i)
            assert run_cli(out, "predict", "--set", f"law.kind={law}",
                           *[a for item in sets for a in ("--set", item)]) == 0
            rows = [r.split(",") for r in (out / "predictions.csv").read_text().splitlines()[1:]]
            assert [r[0] for r in rows] == times and [r[1] for r in rows] == modes
            for _, mode, l1, _, _, envelope, _ in rows:
                assert int(l1) == sum(abs(int(c)) for c in mode.split(";"))
                assert float(envelope) == pytest.approx(int(l1) ** -5.0, rel=1e-15)
            assert {r[6] for r in rows} <= {"", "truncated-2n"}
            assert {r[1] for r in rows if r[6]} == (flagged if law == "random-phase" else set())


class TestCovarianceCommand:
    args = ("covariance", "--set", "grid.nmax=6", "--set", "run.samples=64",
            "--set", "run.dt=0.01", "--set", "run.t=0.5")

    def test_zero_epsilon_all_zero_exit_zero(self, tmp_path):
        assert run_cli(tmp_path, *self.args, "--set", "run.epsilon=0.0") == 0
        lines = (tmp_path / "covariance.csv").read_text().strip().splitlines()
        assert all(float(r.split(",")[3]) == 0.0 for r in lines[1:])

    def test_worker_count_gives_identical_bytes(self, tmp_path, monkeypatch):
        pools = []
        real_pool = multiprocessing.Pool

        def recording_pool(*args, **kwargs):
            pools.append(args)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
        a = tmp_path / "a"
        b = tmp_path / "b"
        # 64 samples in batches of 16: the two-worker run takes the pool path
        args = (*self.args, "--set", "run.batch=16")
        assert cli.main([*args, "--set", "run.workers=1", "--out", str(a)]) == 0
        assert not pools
        assert cli.main([*args, "--set", "run.workers=2", "--out", str(b)]) == 0
        assert pools == [(2,)]
        assert (a / "covariance.csv").read_bytes() == (b / "covariance.csv").read_bytes()
        assert (a / "covariance.json").read_bytes() == (b / "covariance.json").read_bytes()

    def test_json_metadata(self, tmp_path):
        assert run_cli(tmp_path, *self.args) == 0
        payload = json.loads((tmp_path / "covariance.json").read_text())
        assert payload["model"] == "bbm"
        assert payload["samples"] == 64
        assert payload["invalid"] is False
        assert set(payload) == {
            "model", "epsilon", "t", "dt", "seed", "law", "kurtosis", "spectrum", "samples",
            "used", "excluded", "invalid", "truncation_flagged_modes", "records"}

    def test_budget_guard(self, tmp_path):
        assert run_cli(tmp_path, *self.args, "--set", "run.budget=1000") == 64

    def test_budget_counts_the_padded_grid(self, tmp_path):
        # 64 samples x 50 steps x 4 stages x N, with N = 20 points for nmax=6
        # (3*nmax + 1 = 19 rounded up to 5-smooth), not 2*(2*nmax + 1) = 26,
        # plus 108 triad pairs (test_budget_counts_the_steps_the_solver_takes)
        assert run_cli(tmp_path, *self.args, "--set", "run.budget=256108") == 0
        assert run_cli(tmp_path, *self.args, "--set", "run.budget=256107") == 64
        assert solver.padded_length(6) == 20

    def test_budget_counts_the_steps_the_solver_takes(self, tmp_path):
        # t=2.1, dt=0.3: 7 steps (2.1 / 0.3 rounds just above 7), so the work
        # is 4 samples x 7 steps x 4 stages x 20 points = 2240, plus
        # (2 + 1 time) x 6 stored x 12 active / 2 = 108 unordered triad pairs
        args = ("covariance", "--set", "grid.nmax=6", "--set", "run.samples=4",
                "--set", "run.t=2.1", "--set", "run.dt=0.3", "--set", "run.epsilon=0.04")
        assert run_cli(tmp_path, *args, "--set", "run.budget=2348") == 0
        assert run_cli(tmp_path, *args, "--set", "run.budget=2347") == 64

    @pytest.mark.parametrize("command", ["covariance", "picard-scan"])
    def test_budget_counts_the_triad_work(self, tmp_path, capsys, command):
        # KP-II nmax=300 to one step: 7.4e6 solve work, but (2 + 1) x 180,300
        # stored x 360,600 active / 2 = 9.75e10 unordered triad pairs for
        # max |delta| and G_n or b
        sets = ["model=kpii", "spectrum.alpha=3.5", "run.samples=2", "run.t=0.002",
                "run.dt=0.002"]
        args = [a for item in sets for a in ("--set", item)]
        assert run_cli(tmp_path, command, *args, "--set", "grid.nmax=300") == 64
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: estimated work 9.75e+10 exceeds")
        assert not any(tmp_path.iterdir())
        # nmax=96: 1.0e9 triad pairs stay inside the default budget of 2e10
        cli.RunConfig.from_mapping(cli.load_config(None, sets + ["grid.nmax=96"])).check_work(2)

    def test_coarse_default_step_warns(self, tmp_path):
        # KdV nmax=16 at the default run.dt=2e-3: dt * max|delta| = 6.1 > 3
        assert cli.KEYS["run.dt"][0] == 2e-3
        with pytest.warns(solver.StepAccuracyWarning, match="max \\|delta\\| = 3072"):
            code = run_cli(tmp_path, "covariance", "--set", "model=kdv",
                           "--set", "grid.nmax=16", "--set", "run.samples=4",
                           "--set", "run.t=0.1")
        assert code == 0

    def test_step_warnings_reach_the_caller_for_any_worker_count(self, tmp_path):
        # each distinct warning a batch raises is issued once by the parent,
        # also when the batches ran in pool workers
        def step_warnings(workers):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                code = run_cli(tmp_path / str(workers), "covariance", "--set", "model=kdv",
                               "--set", "grid.nmax=16", "--set", "run.samples=8",
                               "--set", "run.batch=4", "--set", "run.t=0.1",
                               "--set", f"run.workers={workers}")
            assert code == 0
            return [str(r.message) for r in rec
                    if issubclass(r.category, solver.StepAccuracyWarning)]

        serial = step_warnings(1)
        assert serial
        assert step_warnings(2) == serial

    def test_lost_samples_exit_3_with_one_line(self, tmp_path, capsys):
        # a smooth datum at a step so large that every trajectory blows up
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli(tmp_path, "covariance", "--set", "model=kdv", "--set", "grid.nmax=4",
                           "--set", "spectrum.alpha=2.6", "--set", "run.epsilon=1",
                           "--set", "run.t=20", "--set", "run.dt=2", "--set", "run.samples=8")
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "covariance: REPORT INVALID (fewer than two usable samples; cannot form errors)"]

    def test_time_list_rejected(self, tmp_path):
        assert run_cli(tmp_path, *self.args, "--set", "run.t=[0.5,1.0]") == 64

    def test_invalid_report_exits_3(self, tmp_path, monkeypatch):
        real = cov.evolve_array

        def lossy(model, eps, coeffs, dt, t, **kw):
            final, snaps, alive, blow = real(model, eps, coeffs, dt, t, **kw)
            alive = alive.copy()
            alive[0] = False
            blow = blow.copy()
            blow[0] = t
            return final, snaps, alive, blow

        monkeypatch.setattr(cov, "evolve_array", lossy)
        assert run_cli(tmp_path, *self.args) == 3


class TestOtherCommands:
    def test_picard_scan_writes_table(self, tmp_path):
        code = run_cli(tmp_path, "picard-scan", "--set", "run.t=[0.5,1.0]",
                       "--set", "grid.nmax=6", "--set", "run.dt=0.005")
        assert code == 0
        lines = (tmp_path / "picard_scan.csv").read_text().strip().splitlines()
        assert lines[0] == "t,norm,model,epsilon,nmax"
        assert len(lines) == 3

    def test_picard_scan_budget(self, tmp_path, capsys):
        # one solve to t=1 in 200 steps x 4 stages x 20 points = 16000, plus
        # (2 + 2 times) x 6 stored x 12 active / 2 = 144 unordered triad pairs
        args = ("picard-scan", "--set", "run.t=[0.5,1.0]", "--set", "grid.nmax=6",
                "--set", "run.dt=0.005")
        assert run_cli(tmp_path, *args, "--set", "run.budget=16144") == 0
        assert run_cli(tmp_path / "over", *args, "--set", "run.budget=16143") == 64
        # BBM nmax=16 to t=1e6 at the default run.dt: 5e8 steps x 4 x 50 = 1e11
        assert run_cli(tmp_path / "long", "picard-scan", "--set", "run.t=1e6") == 64
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[-1].startswith("config error: estimated work 1e+11 exceeds")
        assert not (tmp_path / "over").exists() and not (tmp_path / "long").exists()

    def test_sample_diagnostics_json(self, tmp_path):
        code = run_cli(tmp_path, "sample-diagnostics", "--set", "grid.nmax=6")
        assert code == 0
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        assert payload["moments"]["flagged"] == []
        assert payload["tail"]["slope"] < 0.0

    def test_random_phase_exact_fourth_moment(self, tmp_path, capsys):
        code = run_cli(tmp_path, "sample-diagnostics", "--set", "law.kind=random-phase",
                       "--set", "grid.nmax=6")
        assert code == 0
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        assert payload["moments"]["moments"]["abs4"]["value"] == [1.0, 0.0]
        # |g| = 1 fixes the datum norm, so there is no tail to report
        assert payload["tail"]["ladder"] == [] and payload["tail"]["slope"] is None
        assert "no tail: the datum norm is constant" in capsys.readouterr().out

    # each would ask for arrays of 149 GiB to 48 TiB; refused before any is built
    @pytest.mark.parametrize("command,nmax,alpha", [
        ("predict", 100_000, 3.5), ("covariance", 100_000, 4.0),
        ("sample-diagnostics", 5000, 3.5)])
    def test_huge_lattice_exits_64(self, tmp_path, capsys, command, nmax, alpha):
        assert run_cli(tmp_path, command, "--set", "model=kpii", "--set", f"grid.nmax={nmax}",
                       "--set", f"spectrum.alpha={alpha}") == 64
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: estimated work ")
        assert not any(tmp_path.iterdir())

    # lambda_n^2, G_n, the KP-I envelope t^2 |n|^(2-2s) or the datum norm
    # (|n|^(2s) overflowing where lambda_n^2 underflows) leaves the float range
    @pytest.mark.parametrize("args", [
        ("predict", "model=kpii", "spectrum.alpha=-400", "grid.nmax=4"),
        ("predict", "spectrum.alpha=-200", "grid.nmax=4"),
        ("predict", "model=kpi", "run.t=1e160", "grid.nmax=2", "spectrum.alpha=4"),
        ("sample-diagnostics", "spectrum.alpha=200"),
        ("sample-diagnostics", "spectrum.alpha=-400", "grid.nmax=4"),
        ("sample-diagnostics", "spectrum.alpha=-400")])
    def test_non_finite_values_exit_64_with_one_line(self, tmp_path, capsys, args):
        command, *sets = args
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(tmp_path, command, *[a for item in sets for a in ("--set", item)]) == 64
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ")
        assert not any(tmp_path.iterdir())

    def test_predict_and_diagnostics_budgets(self, tmp_path):
        # BBM nmax=6: 6 stored modes x 12 active modes / 2 per time
        args = ("predict", "--set", "grid.nmax=6", "--set", "run.t=[0.5,1.0]")
        assert run_cli(tmp_path / "a", *args, "--set", "run.budget=72") == 0
        assert run_cli(tmp_path / "b", *args, "--set", "run.budget=71") == 64
        # 100,000 draws x 6 stored modes
        args = ("sample-diagnostics", "--set", "grid.nmax=6")
        assert run_cli(tmp_path / "c", *args, "--set", "run.budget=600000") == 0
        assert run_cli(tmp_path / "d", *args, "--set", "run.budget=599999") == 64


class TestVerify:
    def test_fresh_checkout_passes(self, tmp_path):
        assert run_cli(tmp_path, "verify") == 0

    def test_injected_sign_flip_is_caught(self, tmp_path, monkeypatch):
        # flip the sign of the BBM pulsation; the signed delta oracle must trip
        monkeypatch.setitem(dsp._OMEGA, "bbm", lambda n1: n1 / (1.0 + n1 * n1))
        results = {name: (ok, detail) for name, ok, detail in cli.verify_all()}
        assert not results["delta-oracles"][0]
        assert run_cli(tmp_path, "verify") == 1

    def test_undone_injection_leaves_no_stale_relation(self, monkeypatch):
        # every path reads the relation when it runs, so once an injected
        # relation is undone no table, bound or right-hand side still has it
        monkeypatch.setitem(dsp._OMEGA, "bbm", lambda n1: n1 / (1.0 + n1 * n1))
        monkeypatch.setitem(dsp._OMEGA, "kdv", lambda n1: 2.0 * n1 * n1 * n1)
        cli.verify_all()
        assert dsp.max_abs_delta(dsp.KDV, 6) == 324.0
        monkeypatch.undo()
        results = {name: (ok, detail) for name, ok, detail in cli.verify_all()}
        assert len(results) == 7
        assert all(ok for ok, _ in results.values()), results
        assert dsp.max_abs_delta(dsp.KDV, 6) == 162.0

    def test_short_padding_fails_the_convolution_check(self, monkeypatch):
        # 3*nmax points let a product of two retained modes wrap onto one
        monkeypatch.setattr(solver, "padded_length", lambda nmax: 3 * nmax)
        results = {name: ok for name, ok, _ in cli.verify_all()}
        assert not results["dealias-convolution"]

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "wavecorr.cli", "predict",
             "--set", "grid.nmax=4", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "predictions.csv").exists()
