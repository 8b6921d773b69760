"""Tests for the command-line surface: file formats, key order, exit codes,
seeding and determinism."""

import csv
import json
import math
import random
import subprocess
import sys

import pytest

from qres import cli, metrology, simulate
from qres.errors import AccuracyError
from qres.numerics import RngStream
from qres.probe import ProbeSpec, density, gamma_for_energy


def _random_probes(count, seed=0):
    """Even alpha in 2..200 and a width log-uniform in 1e-3..1e3; for about
    two in three such pairs gamma_for_energy(alpha, mean_energy(spec)) is off
    by an ulp from the width."""
    rng = random.Random(seed)
    return [
        (2 * rng.randint(1, 100), 10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(count)
    ]


RANDOM_PROBES = _random_probes(200)


def run_cli(args, tmp_path, env=None):
    """Run the CLI in a subprocess from tmp_path; returns (exit, stdout)."""
    result = subprocess.run(
        [sys.executable, "-m", "qres", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
    )
    # shown under "Captured stderr" if the test fails
    sys.stderr.write(result.stderr)
    return result.returncode, result.stdout, result.stderr


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestProbeCommand:
    def test_default_figure_curves(self, tmp_path):
        code, out, _ = run_cli(
            ["probe", "--alpha", "2,10,20", "--energy", "0.3333333333333333"],
            tmp_path,
        )
        assert code == 0
        for alpha in (2, 10, 20):
            header, rows = read_csv(tmp_path / f"probe_alpha{alpha}.csv")
            assert header == ["p", "density"]
            assert len(rows) == 2001
            p = [float(r[0]) for r in rows]
            d = [float(r[1]) for r in rows]
            # trapezoid normalization
            dx = p[1] - p[0]
            total = dx * (sum(d) - 0.5 * (d[0] + d[-1]))
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_bare_invocation_uses_figure_defaults(self, tmp_path):
        # defaults: alpha 2,10,20 at mean energy 1/3
        code, _, _ = run_cli(["probe"], tmp_path)
        assert code == 0
        for alpha in (2, 10, 20):
            assert (tmp_path / f"probe_alpha{alpha}.csv").exists()
        _, rows = read_csv(tmp_path / "probe_alpha20.csv")
        peak = float(rows[len(rows) // 2][1])
        spec = ProbeSpec(20, gamma_for_energy(20, 1.0 / 3.0))
        assert peak == pytest.approx(density(spec, 0.0), rel=1e-15)
        assert 0.45 <= peak <= 0.55

    def test_single_alpha_writes_plain_path_and_peak_value(self, tmp_path):
        code, _, _ = run_cli(
            ["probe", "--alpha", "2", "--gamma", "1.0", "--out", "single.csv"],
            tmp_path,
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "single.csv")
        center = rows[len(rows) // 2]
        assert float(center[0]) == pytest.approx(0.0, abs=1e-12)
        assert float(center[1]) == pytest.approx(
            density(ProbeSpec(2, 1.0), 0.0), rel=1e-15
        )


    def test_width_at_huge_energy_writes_the_csv(self, tmp_path, capsys):
        out = tmp_path / "probe.csv"
        argv = ["probe", "--alpha", "2", "--energy", "1e308", "--out", str(out)]
        assert cli.main(argv) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2001
        # the window edge is sqrt(350) times the width 2e154
        assert float(rows[0][0]) == pytest.approx(-math.sqrt(350.0) * 2e154, rel=1e-14)


class TestSweepCommand:
    def test_columns_and_shape(self, tmp_path):
        code, _, _ = run_cli(["sweep", "--alpha-max", "40"], tmp_path)
        assert code == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["alpha", "normalized_bound", "approx_3_over_alpha"]
        table = {int(r[0]): (float(r[1]), float(r[2])) for r in rows}
        assert table[2][0] == 1.0
        bounds = [table[a][0] for a in sorted(table)]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))
        assert table[20][1] == pytest.approx(0.15, rel=1e-15)
        assert abs(table[20][1] - table[20][0]) / table[20][0] < 0.05

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--alpha-min", "3"),
            ("--alpha-max", "21"),
            ("--alpha-min", "0"),
            ("--alpha-max", "202"),
            ("--alpha-min", "-2"),
        ],
    )
    def test_out_of_domain_alpha_fails_before_any_row(
        self, flag, value, tmp_path, monkeypatch, capsys
    ):
        rows = []
        monkeypatch.setattr(cli, "normalized_bound", lambda alpha: rows.append(alpha))
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "qres: invalid parameters: alpha must be an even integer in [2, 200], "
            f"got {value}\n"
        )
        assert rows == []
        assert not out.exists()

    def test_alpha_max_below_alpha_min_is_a_usage_error(self, capsys):
        assert cli.main(["sweep", "--alpha-min", "10", "--alpha-max", "8"]) == 2
        assert "--alpha-max must be >= --alpha-min" in capsys.readouterr().err


class TestSimulateCommand:
    def test_json_keys_and_gaussian_posterior(self, tmp_path):
        code, out, _ = run_cli(
            [
                "simulate",
                "--alpha",
                "2",
                "--gamma",
                "1.0",
                "--n",
                "25",
                "--seed",
                "3",
            ],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(out)
        for key in (
            "chi_true",
            "mle",
            "posterior_mean",
            "posterior_variance",
            "energy_bound",
            "n_required",
            "seed",
        ):
            assert key in payload
        assert payload["posterior_variance"] == pytest.approx(1.0 / 100.0, rel=1e-2)
        assert payload["seed"] == 3

    def test_posterior_csv(self, tmp_path):
        code, _, _ = run_cli(
            [
                "simulate",
                "--alpha",
                "4",
                "--energy",
                "0.5",
                "--n",
                "10",
                "--seed",
                "1",
                "--posterior-out",
                "post.csv",
            ],
            tmp_path,
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "post.csv")
        assert header == ["chi_tilde", "density"]
        assert len(rows) == 2001

    def test_trial_aggregate_keys(self, tmp_path):
        code, out, _ = run_cli(
            [
                "simulate",
                "--alpha",
                "4",
                "--energy",
                "0.5",
                "--n",
                "10",
                "--trials",
                "5",
                "--seed",
                "1",
            ],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 5
        assert payload["mle_variance"] is not None

    # JSON recorded when the MLE was a golden-section search, whose flat zone
    # leaves its estimates up to about 1e-8 gamma from the exact MLE (see
    # tests/test_simulate.py); the posterior moments agree to 1e-12.
    PINNED = {
        3: {
            "alpha": 4,
            "energy": 0.5,
            "gamma": 1.4464090846320774,
            "n": 10,
            "trials": 3,
            "chi_true": 0.0,
            "mle": -0.29925127751874064,
            "mle_variance": 0.005533977816682755,
            "posterior_mean": -0.29607861264953567,
            "posterior_variance": 0.045969130621479226,
            "energy_bound": 0.036473993587107956,
            "approx_bound": 0.0375,
            "n_required": 2.376879230452958,
            "uniform_sampling": False,
            "seed": 5,
        },
        1: {
            "alpha": 4,
            "energy": 0.5,
            "gamma": 1.4464090846320774,
            "n": 10,
            "trials": 1,
            "chi_true": 0.0,
            "mle": -0.2373520975449266,
            "mle_variance": None,
            "posterior_mean": -0.23504102487211692,
            "posterior_variance": 0.02740024705342954,
            "energy_bound": 0.036473993587107956,
            "approx_bound": 0.0375,
            "n_required": 2.376879230452958,
            "uniform_sampling": False,
            "seed": 5,
        },
    }

    @pytest.mark.parametrize("trials", sorted(PINNED))
    def test_matches_pinned_output(self, tmp_path, trials):
        code, out, _ = run_cli(
            ["simulate", "--alpha", "4", "--energy", "0.5", "--n", "10"]
            + ["--trials", str(trials), "--seed", "5"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(out)
        pinned = self.PINNED[trials]
        assert list(payload) == list(pinned)
        eps = 1e-8 * pinned["gamma"]
        assert payload["mle"] == pytest.approx(pinned["mle"], rel=0, abs=eps)
        if trials == 1:
            assert payload["mle_variance"] is None
        else:
            # bound on the change of a T-trial sample variance when every
            # estimate moves by at most eps
            ratio = trials / (trials - 1)
            slack = 4 * eps * math.sqrt(ratio * pinned["mle_variance"]) + 4 * ratio * eps**2
            assert payload["mle_variance"] == pytest.approx(
                pinned["mle_variance"], rel=0, abs=slack
            )
        for key in ("posterior_mean", "posterior_variance"):
            assert payload[key] == pytest.approx(pinned[key], rel=1e-12, abs=0)
        moved = {"mle", "mle_variance", "posterior_mean", "posterior_variance"}
        assert {k: v for k, v in payload.items() if k not in moved} == {
            k: v for k, v in pinned.items() if k not in moved
        }

    def test_gamma_is_the_width_sampled(self, capsys):
        chi, n, seed = 0.25, 20, 11
        for alpha, gamma in RANDOM_PROBES[:20]:
            argv = ["simulate", "--alpha", str(alpha), "--gamma", repr(gamma)]
            argv += ["--n", str(n), "--chi", str(chi), "--seed", str(seed)]
            assert cli.main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            samples = simulate.draw(ProbeSpec(alpha, gamma), chi, n, RngStream(seed, 0))
            assert (payload["gamma"], payload["mle"]) == (gamma, simulate.mle(samples))

    def test_posterior_out_reuses_trial_0(self, monkeypatch, tmp_path, capsys):
        blocks = []
        posteriors = simulate._posteriors

        def recording(spec, outcomes, *args):
            stats, first = posteriors(spec, outcomes, *args)
            blocks.append((outcomes.shape[0], first))
            return stats, first

        monkeypatch.setattr(simulate, "_posteriors", recording)
        argv = ["simulate", "--alpha", "4", "--energy", "0.5", "--n", "10", "--seed", "5"]
        argv += ["--trials", "3", "--posterior-out", str(tmp_path / "post.csv")]
        assert cli.main(argv) == 0
        # one posterior per trial, and the CSV is the grid of the block that
        # holds trial 0, not a second posterior of trial 0
        assert sum(rows for rows, _ in blocks) == 3
        grid = blocks[0][1]
        with open(tmp_path / "post.csv") as f:
            rows = list(csv.reader(f))[1:]
        assert [float(x) for x, _ in rows] == grid.grid.tolist()
        assert [float(d) for _, d in rows] == grid.density.tolist()

    def test_n_required_runs_no_repetitions_quadrature(self, monkeypatch, capsys):
        def no_quadrature(alpha, rel_tol):
            raise AssertionError("simulate ran the repetitions quadrature")

        monkeypatch.setattr(metrology, "_repetitions_integral", no_quadrature)
        argv = ["simulate", "--alpha", "4", "--energy", "0.5", "--n", "10", "--seed", "5"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["n_required"] == (
            self.PINNED[1]["n_required"]
        )

    def test_env_seed_override(self, tmp_path, monkeypatch):
        import os

        env = dict(os.environ, QRES_SEED="9")
        _, with_env, _ = run_cli(
            ["simulate", "--alpha", "2", "--gamma", "1", "--n", "5"],
            tmp_path,
            env=env,
        )
        _, with_flag, _ = run_cli(
            ["simulate", "--alpha", "2", "--gamma", "1", "--n", "5", "--seed", "9"],
            tmp_path,
        )
        assert with_env == with_flag
        assert json.loads(with_env)["seed"] == 9
        # explicit flag wins over the environment
        _, flag_wins, _ = run_cli(
            ["simulate", "--alpha", "2", "--gamma", "1", "--n", "5", "--seed", "4"],
            tmp_path,
            env=env,
        )
        assert json.loads(flag_wins)["seed"] == 4


class TestBoundsCommand:
    def test_report_values(self, tmp_path):
        code, out, _ = run_cli(
            ["bounds", "--alpha", "20", "--energy", "0.3333333333333333", "--n", "50"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["approx_bound"] == pytest.approx(1e-3, rel=1e-12)
        assert payload["energy_bound"] == pytest.approx(1.0366e-3, rel=1e-3)
        assert list(payload)[:4] == ["alpha", "gamma", "mean_energy", "repetitions"]

    def test_gamma_parameterization(self, tmp_path):
        code, out, _ = run_cli(
            ["bounds", "--alpha", "2", "--gamma", "1.0", "--n", "1"], tmp_path
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fisher"] == pytest.approx(4.0, rel=1e-12)
        assert payload["mean_energy"] == pytest.approx(0.25, rel=1e-12)

    def test_gamma_is_the_width_reported(self, capsys):
        reported = []
        for alpha, gamma in RANDOM_PROBES:
            argv = ["bounds", "--alpha", str(alpha), "--gamma", repr(gamma)]
            assert cli.main(argv) == 0
            reported.append(json.loads(capsys.readouterr().out)["gamma"])
        assert reported == [gamma for _, gamma in RANDOM_PROBES]


class TestOscillatorCommand:
    def test_bound_only(self, tmp_path):
        code, out, _ = run_cli(
            ["oscillator", "--omega", "1", "--energy", "1", "--n", "1"], tmp_path
        )
        assert code == 0
        assert json.loads(out)["ho_bound"] == 0.25

    def test_number_shift_block(self, tmp_path):
        code, out, _ = run_cli(
            [
                "oscillator",
                "--omega",
                "1",
                "--energy",
                "1",
                "--n",
                "1",
                "--n-level",
                "0",
                "--chi",
                "0.01",
            ],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fisher_approx"] == pytest.approx(100.0)
        assert payload["crb_approx"] == pytest.approx(0.01)
        assert payload["prob_stay"] + payload["prob_shift"] == pytest.approx(1.0)


class TestScenarioCommand:
    def test_electric(self, tmp_path):
        code, out, _ = run_cli(
            ["scenario", "electric", "--q", "2", "--field", "0.5", "--tau", "3"],
            tmp_path,
        )
        assert code == 0
        assert json.loads(out)["chi"] == 3.0

    def test_stern_gerlach(self, tmp_path):
        code, out, _ = run_cli(
            [
                "scenario",
                "stern-gerlach",
                "--mu-z",
                "-1",
                "--gradient",
                "2",
                "--tau",
                "0.5",
            ],
            tmp_path,
        )
        assert code == 0
        assert json.loads(out)["chi"] == -1.0


class TestExitCodes:
    def test_usage_error_when_both_width_and_energy(self, tmp_path):
        code, _, err = run_cli(
            ["bounds", "--alpha", "2", "--energy", "1", "--gamma", "1", "--n", "1"],
            tmp_path,
        )
        assert code == 2
        assert "energy" in err

    def test_usage_error_when_neither(self, tmp_path):
        code, _, _ = run_cli(["bounds", "--alpha", "2", "--n", "1"], tmp_path)
        assert code == 2

    def test_usage_error_odd_alpha(self, tmp_path):
        code, _, _ = run_cli(
            ["bounds", "--alpha", "3", "--energy", "1", "--n", "1"], tmp_path
        )
        assert code == 2

    def test_unknown_flag_is_a_usage_error(self, tmp_path):
        code, _, _ = run_cli(["bounds", "--bogus", "1"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--alpha", "2", "--energy", "1e-310"],
            ["bounds", "--alpha", "2", "--gamma", "1e200"],
            ["simulate", "--alpha", "2", "--energy", "1e-310", "--n", "5"],
        ],
    )
    def test_float_overflow_is_a_usage_error(self, argv, capsys):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("qres: invalid parameters: closed form overflows a float")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["bounds", "--alpha", "2", "--energy", "1e-300"], 0),
            (["bounds", "--alpha", "2", "--energy", "1e308"], 2),
            (["oscillator", "--omega", "1e200", "--energy", "1e-200"], 2),
            (["oscillator", "--omega", "1e-200", "--energy", "1e200"], 0),
            (
                ["oscillator", "--omega", "1", "--energy", "1", "--chi", "0.05"]
                + ["--n-level", str(10**156)],
                0,
            ),
        ],
    )
    def test_extreme_floats_give_strict_json_or_exit_2(self, argv, code, capsys):
        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        if code == 0:
            json.loads(out, parse_constant=reject)
        else:
            assert "overflows a float" in err

    def test_accuracy_errors_map_to_exit_3(self, monkeypatch, capsys):
        def boom(args):
            raise AccuracyError("synthetic failure", best_estimate=1.0)

        # build_parser wires the command to cli._cmd_bounds at parse time
        monkeypatch.setattr(cli, "_cmd_bounds", boom)
        assert cli.main(["bounds", "--alpha", "2", "--energy", "1", "--n", "1"]) == 3
        assert "numerical-accuracy" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["probe", "--alpha", "6", "--energy", "0.25", "--out", "det.csv"],
            ["sweep", "--alpha-max", "12", "--out", "det.csv"],
            [
                "simulate",
                "--alpha",
                "4",
                "--energy",
                "0.5",
                "--n",
                "10",
                "--trials",
                "3",
                "--seed",
                "5",
                "--out",
                "det.json",
                "--posterior-out",
                "det_post.csv",
            ],
            [
                "simulate",
                "--alpha",
                "4",
                "--gamma",
                "2.5",
                "--n",
                "10",
                "--trials",
                "3",
                "--seed",
                "5",
                "--out",
                "det.json",
                "--posterior-out",
                "det_post.csv",
            ],
            [
                "bounds",
                "--alpha",
                "8",
                "--energy",
                "1.0",
                "--n",
                "7",
                "--out",
                "det.json",
            ],
        ],
    )
    def test_reruns_are_byte_identical(self, tmp_path, args):
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        first_dir.mkdir()
        second_dir.mkdir()
        code1, out1, _ = run_cli(args, first_dir)
        code2, out2, _ = run_cli(args, second_dir)
        assert code1 == code2 == 0
        assert out1 == out2
        first_files = sorted(p.name for p in first_dir.iterdir())
        assert first_files == sorted(p.name for p in second_dir.iterdir())
        for name in first_files:
            assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()
