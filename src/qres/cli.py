"""Command-line surface.

Subcommands expose every computation in the library and regenerate the
reference figures as plain data files:

* ``probe``       momentum-density curves as CSV, one file per alpha;
* ``bounds``      the full resolution report as JSON;
* ``sweep``       the energy-normalized bound versus alpha as CSV;
* ``simulate``    Monte-Carlo estimation runs as JSON (+ posterior CSV);
* ``oscillator``  harmonic-oscillator contrast quantities as JSON;
* ``scenario``    coupling-to-signal conversions as JSON.

Every command is deterministic given its flags: re-runs produce byte-
identical output.  CSV files use RFC-4180-style quoting with 17-significant-
digit floats; JSON keys are snake_case in a fixed order.  Exit status is 0 on
success, 2 on usage errors and 3 on numerical-accuracy errors.  The
``QRES_SEED`` environment variable overrides the default seed (42) whenever
``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .errors import AccuracyError, DomainError, ResolutionError
from .metrology import (
    bound_report,
    energy_bound,
    energy_bound_approx,
    normalized_bound,
    repetitions_required,
    scenario_chi_electric,
    scenario_chi_stern_gerlach,
)
from .oscillator import (
    HOBoundInput,
    NumberShiftModel,
    ho_energy_bound,
    mean_number,
    number_shift_distribution,
    number_shift_fisher,
)
from .numerics import RngStream
from .probe import ProbeSpec, density, gamma_for_energy, mean_energy, truncation_window
from .simulate import draw, draw_uniform, posterior, run_trials

DEFAULT_SEED = 42
DEFAULT_REPETITIONS = 50
DEFAULT_TRIALS = 1
DEFAULT_GRID_POINTS = 2001
PROBE_CSV_ROWS = 2001

_FIG1_ALPHAS = "2,10,20"
_FIG1_ENERGY = 1.0 / 3.0


def _fmt(value: float) -> str:
    """17-significant-digit decimal rendering for CSV cells."""
    return format(float(value), ".17g")


def _parse_alpha_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise DomainError(f"could not parse alpha list {text!r}")
    if not values:
        raise DomainError("at least one alpha is required")
    return values


def _resolve_spec(alpha: int, energy, gamma) -> tuple[ProbeSpec, float]:
    """Build the probe from exactly one of energy/gamma; returns (spec, energy)."""
    if (energy is None) == (gamma is None):
        raise DomainError("exactly one of --energy and --gamma must be given")
    if energy is not None:
        spec = ProbeSpec(alpha, gamma_for_energy(alpha, energy))
        return spec, float(energy)
    spec = ProbeSpec(alpha, float(gamma))
    return spec, mean_energy(spec)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QRES_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"QRES_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _emit_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _suffixed(path: str, alpha: int) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}_alpha{alpha}{ext or '.csv'}"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_probe(args) -> int:
    alphas = _parse_alpha_list(args.alpha)
    energy = args.energy
    gamma = args.gamma
    if energy is None and gamma is None:
        energy = _FIG1_ENERGY
    for alpha in alphas:
        spec, _ = _resolve_spec(alpha, energy, gamma)
        window = truncation_window(spec)
        grid = np.linspace(-window, window, PROBE_CSV_ROWS)
        values = density(spec, grid)
        path = args.out if len(alphas) == 1 else _suffixed(args.out, alpha)
        _write_csv(path, ["p", "density"], ((_fmt(p), _fmt(v)) for p, v in zip(grid, values)))
        print(path)
    return 0


def _cmd_bounds(args) -> int:
    spec, energy = _resolve_spec(args.alpha, args.energy, args.gamma)
    report = bound_report(spec.alpha, energy, args.n)
    _emit_json(report.to_dict(), args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.alpha_min < 2 or args.alpha_min % 2 or args.alpha_max % 2:
        raise DomainError("--alpha-min/--alpha-max must be even integers >= 2")
    if args.alpha_max < args.alpha_min:
        raise DomainError("--alpha-max must be >= --alpha-min")
    rows = []
    for alpha in range(args.alpha_min, args.alpha_max + 1, 2):
        rows.append((alpha, _fmt(normalized_bound(alpha)), _fmt(3.0 / alpha)))
    _write_csv(args.out, ["alpha", "normalized_bound", "approx_3_over_alpha"], rows)
    print(args.out)
    return 0


def _write_posterior_csv(path: str, grid) -> None:
    _write_csv(
        path,
        ["chi_tilde", "density"],
        ((_fmt(x), _fmt(d)) for x, d in zip(grid.grid, grid.density)),
    )


def _cmd_simulate(args) -> int:
    spec, energy = _resolve_spec(args.alpha, args.energy, args.gamma)
    seed = _resolve_seed(args)
    summary = run_trials(
        spec.alpha,
        energy,
        args.n,
        args.chi,
        args.trials,
        seed,
        grid_points=args.grid_points,
        uniform_sampling=args.uniform_sampling,
    )
    if args.posterior_out:
        # trial 0 again, drawn with the probe run_trials builds from the energy
        trial_spec = ProbeSpec(spec.alpha, gamma_for_energy(spec.alpha, energy))
        sampler = draw_uniform if args.uniform_sampling else draw
        samples = sampler(trial_spec, args.chi, args.n, RngStream(seed, 0))
        grid = posterior(samples, args.grid_points, center=summary.mles[0])
        _write_posterior_csv(args.posterior_out, grid)

    payload = {
        "alpha": spec.alpha,
        "energy": energy,
        "gamma": spec.gamma,
        "n": args.n,
        "trials": args.trials,
        "chi_true": args.chi,
        "mle": summary.mle_mean,
        "mle_variance": summary.mle_variance,
        "posterior_mean": float(summary.posterior_means.mean()),
        "posterior_variance": summary.mean_posterior_variance,
        "energy_bound": energy_bound(spec.alpha, energy, args.n),
        "approx_bound": energy_bound_approx(spec.alpha, energy, args.n),
        "n_required": repetitions_required(spec.alpha).closed_form,
        "uniform_sampling": args.uniform_sampling,
        "seed": seed,
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_oscillator(args) -> int:
    bound_input = HOBoundInput(args.omega, args.energy, args.n)
    payload = {
        "omega": bound_input.omega,
        "energy": bound_input.energy,
        "n": bound_input.repetitions,
        "ho_bound": ho_energy_bound(bound_input),
        "large_dx_regime": bound_input.large_dx_regime,
        "free_particle_limit": bound_input.free_particle_limit,
    }
    if (args.n_level is None) != (args.chi is None):
        raise DomainError("--n-level and --chi must be given together")
    if args.n_level is not None:
        model = NumberShiftModel(args.n_level, args.chi)
        dist = number_shift_distribution(model)
        fisher = number_shift_fisher(model)
        payload.update(
            {
                "n_level": model.n_level,
                "chi": model.chi,
                "prob_stay": dist.probabilities[0],
                "prob_shift": dist.probabilities[1],
                "q_first_order": dist.q_first_order,
                "mean_number_normalized": mean_number(model, "normalized"),
                "mean_number_first_order": mean_number(model, "first_order"),
                "fisher_exact": fisher.exact,
                "fisher_approx": fisher.approx,
                "crb_approx": 1.0 / (bound_input.repetitions * fisher.approx),
            }
        )
    _emit_json(payload, args.out)
    return 0


def _cmd_scenario(args) -> int:
    if args.kind == "electric":
        chi = scenario_chi_electric(args.q, args.field, args.tau)
        payload = {
            "scenario": "electric",
            "q": args.q,
            "field": args.field,
            "tau": args.tau,
            "chi": chi,
        }
    else:
        chi = scenario_chi_stern_gerlach(args.mu_z, args.gradient, args.tau)
        payload = {
            "scenario": "stern_gerlach",
            "mu_z": args.mu_z,
            "gradient": args.gradient,
            "tau": args.tau,
            "chi": chi,
        }
    _emit_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_energy_gamma(parser) -> None:
    parser.add_argument("--energy", type=float, default=None, help="mean probe energy")
    parser.add_argument("--gamma", type=float, default=None, help="probe width (alternative to --energy)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qres",
        description="Resolution bounds and Monte-Carlo estimation studies "
        "for momentum-shift detection with generalized-Gaussian probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probe", help="momentum-density curves as CSV")
    p.add_argument("--alpha", default=_FIG1_ALPHAS, help="comma-separated even shape exponents")
    _add_energy_gamma(p)
    p.add_argument("--out", default="probe.csv", help="output CSV path (stem for multiple alphas)")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("bounds", help="full resolution report as JSON")
    p.add_argument("--alpha", type=int, required=True)
    _add_energy_gamma(p)
    p.add_argument("--n", type=int, default=DEFAULT_REPETITIONS, help="measurement repetitions")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sweep", help="normalized bound vs alpha as CSV")
    p.add_argument("--alpha-min", type=int, default=2)
    p.add_argument("--alpha-max", type=int, default=40)
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="Monte-Carlo estimation study as JSON")
    p.add_argument("--alpha", type=int, required=True)
    _add_energy_gamma(p)
    p.add_argument("--n", type=int, default=DEFAULT_REPETITIONS)
    p.add_argument("--chi", type=float, default=0.0, help="true signal value")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument(
        "--uniform-sampling",
        action="store_true",
        help="draw outcomes from the square-profile stand-in instead of the exact density",
    )
    p.add_argument("--posterior-out", default=None, help="also write the posterior curve as CSV")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oscillator", help="harmonic-oscillator contrast quantities as JSON")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--n-level", type=int, default=None, help="Fock level for the number-shift channel")
    p.add_argument("--chi", type=float, default=None, help="signal for the number-shift channel")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oscillator)

    p = sub.add_parser("scenario", help="coupling-to-signal conversions as JSON")
    kinds = p.add_subparsers(dest="kind", required=True)
    e = kinds.add_parser("electric", help="impulsive dipole kick: chi = q * field * tau")
    e.add_argument("--q", type=float, required=True)
    e.add_argument("--field", type=float, required=True)
    e.add_argument("--tau", type=float, required=True)
    e.add_argument("--out", default=None)
    e.set_defaults(func=_cmd_scenario)
    s = kinds.add_parser("stern-gerlach", help="gradient coupling: chi = mu_z * gradient * tau")
    s.add_argument("--mu-z", dest="mu_z", type=float, required=True)
    s.add_argument("--gradient", type=float, required=True)
    s.add_argument("--tau", type=float, required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"qres: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, ResolutionError) as exc:
        print(f"qres: numerical-accuracy error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"qres: I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
