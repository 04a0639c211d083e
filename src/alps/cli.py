"""Command-line front end: run / pt / scaling / sur-fit.

`alps run` runs ALPS and, on a one-level ladder such as the preset
`synthetic-20d-lais`, the LAIS baseline; `alps pt` runs parallel
tempering.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import PRESETS, ConfigError, load_config
from .outputs import emit_outputs, prepare_out_dir, write_json
from .runner import NumericalAbort, alps_run, pt_run
from .scaling import (EnvelopeViolationError, ScalingExperimentConfig,
                      scaling_experiment)
from .targets import build_target, load_grunfeld, load_sur_csv, zellner_iterate
from .targets.product import GaussianShape, SkewShape
from .targets.sur import SurParseError, UnidentifiableSystemError

logger = logging.getLogger(__name__)

_RUNNERS = {"run": alps_run, "pt": pt_run}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--preset", help="named preset, the base layer under "
                                      f"--config: {', '.join(PRESETS)}")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alps",
        description="Annealed leap-point sampler, baselines, and diagnostics")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress at INFO level")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (("run", "annealed leap-point sampling (LAIS on a "
                                "one-level ladder)"),
                        ("pt", "parallel tempering baseline")):
        sub = subs.add_parser(name, help=blurb)
        _add_common(sub)
        sub.set_defaults(func=_cmd_sampling, runner=_RUNNERS[name])

    sc = subs.add_parser(
        "scaling", help="cold-temperature acceptance scaling",
        description="Observed vs predicted leap acceptance at beta = ell * d "
                    "along a dimension grid.  The current state is drawn "
                    "by rejection from a Gaussian envelope 1.02 times as "
                    "wide as exp(beta*h) where h is flattest (at 0 or "
                    "+-8), in rounds sized by its acceptance rate.  "
                    "Dimensions run on up to "
                    "min(#dims, usable CPUs) threads; scaling.csv does "
                    "not depend on their number.")
    sc.add_argument("--shape", choices=("skew", "gaussian"), default="skew")
    sc.add_argument("--alpha", type=float, default=2.0,
                    help="skewness of the skew shape")
    sc.add_argument("--ell", type=float, default=0.25,
                    help="temperature slope, beta = ell * d")
    sc.add_argument("--dims", default="10,20,40,80",
                    help="comma-separated dimension grid, no repeats")
    sc.add_argument("--samples", type=int, default=100_000,
                    help="Monte Carlo proposals per dimension")
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--out", help="directory for scaling.csv")
    sc.set_defaults(func=_cmd_scaling)

    sf = subs.add_parser("sur-fit", help="iterated feasible GLS for the "
                                         "seemingly unrelated regression model")
    sf.add_argument("--csv", help="panel CSV (firm,year,invest,value,capital); "
                                  "defaults to the bundled investment data")
    sf.add_argument("--first-years", type=int, default=15,
                    help="use only the first K years per firm (<=0 for all)")
    sf.add_argument("--tol", type=float, default=1e-6,
                    help="relative fitted-values change declaring convergence")
    sf.add_argument("--max-iter", type=int, default=200)
    sf.add_argument("--out", help="directory for sur_fit.json")
    sf.set_defaults(func=_cmd_sur_fit)
    return parser


def _cmd_sampling(args: argparse.Namespace) -> int:
    config = load_config(preset=args.preset, config_path=args.config,
                         seed=args.seed, out_dir=args.out)
    try:
        target = build_target(config.target.name, config.target.params)
    except (ValueError, KeyError, TypeError, OSError, OverflowError) as err:
        raise ConfigError(f"bad target spec: {err}") from err
    samples, diag = args.runner(config, target)
    if config.out_dir:
        emit_outputs(diag, config)
    print(f"{diag.n_sweeps} sweeps, {samples.shape[0]} target samples, "
          f"{diag.sweep_seconds:.2f} s")
    for move, levels in diag.acceptance_dict().items():
        total_acc = sum(e["accepts"] for e in levels.values())
        total_prop = sum(e["proposals"] for e in levels.values())
        if total_prop:
            print(f"  {move}: acceptance {total_acc / total_prop:.4f} "
                  f"({total_prop} proposals)")
    if diag.registry is not None:
        print(f"  modes registered: {diag.registry.n_modes}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    try:
        dims = tuple(int(tok) for tok in args.dims.split(",") if tok.strip())
        shape = (SkewShape(alpha=args.alpha) if args.shape == "skew"
                 else GaussianShape())
        cfg = ScalingExperimentConfig(shape=shape, ell=args.ell, dims=dims,
                                      samples=args.samples, seed=args.seed)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    rows = scaling_experiment(cfg)
    header = "d,beta,observed_rate,mc_stderr,predicted_rate"
    lines = [header] + [
        f"{r.d},{r.beta!r},{r.observed_rate!r},{r.mc_stderr!r},"
        f"{r.predicted_rate!r}" for r in rows]
    print("\n".join(lines))
    if args.out:
        prepare_out_dir(args.out)
        path = os.path.join(args.out, "scaling.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_sur_fit(args: argparse.Namespace) -> int:
    first_years = args.first_years if args.first_years > 0 else None
    try:
        if args.csv:
            data = load_sur_csv(args.csv, first_years=first_years)
        else:
            data = load_grunfeld(first_years=first_years)
    except (SurParseError, OSError) as err:
        raise ConfigError(f"cannot load panel data: {err}") from err
    try:
        result = zellner_iterate(data, tol=args.tol, max_iter=args.max_iter)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    loglik = result.trajectory[-1]
    print(f"iterations: {result.iterations}")
    print(f"log-likelihood: {loglik:.7f}")
    print(f"converged: {result.converged}")
    if args.out:
        prepare_out_dir(args.out)
        path = os.path.join(args.out, "sur_fit.json")
        write_json(path, {
            "iterations": result.iterations,
            "log_likelihood": float(loglik),
            "converged": result.converged,
            "theta": [float(v) for v in result.theta],
            "sigma": [[float(v) for v in row] for row in result.sigma],
            "trajectory": [float(v) for v in result.trajectory],
        })
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (NumericalAbort, EnvelopeViolationError,
            UnidentifiableSystemError) as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
