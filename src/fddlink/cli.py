"""Command-line front end: experiment sweeps, bit allocation, and precoding."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys

from . import allocation
from .config import PAPER_SCALE_OVERRIDES, SE_METHODS, ConfigError, ScenarioConfig, load_config
from .harness import emit_csv, run_experiment, se_samples
from .precoding import GpipError


def _load_scenario(args) -> ScenarioConfig:
    paper_scale = getattr(args, "paper_scale", False)
    if args.config:
        cfg = load_config(args.config, paper_scale=paper_scale)
    else:
        cfg = ScenarioConfig()
        if paper_scale:
            cfg = cfg.replace(**PAPER_SCALE_OVERRIDES)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.replace(seed=args.seed)
    if getattr(args, "workers", None) is not None:
        cfg = cfg.replace(workers=args.workers)
    return cfg


def _cmd_sim(args) -> int:
    cfg = _load_scenario(args)
    records = run_experiment(args.experiment, cfg)
    emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_allocate(args) -> int:
    weights = tuple(float(tok) for tok in args.weights.split(",") if tok.strip())
    problem = allocation.AllocationProblem(weights=weights, budget=args.budget)
    solver = (allocation.allocate_greedy if args.method == "greedy"
              else allocation.allocate_bruteforce)
    result = solver(problem)
    print(json.dumps({
        "weights": list(weights),
        "budget": args.budget,
        "method": args.method,
        "bits": list(result.bits),
        "objective": result.objective,
    }))
    return 0


def _precode_method(precoder: str, reconstruction: str) -> str:
    """The `sim se` method that `precode` evaluates for (--method, reconstruction).

    WMMSE always runs on the true channel; GPIP uses the error covariance.
    """
    source = "perfect" if precoder == "wmmse" else reconstruction
    return next(name for name, row in SE_METHODS.items()
                if row == (source, precoder, precoder == "gpip"))


def _cmd_precode(args) -> int:
    cfg = _load_scenario(args)
    power_dbm = float(cfg.power_dbm_grid[0])
    point = cfg.replace(n_grid=(cfg.n_antennas,), l_grid=(cfg.n_paths,),
                        power_dbm_grid=(power_dbm,), b_tot_grid=(cfg.b_tot,),
                        se_methods=(_precode_method(args.method, cfg.reconstruction),))
    samples = se_samples(point).reshape(cfg.trials, -1)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("drop", "method", "reconstruction", "b_tot", "power_dbm",
                         "true_sum_se", "se_lower_bound", "iterations"))
        for drop, (true_se, lower_bound, iterations) in enumerate(samples):
            writer.writerow([drop, args.method, cfg.reconstruction, cfg.b_tot, power_dbm,
                             float(true_se), float(lower_bound), int(iterations)])
    print(f"wrote {cfg.trials} drops to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fddlink",
        description="FDD massive MIMO limited-feedback link simulator")
    parser.add_argument("--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("sim", help="run a Monte Carlo experiment sweep")
    sim.add_argument("experiment", choices=("mse", "delta", "se"))
    sim.add_argument("--config", help="scenario file (flat key = value text)")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--seed", type=int, help="override the master seed")
    sim.add_argument("--workers", type=int, help="trial-level parallelism")
    sim.add_argument("--paper-scale", action="store_true",
                     help="use the full-scale reference scenario sizes")
    sim.set_defaults(func=_cmd_sim)

    alloc = sub.add_parser("allocate", help="solve one bit-allocation instance")
    alloc.add_argument("--weights", required=True,
                       help="comma-separated per-path squared gains")
    alloc.add_argument("--budget", type=int, required=True)
    alloc.add_argument("--method", choices=("greedy", "bruteforce"), default="greedy")
    alloc.set_defaults(func=_cmd_allocate)

    pre = sub.add_parser("precode", help="per-drop precoding on drawn scenes")
    pre.add_argument("--method", choices=("gpip", "zf", "wmmse"), default="gpip")
    pre.add_argument("--config", help="scenario file (flat key = value text)")
    pre.add_argument("--out", required=True, help="output CSV path")
    pre.add_argument("--seed", type=int, help="override the master seed")
    pre.set_defaults(func=_cmd_precode)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (ConfigError, GpipError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
