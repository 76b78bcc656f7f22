"""Command-line front end.

``sim`` runs an experiment sweep and writes one aggregated record per sweep
point and metric; ``allocate`` solves one bit-allocation instance;
``precode`` writes the per-drop rows of the ``sim se`` sweep, the samples
that ``sim se`` averages.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from . import allocation
from .config import ScenarioConfig, config_from_mapping, load_config
from .harness import SE_METRICS, emit_csv, run_experiment, se_axes, se_samples


def _load_scenario(args) -> ScenarioConfig:
    paper_scale = getattr(args, "paper_scale", False)
    cfg = (load_config(args.config, paper_scale=paper_scale) if args.config
           else config_from_mapping({}, paper_scale=paper_scale))
    given = {key: getattr(args, key, None) for key in ("seed", "workers")}
    return cfg.replace(**{key: value for key, value in given.items() if value is not None})


def _check_out(path: str) -> None:
    """Raise the OSError that writing the CSV to ``path`` would raise, before
    the campaign runs; ``path`` is left as it was."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _cmd_sim(args) -> int:
    cfg = _load_scenario(args)
    _check_out(args.out)
    records = run_experiment(args.experiment, cfg)
    emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_allocate(args) -> int:
    weights = [float(tok) for tok in args.weights.split(",") if tok.strip()]
    bits = (allocation.allocate_bits("greedy", weights, [args.budget])[0]
            if args.method == "greedy" else allocation.allocate_bruteforce(weights, args.budget))
    print(json.dumps({
        "weights": weights,
        "budget": args.budget,
        "method": args.method,
        "bits": bits.tolist(),
        "objective": float(np.asarray(weights) @ allocation.nmmse(bits)),
    }))
    return 0


def _cmd_precode(args) -> int:
    cfg = _load_scenario(args)
    _check_out(args.out)
    axes = se_axes(cfg)
    samples = se_samples(cfg)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("drop", *(name for name, _ in axes), *SE_METRICS, "iterations"))
        for drop, *point in np.ndindex(samples.shape[:-1]):
            true_se, lower_bound, iterations = samples[(drop, *point)]
            writer.writerow([drop, *(values[i] for (_, values), i in zip(axes, point)),
                             float(true_se), float(lower_bound), int(iterations)])
    print(f"wrote {samples[..., 0].size} records to {args.out}")
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
    sim.add_argument("--workers", type=int,
                     help="threads over `sim se` blocks of drops; delta and mse ignore it")
    sim.add_argument("--paper-scale", action="store_true",
                     help="use the full-scale reference scenario sizes")
    sim.set_defaults(func=_cmd_sim)

    alloc = sub.add_parser("allocate", help="solve one bit-allocation instance")
    alloc.add_argument("--weights", required=True,
                       help="comma-separated per-path squared gains")
    alloc.add_argument("--budget", type=int, required=True)
    alloc.add_argument("--method", choices=("greedy", "bruteforce"), default="greedy")
    alloc.set_defaults(func=_cmd_allocate)

    pre = sub.add_parser("precode", help="per-drop records of the `sim se` sweep")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
