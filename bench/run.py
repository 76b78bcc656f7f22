"""Campaign benchmark for `fddlink sim`: end-to-end and per-layer metrics.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 bench/run.py --workload se_desk --seed 0 --seconds 28 --trace 0

The thread variables are those of the command in BENCHMARK.json; the run
records them but does not set them (bench/NOTES.md says why they are 1).

Each campaign is a fresh interpreter (bench/campaign.py) calling
``fddlink.cli.main(["sim", ...])`` at the program's default worker count.
Campaigns repeat, each on its own simulation seed derived from ``--seed``,
until ``--seconds`` have passed.  Every CSV is checked (see check_output);
a campaign that raises, exits non-zero or fails the check is a failed run.

--trace 0 reports the end-to-end metrics; --trace 1 pairs each untraced
campaign with a traced one on the same inputs, runs the worker-model probe,
and reports the per-layer metrics.  The last stdout line is one JSON object;
a fuller record with the environment goes to .bench_out/.
See bench/NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from campaign import FROM_RECONSTRUCTIONS, TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = {"se_desk": "se", "se_paper": "se", "csi_sweep": "delta", "dft_zf": "se"}
DEFAULT_SEED = 0
# Simulation seeds per run: campaign j of run seed s uses seed s*16 + j%16,
# so runs never share inputs and reference CSVs exist for every campaign of
# the default seed.
SEEDS_PER_RUN = 16
# A run stops waiting for children after this long, so it ends well within
# three minutes even if a campaign hangs.
RUN_LIMIT_S = 165
# A differing mean passes when within this many reference standard errors.
STDERR_TOL = 4.0
PROBE_WORKERS = 2
# Extra interpreters per untraced run that stop where the campaign would
# begin; setup_s is the median over them and the campaigns.
SETUP_PROBES = 8

CSV_COLUMNS = ("experiment", "n_antennas", "n_users", "n_paths", "b_tot",
               "power_dbm", "method", "metric", "mean", "std_err", "trials")
KEY_WIDTH = 8  # leading columns naming the sweep coordinate of a record

TRACED_FUNCTIONS = tuple(f"{layer}.{fn}" for layer, names in TRACED.items()
                         for fn in names) + (FROM_RECONSTRUCTIONS,)

END_TO_END = {"drops_per_s": "drops/s", "setup_s": "s", "peak_rss_mb": "MiB"}
GPIP_EXTRAS = {"iters_mean": "iter", "iters_p90": "iter", "converged_share": "fraction",
               "ms_per_iter": "ms", "solve_ms_p50": "ms", "solve_ms_p90": "ms"}
PER_LAYER = {
    **{f"{fn}.{kind}": unit for fn in TRACED_FUNCTIONS
       for kind, unit in (("calls", "count"), ("self_s", "s"), ("share", "fraction"))},
    **{f"precoding.gpip_solve.{name}": unit for name, unit in GPIP_EXTRAS.items()},
    # computed from array sizes, not measured
    "precoding.cov_stack_bytes": "B_computed",
    "feedback.dft_codebook_bytes": "B_computed",
    "harness.self_s": "s",
    "harness.workers2_speedup": "ratio",
    "trace.overhead": "ratio",
}


# ---------------------------------------------------------------------------
# output check


def sim_seed(seed: int, j: int) -> int:
    """Simulation seed of campaign j in a run with the given --seed."""
    return seed * SEEDS_PER_RUN + j % SEEDS_PER_RUN


def reference_path(workload: str, seed: int) -> Path:
    return BENCH / "reference" / workload / f"{seed}.csv"


def _records(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ValueError(f"header is not {','.join(CSV_COLUMNS)}")
    return rows[1:]


def check_output(text: str, expected_keys: list[tuple], trials: int,
                 reference: str | None = None) -> list[str]:
    """Problems found in one campaign CSV; an empty list means it passes.

    Always: the records cover exactly the expected sweep coordinates, every
    mean and standard error is finite and non-negative (MSE, delta and SE
    are all >= 0), and the trials column matches.  With a reference (the
    default seed) the CSV passes when byte-identical; otherwise each mean
    must lie within STDERR_TOL reference standard errors, so that a solver
    change that moves results slightly can still pass.
    """
    try:
        body = _records(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    keys = [tuple(r[:KEY_WIDTH]) for r in body]
    if keys != expected_keys:
        problems.append(f"{len(keys)} records do not match the "
                        f"{len(expected_keys)} expected sweep coordinates")
    for r in body:
        where = "/".join(r[:KEY_WIDTH])
        mean, err = float(r[8]), float(r[9])
        if not (math.isfinite(mean) and math.isfinite(err)):
            problems.append(f"{where}: non-finite mean or std_err")
        elif mean < 0 or err < 0:
            problems.append(f"{where}: negative mean or std_err")
        if r[10] != str(trials):
            problems.append(f"{where}: trials column {r[10]} != {trials}")
    if reference is not None and text != reference and not problems:
        for r, ref in zip(body, _records(reference)):
            mean, ref_mean, ref_err = float(r[8]), float(ref[8]), float(ref[9])
            if abs(mean - ref_mean) > STDERR_TOL * ref_err + 1e-12 * abs(ref_mean):
                problems.append(f"{'/'.join(r[:KEY_WIDTH])}: mean {mean} vs reference "
                                f"{ref_mean} +- {ref_err}")
    return problems


# ---------------------------------------------------------------------------
# campaigns


class Runner:
    """Runs campaigns of one workload in fresh processes and checks each CSV."""

    def __init__(self, workload: str, seed: int, work: Path, drops: int | None):
        self.workload = workload
        self.seed = seed
        self.work = work
        cfg = BENCH / "workloads" / f"{workload}.cfg"
        lines = cfg.read_text().splitlines()
        if drops is not None:  # smoke runs only: shrink the campaign
            lines = [ln for ln in lines if not ln.strip().startswith("trials")]
            lines.append(f"trials = {drops}")
            cfg = work / f"{workload}.cfg"
            cfg.write_text("\n".join(lines) + "\n")
        self.config = cfg
        self.trials = next(int(ln.split("=")[1]) for ln in lines
                           if ln.strip().startswith("trials"))
        keys_from = reference_path(workload, sim_seed(DEFAULT_SEED, 0))
        self.expected_keys = [tuple(r[:KEY_WIDTH]) for r in _records(keys_from.read_text())]
        self.compare = seed == DEFAULT_SEED and drops is None
        self.campaigns: list[dict] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, j: int, mode: str = "plain", workers: int | None = None) -> dict:
        """One child process: a campaign (plain or traced) or a setup probe."""
        seed = sim_seed(self.seed, j)
        tag = f"{len(self.campaigns)}"
        out, result = self.work / f"{tag}.csv", self.work / f"{tag}.json"
        cli = ["sim", WORKLOADS[self.workload], "--config", str(self.config),
               "--out", str(out), "--seed", str(seed)]
        if workers is not None:
            cli += ["--workers", str(workers)]
        rec = {"mode": mode, "sim_seed": seed, "workers": workers,
               "drops": self.trials, "problems": []}
        self.campaigns.append(rec)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "campaign.py"), str(result), repr(t0),
                 mode, "--", *cli],
                cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            rec["problems"].append(f"killed: run exceeded {RUN_LIMIT_S} s")
            return rec
        if proc.returncode != 0 or not result.exists():
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            rec["problems"].append(f"exit code {proc.returncode}: {tail}")
            return rec
        rec.update(json.loads(result.read_text()))
        if mode == "setup":
            return rec
        rec["csv"] = out.read_text()
        reference = reference_path(self.workload, seed) if self.compare else None
        if reference is not None and not reference.exists():
            rec["problems"].append(f"missing reference {reference.relative_to(ROOT)}")
            reference = None
        rec["problems"] += check_output(rec["csv"], self.expected_keys, self.trials,
                                        reference.read_text() if reference else None)
        return rec

    @property
    def failed(self) -> int:
        return sum(1 for c in self.campaigns if c["problems"])


def _timed(campaigns) -> list[dict]:
    return [c for c in campaigns if "campaign_s" in c]


def end_to_end(runner: Runner) -> dict:
    done = _timed(runner.campaigns)
    # medians over the run's campaigns, so a stretch of time in which the
    # shared host runs slow moves the figure less than a pooled mean would
    return {
        "drops_per_s": statistics.median(c["drops"] / c["campaign_s"] for c in done),
        "setup_s": statistics.median(c["setup_s"] for c in runner.campaigns
                                     if "setup_s" in c),
        "peak_rss_mb": statistics.median(c["maxrss_kib"] for c in done) / 1024.0,
    }


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def per_layer(plain: list[dict], traced: list[dict], probe: dict) -> dict:
    """Per-campaign means of the traced campaigns, plus the probes."""
    n = len(traced)
    wall = sum(c["campaign_s"] for c in traced)
    metrics = {}
    total_self = 0.0
    for fn in TRACED_FUNCTIONS:
        calls = sum(c["trace"]["functions"].get(fn, (0, 0.0))[0] for c in traced)
        self_s = sum(c["trace"]["functions"].get(fn, (0, 0.0))[1] for c in traced)
        total_self += self_s
        metrics[f"{fn}.calls"] = calls / n
        metrics[f"{fn}.self_s"] = self_s / n
        metrics[f"{fn}.share"] = self_s / wall
    solves = [s for c in traced for s in c["trace"]["gpip"]]
    iters = [s[0] for s in solves]
    solve_ms = [1e3 * s[2] for s in solves]
    gpip = "precoding.gpip_solve"
    metrics.update({
        f"{gpip}.iters_mean": statistics.fmean(iters) if solves else 0.0,
        f"{gpip}.iters_p90": _quantile(iters, 0.9) if solves else 0.0,
        f"{gpip}.converged_share":
            sum(s[1] for s in solves) / len(solves) if solves else 0.0,
        f"{gpip}.ms_per_iter": sum(solve_ms) / sum(iters) if solves else 0.0,
        f"{gpip}.solve_ms_p50": statistics.median(solve_ms) if solves else 0.0,
        f"{gpip}.solve_ms_p90": _quantile(solve_ms, 0.9) if solves else 0.0,
        "precoding.cov_stack_bytes": max(c["trace"]["cov_stack_bytes"] for c in traced),
        "feedback.dft_codebook_bytes":
            max(c["trace"]["dft_codebook_bytes"] for c in traced),
        "harness.self_s": (wall - total_self) / n,
        "harness.workers2_speedup": plain[0]["campaign_s"] / probe["campaign_s"],
        "trace.overhead": wall / sum(c["campaign_s"] for c in plain),
    })
    return metrics


# ---------------------------------------------------------------------------
# environment record


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Campaigns until about ``seconds`` have passed, then the metrics.

    A new campaign (or traced pair) starts only while the run is expected
    to end nearer to ``seconds`` than half a campaign past it.
    """
    if not trace:
        for _ in range(SETUP_PROBES):
            runner.run(0, mode="setup")
    start = time.monotonic()
    plain, traced = [], []
    while not runner.failed:
        plain.append(runner.run(len(plain)))
        if trace:
            traced.append(runner.run(len(traced), mode="trace"))
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * elapsed / len(plain) >= seconds:
            break
    if not _timed(plain):
        return {}
    if not trace:
        return end_to_end(runner)
    # worker-model probe: the inputs of campaign 0 at min(2, nproc) workers;
    # the CSV must not depend on the worker count
    probe = runner.run(0, workers=min(PROBE_WORKERS, len(os.sched_getaffinity(0))))
    if "csv" in probe and "csv" in plain[0] and probe["csv"] != plain[0]["csv"]:
        probe["problems"].append(f"CSV differs between 1 and {probe['workers']} workers")
    pairs = [(p, t) for p, t in zip(plain, traced) if "campaign_s" in p and "campaign_s" in t]
    if not pairs or "campaign_s" not in probe or "campaign_s" not in plain[0]:
        return {}
    return per_layer([p for p, _ in pairs], [t for _, t in pairs], probe)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--drops", type=int,
                        help="override the campaign's drop count (smoke runs only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "fddlink" / "cli.py").is_file():
        print(f"error: no fddlink sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        runner = Runner(args.workload, args.seed, work, args.drops)
        metrics = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = len(runner.campaigns), runner.failed
    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "drops_override": args.drops,
        "environment": environment(args.seed),
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "campaigns": [{k: v for k, v in c.items() if k != "csv"}
                      for c in runner.campaigns],
    }
    result_file = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    for c in runner.campaigns:
        for problem in c["problems"][:5]:
            print(f"FAILED sim seed {c['sim_seed']}: {problem}")
    if not metrics:
        print("error: no campaign completed; see " + str(result_file.relative_to(ROOT)),
              file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name:58s} {value:14.6g} {units[name]}")
    print(f"{'error_rate':58s} {failed / attempted:14.6g} failed/attempted "
          f"({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
