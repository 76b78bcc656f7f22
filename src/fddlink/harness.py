"""Seeded Monte Carlo experiment campaigns with CSV output.

Every experiment is a pure function of (config, master seed): per-trial RNG
streams are derived by hashing (seed, trial index), so results do not depend
on execution order or worker count.  Records carry a mean, its standard
error, and the sample count for every sweep coordinate and method.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import allocation, channel, feedback, precoding, reconstruction
from .config import SE_METHODS, ScenarioConfig

CSV_COLUMNS = ("experiment", "n_antennas", "n_users", "n_paths", "b_tot",
               "power_dbm", "method", "metric", "mean", "std_err", "trials")


@dataclass(frozen=True)
class ExperimentRecord:
    """One aggregated data point of an experiment sweep."""

    experiment: str
    n_antennas: int
    n_users: int
    n_paths: int
    b_tot: int
    power_dbm: float
    method: str
    metric: str
    mean: float
    std_err: float
    trials: int


def derive_trial_seed(master_seed: int, trial: int) -> np.random.SeedSequence:
    """Stable per-trial seed stream hashed from (master seed, trial index)."""
    return np.random.SeedSequence([int(master_seed), int(trial)])


def emit_csv(records, path) -> None:
    """Write records with a header row; formatting is bit-stable."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([
                r.experiment, r.n_antennas, r.n_users, r.n_paths, r.b_tot,
                str(float(r.power_dbm)), r.method, r.metric,
                str(float(r.mean)), str(float(r.std_err)), r.trials,
            ])


def _run_trials(cfg: ScenarioConfig, trial_fn, workers: int | None = None) -> np.ndarray:
    """Evaluate trial_fn(trial, rng) for every trial; stacking order is trial order."""
    workers = cfg.workers if workers is None else workers
    trials = range(cfg.trials)
    rngs = [np.random.default_rng(derive_trial_seed(cfg.seed, t)) for t in trials]
    if workers <= 1:
        results = [trial_fn(t, rng) for t, rng in zip(trials, rngs)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(trial_fn, trials, rngs))
    return np.stack(results)


def _mean_and_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = samples.mean(axis=0)
    n = samples.shape[0]
    if n > 1:
        std_err = samples.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        std_err = np.zeros_like(mean)
    return mean, std_err


# ---------------------------------------------------------------------------
# the drop pipeline shared by every experiment


def _allocate(strategy: str, weights, budget: int) -> tuple:
    if strategy == "none":
        return tuple(0 for _ in weights)
    problem = allocation.AllocationProblem(weights=tuple(weights), budget=budget)
    if strategy == "greedy":
        return allocation.allocate_greedy(problem).bits
    if strategy == "uniform":
        return allocation.allocate_uniform(problem).bits
    raise ValueError(f"unknown allocator {strategy!r}")


def _mmse_csi(ps, est, strategy: str, b_tot: int, geom):
    """One user's phase feedback and MMSE reconstruction at budget b_tot.

    Bits are allocated over the estimated path powers, the feedback quantizes
    the true DL phases of ``ps``, and the reconstruction uses the estimated
    geometry ``est``.  Returns (feedback plan, reconstructed channel).
    """
    bits = _allocate(strategy, est.betas**2, b_tot)
    fp = feedback.make_feedback_plan(ps, bits, geom)
    return fp, reconstruction.reconstruct_mmse(est, fp, geom)


def _draw_scene(cfg: ScenarioConfig, rng):
    """True per-user paths and the base station's estimates of them."""
    scene = channel.draw_scene(cfg, rng)
    if cfg.aoa_sigma == 0 and cfg.gain_rel_sigma == 0:
        return scene, scene
    noise = channel.EstimationNoise(cfg.aoa_sigma, cfg.gain_rel_sigma)
    return scene, [channel.perturb_estimates(ps, noise, rng) for ps in scene]


# ---------------------------------------------------------------------------
# reconstruction-MSE experiment


MSE_STRATEGIES = ("greedy", "uniform", "none")


def run_mse_experiment(cfg: ScenarioConfig, workers: int | None = None) -> list:
    """Per-user reconstruction MSE versus the total feedback budget.

    For each budget and each allocation strategy the closed-form expected MSE
    and the realized Monte Carlo squared error are both aggregated.
    """
    geom = cfg.geometry()
    b_grid = cfg.b_tot_grid

    def trial(t, rng):
        ps = channel.draw_user_paths(cfg, rng)
        h = channel.dl_channel(ps, geom)
        out = np.empty((len(b_grid), len(MSE_STRATEGIES), 2))
        for bi, b_tot in enumerate(b_grid):
            for si, strategy in enumerate(MSE_STRATEGIES):
                fp, rc = _mmse_csi(ps, ps, strategy, b_tot, geom)
                err = float(np.sum(np.abs(h - rc.hhat) ** 2))
                cf = allocation.theoretical_weighted_mse(ps.betas, fp.bits, geom.num_antennas)
                out[bi, si] = (cf, err)
        return out

    samples = _run_trials(cfg, trial, workers)
    mean, std_err = _mean_and_stderr(samples)
    records = []
    for bi, b_tot in enumerate(b_grid):
        for si, strategy in enumerate(MSE_STRATEGIES):
            for mi, metric in enumerate(("mse_closed_form", "mse_monte_carlo")):
                records.append(ExperimentRecord(
                    experiment="mse", n_antennas=cfg.n_antennas, n_users=1,
                    n_paths=cfg.n_paths, b_tot=b_tot,
                    power_dbm=cfg.power_dbm_grid[0], method=strategy,
                    metric=metric, mean=float(mean[bi, si, mi]),
                    std_err=float(std_err[bi, si, mi]), trials=cfg.trials))
    return records


# ---------------------------------------------------------------------------
# outer-product approximation-error experiment


def run_delta_experiment(cfg: ScenarioConfig, workers: int | None = None) -> list:
    """Normalized outer-product approximation error versus budget and path count.

    Emits the realized (1/N^2)*||Delta||_F^2 alongside the large-array
    closed-form value evaluated at the same realized quantization errors.
    """
    geom = cfg.geometry()
    b_grid = cfg.b_tot_grid
    l_grid = cfg.l_grid
    cfgs_by_l = {L: cfg.replace(n_paths=L, l_grid=(L,)) for L in l_grid}

    def trial(t, rng):
        out = np.empty((len(l_grid), len(b_grid), 2))
        for li, L in enumerate(l_grid):
            ps = channel.draw_user_paths(cfgs_by_l[L], rng)
            h = channel.dl_channel(ps, geom)
            for bi, b_tot in enumerate(b_grid):
                fp, rc = _mmse_csi(ps, ps, cfg.allocator, b_tot, geom)
                emp = reconstruction.outer_error_norm(h, rc.hhat, ps, fp.bits, geom)
                asym = reconstruction.asymptotic_delta_norm(ps.betas, fp.bits, fp.deltas)
                out[li, bi] = (emp, asym)
        return out

    samples = _run_trials(cfg, trial, workers)
    mean, std_err = _mean_and_stderr(samples)
    records = []
    for li, L in enumerate(l_grid):
        for bi, b_tot in enumerate(b_grid):
            for mi, metric in enumerate(("delta_norm_emp", "delta_norm_asym")):
                records.append(ExperimentRecord(
                    experiment="delta", n_antennas=cfg.n_antennas, n_users=1,
                    n_paths=L, b_tot=b_tot, power_dbm=cfg.power_dbm_grid[0],
                    method=cfg.allocator, metric=metric,
                    mean=float(mean[li, bi, mi]),
                    std_err=float(std_err[li, bi, mi]), trials=cfg.trials))
    return records


# ---------------------------------------------------------------------------
# sum-spectral-efficiency experiment


SE_METRICS = ("true_sum_se", "se_lower_bound")
# CSI sources rebuilt for every feedback budget; the others ignore the budget
_PER_BUDGET = ("mmse", "dft")


def _build_csi(source: str, b_tot: int, cfg: ScenarioConfig, scene, ests, h_true, geom):
    """Per-user reconstructions from one CSI source."""
    if source == "mmse":
        return [_mmse_csi(ps, est, cfg.allocator, b_tot, geom)[1]
                for ps, est in zip(scene, ests)]
    if source == "no_feedback":
        return [reconstruction.reconstruct_no_feedback(est, geom) for est in ests]
    if source == "dft":
        return [reconstruction.reconstruct_dft(
                    feedback.dft_codebook_feedback(h, b_tot, geom)[1], geom)
                for h in h_true.T]
    # "perfect": the true channel, with no estimation error
    return [reconstruction.ReconstructedChannel(hhat=h) for h in h_true.T]


def _zf_columns(hhat: np.ndarray, recs_nf) -> np.ndarray:
    """Estimate columns; users without any feedback fall back to the
    geometry-only estimate so zero-forcing stays defined at zero budget."""
    cols = hhat.copy()
    norms = np.linalg.norm(cols, axis=0)
    floor = 1e-12 * max(float(norms.max()), 1e-300)
    for k in np.nonzero(norms <= floor)[0]:
        cols[:, k] = recs_nf[k].hhat
    return cols


def _se_scene(cfg: ScenarioConfig, trial: int, scene, ests, geom, out: np.ndarray) -> None:
    """Fill out[power, budget, method] for one drawn scene at one array size.

    Methods whose CSI ignores the budget run once per power, ahead of the
    budget loop.  CSI is built when a method first needs it.  It does not
    depend on the power, so budgets loop outside powers: per-budget CSI is
    built once per budget and dropped before the next budget's is built.
    ZF and WMMSE points are evaluated on the spot.  A GPIP point only builds
    its PrecodingProblem there; once the loop ends, all of them are solved
    in one gpip_solve_batch call, which runs the problems of one factor shape
    in lockstep (robust and no-feedback GPIP have L + 1 columns per user,
    plain and DFT GPIP one).  A failure names the seed, trial, point and
    method; of several, the first in evaluation order is reported.
    """
    h_true = np.column_stack([channel.dl_channel(ps, geom) for ps in scene])
    sigma2 = np.full(cfg.n_users, cfg.noise_watts)
    csi = {}
    deferred = []  # (point, out slot, problem) of each GPIP point, in evaluation order

    def labelled(exc, reason, method, pdbm, b_tot):
        return type(exc)(
            f"{reason} (seed {cfg.seed}, trial {trial}, n_antennas {geom.num_antennas}, "
            f"n_paths {len(scene[0])}, power_dbm {pdbm}, b_tot {b_tot}, method {method})")

    def evaluate(method, pdbm, b_tot, slot):
        source, precoder, use_cov = SE_METHODS[method]
        try:
            for needed in (source, "no_feedback") if precoder == "zf" else (source,):
                if needed not in csi:
                    csi[needed] = _build_csi(needed, b_tot, cfg, scene, ests, h_true, geom)
            pp = precoding.PrecodingProblem.from_reconstructions(
                csi[source], power=cfg.power_watts(pdbm), sigma2=sigma2, use_cov=use_cov)
            if precoder == "gpip":
                deferred.append(((method, pdbm, b_tot), slot, pp))
                return
            if precoder == "zf":
                w = precoding.zf_precoder(_zf_columns(pp.hhat, csi["no_feedback"]))
            else:
                w = precoding.wmmse_precoder(h_true, pp)
            out[slot] = (precoding.true_sum_se(w, h_true, pp),
                         precoding.sum_se_lower_bound(w, pp), 0)
        except ValueError as exc:
            raise labelled(exc, exc, method, pdbm, b_tot) from exc

    failure = None
    per_budget = [SE_METHODS[m][0] in _PER_BUDGET for m in cfg.se_methods]
    try:
        for pi, pdbm in enumerate(cfg.power_dbm_grid):
            for mi, method in enumerate(cfg.se_methods):
                if not per_budget[mi]:
                    evaluate(method, pdbm, cfg.b_tot_grid[0], (pi, slice(None), mi))
        for bi, b_tot in enumerate(cfg.b_tot_grid):
            for source in _PER_BUDGET:
                csi.pop(source, None)
            for pi, pdbm in enumerate(cfg.power_dbm_grid):
                for mi, method in enumerate(cfg.se_methods):
                    if per_budget[mi]:
                        evaluate(method, pdbm, b_tot, (pi, bi, mi))
    except ValueError as exc:
        failure = exc  # reported unless a GPIP point queued before it fails
    csi.clear()

    gcfg = precoding.GpipConfig(epsilon=cfg.gpip_epsilon, max_iter=cfg.gpip_max_iter)
    try:
        results = precoding.gpip_solve_batch([pp for _, _, pp in deferred], gcfg)
    except precoding.GpipError as exc:
        raise labelled(exc, exc.reason, *deferred[exc.problem][0]) from exc
    if failure is not None:
        raise failure
    for (_, slot, pp), result in zip(deferred, results):
        out[slot] = (precoding.true_sum_se(result.f, h_true, pp),
                     precoding.sum_se_lower_bound(result.f, pp), result.iterations)


def se_samples(cfg: ScenarioConfig, workers: int | None = None) -> np.ndarray:
    """Per-drop SE outputs over the whole sweep.

    Shape (trials, n_grid, l_grid, power_dbm_grid, b_tot_grid, se_methods, 3);
    the last axis holds the two SE_METRICS and the GPIP iteration count (0
    for other precoders).  Methods whose CSI source ignores the budget are
    computed once per (drop, N, L, power) and replicated across budgets.  A
    solver or ZF failure is re-raised with the seed, trial, sweep point and
    method that reproduce it.
    """
    cfgs_by_l = {L: cfg.replace(n_paths=L, l_grid=(L,)) for L in cfg.l_grid}

    def trial(t, rng):
        out = np.empty((len(cfg.n_grid), len(cfg.l_grid), len(cfg.power_dbm_grid),
                        len(cfg.b_tot_grid), len(cfg.se_methods), len(SE_METRICS) + 1))
        for li, L in enumerate(cfg.l_grid):
            scene, ests = _draw_scene(cfgs_by_l[L], rng)
            for ni, n in enumerate(cfg.n_grid):
                _se_scene(cfg, t, scene, ests, cfg.geometry(n), out[ni, li])
        return out

    return _run_trials(cfg, trial, workers)


def run_se_experiment(cfg: ScenarioConfig, workers: int | None = None) -> list:
    """Ergodic sum spectral efficiency over drops for each configured method.

    Sweeps the cross product of the antenna, path-count, power, and budget
    grids (see se_samples).
    """
    mean, std_err = _mean_and_stderr(se_samples(cfg, workers))
    records = []
    for ni, n in enumerate(cfg.n_grid):
        for li, L in enumerate(cfg.l_grid):
            for pi, pdbm in enumerate(cfg.power_dbm_grid):
                for bi, b_tot in enumerate(cfg.b_tot_grid):
                    for mi, method in enumerate(cfg.se_methods):
                        for xi, metric in enumerate(SE_METRICS):
                            records.append(ExperimentRecord(
                                experiment="se", n_antennas=n,
                                n_users=cfg.n_users, n_paths=L, b_tot=b_tot,
                                power_dbm=pdbm, method=method, metric=metric,
                                mean=float(mean[ni, li, pi, bi, mi, xi]),
                                std_err=float(std_err[ni, li, pi, bi, mi, xi]),
                                trials=cfg.trials))
    return records


EXPERIMENTS = {
    "mse": run_mse_experiment,
    "delta": run_delta_experiment,
    "se": run_se_experiment,
}


def run_experiment(kind: str, cfg: ScenarioConfig, workers: int | None = None) -> list:
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {kind!r}; choose from {tuple(EXPERIMENTS)}")
    return EXPERIMENTS[kind](cfg, workers)
