"""Seeded Monte Carlo experiment campaigns with CSV output.

Every experiment is a pure function of (config, master seed): per-trial RNG
streams are derived by hashing (seed, trial index), so results do not depend
on execution order or worker count.  Records carry a mean, its standard
error, and the sample count for every sweep coordinate and method.

CSI is built for a stack of path sets and the whole budget grid in one
pass: one allocation, one feedback plan and one reconstruction for all of
them, whose leading axes are the path sets and the budgets.  `sim se`
stacks a scene's K users, and `sim delta` and `sim mse` run their trials in
blocks and stack a block's path sets, so one pass serves a block and path
count (`sim delta`) or allocator (`sim mse`).  Each CSI source hands the
precoders one N x K x R stack of the users' reconstruction factors, with a
leading budget axis for the sources that depend on the budget.  The SE
sweep runs drops in blocks of consecutive trials: each drop scores its ZF
and WMMSE points on the spot and queues its GPIP problems, and the block's
queue is solved in one lockstep gpip_solve_batch call (se_samples).
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import allocation, channel, feedback, precoding, reconstruction
from .config import ALLOCATORS, SE_METHODS, ScenarioConfig

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


def _run_blocks(cfg: ScenarioConfig, block_fn, size: int, workers: int | None = None) -> np.ndarray:
    """Evaluate block_fn on consecutive blocks of ``size`` trials.

    A block is a list of (trial, rng) pairs, and block_fn returns one output
    per pair; outputs stack in trial order.  Workers map over blocks, and a
    block holds at least one trial and no more than ceil(trials / workers),
    so every worker has a block.
    """
    workers = cfg.workers if workers is None else workers
    size = max(1, min(size, math.ceil(cfg.trials / workers)))
    trials = [(t, np.random.default_rng(derive_trial_seed(cfg.seed, t))) for t in range(cfg.trials)]
    blocks = [trials[i:i + size] for i in range(0, len(trials), size)]
    if workers <= 1:
        results = [block_fn(block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(block_fn, blocks))
    return np.stack([out for outs in results for out in outs])


def _mean_and_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = samples.mean(axis=0)
    n = samples.shape[0]
    if n > 1:
        std_err = samples.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        std_err = np.zeros_like(mean)
    return mean, std_err


def _records(experiment: str, cfg: ScenarioConfig, samples: np.ndarray, axes,
             **fixed) -> list:
    """One record per sweep point of the per-trial ``samples``.

    ``axes`` pairs each sample axis after the trial axis, in order, with the
    record field it sweeps and that field's values; the last pair names the
    metrics.  An axis may hold more slots than values, and the extra ones
    are not recorded.  ``fixed`` sets the fields that no axis sweeps.
    """
    mean, std_err = _mean_and_stderr(samples)
    records = []
    for idx in np.ndindex(*(len(values) for _, values in axes)):
        point = {name: values[i] for (name, values), i in zip(axes, idx)}
        records.append(ExperimentRecord(
            experiment=experiment, **fixed, **point, mean=float(mean[idx]),
            std_err=float(std_err[idx]), trials=cfg.trials))
    return records


# ---------------------------------------------------------------------------
# the drop pipeline shared by every experiment


def _draw_scene(cfg: ScenarioConfig, rng):
    """True paths of the cfg.n_users users and the base station's estimates of
    them, each one PathSet stacking the users, (K, L)."""
    scene = channel.PathSet.stack(channel.draw_scene(cfg, rng))
    if cfg.aoa_sigma == 0 and cfg.gain_rel_sigma == 0:
        return scene, scene
    return scene, channel.perturb_estimates(scene, cfg.aoa_sigma, cfg.gain_rel_sigma, rng)


def _csi_pass(ps, strategy: str, budgets, geom):
    """Feedback and MMSE estimate of path sets at every budget, in one pass.

    The estimates are the true paths.  For path sets stacked (..., L),
    returns the feedback plan (bits (..., budgets, L)), A (..., 1, N, L),
    betas (..., 1, L), etas (..., budgets, L), h (..., 1, N) and hhat
    (..., budgets, N).  One steering matrix and one eta per path set and
    budget serve the channel, the estimate and any norm of them.
    """
    bits = allocation.allocate_bits(strategy, ps.betas**2, budgets)
    fp = feedback.make_feedback_plan(ps, bits, geom)
    a = channel.steering_matrix(ps.thetas, geom.lambda_dl, geom)[..., None, :, :]
    betas = ps.betas[..., None, :]
    etas = allocation.eta(fp.bits)
    h = channel.superpose(a, channel.dl_path_gains(ps, geom)[..., None, :])
    return fp, a, betas, etas, h, reconstruction.mmse_estimate(a, betas, etas, fp.q_values)


# Working set of one block of a `sim delta` or `sim mse` pass.  The largest
# arrays of a `sim delta` pass are the outer-error Gram step's U = [h | hhat | A]
# and its conjugate, two complex (trials, budgets, N, L+2) arrays, and a block
# holds as many trials as fit both in DELTA_BLOCK_BYTES.  On the csi_sweep
# workload (N=64, L up to 8, 8 budgets: 160 KiB per trial), one BLAS thread of
# a 2-vCPU Xeon VM, one path set per pass ran 388-516 drops/s at a peak RSS of
# 38.2-38.5 MiB, which the campaign's imports set.  Blocks of 2 trials ran
# 743-787 drops/s at -0.2 to 0.0 MiB against it, 3 ran 739-960 at +0.1 MiB and
# 4 ran 928-1024 at +0.2 to +0.5 MiB, so blocks of 3 keep the working set under
# the import peak.
DELTA_BLOCK_BYTES = 512 * 1024


def _block_trials(cfg: ScenarioConfig, paths: int) -> int:
    """Trials of ``paths`` paths whose Gram-step arrays DELTA_BLOCK_BYTES holds."""
    return DELTA_BLOCK_BYTES // (2 * len(cfg.b_tot_grid) * cfg.n_antennas * (paths + 2) * 16)


# ---------------------------------------------------------------------------
# reconstruction-MSE experiment


def run_mse_experiment(cfg: ScenarioConfig, workers: int | None = None) -> list:
    """Per-user reconstruction MSE versus the total feedback budget.

    For each budget and each allocation strategy the closed-form expected MSE
    and the realized Monte Carlo squared error are both aggregated.  Trials
    run in blocks (_block_trials), and a block stacks its trials' path sets
    and runs one CSI pass per strategy (_csi_pass).  A path set's errors do
    not depend on its block, so neither block size nor worker count changes
    the output.
    """
    geom = cfg.geometry()
    b_grid = cfg.b_tot_grid

    def block(trials):
        ps = channel.PathSet.stack([channel.draw_user_paths(cfg, rng) for _, rng in trials])
        out = np.empty((len(trials), len(b_grid), len(ALLOCATORS), 2))
        for si, strategy in enumerate(ALLOCATORS):
            fp, _, _, _, h, hhat = _csi_pass(ps, strategy, b_grid, geom)
            out[:, :, si, 0] = allocation.theoretical_weighted_mse(ps.betas, fp.bits,
                                                                   geom.num_antennas)
            out[:, :, si, 1] = np.sum(np.abs(h - hhat) ** 2, axis=-1)
        return out

    size = _block_trials(cfg, cfg.n_paths)
    return _records("mse", cfg, _run_blocks(cfg, block, size, workers),
                    (("b_tot", b_grid), ("method", ALLOCATORS),
                     ("metric", ("mse_closed_form", "mse_monte_carlo"))),
                    n_antennas=cfg.n_antennas, n_users=1, n_paths=cfg.n_paths,
                    power_dbm=cfg.power_dbm_grid[0])


# ---------------------------------------------------------------------------
# outer-product approximation-error experiment


def _delta_norms(ps, strategy: str, budgets, geom) -> np.ndarray:
    """Both outer-product error norms of path sets at every budget, from one
    CSI pass (_csi_pass).

    For path sets stacked (..., L), returns (..., budgets, 2): the realized
    (1/N^2)*||Delta||_F^2 and its large-array limit at the realized phase
    errors.
    """
    fp, a, betas, etas, h, hhat = _csi_pass(ps, strategy, budgets, geom)
    return np.stack((reconstruction.outer_error_norm(h, hhat, a, betas, etas),
                     reconstruction.asymptotic_delta_norm(betas, etas, fp.deltas)), axis=-1)


def run_delta_experiment(cfg: ScenarioConfig, workers: int | None = None) -> list:
    """Normalized outer-product approximation error versus budget and path count.

    Emits the realized (1/N^2)*||Delta||_F^2 alongside the large-array
    closed-form value evaluated at the same realized quantization errors.
    Trials run in blocks of consecutive trials, and workers map over blocks.
    Each trial draws one path set per path count, in l_grid order, from its
    own stream; a block stacks its trials' path sets of each path count and
    computes both norms for all of them and every budget in one pass
    (_delta_norms).  The block size comes from the sweep's sizes and its
    largest path count (_block_trials).  A path set's norms do not depend on
    its block, so neither block size nor worker count changes the output.
    """
    geom = cfg.geometry()
    b_grid = cfg.b_tot_grid
    l_grid = cfg.l_grid
    cfgs_by_l = {L: cfg.replace(n_paths=L, l_grid=(L,)) for L in l_grid}

    def block(trials):
        out = np.empty((len(trials), len(l_grid), len(b_grid), 2))
        for li, L in enumerate(l_grid):
            ps = channel.PathSet.stack([channel.draw_user_paths(cfgs_by_l[L], rng)
                                        for _, rng in trials])
            out[:, li] = _delta_norms(ps, cfg.allocator, b_grid, geom)
        return out

    size = _block_trials(cfg, max(l_grid))
    return _records("delta", cfg, _run_blocks(cfg, block, size, workers),
                    (("n_paths", l_grid), ("b_tot", b_grid),
                     ("metric", ("delta_norm_emp", "delta_norm_asym"))),
                    n_antennas=cfg.n_antennas, n_users=1,
                    power_dbm=cfg.power_dbm_grid[0], method=cfg.allocator)


# ---------------------------------------------------------------------------
# sum-spectral-efficiency experiment


SE_METRICS = ("true_sum_se", "se_lower_bound")
# CSI sources that depend on the feedback budget; the others ignore it
_PER_BUDGET = ("mmse", "dft")


def _build_csi(source: str, cfg: ScenarioConfig, scene, ests, h_true, geom) -> np.ndarray:
    """The users' reconstruction factors from one CSI source, stacked N x K x R.

    ``scene`` and ``ests`` stack the K users' true and estimated path sets,
    and ``h_true`` is the N x K true channel.  "mmse" and "dft" depend on
    the budget and are built for the whole grid at once, (budgets, N, K, R);
    the MMSE and no-feedback factors of all K users are one pass.  Column 0
    of each factor is the estimate; MMSE and no-feedback factors carry L
    error columns, DFT and perfect CSI none.
    """
    if source == "mmse":
        # bits over the estimated powers, feedback of the true DL phases
        bits = allocation.allocate_bits(cfg.allocator, ests.betas**2, cfg.b_tot_grid)
        fp = feedback.make_feedback_plan(scene, bits, geom)
        factors = reconstruction.reconstruct_mmse(ests, fp, geom)
        return np.ascontiguousarray(np.moveaxis(factors, 0, 2))
    if source == "no_feedback":
        factors = reconstruction.reconstruct_no_feedback(ests, geom)
        return np.ascontiguousarray(np.moveaxis(factors, 0, 1))
    if source == "dft":
        return np.stack([np.column_stack([feedback.dft_codebook_feedback(h, b, geom)[1]
                                          for h in h_true.T])
                         for b in cfg.b_tot_grid])[..., None]
    # "perfect": the true channel, with no estimation error
    return h_true[:, :, None]


def _zf_columns(hhat: np.ndarray, hhat_nf: np.ndarray) -> np.ndarray:
    """Estimate columns; users without any feedback fall back to their
    geometry-only estimate in ``hhat_nf`` so zero-forcing stays defined at
    zero budget."""
    cols = hhat.copy()
    norms = np.linalg.norm(cols, axis=0)
    floor = 1e-12 * max(float(norms.max()), 1e-300)
    for k in np.nonzero(norms <= floor)[0]:
        cols[:, k] = hhat_nf[:, k]
    return cols


def _se_scene(cfg: ScenarioConfig, trial: int, scene, ests, geom, out: np.ndarray,
              queue: list) -> None:
    """Fill out[power, budget, method] for one drawn scene at one array size.

    ``scene`` and ``ests`` stack the users' true and estimated path sets.

    Methods whose CSI ignores the budget run once per power, ahead of the
    budget loop.  Each CSI source's factor stack (_build_csi) is built when a
    method first needs it, for the whole budget grid at once, and serves
    every power.  ZF and WMMSE points are evaluated on the spot.  A GPIP
    point only builds its PrecodingProblem there and appends (label, out
    slot, problem, true channel) to ``queue`` in evaluation order;
    se_samples solves the queue (_solve_queue).  A failure is raised at
    once, named by the seed, trial, point and method.
    """
    h_true = np.ascontiguousarray(channel.dl_channel(scene, geom).T)
    sigma2 = np.full(cfg.n_users, cfg.noise_watts)
    csi = {}

    def factors(source):
        if source not in csi:
            csi[source] = _build_csi(source, cfg, scene, ests, h_true, geom)
        return csi[source]

    def evaluate(method, pdbm, bi, slot):
        source, precoder, use_cov = SE_METHODS[method]
        label = (f"seed {cfg.seed}, trial {trial}, n_antennas {geom.num_antennas}, "
                 f"n_paths {len(scene)}, power_dbm {pdbm}, b_tot {cfg.b_tot_grid[bi]}, "
                 f"method {method}")
        try:
            stack = factors(source)[bi] if source in _PER_BUDGET else factors(source)
            pp = precoding.PrecodingProblem(factors=stack if use_cov else stack[..., :1],
                                            sigma2=sigma2, power=cfg.power_watts(pdbm))
            if precoder == "gpip":
                queue.append((label, out[slot], pp, h_true))
                return
            if precoder == "zf":
                hhat_nf = factors("no_feedback")[..., 0]
                w = precoding.zf_precoder(_zf_columns(pp.hhat, hhat_nf))
            else:
                w = precoding.wmmse_precoder(h_true, pp)
            out[slot] = (precoding.true_sum_se(w, h_true, pp),
                         precoding.sum_se_lower_bound(w, pp), 0)
        except ValueError as exc:
            raise type(exc)(f"{exc} ({label})") from exc

    per_budget = [SE_METHODS[m][0] in _PER_BUDGET for m in cfg.se_methods]
    for pi, pdbm in enumerate(cfg.power_dbm_grid):
        for mi, method in enumerate(cfg.se_methods):
            if not per_budget[mi]:
                evaluate(method, pdbm, 0, (pi, slice(None), mi))
    for bi in range(len(cfg.b_tot_grid)):
        for pi, pdbm in enumerate(cfg.power_dbm_grid):
            for mi, method in enumerate(cfg.se_methods):
                if per_budget[mi]:
                    evaluate(method, pdbm, bi, (pi, bi, mi))


def _solve_queue(cfg: ScenarioConfig, queue: list, failure: ValueError | None) -> None:
    """Solve every queued GPIP point in one gpip_solve_batch call and score it.

    ``failure`` is the inline failure that stopped the queue, if any: the
    queued points all precede it in evaluation order, so the first of them
    that fails is reported instead of it.
    """
    gcfg = precoding.GpipConfig(epsilon=cfg.gpip_epsilon, max_iter=cfg.gpip_max_iter)
    try:
        results = precoding.gpip_solve_batch([pp for _, _, pp, _ in queue], gcfg)
    except precoding.GpipError as exc:
        raise type(exc)(f"{exc.reason} ({queue[exc.problem][0]})") from exc
    if failure is not None:
        raise failure
    for (_, slot, pp, h_true), result in zip(queue, results):
        slot[...] = (precoding.true_sum_se(result.f, h_true, pp),
                     precoding.sum_se_lower_bound(result.f, pp), result.iterations)


# GPIP problems per gpip_solve_batch call that a block of drops aims for.  A
# lockstep batch pays each step's numpy call overhead once for all of its
# problems.  Per robust problem, on one BLAS thread of a 2-vCPU Xeon VM: at
# N=64, K=8 (se_desk) 16.7 ms alone, 6.6 ms in a batch of 4, 5.0 of 8, 4.3
# of 16 and 4.6 of 32; at N=256, K=16 (paper scale) 39 ms alone, 25 ms in a
# batch of 2 and 18 ms from 4 to 32.  Past 32 little is left to gain, and a
# block's queue stays about the size of one drop's or of 32 problems,
# whichever is larger.
GPIP_BATCH = 32


def _gpip_points_per_drop(cfg: ScenarioConfig) -> int:
    """GPIP points of one drop: per scene and power, one per budget of each
    budget-dependent GPIP method and one of each other GPIP method."""
    per_power = sum(len(cfg.b_tot_grid) if SE_METHODS[m][0] in _PER_BUDGET else 1
                    for m in cfg.se_methods if SE_METHODS[m][1] == "gpip")
    return len(cfg.n_grid) * len(cfg.l_grid) * len(cfg.power_dbm_grid) * per_power


def se_axes(cfg: ScenarioConfig) -> tuple:
    """The SE sweep's axes in se_samples order, each paired with its record field."""
    return (("n_antennas", cfg.n_grid), ("n_paths", cfg.l_grid),
            ("power_dbm", cfg.power_dbm_grid), ("b_tot", cfg.b_tot_grid),
            ("method", cfg.se_methods))


def se_samples(cfg: ScenarioConfig, workers: int | None = None) -> np.ndarray:
    """Per-drop SE outputs over the whole sweep.

    Shape (trials, n_grid, l_grid, power_dbm_grid, b_tot_grid, se_methods, 3),
    the se_axes after the trial axis; the last axis holds the two SE_METRICS
    and the GPIP iteration count (0 for other precoders).  Methods whose CSI
    source ignores the budget are computed once per (drop, N, L, power) and
    replicated across budgets.

    Drops run in blocks of consecutive trials, and workers map over blocks.
    Each drop of a block draws its scenes and scores its ZF and WMMSE points
    on the spot (_se_scene), and queues its GPIP points; the block's whole
    queue, every drop and every (L, N) scene, is then solved in one
    gpip_solve_batch call.  A block holds ceil(GPIP_BATCH / P) drops, P the
    GPIP points per drop, but no more than ceil(trials / workers), so every
    worker has a block, and one drop when P is 0.  A problem's result does
    not depend on its batch, so neither block size nor worker count changes
    the output.  A solver or ZF failure is re-raised with the seed, trial,
    sweep point and method that reproduce it: the lowest failing trial's,
    and within that trial the first failure in evaluation order.
    """
    cfgs_by_l = {L: cfg.replace(n_paths=L, l_grid=(L,)) for L in cfg.l_grid}
    shape = (*(len(values) for _, values in se_axes(cfg)), len(SE_METRICS) + 1)
    per_drop = _gpip_points_per_drop(cfg)
    size = 1 if per_drop == 0 else math.ceil(GPIP_BATCH / per_drop)

    def block(drops):
        outs, queue, failure = [], [], None
        try:
            for t, rng in drops:
                out = np.empty(shape)
                outs.append(out)
                for li, L in enumerate(cfg.l_grid):
                    scene, ests = _draw_scene(cfgs_by_l[L], rng)
                    for ni, n in enumerate(cfg.n_grid):
                        _se_scene(cfg, t, scene, ests, cfg.geometry(n), out[ni, li], queue)
        except ValueError as exc:
            failure = exc  # reported unless a GPIP point queued before it fails
        _solve_queue(cfg, queue, failure)
        return outs

    return _run_blocks(cfg, block, size, workers)


def run_se_experiment(cfg: ScenarioConfig, workers: int | None = None) -> list:
    """Ergodic sum spectral efficiency over drops for each configured method.

    Sweeps the cross product of the antenna, path-count, power, and budget
    grids (see se_samples).
    """
    return _records("se", cfg, se_samples(cfg, workers),
                    (*se_axes(cfg), ("metric", SE_METRICS)), n_users=cfg.n_users)


EXPERIMENTS = {
    "mse": run_mse_experiment,
    "delta": run_delta_experiment,
    "se": run_se_experiment,
}


def run_experiment(kind: str, cfg: ScenarioConfig, workers: int | None = None) -> list:
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {kind!r}; choose from {tuple(EXPERIMENTS)}")
    return EXPERIMENTS[kind](cfg, workers)
