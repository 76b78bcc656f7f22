"""Seeded Monte Carlo experiment campaigns with CSV output.

Every experiment is a pure function of (config, master seed): per-trial RNG
streams are derived by hashing (seed, trial index), so results do not depend
on execution order or worker count.  Records carry a mean, its standard
error, and the sample count for every sweep coordinate and method.

CSI is built for a stack of path sets and the whole budget grid in one
pass: one allocation, one feedback plan and one reconstruction for all of
them, whose leading axes are the path sets and the budgets.  A stack of
path sets is built once from rows of standard uniforms
(channel.paths_from_uniforms).  `sim se` stacks a scene's K users, drawn as
one (K, 4L+1) array, and `sim delta` and `sim mse` run their trials in
blocks and stack a block's path sets, one row of uniforms per trial, so one
pass serves a block and path count (`sim delta`) or allocator (`sim mse`).
A block holds as many trials as the pass's small per-trial arrays fit in
DELTA_BLOCK_BYTES (_block_trials), and `sim delta`'s outer-error Gram step,
whose arrays are larger, runs on chunks of the block (_gram_trials).  Each
CSI source hands the precoders one N x K x R stack of the users'
reconstruction factors, with a leading budget axis for the sources that
depend on the budget; the DFT-codebook search takes the K users' channels
in one call per budget.  The SE sweep runs drops in blocks of consecutive
trials.  Each scene is one pass over its points (_se_scene): it precodes
its ZF points in one stacked zf_precoder call and queues its GPIP problems,
the MMSE and no-feedback ones in one basis of its users' estimated steering
vectors (_signal_basis), and a block's queue is one lockstep
gpip_solve_batch call (se_samples).  Each stack of points is scored in one
call of each score (_score).
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


def _run_blocks(cfg: ScenarioConfig, block_fn, size: int) -> np.ndarray:
    """Evaluate block_fn on consecutive blocks of ``size`` trials.

    A block is a list of (trial, rng) pairs, and block_fn returns one output
    per pair; outputs stack in trial order.  cfg.workers threads map over
    blocks, and a block holds at least one trial and no more than
    ceil(trials / workers), so every worker has a block.
    """
    size = max(1, min(size, math.ceil(cfg.trials / cfg.workers)))
    trials = [(t, np.random.default_rng(derive_trial_seed(cfg.seed, t))) for t in range(cfg.trials)]
    blocks = [trials[i:i + size] for i in range(0, len(trials), size)]
    if cfg.workers <= 1:
        results = [block_fn(block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(block_fn, blocks))
    return np.stack([out for outs in results for out in outs])


def _records(experiment: str, cfg: ScenarioConfig, samples: np.ndarray, axes,
             **fixed) -> list:
    """One record per sweep point of the per-trial ``samples``.

    ``axes`` pairs each sample axis after the trial axis, in order, with the
    record field it sweeps and that field's values; the last pair names the
    metrics.  An axis may hold more slots than values, and the extra ones
    are not recorded.  ``fixed`` sets the fields that no axis sweeps.
    """
    mean, n = samples.mean(axis=0), samples.shape[0]
    std_err = samples.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean)
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
    scene = channel.draw_scene(cfg, rng)
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


# Working set of one block of a `sim delta` or `sim mse` pass.  A block holds
# as many trials as fit the pass's per-trial arrays in DELTA_BLOCK_BYTES: the
# DL steering matrix A and its complex phase temporary (2 x N x L), the
# channel h (N) and the estimates hhat (budgets x N), all complex.  The
# outer-error Gram step's U = [h | hhat | A] and its conjugate are far larger,
# two complex (budgets, N, L+2) arrays per trial, so `sim delta` runs that
# step on chunks of the block's trials that fit both in half of
# DELTA_BLOCK_BYTES (_gram_trials).  On the csi_sweep workload (N=64, L up to
# 8, 8 budgets, 40 trials: 25 KiB of pass arrays and 160 KiB of Gram-step
# arrays per trial, so Gram chunks of 1 trial at L=8 and 5 at L=1),
# `bench/run.py --seconds 20` on one BLAS thread of a 2-vCPU Xeon VM, two runs
# each, with the campaign's tracemalloc peak:
#
#   trials per block               drops/s     peak RSS (MiB)  traced peak (KiB)
#   3, whole-block Gram step       1038-1040   38.30           689
#     (per-trial path draws)
#   3                              1123-1124   37.73           424
#   10                             1685-1687   37.97           538
#   20 (this rule)                 1858-1863   38.15-38.17     712
#   40                             1931-1937   38.48-38.49     1069
#
# Gram chunks that fit U and its conjugate in all of DELTA_BLOCK_BYTES (3
# trials at L=8) ran blocks of 20 about 3 % slower, at a traced peak of
# 1007 KiB.
DELTA_BLOCK_BYTES = 512 * 1024


def _block_trials(cfg: ScenarioConfig, paths: int) -> int:
    """Trials of ``paths`` paths whose pass arrays DELTA_BLOCK_BYTES holds."""
    return DELTA_BLOCK_BYTES // (16 * cfg.n_antennas * (2 * paths + len(cfg.b_tot_grid) + 1))


def _gram_trials(budgets: int, n: int, paths: int) -> int:
    """Trials per outer-error Gram step: U = [h | hhat | A] and its conjugate,
    two complex (budgets, N, L+2) arrays per trial, in half of
    DELTA_BLOCK_BYTES, and at least one."""
    return max(1, DELTA_BLOCK_BYTES // 2 // (2 * budgets * n * (paths + 2) * 16))


def _uniform_rows(trials, width: int) -> np.ndarray:
    """(trials, width): one row of standard uniforms from each trial's stream."""
    return np.stack([rng.random(width) for _, rng in trials])


# ---------------------------------------------------------------------------
# reconstruction-MSE experiment


def run_mse_experiment(cfg: ScenarioConfig) -> list:
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

    width = channel.uniforms_per_user(cfg.n_paths)

    def block(trials):
        ps = channel.paths_from_uniforms(_uniform_rows(trials, width), cfg)
        out = np.empty((len(trials), len(b_grid), len(ALLOCATORS), 2))
        for si, strategy in enumerate(ALLOCATORS):
            fp, _, _, _, h, hhat = _csi_pass(ps, strategy, b_grid, geom)
            out[:, :, si, 0] = allocation.theoretical_weighted_mse(ps.betas, fp.bits,
                                                                   geom.num_antennas)
            out[:, :, si, 1] = np.sum(np.abs(h - hhat) ** 2, axis=-1)
        return out

    size = _block_trials(cfg, cfg.n_paths)
    return _records("mse", cfg, _run_blocks(cfg, block, size),
                    (("b_tot", b_grid), ("method", ALLOCATORS),
                     ("metric", ("mse_closed_form", "mse_monte_carlo"))),
                    n_antennas=cfg.n_antennas, n_users=1, n_paths=cfg.n_paths,
                    power_dbm=cfg.power_dbm_grid[0])


# ---------------------------------------------------------------------------
# outer-product approximation-error experiment


def _delta_norms(ps, strategy: str, budgets, geom) -> np.ndarray:
    """Both outer-product error norms of path sets at every budget, from one
    CSI pass (_csi_pass).

    For path sets stacked (trials, L), returns (trials, budgets, 2): the
    realized (1/N^2)*||Delta||_F^2 and its large-array limit at the realized
    phase errors.  The Gram step of the realized norm runs on chunks of
    _gram_trials path sets; each Gram matrix is the BLAS call that a single
    path set makes, so the chunks do not change the norms.
    """
    fp, a, betas, etas, h, hhat = _csi_pass(ps, strategy, budgets, geom)
    step = _gram_trials(len(budgets), geom.num_antennas, len(ps))
    emp = np.concatenate([
        reconstruction.outer_error_norm(*(x[i:i + step] for x in (h, hhat, a, betas, etas)))
        for i in range(0, len(hhat), step)])
    del a, h, hhat  # the large-array limit's temporaries take their place
    return np.stack((emp, reconstruction.asymptotic_delta_norm(betas, etas, fp.deltas)), axis=-1)


def run_delta_experiment(cfg: ScenarioConfig) -> list:
    """Normalized outer-product approximation error versus budget and path count.

    Emits the realized (1/N^2)*||Delta||_F^2 alongside the large-array
    closed-form value evaluated at the same realized quantization errors.
    Trials run in blocks of consecutive trials, and cfg.workers threads map
    over blocks.  Each trial draws one path set per path count, in l_grid
    order, from one row of its own stream's uniforms; a block stacks its
    trials' path sets of each path count and computes both norms for all of
    them and every budget in one pass (_delta_norms).  The block size comes
    from the sweep's sizes and its largest path count (_block_trials).  A
    path set's norms do not depend on its block, so neither block size nor
    worker count changes the output.
    """
    geom = cfg.geometry()
    b_grid = cfg.b_tot_grid
    l_grid = cfg.l_grid
    widths = [channel.uniforms_per_user(L) for L in l_grid]
    cuts = np.cumsum(widths)[:-1]

    def block(trials):
        rows = np.split(_uniform_rows(trials, sum(widths)), cuts, axis=-1)
        out = np.empty((len(trials), len(l_grid), len(b_grid), 2))
        for li, u in enumerate(rows):
            out[:, li] = _delta_norms(channel.paths_from_uniforms(u, cfg), cfg.allocator,
                                      b_grid, geom)
        return out

    size = _block_trials(cfg, max(l_grid))
    return _records("delta", cfg, _run_blocks(cfg, block, size),
                    (("n_paths", l_grid), ("b_tot", b_grid),
                     ("metric", ("delta_norm_emp", "delta_norm_asym"))),
                    n_antennas=cfg.n_antennas, n_users=1,
                    power_dbm=cfg.power_dbm_grid[0], method=cfg.allocator)


# ---------------------------------------------------------------------------
# sum-spectral-efficiency experiment


SE_METRICS = ("true_sum_se", "se_lower_bound")
# CSI sources that depend on the feedback budget; the others ignore it
_PER_BUDGET = ("mmse", "dft")


def _build_csi(source: str, cfg: ScenarioConfig, scene, ests, a_est, h_true,
               geom) -> np.ndarray:
    """The users' reconstruction factors from one CSI source, stacked N x K x R.

    ``scene`` and ``ests`` stack the K users' true and estimated path sets,
    ``a_est`` is the K x N x L stack of the estimates' DL steering matrices
    and ``h_true`` the N x K true channel.  "mmse" and "dft" depend on
    the budget and are built for the whole grid at once, (budgets, N, K, R);
    the MMSE and no-feedback factors of all K users are one pass, and the
    DFT codewords of all K users one dft_codebook_feedback call per budget.
    Column 0 of each factor is the estimate; MMSE and no-feedback factors
    carry L error columns, DFT and perfect CSI none.
    """
    if source == "mmse":
        # bits over the estimated powers, feedback of the true DL phases
        bits = allocation.allocate_bits(cfg.allocator, ests.betas**2, cfg.b_tot_grid)
        fp = feedback.make_feedback_plan(scene, bits, geom)
        factors = reconstruction.reconstruct_mmse(ests, fp, geom, a_est)
        return np.ascontiguousarray(np.moveaxis(factors, 0, 2))
    if source == "no_feedback":
        factors = reconstruction.reconstruct_no_feedback(ests, geom, a_est)
        return np.ascontiguousarray(np.moveaxis(factors, 0, 1))
    if source == "dft":
        hhat = np.stack([feedback.dft_codebook_feedback(h_true.T, b, geom)[1]
                         for b in cfg.b_tot_grid])
        return np.ascontiguousarray(hhat.transpose(0, 2, 1))[..., None]
    # "perfect": the true channel, with no estimation error
    return h_true[:, :, None]


def _signal_basis(a_est: np.ndarray) -> np.ndarray:
    """Orthonormal N x min(N, KL) basis Q of the span of the K x N x L
    estimated DL steering matrices: one reduced QR of [A_1 ... A_K].

    A scene's MMSE and no-feedback factors, and the GPIP start and iterates
    on them, lie in that span, so GPIP solves them as Q^H V.  The start's
    all-ones fallback becomes Q 1 / sqrt(KL); only all-zero path gains reach
    it.  Factors of one column stay N-dimensional: DFT codewords leave the
    span, and plain GPIP's rows amplify the rounding of a change of basis.
    """
    k, n, paths = a_est.shape
    return np.linalg.qr(a_est.transpose(1, 0, 2).reshape(n, k * paths))[0]


def _zf_columns(hhat: np.ndarray, hhat_nf: np.ndarray) -> np.ndarray:
    """Estimate columns of stacked points (..., N, K); in each point, users
    without any feedback fall back to their geometry-only estimate in
    ``hhat_nf`` (N, K) so zero-forcing stays defined at zero budget."""
    norms = np.linalg.norm(hhat, axis=-2)
    fallback = norms <= 1e-12 * np.maximum(norms.max(axis=-1, keepdims=True), 1e-300)
    return np.where(fallback[..., None, :], hhat_nf, hhat) if fallback.any() else hhat


def _label(cfg: ScenarioConfig, point: tuple) -> str:
    """What reproduces a failed SE point (trial, N, L, power, budget, method)."""
    trial, n, paths, pdbm, b_tot, method = point
    return (f"seed {cfg.seed}, trial {trial}, n_antennas {n}, n_paths {paths}, "
            f"power_dbm {pdbm}, b_tot {b_tot}, method {method}")


def _se_points(cfg: ScenarioConfig) -> list:
    """A scene's SE points in evaluation order, each (method, power_dbm,
    budget index, out slot): the methods whose CSI ignores the budget once
    per power, in a slot that spans the budgets, then every budget's points."""
    powers, methods = list(enumerate(cfg.power_dbm_grid)), list(enumerate(cfg.se_methods))
    return ([(m, pdbm, 0, (pi, slice(None), mi)) for pi, pdbm in powers for mi, m in methods
             if SE_METHODS[m][0] not in _PER_BUDGET]
            + [(m, pdbm, bi, (pi, bi, mi)) for bi in range(len(cfg.b_tot_grid))
               for pi, pdbm in powers for mi, m in methods if SE_METHODS[m][0] in _PER_BUDGET])


def _score(targets, w, h_true, factors, sigma2, powers, iterations, basis=None) -> None:
    """Write (true SE, bound, iterations) to each target from one call of
    each score on a scene's stacked precoders w (..., N, K), each point
    bit-equal to its own calls.  Precoders in the coordinates of ``basis``
    Q score Q w on the N-dimensional true channel, the bound in coordinates.
    """
    pp = precoding.PrecodingProblem(factors=factors, sigma2=sigma2, power=powers)
    rates = precoding.true_sum_se(w if basis is None else basis @ w, h_true, pp)
    bounds = precoding.sum_se_lower_bound(w, pp)
    for target, rate, bound, its in zip(targets, rates, bounds, iterations):
        target[...] = (rate, bound, its)


def _se_scene(cfg: ScenarioConfig, trial: int, scene, ests, geom, out: np.ndarray,
              queue: list) -> None:
    """Fill out[power, budget, method] for one drawn scene at one array size.

    ``scene`` and ``ests`` stack the users' true and estimated path sets.
    One pass walks the points in evaluation order (_se_points).  A CSI
    source's factor stack (_build_csi, every budget), the basis
    (_signal_basis) and a power's perfect-CSI problem, which checks the
    noise and the power, are built by the first point that needs them.  A
    GPIP point queues (point, out view, problem, true channel, basis) for
    _solve_queue, as Q^H V in the basis Q when its factors have error
    columns; a WMMSE point is precoded on the spot and a ZF point collected.
    Then the ZF points are precoded in one stacked zf_precoder call and the
    ZF and WMMSE points scored together (_score).  The first failure in
    evaluation order is raised, named by _label (formatted only then); a
    failing ZF point also cuts ``queue`` back to the GPIP points before it.
    """
    # one DL steering matrix per angle set serves the channel and the CSI
    a = channel.steering_matrix(scene.thetas, geom.lambda_dl, geom)
    a_est = a if ests is scene else channel.steering_matrix(ests.thetas, geom.lambda_dl, geom)
    h_true = np.ascontiguousarray(channel.superpose(a, channel.dl_path_gains(scene, geom)).T)
    sigma2 = np.full(cfg.n_users, cfg.noise_watts)
    # the CSI sources and "basis" by name, and each power's perfect-CSI problem
    built = {}
    # the ZF and WMMSE points in evaluation order: (point, out view, queue
    # length, estimates, precoder or None for ZF)
    scored = []

    def evaluate(method, pdbm, bi, slot, point):
        source, precoder, use_cov = SE_METHODS[method]
        if source not in built:
            built[source] = _build_csi(source, cfg, scene, ests, a_est, h_true, geom)
        if pdbm not in built:
            built[pdbm] = precoding.PrecodingProblem(factors=h_true[:, :, None], sigma2=sigma2,
                                                     power=cfg.power_watts(pdbm))
        stack = built[source][bi] if source in _PER_BUDGET else built[source]
        if precoder == "gpip":
            stack = stack if use_cov else stack[..., :1]
            basis = None
            if stack.shape[-1] > 1:  # error columns: in the span of the steering vectors
                if "basis" not in built:
                    built["basis"] = _signal_basis(a_est)
                basis = built["basis"]
                n, k, r = stack.shape
                stack = (basis.conj().T @ stack.reshape(n, k * r)).reshape(-1, k, r)
            queue.append((point, out[slot], precoding.PrecodingProblem(
                factors=stack, sigma2=sigma2, power=built[pdbm].power), h_true, basis))
            return
        if precoder == "zf" and "no_feedback" not in built:  # fallback estimates (_zf_columns)
            built["no_feedback"] = _build_csi("no_feedback", cfg, scene, ests, a_est, h_true, geom)
        w = precoding.wmmse_precoder(h_true, built[pdbm]) if precoder == "wmmse" else None
        scored.append((point, out[slot], len(queue), stack[..., 0], w))

    def precode_and_score():
        if not scored:
            return
        points, targets, queued, estimates, w = zip(*scored)
        estimates, w = np.stack(estimates), list(w)
        zf = [i for i, wi in enumerate(w) if wi is None]
        if zf:
            cols = _zf_columns(estimates[zf], built["no_feedback"][..., 0])
            try:
                w_zf = precoding.zf_precoder(cols)
            except ValueError as exc:
                # a ZfError names its point; any other failure is the first point's
                failed = zf[getattr(exc, "point", None) or 0]
                del queue[queued[failed]:]
                raise type(exc)(f"{getattr(exc, 'reason', exc)} "
                                f"({_label(cfg, points[failed])})") from exc
            for i, wi in zip(zf, w_zf):
                w[i] = wi
        _score(targets, np.stack(w), h_true, estimates[..., None], sigma2,
               np.array([cfg.power_watts(p[3]) for p in points]), [0] * len(w))

    for method, pdbm, bi, slot in _se_points(cfg):
        point = (trial, geom.num_antennas, len(scene), pdbm, cfg.b_tot_grid[bi], method)
        try:
            evaluate(method, pdbm, bi, slot, point)
        except ValueError as exc:
            precode_and_score()  # a failing ZF point before this one comes first
            raise type(exc)(f"{exc} ({_label(cfg, point)})") from exc
    precode_and_score()


def _solve_queue(cfg: ScenarioConfig, queue: list, failure: ValueError | None) -> None:
    """Solve every queued GPIP point in one gpip_solve_batch call and score it.

    A scene's points of one factor shape, in its basis or not, are scored
    together (_score).

    ``failure`` is the inline failure that stopped the queue, if any: the
    queued points all precede it in evaluation order, so the first of them
    that fails is reported instead of it.
    """
    gcfg = precoding.GpipConfig(epsilon=cfg.gpip_epsilon, max_iter=cfg.gpip_max_iter)
    try:
        results = precoding.gpip_solve_batch([pp for _, _, pp, _, _ in queue], gcfg)
    except precoding.GpipError as exc:
        raise type(exc)(f"{exc.reason} ({_label(cfg, queue[exc.problem][0])})") from exc
    if failure is not None:
        raise failure
    # a scene's channel and basis serve all of its points of one shape
    groups = {}
    for (_, target, pp, h_true, basis), result in zip(queue, results):
        groups.setdefault((id(h_true), pp.factors.shape), []).append(
            (target, pp, h_true, basis, result))
    for points in groups.values():
        targets, pps, (h_true, *_), (basis, *_), results = zip(*points)
        _score(targets, np.stack([r.f for r in results]), h_true,
               np.stack([p.factors for p in pps]), pps[0].sigma2,
               np.array([p.power for p in pps]), [r.iterations for r in results], basis)


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
    """GPIP points of one drop: those of a scene (_se_points) in each scene."""
    per_scene = sum(SE_METHODS[m][1] == "gpip" for m, *_ in _se_points(cfg))
    return len(cfg.n_grid) * len(cfg.l_grid) * per_scene


def se_axes(cfg: ScenarioConfig) -> tuple:
    """The SE sweep's axes in se_samples order, each paired with its record field."""
    return (("n_antennas", cfg.n_grid), ("n_paths", cfg.l_grid),
            ("power_dbm", cfg.power_dbm_grid), ("b_tot", cfg.b_tot_grid),
            ("method", cfg.se_methods))


def se_samples(cfg: ScenarioConfig) -> np.ndarray:
    """Per-drop SE outputs over the whole sweep.

    Shape (trials, n_grid, l_grid, power_dbm_grid, b_tot_grid, se_methods, 3),
    the se_axes after the trial axis; the last axis holds the two SE_METRICS
    and the GPIP iteration count (0 for other precoders).  Methods whose CSI
    source ignores the budget are computed once per (drop, N, L, power) and
    replicated across budgets.

    Drops run in blocks of consecutive trials, and cfg.workers threads map
    over blocks.  Each drop of a block draws its scenes, scores each scene's
    ZF and WMMSE points in one stacked pass (_se_scene), and queues its GPIP
    points; the block's whole queue, every drop and every (L, N) scene, is
    then solved in one gpip_solve_batch call.  A block holds
    ceil(GPIP_BATCH / P) drops, P the GPIP points per drop, but no more
    than ceil(trials / workers), so every worker has a block, and one drop
    when P is 0.  A problem's result does not depend on its batch, so
    neither block size nor worker count changes the output.  A solver or ZF
    failure is re-raised with the seed, trial, sweep point and method that
    reproduce it: the lowest failing trial's, and within that trial the
    first failure in evaluation order.
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

    return _run_blocks(cfg, block, size)


def run_se_experiment(cfg: ScenarioConfig) -> list:
    """Ergodic sum spectral efficiency over drops for each configured method.

    Sweeps the cross product of the antenna, path-count, power, and budget
    grids (see se_samples).
    """
    return _records("se", cfg, se_samples(cfg),
                    (*se_axes(cfg), ("metric", SE_METRICS)), n_users=cfg.n_users)


EXPERIMENTS = {
    "mse": run_mse_experiment,
    "delta": run_delta_experiment,
    "se": run_se_experiment,
}


def run_experiment(kind: str, cfg: ScenarioConfig) -> list:
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {kind!r}; choose from {tuple(EXPERIMENTS)}")
    return EXPERIMENTS[kind](cfg)
