"""Seeded Monte Carlo experiment campaigns with CSV output.

Every experiment is a pure function of (config, master seed): per-trial RNG
streams are derived by hashing (seed, trial index), so results do not depend
on execution order or worker count.  Trials run in blocks fixed by the
workload (_run_blocks), and only `sim se` maps its blocks over cfg.workers
threads.  Records carry a mean, its standard error, and the sample count
for every sweep coordinate and method.

One CSI pass (_csi_pass), shared by every experiment, turns a stack of true
path sets and their estimates into MMSE CSI at the whole budget grid: one
allocation, one feedback plan and one estimate, whose leading axes are the
path sets and the budgets.  A stack of path sets is built once from rows of
standard uniforms (channel.paths_from_uniforms).  `sim se` stacks a scene's
K users, drawn as one (K, 4L+1) array, and `sim delta` and `sim mse` run
their trials in blocks (_block_trials) and stack a block's path sets, one
row of uniforms per trial, so one pass serves a block and path count
(`sim delta`) or allocator (`sim mse`).  `sim se` builds each CSI source
as one N x K x R stack of the users' factors (_build_csi), queues each
scene's points in evaluation order (_se_scene) and precodes and scores a
block of drops' points in one step (_solve_block): one stacked ZF call per
scene, one lockstep GPIP call per block and one call of each score per
scene and factor shape.  A block that fails is replayed one point at a
time, and the first point that fails on its own is named (se_samples).
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

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


def _run_blocks(cfg: ScenarioConfig, block_fn, size: int, map_fn=map) -> np.ndarray:
    """Evaluate block_fn on consecutive blocks of ``size`` trials, at least one.

    A block is a list of (trial, rng) pairs, and block_fn returns one output
    per pair; outputs stack in trial order.  ``map_fn`` maps block_fn over
    the blocks in order: the builtin map runs them in the calling thread.
    """
    size = max(1, size)
    trials = [(t, np.random.default_rng(derive_trial_seed(cfg.seed, t))) for t in range(cfg.trials)]
    blocks = [trials[i:i + size] for i in range(0, len(trials), size)]
    return np.stack([out for outs in map_fn(block_fn, blocks) for out in outs])


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


def _estimates(cfg: ScenarioConfig, ps, rngs):
    """The base station's estimates of path sets ``ps`` (..., L), ps itself
    when both sigmas are 0: from one generator of ``rngs`` for the stack, or
    one per path set of its leading axis (channel.perturb_estimates)."""
    if cfg.aoa_sigma == 0 and cfg.gain_rel_sigma == 0:
        return ps
    if len(rngs) == 1:
        return channel.perturb_estimates(ps, cfg.aoa_sigma, cfg.gain_rel_sigma, rngs[0])
    rows = zip(*(getattr(ps, f.name) for f in fields(ps)))
    return channel.PathSet.stack([_estimates(cfg, channel.PathSet(*row), [rng])
                                  for row, rng in zip(rows, rngs)])


def _channels(truth, ests, geom):
    """The true DL channels (..., N) of path sets and the estimates' DL
    steering matrices (..., N, L), both from one when ``truth is ests``."""
    a = channel.steering_matrix(truth.thetas, geom.lambda_dl, geom)
    a_est = a if ests is truth else channel.steering_matrix(ests.thetas, geom.lambda_dl, geom)
    return channel.superpose(a, channel.dl_path_gains(truth, geom)), a_est


def _csi_pass(truth, ests, strategy: str, budgets, geom, a):
    """MMSE CSI of path sets at every budget, in one pass.

    ``truth`` and ``ests`` stack the true and the estimated path sets
    (..., L), and ``a`` (..., N, L) holds the estimates' DL steering
    matrices.  Allocates bits over the estimated powers, quantizes the true
    DL phases and builds the estimate on ``a``.  Returns the feedback plan
    (bits (..., budgets, L)), the estimated betas (..., 1, L), etas
    (..., budgets, L) and hhat (..., budgets, N).  The callers hold the
    true channels (_channels) and add any error columns (mmse_factor).
    """
    bits = allocation.allocate_bits(strategy, ests.betas**2, budgets)
    fp = feedback.make_feedback_plan(truth, bits, geom)
    betas = ests.betas[..., None, :]
    etas = allocation.eta(fp.bits)
    return fp, betas, etas, reconstruction.mmse_estimate(a[..., None, :, :], betas, etas,
                                                         fp.q_values)


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

    For each budget and each allocation strategy, aggregates the model's
    expected MSE at the estimated powers, theoretical_weighted_mse, and the
    realized squared error ||h - hhat||^2 against the true channel.  Each
    trial draws its path set from one row of its own stream's uniforms, and
    then, when aoa_sigma or gain_rel_sigma is positive, its estimates'
    errors from the same stream (_estimates).  Trials run in blocks
    (_block_trials) in the calling thread, and a block stacks its trials'
    path sets and runs one CSI pass per strategy (_csi_pass).  A path set's
    errors do not depend on its block, so its size does not change the output.
    """
    geom = cfg.geometry()
    b_grid = cfg.b_tot_grid
    width = channel.uniforms_per_user(cfg.n_paths)

    def block(trials):
        ps = channel.paths_from_uniforms(_uniform_rows(trials, width), cfg)
        ests = _estimates(cfg, ps, [rng for _, rng in trials])
        h, a_est = _channels(ps, ests, geom)
        out = np.empty((len(trials), len(b_grid), len(ALLOCATORS), 2))
        for si, strategy in enumerate(ALLOCATORS):
            fp, _, _, hhat = _csi_pass(ps, ests, strategy, b_grid, geom, a_est)
            out[:, :, si, 0] = allocation.theoretical_weighted_mse(ests.betas, fp.bits,
                                                                   geom.num_antennas)
            out[:, :, si, 1] = np.sum(np.abs(h[:, None] - hhat) ** 2, axis=-1)
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
    h, a = _channels(ps, ps, geom)
    fp, betas, etas, hhat = _csi_pass(ps, ps, strategy, budgets, geom, a)
    step = _gram_trials(len(budgets), geom.num_antennas, len(ps))
    emp = np.concatenate([reconstruction.outer_error_norm(
        *(x[i:i + step] for x in (h[:, None], hhat, a[:, None], betas, etas)))
        for i in range(0, len(hhat), step)])
    del a, h, hhat  # the large-array limit's temporaries take their place
    return np.stack((emp, reconstruction.asymptotic_delta_norm(betas, etas, fp.deltas)), axis=-1)


def run_delta_experiment(cfg: ScenarioConfig) -> list:
    """Normalized outer-product approximation error versus budget and path count.

    Emits the realized (1/N^2)*||Delta||_F^2 alongside the large-array
    closed-form value evaluated at the same realized quantization errors.
    Trials run in blocks of consecutive trials in the calling thread.  Each
    trial draws one path set per path count, in l_grid order, from one row
    of its own stream's uniforms; a block stacks its trials' path sets of
    each path count and computes both norms for all of them and every budget
    in one pass (_delta_norms), whose CSI pass takes the true paths as the
    estimates whatever the sigmas.  The block size comes from the sweep's
    sizes and its largest path count (_block_trials).  A path set's norms do
    not depend on its block, so its size does not change the output.
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
    ``a_est`` (K, N, L) the estimates' DL steering matrices and ``h_true``
    the N x K true channel.  "mmse" (one CSI pass, _csi_pass, and its error
    columns) and "dft" (one codebook search per budget) depend on the budget
    and are built for the whole grid, (budgets, N, K, R).  Column 0 of each
    factor is the estimate; MMSE and no-feedback factors carry L error
    columns, DFT and perfect CSI none.
    """
    if source == "mmse":
        _, betas, etas, hhat = _csi_pass(scene, ests, cfg.allocator, cfg.b_tot_grid, geom, a_est)
        factors = reconstruction.mmse_factor(a_est[:, None], hhat, betas, etas)
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


def _label(cfg: ScenarioConfig, exc: Exception, point: tuple) -> Exception:
    """``exc`` re-made with its reason and what reproduces its failed SE
    point (trial, N, L, power, budget, method)."""
    trial, n, paths, pdbm, b_tot, method = point
    return type(exc)(f"{getattr(exc, 'reason', exc)} (seed {cfg.seed}, trial {trial}, "
                     f"n_antennas {n}, n_paths {paths}, power_dbm {pdbm}, b_tot {b_tot}, "
                     f"method {method})")


def _se_points(cfg: ScenarioConfig) -> list:
    """A scene's SE points in evaluation order, each (method, power_dbm,
    budget index, out slot): the methods whose CSI ignores the budget once
    per power, in a slot that spans the budgets, then every budget's points."""
    powers, methods = list(enumerate(cfg.power_dbm_grid)), list(enumerate(cfg.se_methods))
    return ([(m, pdbm, 0, (pi, slice(None), mi)) for pi, pdbm in powers for mi, m in methods
             if SE_METHODS[m][0] not in _PER_BUDGET]
            + [(m, pdbm, bi, (pi, bi, mi)) for bi in range(len(cfg.b_tot_grid))
               for pi, pdbm in powers for mi, m in methods if SE_METHODS[m][0] in _PER_BUDGET])


def _se_scene(cfg: ScenarioConfig, trial: int, scene, ests, geom, out: np.ndarray,
              emit) -> None:
    """Pass the SE points of one drawn scene at one array size to ``emit``.

    ``scene`` and ``ests`` stack the users' true and estimated path sets, and
    out[power, budget, method] receives the points' scores.  One pass walks
    the points in evaluation order (_se_points).  A CSI source's factor
    stack (_build_csi, every budget) and the basis (_signal_basis) are built
    by the first point that needs them, and a failed build is raised named
    by that point (_label).  Each point is emitted as the _solve_block
    queue entry (point, out view, precoder, factors, power, true channel,
    basis, precoder input): a method that ignores the covariance keeps a
    copy of its factors' estimate column, GPIP factors with error columns
    go as Q^H V in the basis Q, and the precoder input is the no-feedback
    estimates that a ZF point's columns fall back to (_zf_columns) and the
    true channel of a WMMSE point.
    """
    h_true, a_est = _channels(scene, ests, geom)
    h_true = np.ascontiguousarray(h_true.T)
    built = {}  # the CSI sources, "basis" and "fallback" by name
    for method, pdbm, bi, slot in _se_points(cfg):
        source, precoder, use_cov = SE_METHODS[method]
        point = (trial, geom.num_antennas, len(scene), pdbm, cfg.b_tot_grid[bi], method)
        try:
            for name in (source, "no_feedback") if precoder == "zf" else (source,):
                if name not in built:
                    built[name] = _build_csi(name, cfg, scene, ests, a_est, h_true, geom)
            factors = built[source][bi] if source in _PER_BUDGET else built[source]
            # a copy of the estimate column: the queue keeps no source's whole stack
            factors = factors if use_cov else np.ascontiguousarray(factors[..., :1])
            basis = None
            if factors.shape[-1] > 1:  # error columns: in the span of the steering vectors
                if "basis" not in built:
                    built["basis"] = _signal_basis(a_est)
                basis = built["basis"]
                n, k, r = factors.shape
                factors = (basis.conj().T @ factors.reshape(n, k * r)).reshape(-1, k, r)
        except ValueError as exc:
            raise _label(cfg, exc, point) from exc
        if precoder == "zf":  # the no-feedback estimates that _zf_columns falls back to
            if "fallback" not in built:  # a copy, as the factors' estimate column
                built["fallback"] = np.ascontiguousarray(built["no_feedback"][..., 0])
            given = built["fallback"]
        else:  # WMMSE precodes the true channel; GPIP solves the factors
            given = h_true if precoder == "wmmse" else None
        emit((point, out[slot], precoder, factors, cfg.power_watts(pdbm), h_true, basis, given))


def _solve_block(cfg: ScenarioConfig, queue: list) -> None:
    """Precode and score every SE point that a block of drops queued (_se_scene).

    The block's GPIP points take one gpip_solve_batch call, each WMMSE point
    its own wmmse_precoder call and a scene's ZF points one stacked
    zf_precoder call.  Then a scene's points of one factor shape, in its
    basis or not, are scored in one call of each score, each point bit-equal
    to its own calls, and (true SE, bound, GPIP iterations) is written to
    their out views.  Precoders in the coordinates of a basis Q score Q w on
    the N-dimensional true channel, the bound in coordinates.  A failure
    propagates as raised; se_samples finds the point it belongs to.
    """
    if not queue:
        return
    _, targets, precoders, factors, powers, channels, bases, inputs = zip(*queue)
    sigma2 = np.full(cfg.n_users, cfg.noise_watts)
    ws, iterations = {}, [0] * len(queue)  # ws: the points' precoders
    # the solver, whose workspace is the block's largest, runs first, and
    # each scene's other precoders exist only while it is scored
    gpip = [i for i, precoder in enumerate(precoders) if precoder == "gpip"]
    if gpip:
        gcfg = precoding.GpipConfig(epsilon=cfg.gpip_epsilon, max_iter=cfg.gpip_max_iter)
        results = precoding.gpip_solve_batch(
            [precoding.PrecodingProblem(factors[i], sigma2, powers[i]) for i in gpip], gcfg)
        for i, result in zip(gpip, results):
            ws[i], iterations[i] = result.f, result.iterations
    scenes = {}
    for i, h_true in enumerate(channels):
        scenes.setdefault(id(h_true), []).append(i)
    for scene in scenes.values():
        zf = [i for i in scene if precoders[i] == "zf"]
        if zf:
            cols = _zf_columns(np.stack([factors[i][..., 0] for i in zf]), inputs[zf[0]])
            ws.update(zip(zf, precoding.zf_precoder(cols)))
        for i in scene:
            if precoders[i] == "wmmse":
                ws[i] = precoding.wmmse_precoder(
                    inputs[i], precoding.PrecodingProblem(factors[i], sigma2, powers[i]))
        groups = {}  # the scene's channel and basis serve all of its points of one shape
        for i in scene:
            groups.setdefault(factors[i].shape, []).append(i)
        for points in groups.values():
            stack = np.stack([ws.pop(i) for i in points])
            pp = precoding.PrecodingProblem(np.stack([factors[i] for i in points]), sigma2,
                                            np.array([powers[i] for i in points]))
            basis = bases[points[0]]
            rates = precoding.true_sum_se(stack if basis is None else basis @ stack,
                                          channels[points[0]], pp)
            bounds = precoding.sum_se_lower_bound(stack, pp)
            for i, rate, bound in zip(points, rates, bounds):
                targets[i][...] = (rate, bound, iterations[i])


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
    over blocks; one worker runs them in the calling thread.  Each drop of a
    block draws its scenes and queues every (L, N) scene's points, whatever
    their precoder (_se_scene), and one step then precodes and scores the
    block's whole queue (_solve_block), its GPIP points in one
    gpip_solve_batch call.  A block holds ceil(GPIP_BATCH / P) drops, P the
    GPIP points per drop, and one drop when P is 0, at every worker count.
    A point's result does not depend on its block, so neither block size
    nor worker count changes the output.

    When a block fails, it is replayed from fresh trial streams one point at
    a time, in evaluation order, and the first point that fails on its own
    is raised with the seed, trial, sweep point and method that reproduce it
    (_label); a failed CSI build is raised where the replay reaches it.
    Since a point's result does not depend on its block, that is the first
    failure in evaluation order of the lowest failing trial.
    """
    cfgs_by_l = {L: cfg.replace(n_paths=L, l_grid=(L,)) for L in cfg.l_grid}
    shape = (*(len(values) for _, values in se_axes(cfg)), len(SE_METRICS) + 1)
    per_drop = _gpip_points_per_drop(cfg)
    size = 1 if per_drop == 0 else math.ceil(GPIP_BATCH / per_drop)

    def queue_drops(drops, emit) -> list:
        outs = []
        for t, rng in drops:
            out = np.empty(shape)
            outs.append(out)
            for li, L in enumerate(cfg.l_grid):
                scene = channel.draw_scene(cfgs_by_l[L], rng)
                ests = _estimates(cfg, scene, [rng])
                for ni, n in enumerate(cfg.n_grid):
                    _se_scene(cfg, t, scene, ests, cfg.geometry(n), out[ni, li], emit)
        return outs

    def solve_alone(entry):
        try:
            _solve_block(cfg, [entry])
        except ValueError as exc:
            raise _label(cfg, exc, entry[0]) from exc

    def block(drops):
        queue = []
        try:
            outs = queue_drops(drops, queue.append)
            _solve_block(cfg, queue)
        except ValueError:
            queue_drops([(t, np.random.default_rng(derive_trial_seed(cfg.seed, t)))
                         for t, _ in drops], solve_alone)
            raise  # no point fails on its own
        return outs

    if cfg.workers == 1:
        return _run_blocks(cfg, block, size)
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return _run_blocks(cfg, block, size, pool.map)


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
