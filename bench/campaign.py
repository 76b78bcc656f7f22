"""One `fddlink sim` campaign in a fresh interpreter, timed from outside.

Usage: campaign.py RESULT_JSON T0 MODE -- CLI_ARGS...

T0 is the parent's ``time.monotonic()`` taken just before this process was
spawned, so ``setup_s`` covers interpreter start, imports and the moment the
campaign call begins.  MODE is ``plain``, ``trace`` or ``setup``.  With
``trace``, shims are installed on the public functions of each layer (module
attributes, so the harness picks them up) before the call; nothing inside
the package is edited.  With ``setup`` the process stops where the campaign
call would begin.  The result JSON holds setup and campaign times, peak RSS
and, when traced, per-function call counts, self times and solver records.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
from pathlib import Path

# Public functions timed per layer; the harness reaches all of them through
# module attributes, so replacing the attribute is enough to see each call.
TRACED = {
    "channel": ("draw_user_paths", "perturb_estimates", "dl_channel"),
    "allocation": ("allocate_greedy", "allocate_uniform", "theoretical_weighted_mse"),
    "feedback": ("make_feedback_plan", "dft_codebook_feedback"),
    "reconstruction": ("reconstruct_mmse", "reconstruct_no_feedback", "reconstruct_dft",
                       "outer_error_norm", "asymptotic_delta_norm"),
    "precoding": ("gpip_solve", "zf_precoder", "wmmse_precoder", "true_sum_se",
                  "sum_se_lower_bound"),
}
FROM_RECONSTRUCTIONS = "precoding.PrecodingProblem.from_reconstructions"
COMPLEX_BYTES = 16


class Tracer:
    """Call counts and self times of wrapped functions, single-threaded.

    Self time is a call's duration minus the time spent in wrapped calls it
    made itself.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self._child_s: list[float] = []
        self.gpip: list[tuple[int, bool, float]] = []  # (iterations, converged, s)
        self.cov_stack_bytes = 0
        self.dft_codebook_bytes = 0

    def wrap(self, name, fn, on_return=None):
        stats = self.stats.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dt
                stats[0] += 1
                stats[1] += dt - children
            if on_return is not None:
                on_return(dt, args, kwargs, out)
            return out

        return shim

    def install(self, fddlink) -> None:
        """Replace each traced function that exists; a missing one reports 0 calls."""
        for layer, names in TRACED.items():
            module = getattr(fddlink, layer)
            for fn_name in names:
                fn = getattr(module, fn_name, None)
                if fn is None:
                    continue
                hook = None
                if fn_name == "gpip_solve":
                    hook = self._on_gpip
                elif fn_name == "dft_codebook_feedback":
                    hook = self._codebook_hook(fn)
                setattr(module, fn_name, self.wrap(f"{layer}.{fn_name}", fn, hook))
        cls = fddlink.precoding.PrecodingProblem
        if "from_reconstructions" in cls.__dict__:
            raw = cls.__dict__["from_reconstructions"].__func__
            cls.from_reconstructions = classmethod(
                self.wrap(FROM_RECONSTRUCTIONS, raw, self._on_problem))

    def _on_gpip(self, dt, args, kwargs, result) -> None:
        self.gpip.append((int(result.iterations), bool(result.converged), dt))

    def _on_problem(self, dt, args, kwargs, pp) -> None:
        # computed from array sizes: the dense K x N x N covariance stack
        n, k = pp.hhat.shape
        self.cov_stack_bytes = max(self.cov_stack_bytes, k * n * n * COMPLEX_BYTES)

    def _codebook_hook(self, fn):
        signature = inspect.signature(fn)

        def on_return(dt, args, kwargs, out):
            # computed from array sizes: the N x 2^B codebook built per call
            bound = signature.bind(*args, **kwargs).arguments
            size = bound["geom"].num_antennas * (1 << int(bound["total_bits"]))
            self.dft_codebook_bytes = max(self.dft_codebook_bytes, size * COMPLEX_BYTES)

        return on_return

    def report(self) -> dict:
        return {"functions": self.stats, "gpip": self.gpip,
                "cov_stack_bytes": self.cov_stack_bytes,
                "dft_codebook_bytes": self.dft_codebook_bytes}


def main(argv: list[str]) -> int:
    result_path, t0, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("plain", "trace", "setup"):
        raise SystemExit("usage: campaign.py RESULT_JSON T0 plain|trace|setup -- CLI_ARGS...")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import fddlink
    import fddlink.cli

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(fddlink)
    setup_s = time.monotonic() - float(t0)
    if mode == "setup":
        Path(result_path).write_text(json.dumps({"setup_s": setup_s}))
        return 0
    start, cpu_start = time.perf_counter(), time.process_time()
    code = fddlink.cli.main(cli_args)
    campaign_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    record = {
        "exit_code": code,
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "cpu_s": cpu_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }
    Path(result_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
