"""Scenario configuration: defaults, flat-text loader, and validation.

Config files are plain ``key = value`` lines; ``#`` starts a comment.  Grid
values are comma-separated.  Every key is optional — missing keys fall back
to the documented defaults (logged as they are applied), unknown keys and
malformed values raise ConfigError naming the offending field.
"""

from __future__ import annotations

import logging
import math
import numbers
import typing
from dataclasses import dataclass, fields

from .allocation import MAX_BITS
from .channel import ArrayGeometry
from .feedback import MAX_DFT_BITS

log = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299_792_458.0

ALLOCATORS = ("greedy", "uniform", "none")
# SE method -> (CSI source, precoder, use_cov).  The CSI sources are MMSE
# reconstruction, the geometry-only estimate, the DFT codebook and "perfect",
# the true channel; use_cov says whether the precoder sees the
# reconstruction's error covariance.
SE_METHODS = {
    "gpip_robust": ("mmse", "gpip", True),
    "gpip_plain": ("mmse", "gpip", False),
    "gpip_nofeedback": ("no_feedback", "gpip", True),
    "gpip_dft": ("dft", "gpip", True),
    "zf_mmse": ("mmse", "zf", False),
    "zf_nofeedback": ("no_feedback", "zf", False),
    "zf_dft": ("dft", "zf", False),
    "wmmse_perfect": ("perfect", "wmmse", False),
}


class ConfigError(ValueError):
    """Configuration problem tied to a specific field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """All simulation knobs; physical defaults follow the reference scenario
    (10/12 GHz carriers, -113 dBm noise, 500 m cell), sizes default to desk
    scale."""

    n_antennas: int = 64
    n_users: int = 8
    n_paths: int = 3
    lambda_ul: float = SPEED_OF_LIGHT / 10e9
    lambda_dl: float = SPEED_OF_LIGHT / 12e9
    spacing: float = 0.0          # 0 means "derive as lambda_ul / 2"
    isd: float = 500.0
    noise_dbm: float = -113.0
    power_dbm_grid: tuple[float, ...] = (43.0,)
    b_tot_grid: tuple[int, ...] = (0, 3, 6, 9, 12, 15, 18, 21)
    l_grid: tuple[int, ...] = ()  # empty means "just n_paths"
    n_grid: tuple[int, ...] = ()  # empty means "just n_antennas"
    trials: int = 200
    seed: int = 1234
    pl_exponent: float = 3.0
    pl_ref_gain_db: float = -54.0
    pl_ref_distance: float = 1.0
    decay_ratio: float = 0.7
    excess_range: float = 100.0
    aoa_sigma: float = 0.0
    gain_rel_sigma: float = 0.0
    allocator: str = "greedy"
    se_methods: tuple[str, ...] = ("gpip_robust", "gpip_plain", "zf_mmse",
                                   "zf_nofeedback", "wmmse_perfect")
    gpip_epsilon: float = 1e-4
    gpip_max_iter: int = 50
    workers: int = 1

    def __post_init__(self):
        if self.spacing == 0.0:
            object.__setattr__(self, "spacing", self.lambda_ul / 2.0)
        if not self.l_grid:
            object.__setattr__(self, "l_grid", (self.n_paths,))
        if not self.n_grid:
            object.__setattr__(self, "n_grid", (self.n_antennas,))
        _validate(self)

    @property
    def noise_watts(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    @property
    def pl_ref_gain(self) -> float:
        return 10.0 ** (self.pl_ref_gain_db / 10.0)

    def power_watts(self, power_dbm: float | None = None) -> float:
        return dbm_to_watts(self.power_dbm_grid[0] if power_dbm is None else power_dbm)

    def geometry(self, n_antennas: int | None = None) -> ArrayGeometry:
        return ArrayGeometry(
            num_antennas=self.n_antennas if n_antennas is None else n_antennas,
            spacing=self.spacing,
            lambda_ul=self.lambda_ul,
            lambda_dl=self.lambda_dl,
        )

    def replace(self, **changes) -> "ScenarioConfig":
        """A copy with ``changes`` applied and validated.

        The derived fields keep the values resolved at construction unless
        ``changes`` sets them too: ``replace(n_paths=5)`` keeps l_grid,
        ``replace(n_antennas=256)`` keeps n_grid and ``replace(lambda_ul=x)``
        keeps spacing.  Pass the grid along, as in
        ``cfg.replace(n_paths=L, l_grid=(L,))``.
        """
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(changes)
        return ScenarioConfig(**current)


def _is_integer(value) -> bool:
    """An integral number that is not a bool, such as 3 or np.int64(3)."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def _positive_linear(db: float) -> bool:
    """Whether 10^(db/10) is positive and finite: false for a dB value
    whose power overflows a float or underflows to zero, and for NaN."""
    try:
        return 0 < 10.0 ** (db / 10.0) < math.inf
    except OverflowError:
        return False


def _validate(cfg: ScenarioConfig) -> None:
    def need(cond, field_name, msg):
        if not cond:
            raise ConfigError(field_name, msg)

    lowest = {"seed": 0, "b_tot_grid": 0}  # the others start at 1
    for name in ("n_antennas", "n_users", "n_paths", "trials", "seed", "workers"):
        value, low = getattr(cfg, name), lowest.get(name, 1)
        need(_is_integer(value) and value >= low, name,
             f"must be an integer >= {low}, got {value!r}")
    for name in ("l_grid", "n_grid", "b_tot_grid"):
        values, low = getattr(cfg, name), lowest.get(name, 1)
        need(all(_is_integer(v) and v >= low for v in values), name,
             f"entries must be integers >= {low}, got {values!r}")
    need(cfg.lambda_ul > 0, "lambda_ul", "must be positive")
    need(cfg.lambda_dl > 0, "lambda_dl", "must be positive")
    need(cfg.spacing > 0, "spacing", "must be positive")
    need(cfg.isd > 0, "isd", "must be positive")
    need(_positive_linear(cfg.noise_dbm - 30.0), "noise_dbm",
         f"must give a positive, finite power in watts, got {cfg.noise_dbm!r}")
    need(len(cfg.power_dbm_grid) > 0, "power_dbm_grid", "must be non-empty")
    need(all(_positive_linear(p - 30.0) for p in cfg.power_dbm_grid), "power_dbm_grid",
         f"entries must give positive, finite powers in watts, got {cfg.power_dbm_grid!r}")
    need(len(cfg.b_tot_grid) > 0, "b_tot_grid", "must be non-empty")
    # `sim mse` draws n_paths paths, `sim delta` and `sim se` each l_grid entry
    fewest_paths = min(cfg.n_paths, *cfg.l_grid)
    need(max(cfg.b_tot_grid) <= MAX_BITS * fewest_paths, "b_tot_grid",
         f"entries must be <= {MAX_BITS * fewest_paths}: {MAX_BITS} bits on each path "
         f"of the smallest path count ({fewest_paths}) in n_paths and l_grid")
    need(_positive_linear(cfg.pl_ref_gain_db), "pl_ref_gain_db",
         f"must give a positive, finite linear gain, got {cfg.pl_ref_gain_db!r}")
    need(0 <= cfg.pl_exponent < math.inf, "pl_exponent",
         f"must be finite and >= 0, got {cfg.pl_exponent!r}")
    need(cfg.pl_ref_distance > 0, "pl_ref_distance", "must be positive")
    need(0 < cfg.decay_ratio <= 1, "decay_ratio", "must be in (0, 1]")
    need(cfg.excess_range >= 0, "excess_range", "must be >= 0")
    need(cfg.aoa_sigma >= 0, "aoa_sigma", "must be >= 0")
    need(cfg.gain_rel_sigma >= 0, "gain_rel_sigma", "must be >= 0")
    need(cfg.allocator in ALLOCATORS, "allocator", f"must be one of {ALLOCATORS}")
    need(len(cfg.se_methods) > 0, "se_methods", "must be non-empty")
    for m in cfg.se_methods:
        need(m in SE_METHODS, "se_methods", f"unknown method {m!r}; known: {tuple(SE_METHODS)}")
    if any(SE_METHODS[m][0] == "dft" for m in cfg.se_methods):
        need(max(cfg.b_tot_grid) <= MAX_DFT_BITS, "b_tot_grid",
             f"entries must be <= {MAX_DFT_BITS} with a DFT-codebook method")
    need(0 < cfg.gpip_epsilon < math.inf, "gpip_epsilon", "must be positive and finite")
    need(_is_integer(cfg.gpip_max_iter) and cfg.gpip_max_iter >= 1,
         "gpip_max_iter", f"must be an integer >= 1, got {cfg.gpip_max_iter!r}")


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


_SCALAR_PARSERS = {int: _parse_int, float: _parse_float, str: str}
# field name -> annotated type, e.g. tuple[int, ...] for b_tot_grid
_FIELD_TYPES = typing.get_type_hints(ScenarioConfig)


def _parse_field(kind, text: str):
    """Value of a field annotated ``kind``; a tuple field is a comma-separated list."""
    if typing.get_origin(kind) is tuple:
        item = _SCALAR_PARSERS[typing.get_args(kind)[0]]
        return tuple(item(tok.strip()) for tok in text.split(",") if tok.strip())
    return _SCALAR_PARSERS[kind](text)


PAPER_SCALE_OVERRIDES = {"n_antennas": 256, "n_users": 16, "trials": 1000}


def parse_config_text(text: str) -> dict:
    """Raw key/value extraction from flat config text."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(stripped.split()[0], f"line {lineno} is not 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigError(key, f"duplicated at line {lineno}")
        raw[key] = value.strip()
    return raw


def config_from_mapping(raw: dict, paper_scale: bool = False) -> ScenarioConfig:
    """Typed, validated config from raw string values; defaults fill the gaps."""
    values = {}
    for key, value in raw.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(key, "unknown field")
        try:
            values[key] = _parse_field(_FIELD_TYPES[key], value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(key, f"cannot parse {value!r}: {exc}") from exc
    if paper_scale:
        for key, override in PAPER_SCALE_OVERRIDES.items():
            if key not in values:
                values[key] = override
    for field_info in fields(ScenarioConfig):
        if field_info.name not in values:
            log.debug("field '%s' not set; using default", field_info.name)
    return ScenarioConfig(**values)


def load_config(path, paper_scale: bool = False) -> ScenarioConfig:
    """Read and validate a flat-text scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return config_from_mapping(parse_config_text(text), paper_scale=paper_scale)
