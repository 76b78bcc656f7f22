import logging

import numpy as np
import pytest

from fddlink.allocation import MAX_BITS
from fddlink.config import (
    ConfigError,
    ScenarioConfig,
    config_from_mapping,
    load_config,
    parse_config_text,
)
from fddlink.feedback import MAX_DFT_BITS


class TestDefaults:
    def test_carrier_wavelengths(self):
        cfg = ScenarioConfig()
        assert cfg.lambda_ul == pytest.approx(299792458.0 / 10e9)
        assert cfg.lambda_dl == pytest.approx(299792458.0 / 12e9)
        assert cfg.lambda_ul / cfg.lambda_dl == pytest.approx(1.2)

    def test_spacing_derived_as_half_ul_wavelength(self):
        cfg = ScenarioConfig()
        assert cfg.spacing == pytest.approx(cfg.lambda_ul / 2)

    def test_noise_power_linear(self):
        assert ScenarioConfig().noise_watts == pytest.approx(10 ** ((-113 - 30) / 10))

    def test_power_linear(self):
        assert ScenarioConfig().power_watts(43.0) == pytest.approx(10 ** 1.3)

    def test_grids_default_to_scalars(self):
        cfg = ScenarioConfig(n_paths=5)
        assert cfg.l_grid == (5,)
        assert cfg.n_grid == (cfg.n_antennas,)


class TestParsing:
    def test_round_trip(self, tmp_path):
        text = """
        # scenario
        n_antennas = 32
        n_users = 4
        b_tot_grid = 0, 5, 10
        decay_ratio = 0.5
        se_methods = gpip_robust, zf_mmse
        """
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.n_antennas == 32
        assert cfg.b_tot_grid == (0, 5, 10)
        assert cfg.decay_ratio == 0.5
        assert cfg.se_methods == ("gpip_robust", "zf_mmse")

    def test_unknown_field_named_in_error(self):
        for key, value in (("antennas", "64"), ("b_tot", "15"), ("reconstruction", "mmse")):
            with pytest.raises(ConfigError) as err:
                config_from_mapping({key: value})
            assert err.value.field == key
            assert "unknown field" in str(err.value)

    def test_malformed_value_named_in_error(self):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"trials": "many"})
        assert err.value.field == "trials"
        assert "trials" in str(err.value)

    def test_out_of_range_named_in_error(self):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"decay_ratio": "1.5"})
        assert err.value.field == "decay_ratio"

    @pytest.mark.parametrize("grid", ["inf", "30, nan", "-inf, 43"])
    def test_non_finite_power_grid_rejected(self, grid):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"power_dbm_grid": grid})
        assert err.value.field == "power_dbm_grid"

    def test_non_finite_power_grid_rejected_when_built_directly(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(power_dbm_grid=(43.0, float("inf")))
        assert err.value.field == "power_dbm_grid"

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_noise_rejected_when_built_directly(self, value):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(noise_dbm=value)
        assert err.value.field == "noise_dbm"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_missing_fields_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="fddlink.config"):
            config_from_mapping({"n_antennas": "16"})
        defaulted = [rec.message for rec in caplog.records if "default" in rec.message]
        assert any("n_users" in msg for msg in defaulted)
        assert not any("'n_antennas'" in msg for msg in defaulted)

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")


class TestPaperScale:
    def test_overrides_apply_when_unset(self):
        cfg = config_from_mapping({}, paper_scale=True)
        assert (cfg.n_antennas, cfg.n_users, cfg.trials) == (256, 16, 1000)

    def test_explicit_keys_win(self):
        cfg = config_from_mapping({"n_antennas": "100"}, paper_scale=True)
        assert cfg.n_antennas == 100
        assert cfg.n_users == 16


class TestReplace:
    def test_replace_revalidates(self):
        cfg = ScenarioConfig()
        with pytest.raises(ConfigError):
            cfg.replace(trials=0)

    def test_replace_rejects_non_finite_noise(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig().replace(noise_dbm=float("nan"))
        assert err.value.field == "noise_dbm"

    @pytest.mark.parametrize("field, value", [
        ("gpip_max_iter", 2.5), ("gpip_max_iter", 0), ("gpip_max_iter", True),
        ("gpip_epsilon", float("inf")), ("gpip_epsilon", float("nan")), ("gpip_epsilon", 0.0),
    ])
    def test_gpip_settings_checked(self, field, value):
        for build in (lambda: ScenarioConfig(**{field: value}),
                      lambda: ScenarioConfig().replace(**{field: value})):
            with pytest.raises(ConfigError) as err:
                build()
            assert err.value.field == field

    @pytest.mark.parametrize("field, value", [
        ("trials", 2.5), ("seed", 1.5), ("workers", True), ("workers", 1.5),
        ("n_antennas", 8.0), ("n_users", 2.0), ("n_paths", False), ("seed", -1),
        ("l_grid", (2.0,)), ("l_grid", (2, True)), ("n_grid", (8, 16.0)),
        ("b_tot_grid", (0, 3.0)), ("b_tot_grid", (-3,)),
    ])
    def test_integer_fields_checked(self, field, value):
        # a float seed would run as its integer part, a float trial count or
        # path count would fail inside the first experiment
        for build in (lambda: ScenarioConfig(**{field: value}),
                      lambda: ScenarioConfig().replace(**{field: value})):
            with pytest.raises(ConfigError, match=rf"^config field '{field}': .*integer"):
                build()

    def test_numpy_integers_accepted(self):
        cfg = ScenarioConfig().replace(trials=np.int64(3), seed=np.uint32(7),
                                       b_tot_grid=(np.int64(0), 6), l_grid=(np.int32(2),))
        assert (cfg.trials, cfg.seed, cfg.l_grid) == (3, 7, (2,))

    def test_replace_changes_single_field(self):
        cfg = ScenarioConfig().replace(seed=99)
        assert cfg.seed == 99
        assert cfg.n_antennas == ScenarioConfig().n_antennas


class TestDftBudgetLimit:
    """Budgets above the DFT codebook's limit are config errors, not drop failures."""

    CASES = [
        ({"se_methods": ("zf_dft",), "b_tot_grid": (9, 33)}, "b_tot_grid"),
        ({"se_methods": ("gpip_robust", "gpip_dft"), "b_tot_grid": (33,)}, "b_tot_grid"),
    ]

    @staticmethod
    def as_text(values):
        return "\n".join(f"{key} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}"
                         for key, v in values.items())

    @pytest.mark.parametrize("values, field", CASES)
    def test_rejected_from_text_construction_and_replace(self, values, field):
        for build in (lambda: config_from_mapping(parse_config_text(self.as_text(values))),
                      lambda: ScenarioConfig(**values),
                      lambda: ScenarioConfig().replace(**values)):
            with pytest.raises(ConfigError) as err:
                build()
            assert err.value.field == field
            assert str(MAX_DFT_BITS) in str(err.value)

    def test_limit_itself_and_other_methods_accepted(self):
        assert ScenarioConfig(se_methods=("zf_dft",), b_tot_grid=(MAX_DFT_BITS,))
        assert ScenarioConfig(b_tot_grid=(MAX_DFT_BITS + 1,))


class TestAllocatableBudgetLimit:
    """Budgets that no allocator can place on the fewest paths are config errors."""

    CASES = [
        # `sim mse` draws n_paths paths
        {"n_paths": 1, "b_tot_grid": (63,)},
        {"n_paths": 1, "l_grid": (3,), "b_tot_grid": (0, 63)},
        # `sim delta` and `sim se` draw each l_grid entry
        {"n_paths": 3, "l_grid": (2, 4), "b_tot_grid": (2 * MAX_BITS + 1, 0)},
    ]

    @pytest.mark.parametrize("values", CASES)
    def test_rejected_from_text_construction_and_replace(self, values):
        for build in (lambda: config_from_mapping(parse_config_text(
                          TestDftBudgetLimit.as_text(values))),
                      lambda: ScenarioConfig(**values),
                      lambda: ScenarioConfig().replace(**values)):
            with pytest.raises(ConfigError) as err:
                build()
            assert err.value.field == "b_tot_grid"
            assert str(MAX_BITS) in str(err.value)

    def test_limit_itself_accepted(self):
        assert ScenarioConfig(n_paths=1, b_tot_grid=(MAX_BITS,))
        assert ScenarioConfig(n_paths=3, l_grid=(2, 4), b_tot_grid=(2 * MAX_BITS,))


class TestLinearValues:
    """dBm and dB fields must give positive, finite watts and gains, and the
    path-loss exponent must keep the path gains finite."""

    CASES = [
        ({"noise_dbm": 4000.0}, "noise_dbm"),
        ({"noise_dbm": -4000.0}, "noise_dbm"),  # zero watts
        ({"power_dbm_grid": (43.0, 4000.0)}, "power_dbm_grid"),
        ({"power_dbm_grid": (-4000.0,)}, "power_dbm_grid"),
        ({"pl_ref_gain_db": 4000.0}, "pl_ref_gain_db"),
        ({"pl_ref_gain_db": -4000.0}, "pl_ref_gain_db"),
        ({"pl_exponent": -400.0}, "pl_exponent"),
        ({"pl_exponent": -0.5}, "pl_exponent"),
    ]

    @pytest.mark.parametrize("values, field", CASES)
    def test_rejected_from_text_construction_and_replace(self, values, field):
        for build in (lambda: config_from_mapping(parse_config_text(
                          TestDftBudgetLimit.as_text(values))),
                      lambda: ScenarioConfig(**values),
                      lambda: ScenarioConfig().replace(**values)):
            with pytest.raises(ConfigError) as err:
                build()
            assert err.value.field == field

    @pytest.mark.parametrize("field, value", [
        ("pl_exponent", float("inf")), ("pl_exponent", float("nan")),
        ("pl_ref_gain_db", float("inf")), ("pl_ref_gain_db", float("nan")),
    ])
    def test_non_finite_rejected_when_built_directly(self, field, value):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(**{field: value})
        assert err.value.field == field

    def test_extremes_that_stay_in_range_accepted(self):
        # -3200 dBm is a subnormal noise power, still positive
        cfg = ScenarioConfig(noise_dbm=-3200.0, power_dbm_grid=(-300.0, 300.0),
                             pl_ref_gain_db=300.0, pl_exponent=0.0)
        assert 0 < cfg.noise_watts < cfg.power_watts(-300.0)
        assert cfg.power_watts(300.0) < float("inf") and cfg.pl_ref_gain == 1e30
