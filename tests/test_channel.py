import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fddlink.channel import (
    ArrayGeometry,
    PathSet,
    dl_channel,
    dl_path_gains,
    draw_scene,
    draw_user_paths,
    path_loss,
    perturb_estimates,
    steering_matrix,
    ul_channel,
)
from fddlink.config import ScenarioConfig

GEOM = ArrayGeometry(num_antennas=4, spacing=0.015, lambda_ul=0.03, lambda_dl=0.025)


def make_paths(thetas=0.3, betas=1.0, distances=100.0, phases_ul=0.7, phases_dl=1.9):
    """PathSet with one path per entry of ``thetas``; scalars apply to every path."""
    n = np.size(thetas)
    return PathSet(*(np.broadcast_to(np.asarray(v, dtype=float), (n,))
                     for v in (thetas, betas, distances, phases_ul, phases_dl)))


def steering_vector(theta, wavelength, geom):
    """One steering vector: the single column of steering_matrix."""
    return steering_matrix(np.array([theta]), wavelength, geom)[:, 0]


def assert_same_paths(a, b):
    """Bitwise equality of every per-path array."""
    for f in fields(PathSet):
        assert getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes(), f.name


class TestArrayResponse:
    def test_broadside_is_all_ones(self):
        a = steering_vector(0.0, 0.02, GEOM)
        np.testing.assert_allclose(a, np.ones(4), atol=1e-15)

    def test_half_wavelength_thirty_degrees(self):
        # d = lambda/2 and sin(pi/6) = 1/2 give a per-element phase of -pi/2
        geom = ArrayGeometry(num_antennas=2, spacing=0.0125, lambda_ul=0.03, lambda_dl=0.025)
        a = steering_vector(math.pi / 6, 0.025, geom)
        np.testing.assert_allclose(a, [1.0, -1j], atol=1e-15)

    def test_unit_magnitude(self):
        a = steering_vector(-0.9, 0.025, ArrayGeometry(64, 0.015, 0.03, 0.025))
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-14)

    def test_conjugate_symmetry(self):
        a_pos = steering_vector(0.4, 0.025, GEOM)
        a_neg = steering_vector(-0.4, 0.025, GEOM)
        np.testing.assert_allclose(a_neg, a_pos.conj(), atol=1e-14)

    def test_self_correlation_is_exactly_n(self):
        for n in (4, 64, 257):
            geom = ArrayGeometry(n, 0.015, 0.03, 0.025)
            a = steering_vector(0.77, 0.025, geom)
            assert abs(np.vdot(a, a).real / n - 1.0) < 1e-13

    def test_cross_correlation_decays_with_n(self):
        vals = []
        for n in (64, 256, 1024):
            geom = ArrayGeometry(n, 0.015, 0.03, 0.025)
            a1 = steering_vector(0.3, 0.025, geom)
            a2 = steering_vector(-0.5, 0.025, geom)
            vals.append(abs(np.vdot(a1, a2)) / n)
        assert vals[0] > vals[1] > vals[2]
        assert vals[-1] < 1e-2


class TestPathSet:
    def test_fields_are_read_only_float_copies(self):
        thetas = np.array([0.1, -0.2])
        ps = PathSet(thetas, [1, 2], [3, 4], [0, 0], [0, 0])
        thetas[0] = 0.5
        assert ps.thetas[0] == 0.1
        assert ps.betas.dtype == np.float64
        with pytest.raises(ValueError):
            ps.betas[0] = 0.0
        assert len(ps) == 2

    VALID = dict(thetas=[0.0, 0.5], betas=[1.0, 0.5], distances=[1.0, 2.0],
                 phases_ul=[0.0, 0.0], phases_dl=[0.0, 0.0])

    @pytest.mark.parametrize("change", [
        {name: [] for name in VALID}, dict(betas=[1.0]), dict(phases_dl=[[0.0, 0.0]]),
        dict(betas=[1.0, -1e-12]), dict(thetas=[0.0, 1.6]), dict(thetas=[0.0, np.nan]),
    ])
    def test_rejects_malformed_paths(self, change):
        with pytest.raises(ValueError):
            PathSet(**{**self.VALID, **change})


class TestChannelSynthesis:
    def test_single_unit_path_is_steering_vector(self):
        ps = make_paths(thetas=0.5, betas=1.0, distances=0.0, phases_dl=0.0)
        np.testing.assert_allclose(dl_channel(ps, GEOM),
                                   steering_vector(0.5, GEOM.lambda_dl, GEOM), atol=1e-14)

    def test_zero_gain_path_vanishes(self):
        h2 = dl_channel(make_paths(thetas=(0.2, -0.8), betas=(1.0, 0.0)), GEOM)
        h1 = dl_channel(make_paths(thetas=0.2), GEOM)
        np.testing.assert_allclose(h2, h1, atol=1e-15)

    def test_norm_triangle_bound(self):
        rng = np.random.default_rng(3)
        draws = [(rng.uniform(-1.5, 1.5), rng.uniform(0, 2), rng.uniform(50, 200),
                  rng.uniform(0, 6)) for _ in range(4)]
        thetas, betas, distances, phases_dl = zip(*draws)
        ps = make_paths(thetas=thetas, betas=betas, distances=distances, phases_dl=phases_dl)
        h = dl_channel(ps, GEOM)
        assert np.sum(np.abs(h) ** 2) <= GEOM.num_antennas * ps.betas.sum() ** 2 + 1e-12

    def test_ul_equals_dl_when_parameters_coincide(self):
        geom = ArrayGeometry(num_antennas=8, spacing=0.015, lambda_ul=0.025, lambda_dl=0.025)
        ps = make_paths(phases_ul=1.9, phases_dl=1.9)
        np.testing.assert_allclose(ul_channel(ps, geom), dl_channel(ps, geom), atol=1e-14)

    def test_ul_differs_from_dl_across_bands(self):
        ps = make_paths()
        assert not np.allclose(ul_channel(ps, GEOM), dl_channel(ps, GEOM))

    def test_scaled_path_norm(self):
        ps = make_paths(betas=2.0, distances=0.0, phases_ul=0.0)
        h = ul_channel(ps, GEOM)
        assert abs(np.sum(np.abs(h) ** 2) - 4 * GEOM.num_antennas) < 1e-12

    def test_linear_in_gains(self):
        ps = make_paths(thetas=(0.2, -0.6), betas=(1.0, 0.5))
        doubled = replace(ps, betas=2 * ps.betas)
        np.testing.assert_allclose(dl_channel(doubled, GEOM),
                                   2 * dl_channel(ps, GEOM), atol=1e-14)


class TestPathLoss:
    CFG = ScenarioConfig(pl_exponent=2.0, pl_ref_gain_db=0.0, pl_ref_distance=1.0)

    def test_reference_distance(self):
        assert path_loss(1.0, self.CFG) == pytest.approx(1.0)

    def test_inverse_square(self):
        assert path_loss(2.0, self.CFG) == pytest.approx(0.25)

    def test_monotone(self):
        d = np.linspace(1.0, 300.0, 50)
        vals = [path_loss(x, self.CFG) for x in d]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            path_loss(0.0, self.CFG)


class TestDrawScene:
    def test_seeded_determinism(self):
        cfg = ScenarioConfig(n_users=3, n_paths=4)
        scene1 = draw_scene(cfg, np.random.default_rng(42))
        scene2 = draw_scene(cfg, np.random.default_rng(42))
        for ps1, ps2 in zip(scene1, scene2):
            assert_same_paths(ps1, ps2)

    def test_aoa_mean_matches_uniform_law(self):
        cfg = ScenarioConfig(n_users=1, n_paths=50)
        rng = np.random.default_rng(11)
        thetas = np.concatenate([draw_user_paths(cfg, rng).thetas for _ in range(2000)])
        assert thetas.size == 100_000
        stderr = (math.pi / math.sqrt(12)) / math.sqrt(thetas.size)
        assert abs(thetas.mean()) < 3 * stderr

    def test_flat_decay_profile_gives_equal_gains(self):
        cfg = ScenarioConfig(n_paths=3, decay_ratio=1.0)
        ps = draw_user_paths(cfg, np.random.default_rng(0))
        np.testing.assert_allclose(ps.betas, ps.betas[0])

    def test_phases_cover_both_bands_independently(self):
        cfg = ScenarioConfig(n_users=1, n_paths=40)
        ps = draw_user_paths(cfg, np.random.default_rng(5))
        assert not np.allclose(ps.phases_ul, ps.phases_dl)
        assert np.all((ps.phases_ul >= 0) & (ps.phases_ul < 2 * math.pi))

    def test_cross_path_gains_uncorrelated(self):
        # E[g_l * g_l'] = 0 (plain product) under independent uniform phases
        cfg = ScenarioConfig(n_users=1, n_paths=2)
        rng = np.random.default_rng(8)
        geom = cfg.geometry()
        prods = []
        for _ in range(5000):
            ps = draw_user_paths(cfg, rng)
            g = dl_path_gains(ps, geom) / ps.betas  # unit-modulus phase factors
            prods.append(g[0] * g[1])
        prods = np.asarray(prods)
        stderr = 1.0 / math.sqrt(len(prods))  # |g0*g1| = 1 exactly
        assert abs(prods.mean()) < 3 * stderr


class TestPerturbEstimates:
    def test_zero_noise_is_identity(self):
        ps = make_paths(thetas=(0.3, -0.4))
        out = perturb_estimates(ps, 0.0, 0.0, np.random.default_rng(1))
        assert_same_paths(out, ps)

    def test_folded_gaussian_aoa_error(self):
        sigma = 0.01
        ps = make_paths(thetas=np.zeros(100_000))
        out = perturb_estimates(ps, sigma, 0.0, np.random.default_rng(9))
        err = np.abs(out.thetas - ps.thetas)
        expected = sigma * math.sqrt(2 / math.pi)
        stderr = sigma * math.sqrt(1 - 2 / math.pi) / math.sqrt(len(ps))
        assert abs(err.mean() - expected) < 4 * stderr

    def test_gains_never_negative(self):
        out = perturb_estimates(make_paths(thetas=np.full(500, 0.3), betas=0.01), 0.0, 5.0,
                                np.random.default_rng(2))
        assert np.all(out.betas >= 0.0)

    def test_aoa_stays_in_range(self):
        out = perturb_estimates(make_paths(thetas=np.full(500, 1.5)), 1.0, 0.0,
                                np.random.default_rng(3))
        assert np.all(np.abs(out.thetas) <= math.pi / 2)

    @pytest.mark.parametrize("aoa_sigma, gain_rel_sigma", [(-0.1, 0.0), (0.0, -1e-12)])
    def test_negative_sigma_rejected(self, aoa_sigma, gain_rel_sigma):
        with pytest.raises(ValueError, match="nonnegative"):
            perturb_estimates(make_paths(), aoa_sigma, gain_rel_sigma, np.random.default_rng(0))

    @pytest.mark.parametrize("aoa_sigma, gain_rel_sigma",
                             [(0.05, 0.2), (0.0, 0.3), (0.1, 0.0), (0.0, 0.0), (3.0, 2.0)])
    def test_matches_per_path_scalar_draws(self, aoa_sigma, gain_rel_sigma):
        # reference: path by path, one scalar AoA draw, then one scalar gain draw
        ps = make_paths(thetas=np.linspace(-1.5, 1.5, 8), betas=np.linspace(0.0, 1.0, 8))
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        out = perturb_estimates(ps, aoa_sigma, gain_rel_sigma, rng)
        thetas, betas = [], []
        for theta, beta in zip(ps.thetas, ps.betas):
            if aoa_sigma > 0:
                theta = float(np.clip(theta + ref_rng.normal(0.0, aoa_sigma),
                                      -math.pi / 2, math.pi / 2))
            if gain_rel_sigma > 0:
                beta = max(beta * (1.0 + ref_rng.normal(0.0, gain_rel_sigma)), 0.0)
            thetas.append(theta)
            betas.append(beta)
        assert_same_paths(out, replace(ps, thetas=thetas, betas=betas))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
