"""Channel Monte Carlo and slot-reduction tests.

Oracles: pure-absorption runs against the Beer-Lambert law (the analog
estimator is a true Bernoulli count, the analytic-ballistic estimator is
exact up to launch-cone geometry), and the closed-form slot partition
against a dense midpoint-rule convolution.
"""

from __future__ import annotations

import copy
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import uwoc_relay_sim as u
from uwoc_relay_sim import channel
from uwoc_relay_sim.constants import SPEED_OF_LIGHT

from conftest import make_ir

COASTAL = u.WaterProperties.preset("coastal")


# ---------------------------------------------------------------------------
# WaterProperties / LinkGeometry / ImpulseResponse / BitEnergies dataclasses
# ---------------------------------------------------------------------------


def test_water_presets():
    assert set(u.WATER_PRESETS) == {"clear", "coastal", "harbor"}
    w = u.WaterProperties.preset("coastal")
    assert (w.absorption, w.scattering) == (0.179, 0.219)
    assert w.extinction == pytest.approx(0.398)
    assert w.albedo == pytest.approx(0.219 / 0.398)
    assert w.hg_asymmetry == 0.924
    assert w.refractive_index == 1.331
    with pytest.raises(ValueError, match="unknown water preset"):
        u.WaterProperties.preset("lake")


def test_water_properties_validation():
    with pytest.raises(ValueError, match="absorption"):
        u.WaterProperties(absorption=-0.1, scattering=0.2)
    with pytest.raises(ValueError, match="scattering"):
        u.WaterProperties(absorption=0.1, scattering=-0.2)
    with pytest.raises(ValueError, match="hg_asymmetry"):
        u.WaterProperties(absorption=0.1, scattering=0.2, hg_asymmetry=1.0)
    with pytest.raises(ValueError, match="refractive_index"):
        u.WaterProperties(absorption=0.1, scattering=0.2, refractive_index=0.9)
    lossless = u.WaterProperties(absorption=0.0, scattering=0.0)
    assert lossless.extinction == 0.0 and lossless.albedo == 0.0


def test_link_geometry_validation():
    u.LinkGeometry(distance=22.5)  # defaults are valid
    with pytest.raises(ValueError, match="distance"):
        u.LinkGeometry(distance=0.0)
    with pytest.raises(ValueError, match="aperture_diameter"):
        u.LinkGeometry(distance=1.0, aperture_diameter=-0.2)
    with pytest.raises(ValueError, match="half_angle_fov"):
        u.LinkGeometry(distance=1.0, half_angle_fov=90.5)
    with pytest.raises(ValueError, match="beam_divergence_full"):
        u.LinkGeometry(distance=1.0, beam_divergence_full=-0.1)
    with pytest.raises(ValueError, match="wavelength"):
        u.LinkGeometry(distance=1.0, wavelength=0.0)


def test_impulse_response_validation():
    with pytest.raises(ValueError, match="bin_width"):
        u.ImpulseResponse(bin_width=0.0, t_start=0.0, energy_fraction=np.array([0.1]))
    with pytest.raises(ValueError, match="t_start"):
        u.ImpulseResponse(bin_width=1e-10, t_start=-1.0, energy_fraction=np.array([0.1]))
    with pytest.raises(ValueError, match="nonempty"):
        u.ImpulseResponse(bin_width=1e-10, t_start=0.0, energy_fraction=np.array([]))
    with pytest.raises(ValueError, match="finite"):
        u.ImpulseResponse(bin_width=1e-10, t_start=0.0, energy_fraction=np.array([-0.1]))
    with pytest.raises(ValueError, match="exceeds 1"):
        u.ImpulseResponse(bin_width=1e-10, t_start=0.0, energy_fraction=np.array([0.7, 0.7]))
    empty = u.ImpulseResponse(bin_width=1e-10, t_start=0.0, energy_fraction=np.array([0.0]))
    assert empty.is_empty and empty.total_fraction == 0.0


def test_impulse_response_csv_round_trip():
    ir = u.ImpulseResponse(
        bin_width=1e-10,
        t_start=9.989410740946658e-08,
        energy_fraction=np.array([1.5e-4, 0.0, 2.75e-6, 9.1e-9]),
    )
    text = ir.to_csv()
    assert text.splitlines()[0] == "bin_start_s,energy_fraction"
    back = u.ImpulseResponse.from_csv(text)
    assert back.bin_width == ir.bin_width
    assert back.t_start == ir.t_start
    np.testing.assert_array_equal(back.energy_fraction, ir.energy_fraction)
    # A given width that agrees with the starts is accepted.
    assert u.ImpulseResponse.from_csv(text, bin_width=1e-10).bin_width == ir.bin_width
    # A NumPy start (from a NumPy hop length) writes the same plain numbers.
    numpy_start = u.ImpulseResponse(
        bin_width=ir.bin_width, t_start=np.float64(ir.t_start), energy_fraction=ir.energy_fraction
    )
    assert numpy_start.to_csv() == text


@pytest.mark.parametrize("bin_width", [1e-9, 1e-10, 2.5e-11, 1e-11, 1e-12])
@pytest.mark.parametrize("distance", [9.0, 22.5, 45.0, 75.0, 105.0])
def test_impulse_response_csv_round_trip_keeps_the_bin_width(distance, bin_width):
    ir = u.ImpulseResponse(
        bin_width=bin_width,
        t_start=distance * COASTAL.refractive_index / SPEED_OF_LIGHT,
        energy_fraction=np.full(64, 1e-4),
    )
    assert u.ImpulseResponse.from_csv(ir.to_csv()).bin_width == bin_width


def test_impulse_response_csv_round_trip_frames_at_one_bin_per_bit():
    # A 1 ns bin at 1 Gbps: a width read back one ulp wide is wider than a bit.
    ir = u.ImpulseResponse(
        bin_width=1e-9,
        t_start=9.0 * COASTAL.refractive_index / SPEED_OF_LIGHT,
        energy_fraction=np.array([1e-2, 2e-4, 3e-6]),
    )
    want = u.bit_frame_energies(ir, 1e-9)
    got = u.bit_frame_energies(u.ImpulseResponse.from_csv(ir.to_csv()), 1e-9)
    assert got.e_signal == want.e_signal
    assert got.e_isi.tobytes() == want.e_isi.tobytes()


@pytest.mark.parametrize("bin_width", [1.0 / 3e9, 7 * 0.1e-9, 1e-13])
def test_impulse_response_csv_width_reproduces_every_start(bin_width):
    # A width that is no short decimal comes back as the shortest one that
    # writes the same starts.
    ir = u.ImpulseResponse(bin_width=bin_width, t_start=4.7e-7, energy_fraction=np.full(300, 1e-4))
    text = ir.to_csv()
    back = u.ImpulseResponse.from_csv(text)
    assert back.to_csv() == text
    assert len(repr(back.bin_width)) <= len(repr(bin_width))


@pytest.mark.parametrize("water, distance", [
    (u.WaterProperties(absorption=0.0, scattering=0.0), 5.0),  # lossless: all energy in bin 0
    (u.WaterProperties.preset("harbor"), 400.0),  # nothing arrives
], ids=["lossless", "harbor-400m-empty"])
def test_one_bin_response_round_trips_with_its_bin_width(water, distance):
    ir = u.simulate_impulse_response(u.LinkGeometry(distance=distance), water, 1_000, 1e-10, rng_seed=1)
    assert ir.energy_fraction.size == 1
    back = u.ImpulseResponse.from_csv(ir.to_csv(), bin_width=ir.bin_width)
    assert (back.bin_width, back.t_start) == (ir.bin_width, ir.t_start)
    assert back.energy_fraction.tobytes() == ir.energy_fraction.tobytes()


def test_impulse_response_csv_errors():
    with pytest.raises(ValueError, match="header"):
        u.ImpulseResponse.from_csv("time,energy\n0.0,1.0\n")
    single = u.ImpulseResponse(bin_width=1e-10, t_start=0.0, energy_fraction=np.array([1.0]))
    with pytest.raises(ValueError, match="at least 2 bins"):
        u.ImpulseResponse.from_csv(single.to_csv())
    with pytest.raises(ValueError, match="bin_width 1.1e-10 disagrees"):
        u.ImpulseResponse.from_csv("bin_start_s,energy_fraction\n0.0,0.1\n1e-10,0.1\n", bin_width=1.1e-10)
    with pytest.raises(ValueError, match="must increase"):
        u.ImpulseResponse.from_csv("bin_start_s,energy_fraction\n1e-9,0.5\n1e-9,0.5\n")
    with pytest.raises(ValueError, match="not evenly spaced"):
        u.ImpulseResponse.from_csv("bin_start_s,energy_fraction\n0.0,0.1\n1e-9,0.1\n5e-9,0.1\n")
    # Hand-written decimal starts that no float width gives exactly are accepted.
    typed = "bin_start_s,energy_fraction\n0.0,0.1\n1e-10,0.1\n2e-10,0.1\n3e-10,0.1\n"
    assert u.ImpulseResponse.from_csv(typed).bin_width == 1e-10


def test_impulse_response_csv_needs_a_row():
    for text in ("bin_start_s,energy_fraction\n", "bin_start_s,energy_fraction\n\n"):
        with pytest.raises(ValueError, match="^impulse response CSV has no bins$"):
            u.ImpulseResponse.from_csv(text, bin_width=1e-10)


def test_bit_energies_validation():
    be = u.BitEnergies(e_signal=1.7e-4, e_isi=np.array([8e-6, 4e-6]))
    assert be.total == pytest.approx(1.7e-4 + 1.2e-5)
    with pytest.raises(ValueError, match="e_signal"):
        u.BitEnergies(e_signal=-1.0, e_isi=np.array([]))


@pytest.mark.parametrize(
    "e_isi", [np.zeros((2, 2)), np.array([1e-6, -1e-9]), np.array([np.inf]), np.array([np.nan])]
)
def test_bit_energies_reject_isi_that_is_not_1d_finite_and_nonnegative(e_isi):
    with pytest.raises(ValueError, match="^e_isi must be a 1-d array of finite entries >= 0$"):
        u.BitEnergies(e_signal=1.7e-4, e_isi=e_isi)


@pytest.mark.parametrize(
    "memory,rule", [(0, "enumerated"), (u.ISI_ENUMERATION_CAP, "enumerated"),
                    (u.ISI_ENUMERATION_CAP + 1, "convolved")]
)
def test_bit_energies_name_their_isi_average(memory, rule):
    be = u.BitEnergies(e_signal=1.7e-4, e_isi=np.full(memory, 1e-6))
    assert be.isi_average == rule
    values, _ = be.isi_distribution
    # Enumeration lists all 2^L patterns; the grid has far fewer points.
    assert (values.size == 2**memory) == (rule == "enumerated")


def test_bit_energies_cache_their_isi_distribution_read_only():
    taps = np.array([8e-6, 4e-6])
    be = u.BitEnergies(e_signal=1.7e-4, e_isi=taps)
    taps[0] = 1.0  # the caller's array is copied, not kept
    assert be.e_isi.tolist() == [8e-6, 4e-6]
    values, probabilities = be.isi_distribution
    assert be.isi_distribution[0] is values
    assert sorted(values.tolist()) == pytest.approx([0.0, 4e-6, 8e-6, 1.2e-5], abs=1e-20)
    assert probabilities.tolist() == [0.25] * 4
    for array in (be.e_isi, values, probabilities):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


# ---------------------------------------------------------------------------
# Photon tracing vs Beer-Lambert (pure absorption: closed form)
# ---------------------------------------------------------------------------

PURE_ABSORPTION = u.WaterProperties(absorption=0.179, scattering=0.0)
BL_N = 1_000_000


@pytest.mark.parametrize("distance", [9.0, 45.0])
def test_beer_lambert_analog_within_3_sigma(distance):
    # With b = 0 and splitting off, each photon independently reaches the
    # receiver iff its first exponential flight crosses the plane, so the
    # captured fraction is Binomial(n, ~exp(-a d))/n.
    ir = u.simulate_impulse_response(
        u.LinkGeometry(distance=distance),
        PURE_ABSORPTION,
        BL_N,
        1e-10,
        rng_seed=7,
        ballistic_splitting=False,
    )
    p = math.exp(-PURE_ABSORPTION.absorption * distance)
    sigma = math.sqrt(p * (1.0 - p) / BL_N)
    deviation = (ir.total_fraction - p) / sigma
    assert abs(deviation) < 3.0, f"d={distance}: deviation {deviation:.2f} sigma"


@pytest.mark.parametrize("distance", [9.0, 45.0])
def test_beer_lambert_analytic_ballistic(distance):
    # With splitting on, the ballistic deposit is computed analytically per
    # photon; the only spread left is the launch cone's path lengthening
    # (half angle 0.01 degrees), a relative offset of order a*d*theta^2/4
    # ~ 1e-8, far below the 1e-6 assertion.
    ir = u.simulate_impulse_response(
        u.LinkGeometry(distance=distance),
        PURE_ABSORPTION,
        BL_N,
        1e-10,
        rng_seed=7,
    )
    p = math.exp(-PURE_ABSORPTION.absorption * distance)
    assert ir.total_fraction == pytest.approx(p, rel=1e-6)
    assert ir.total_fraction <= p  # cone only lengthens paths


def test_lossless_water_captures_everything():
    ir = u.simulate_impulse_response(
        u.LinkGeometry(distance=5.0),
        u.WaterProperties(absorption=0.0, scattering=0.0),
        10_000,
        1e-10,
        rng_seed=3,
    )
    assert ir.energy_fraction.size == 1
    assert ir.total_fraction == pytest.approx(1.0, abs=1e-15)


def test_analog_and_analytic_ballistic_agree_with_scattering():
    # Same physics, different estimators: totals agree within MC noise.
    geometry = u.LinkGeometry(distance=6.0)
    n = 400_000
    f_analog = u.simulate_impulse_response(
        geometry, COASTAL, n, 1e-10, rng_seed=11, ballistic_splitting=False
    ).total_fraction
    f_split = u.simulate_impulse_response(
        geometry, COASTAL, n, 1e-10, rng_seed=12
    ).total_fraction
    assert f_split == pytest.approx(f_analog, rel=0.03)


def test_capture_decreases_with_distance(ir_coastal_11p25, ir_coastal_22p5, ir_coastal_45):
    f1, f2, f3 = (
        ir_coastal_11p25.total_fraction,
        ir_coastal_22p5.total_fraction,
        ir_coastal_45.total_fraction,
    )
    assert f1 > f2 > f3 > 0.0


def test_frozen_impulse_response_regression(ir_coastal_22p5, ir_coastal_45, ir_coastal_11p25):
    # Pinned outputs for seed 7 / 1e7 photons / default batching; any
    # change to the tracer or its seed contract must be deliberate
    # (scripts/verify_trace_repins.py compares them with the weight floor's).
    assert ir_coastal_11p25.energy_fraction.size == 209
    assert ir_coastal_11p25.total_fraction == pytest.approx(1.526857e-2, rel=5e-6)
    assert ir_coastal_22p5.energy_fraction.size == 450
    assert ir_coastal_22p5.total_fraction == pytest.approx(1.815543e-4, rel=5e-6)
    assert ir_coastal_45.energy_fraction.size == 304
    assert ir_coastal_45.total_fraction == pytest.approx(2.415575e-8, rel=5e-6)


# Byte pins for small traces that together reach every branch of the
# tracer: each water preset at two lengths with and without ballistic
# splitting, lossless water both ways, an exactly on-axis launch (every
# first scatter takes the near-pole rotation), fine bins merged over
# several batches, a weight floor that cuts photons which would otherwise
# arrive (the roulette with survival chance 0, which is the tracer's old
# floor), a roulette threshold raised so that most interactions play it,
# isotropic and backward-peaked scattering, and a trace that receives
# nothing. Any change to the arithmetic or to the order of random
# draws moves a digest. The digests hold for one numpy build on one CPU
# family; a different exp/log implementation may move the last bits.
FROZEN_TRACE_N = 20_000
FROZEN_TRACES = {
    # name: (water, LinkGeometry fields, seed, options, size, sha256); the options go to
    # simulate_impulse_response, except hg_asymmetry, which overrides the water preset's,
    # and the upper-case names, which replace the `channel` constants of that name.
    "clear-9m-split": ("clear", {"distance": 9.0}, 7, {}, 8, "82ac3e5188b434ab5681d47c42e83922f0d621182b4cc1c2dd5c8a866560116c"),
    "clear-9m-analog": ("clear", {"distance": 9.0}, 7, {"ballistic_splitting": False}, 17, "bd31a868e11f7dd441f26ac578931f8b3735e1f247d4eeaac8e1a01e36f00f98"),
    "clear-22.5m-split": ("clear", {"distance": 22.5}, 7, {}, 5, "7703840203f36a6983430f3eb7eff24c340473efd90324d212509e95ce28b08f"),
    "clear-22.5m-analog": ("clear", {"distance": 22.5}, 7, {"ballistic_splitting": False}, 22, "f69cddcfb60d76ab33a3e0fb2997192227250161156b844fd07e0f8451ec2b5f"),
    "coastal-9m-split": ("coastal", {"distance": 9.0}, 7, {}, 10, "c37d429e0a916e9d55a6eaa4d02616127fb2a23ba7d02a00ca85fe365e622cca"),
    "coastal-9m-analog": ("coastal", {"distance": 9.0}, 7, {"ballistic_splitting": False}, 9, "09e6ec5561bed38bd06f572090900e6b49da0935354648f37b0e8002335e1b81"),
    "coastal-22.5m-split": ("coastal", {"distance": 22.5}, 7, {}, 13, "fb3251379d8e4000e00ac18349f869cdc6badc3a70ec29faf254b9eed759812f"),
    "coastal-22.5m-analog": ("coastal", {"distance": 22.5}, 7, {"ballistic_splitting": False}, 1, "865c4c5a2f901cdedea6f73d7571fca895eb4f6319a49d1f099b5fbfb51ff5eb"),
    "harbor-9m-split": ("harbor", {"distance": 9.0}, 7, {}, 62, "47590c8e65614ad393cf83470d1f49d97dfe07b75adee8a8785509c5edda64f7"),
    "harbor-9m-analog": ("harbor", {"distance": 9.0}, 7, {"ballistic_splitting": False}, 44, "cdeefb54e97df2a9cbadd0ce07385df5901e8531a8ec4323339da0d219326850"),
    "harbor-22.5m-split": ("harbor", {"distance": 22.5}, 7, {}, 1, "3bc156bdf60627c9cb820df73c5cb183cbb11b09483cad198e27505c9e26b323"),
    "harbor-22.5m-analog": ("harbor", {"distance": 22.5}, 7, {"ballistic_splitting": False}, 1, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    "lossless-split": ("lossless", {"distance": 5.0}, 3, {}, 1, "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
    "lossless-analog": ("lossless", {"distance": 5.0}, 3, {"ballistic_splitting": False}, 1, "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
    "zero-divergence": ("coastal", {"distance": 9.0, "beam_divergence_full": 0.0}, 7, {}, 10, "09ef06804c4966aa258ac768ec1d3dcd8e0e1e8f3a4214d53e674040ad595453"),
    "fine-bins-small-batches": ("coastal", {"distance": 22.5}, 7, {"bin_width": 1e-11, "TRACE_BATCH": 7000}, 165, "faee49ec66022819a20e87e29c0f8dd84eb8ea471828f2c50856ecf218057be2"),
    "weight-floor-1e-3": ("clear", {"distance": 22.5}, 7, {"ballistic_splitting": False, "ROULETTE_THRESHOLD": 1e-3, "ROULETTE_CHANCE": 0.0}, 6, "7a5afdf9dbedaa651aef6228de6fb671dc284a97e807b6eba7f762549b2617d1"),
    "roulette-threshold-0.3": ("coastal", {"distance": 9.0}, 7, {"ROULETTE_THRESHOLD": 0.3}, 3, "d74fa651e73bd13559de4e59540d1daf72d6360bf1ed9fd415a2bc147c846dd3"),
    "coastal-9m-isotropic": ("coastal", {"distance": 9.0}, 7, {"hg_asymmetry": 0.0}, 2, "25e5d69f39c2dbdf7a23164de176f8afbca5844c5a30794781b30ed3e31cbde3"),
    "coastal-9m-backward-analog": ("coastal", {"distance": 9.0}, 7, {"hg_asymmetry": -0.3, "ballistic_splitting": False}, 844, "d0e522beae132afa932a6dc9e1db4a9a2fb68adfa79067fe59a38f75d98cd7fe"),
    "harbor-60m-empty": ("harbor", {"distance": 60.0}, 1, {"ballistic_splitting": False, "n_photons": 1_000}, 1, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
}


@pytest.mark.parametrize("name", list(FROZEN_TRACES))
def test_trace_bytes_are_frozen(name, monkeypatch):
    assert_frozen_trace(name, monkeypatch)


# Traces that reach the near-pole rotation, lossless water, several
# batches, isotropic scattering, the weight floor, the roulette and the
# analog estimator, each stepped in blocks of 97 photons: a step's blocks,
# like its rotation and its roulette draws, must not move a bit.
@pytest.mark.parametrize("name", [
    "zero-divergence", "lossless-split", "lossless-analog", "fine-bins-small-batches",
    "coastal-9m-isotropic", "weight-floor-1e-3", "roulette-threshold-0.3", "coastal-9m-analog",
])
def test_trace_bytes_do_not_depend_on_the_block_size(name, monkeypatch):
    monkeypatch.setattr(channel, "ROTATION_BLOCK", 97)
    assert_frozen_trace(name, monkeypatch)


def assert_frozen_trace(name, monkeypatch):
    water_name, geometry, seed, options, size, digest = FROZEN_TRACES[name]
    options = dict(options)
    for constant in [key for key in options if key.isupper()]:
        monkeypatch.setattr(channel, constant, options.pop(constant))
    hg = {"hg_asymmetry": options.pop("hg_asymmetry")} if "hg_asymmetry" in options else {}
    water = (
        u.WaterProperties(absorption=0.0, scattering=0.0)
        if water_name == "lossless"
        else u.WaterProperties.preset(water_name, **hg)
    )
    ir = u.simulate_impulse_response(
        u.LinkGeometry(**geometry),
        water,
        options.pop("n_photons", FROZEN_TRACE_N),
        options.pop("bin_width", 1e-10),
        rng_seed=seed,
        **options,
    )
    assert ir.energy_fraction.size == size
    assert hashlib.sha256(ir.energy_fraction.tobytes()).hexdigest() == digest


def test_determinism_and_seed_sensitivity():
    geometry = u.LinkGeometry(distance=9.0)
    a = u.simulate_impulse_response(geometry, COASTAL, 100_000, 1e-10, rng_seed=42)
    b = u.simulate_impulse_response(geometry, COASTAL, 100_000, 1e-10, rng_seed=42)
    c = u.simulate_impulse_response(geometry, COASTAL, 100_000, 1e-10, rng_seed=43)
    np.testing.assert_array_equal(a.energy_fraction, b.energy_fraction)
    assert not np.array_equal(a.energy_fraction, c.energy_fraction)


def test_batching_preserves_seed_contract(monkeypatch):
    # A trace is its batches, each from the next child seed of the seed,
    # merged in order, normalised and trimmed of trailing empty bins.
    monkeypatch.setattr(channel, "TRACE_BATCH", 30_000)
    geometry = u.LinkGeometry(distance=9.0)
    ir = u.simulate_impulse_response(geometry, COASTAL, 90_000, 1e-10, rng_seed=5)
    hist = np.zeros(1)
    for child in np.random.SeedSequence(5).spawn(3):
        part = channel._trace_batch(
            np.random.default_rng(child), 30_000, geometry, COASTAL, 1e-10, ballistic_splitting=True
        )
        hist = channel._add_histograms(hist, part)
    frac = hist / 90_000.0
    merged = frac[: np.flatnonzero(frac)[-1] + 1]
    assert ir.energy_fraction.tobytes() == merged.tobytes()


def test_roulette_is_unbiased(monkeypatch):
    # With the threshold raised to 0.3, coastal photons play the roulette
    # from their second interaction on. Their captured energy and signal
    # slot must match, within 4 batch-means standard errors of the paired
    # difference over ten seeds, those of a trace that stops photons only
    # below 1e-30 of their weight: a floor that leaves nothing measurable.
    geometry = u.LinkGeometry(distance=9.0)

    def per_seed(threshold, chance):
        monkeypatch.setattr(channel, "ROULETTE_THRESHOLD", threshold)
        monkeypatch.setattr(channel, "ROULETTE_CHANCE", chance)
        irs = [u.simulate_impulse_response(geometry, COASTAL, 20_000, 1e-10, seed) for seed in range(10)]
        return np.array([(ir.total_fraction, u.bit_frame_energies(ir, 1e-9).e_signal) for ir in irs])

    diff = per_seed(0.3, 0.1) - per_seed(1e-30, 0.0)
    se = diff.std(axis=0, ddof=1) / np.sqrt(diff.shape[0])
    assert np.all(se > 0.0)
    for name, mean, err in zip(("captured fraction", "e_signal"), diff.mean(axis=0), se):
        assert abs(mean) <= 4.0 * err, f"{name}: roulette minus floor {mean:.3e}, standard error {err:.3e}"


def traced_batch_peak(n):
    """tracemalloc's peak over one coastal 22.5 m `_trace_batch` of n photons."""
    tracemalloc.start()
    try:
        channel._trace_batch(
            np.random.default_rng(1), n, u.LinkGeometry(distance=22.5), COASTAL, 1e-10,
            ballistic_splitting=True,
        )
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_batch_peak_memory_per_photon():
    # Eight state arrays hold 64 bytes per photon, and nothing else may
    # grow with the batch; a step's blocks add a fixed amount, which the
    # slope between two batch sizes cancels.
    traced_batch_peak(1_000)  # one-time allocations of a first trace stay out of the slope
    slope = (traced_batch_peak(200_000) - traced_batch_peak(100_000)) / 100_000
    assert slope <= 66.0, f"peak grows by {slope:.1f} bytes per photon"


def test_trace_batch_transient_memory():
    # Beyond its state a batch holds the workspace its steps write into and
    # what receiving and compacting a block takes: 1.03 MB while each step
    # made a temporary per operation. A workspace kept beside those
    # temporaries instead of replacing them reads about 1.5 MB.
    traced_batch_peak(1_000)
    for n in (100_000, 200_000):
        transient = traced_batch_peak(n) - 64 * n
        assert transient <= 1.03e6, f"{n} photons: {transient / 1e6:.3f} MB beyond the state"


@pytest.mark.parametrize("k", [0, 1, channel.ROTATION_BLOCK - 1, channel.ROTATION_BLOCK + 1, 10**6])
def test_generator_advance_matches_drawn_doubles(k):
    # `_trace_batch` draws a step's scattering cosines from a copy of its
    # generator and advances the generator past them: the trace stays
    # frozen only while advance(k) consumes what random(k) does.
    rng = np.random.default_rng(np.random.SeedSequence(k).spawn(1)[0])
    advanced = copy.deepcopy(rng)
    rng.random(k)
    advanced.bit_generator.advance(k)
    assert advanced.bit_generator.state == rng.bit_generator.state, (
        "Generator.advance(k) no longer equals random(k); _trace_batch's cosine and "
        "azimuth draws would leave the frozen stream order"
    )


def rotate_whole_array(ux, uy, uz, cos_t, phi, trig_dtype=np.float32):
    """The direction update written on whole arrays, one temporary per
    operation: the oracle for the blocked, in-place `_rotate_directions`.
    The azimuth's cosine and sine are taken in `trig_dtype` and everything
    else in float64; with float64 this is the all-double formula."""
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
    cos_p = np.cos(phi.astype(trig_dtype)).astype(np.float64)
    sin_p = np.sin(phi.astype(trig_dtype)).astype(np.float64)
    denom = np.sqrt(np.maximum(1e-24, 1.0 - uz * uz))
    nx = sin_t * (ux * uz * cos_p - uy * sin_p) / denom + ux * cos_t
    ny = sin_t * (uy * uz * cos_p + ux * sin_p) / denom + uy * cos_t
    nz = -sin_t * cos_p * denom + uz * cos_t
    pole = np.flatnonzero(np.abs(uz) > 0.999999)
    nx[pole] = sin_t[pole] * cos_p[pole]
    ny[pole] = sin_t[pole] * sin_p[pole]
    nz[pole] = np.sign(uz[pole]) * cos_t[pole]
    norm = np.sqrt(nx * nx + ny * ny + nz * nz)
    return nx / norm, ny / norm, nz / norm


B = channel.ROTATION_BLOCK
# Exact poles, and |uz| on both sides of the near-pole threshold 0.999999.
POLAR_UZ = [
    1.0, -1.0, 0.999999, -0.999999,
    np.nextafter(0.999999, 2.0), -np.nextafter(0.999999, 2.0),
    np.nextafter(0.999999, 0.0), -np.nextafter(0.999999, 0.0),
]


ROTATION_SIZES = [0, 1, B - 1, B, B + 1, 3 * B + 17]


def rotation_inputs(size):
    """Unit directions with the polar cases, HG cosines and azimuths of `size` photons."""
    rng = np.random.default_rng(size)
    uz = rng.uniform(-1.0, 1.0, size)
    # Scatter the polar values over the array so they fall in different blocks.
    at = rng.choice(size, min(size, len(POLAR_UZ)), replace=False)
    uz[at] = POLAR_UZ[: at.size]
    azimuth = rng.random(size) * (2.0 * np.pi)
    rho = np.sqrt(1.0 - uz * uz)
    ux, uy = rho * np.cos(azimuth), rho * np.sin(azimuth)
    cos_t = channel._henyey_greenstein_cos(COASTAL.hg_asymmetry, rng.random(size))
    phi = rng.random(size) * (2.0 * np.pi)
    return ux, uy, uz, cos_t, phi


def rotate_in_place(ux, uy, uz, cos_t, phi):
    """`_rotate_directions` on copies of the inputs, in a fresh workspace."""
    rotated = ux.copy(), uy.copy(), uz.copy()
    channel._rotate_directions(*rotated, cos_t, phi.copy(), channel._workspace(ux.size))
    return rotated


# The default block keeps its size-only ids; blocks of 1 and 7 photons
# check that the result does not depend on the block size.
@pytest.mark.parametrize("size, block", [
    pytest.param(size, block, id=str(size) if block == B else f"{size}-block{block}")
    for block in (B, 1, 7) for size in ROTATION_SIZES
])
def test_blocked_rotation_is_bit_identical_to_whole_array_formula(monkeypatch, size, block):
    monkeypatch.setattr(channel, "ROTATION_BLOCK", block)
    inputs = rotation_inputs(size)
    expected = rotate_whole_array(*inputs)
    for want, got in zip(expected, rotate_in_place(*inputs)):
        assert np.array_equal(want, got)


@pytest.mark.parametrize("size", ROTATION_SIZES)
def test_rotation_stays_within_1e6_of_the_double_formula_and_unit(size):
    # The float32 azimuth trigonometry moves each component by about 1e-7;
    # the float64 rotation and its renormalization keep |u| = 1 to the
    # last few bits, as the all-double formula does.
    inputs = rotation_inputs(size)
    doubles = rotate_whole_array(*inputs, trig_dtype=np.float64)
    rotated = rotate_in_place(*inputs)
    for want, got in zip(doubles, rotated):
        assert got.dtype == np.float64
        assert np.all(np.abs(got - want) <= 1e-6)
    norm = np.sqrt(rotated[0] ** 2 + rotated[1] ** 2 + rotated[2] ** 2)
    assert np.all(np.abs(norm - 1.0) <= 4 * np.finfo(np.float64).eps)


def test_causality_t_start(ir_coastal_22p5):
    expected = 22.5 * COASTAL.refractive_index / SPEED_OF_LIGHT
    assert ir_coastal_22p5.t_start == expected


def test_no_received_energy_warns_not_raises(caplog):
    # Harbor water at long range: nothing arrives at this photon budget.
    ir = u.simulate_impulse_response(
        u.LinkGeometry(distance=60.0),
        u.WaterProperties.preset("harbor"),
        1_000,
        1e-10,
        rng_seed=1,
        ballistic_splitting=False,
    )
    assert ir.is_empty
    assert ir.energy_fraction.size == 1


def test_simulate_impulse_response_validation():
    geometry = u.LinkGeometry(distance=9.0)
    with pytest.raises(ValueError, match="n_photons"):
        u.simulate_impulse_response(geometry, COASTAL, 0, 1e-10, rng_seed=1)
    with pytest.raises(ValueError, match="bin_width"):
        u.simulate_impulse_response(geometry, COASTAL, 100, 0.0, rng_seed=1)


def water_of_albedo(albedo: float, scattering: float = 0.02) -> u.WaterProperties:
    return u.WaterProperties(absorption=scattering * (1.0 / albedo - 1.0), scattering=scattering)


@pytest.mark.parametrize("albedo", [1.0, 0.99999, 0.9987])
def test_tracer_refuses_water_that_hardly_absorbs(albedo):
    # Each interaction leaves a photon `albedo` of its weight, so it takes
    # ln(1e-6) / ln(albedo) of them to fall below 1e-6 of it: more than
    # 10000 here, and without end at albedo 1.
    with pytest.raises(ValueError, match=r"^albedo b/\(a\+b\) = .* more than 10000 interactions"):
        u.simulate_impulse_response(
            u.LinkGeometry(distance=10.0), water_of_albedo(albedo), 100, 1e-10, rng_seed=1
        )


def test_tracer_accepts_water_just_below_the_albedo_cap():
    water = water_of_albedo(0.9986)
    assert 9_000 < math.log(1e-6) / math.log(water.albedo) < 10_000
    ir = u.simulate_impulse_response(u.LinkGeometry(distance=10.0), water, 100, 1e-10, rng_seed=1)
    assert 0.0 < ir.total_fraction <= 1.0


# ---------------------------------------------------------------------------
# Slot partition (bit_frame_energies) vs dense convolution oracle
# ---------------------------------------------------------------------------


def dense_slot_oracle(ir: u.ImpulseResponse, bit_duration: float, n_slots: int) -> np.ndarray:
    """Midpoint-rule version of the rectangular-pulse slot integral.

    Response mass at delay tau contributes to slot m the overlap of the
    pulse interval [tau, tau + T) with the slot window [mT, (m+1)T),
    i.e. the unit triangle at (tau - mT)/T. Integrating that against each
    bin's uniform density with a dense midpoint rule is an independent
    (if slower) route to the same slot energies.
    """
    per_bin = 4001
    edges = np.arange(ir.energy_fraction.size + 1) * ir.bin_width
    taus = (
        edges[:-1, None]
        + (np.arange(per_bin)[None, :] + 0.5) * (ir.bin_width / per_bin)
    ).ravel()
    dens = np.repeat(ir.energy_fraction / per_bin, per_bin)
    out = np.empty(n_slots)
    for m in range(n_slots):
        x = (taus - m * bit_duration) / bit_duration
        out[m] = float(dens @ np.maximum(0.0, 1.0 - np.abs(x)))
    return out


def test_slot_partition_matches_dense_oracle():
    rng = np.random.default_rng(123)
    frac = rng.random(60) * 1e-4
    frac[rng.random(60) < 0.3] = 0.0
    ir = u.ImpulseResponse(bin_width=1e-10, t_start=0.0, energy_fraction=frac)
    for bit_duration in (1e-9, 2.3e-10):
        energies = u.bit_frame_energies(ir, bit_duration=bit_duration, tail_epsilon=1e-15)
        got = np.concatenate(([energies.e_signal], energies.e_isi))
        want = dense_slot_oracle(ir, bit_duration, got.size)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-20)


def test_slot_partition_hand_case():
    # A single uniform bin exactly one bit wide splits 50/50 between its
    # own slot and the next: the triangle average over [0, T) is 1/2 at
    # offset 0 and 1/2 at offset T.
    ir = u.ImpulseResponse(bin_width=1e-9, t_start=0.0, energy_fraction=np.array([0.4]))
    e = u.bit_frame_energies(ir, bit_duration=1e-9, tail_epsilon=1e-12)
    assert e.e_signal == pytest.approx(0.2, abs=1e-18)
    assert e.memory == 1
    assert e.e_isi[0] == pytest.approx(0.2, abs=1e-18)


def test_slot_sum_telescopes_to_capture(ir_coastal_22p5):
    # With the tail threshold at machine scale the slot partition must
    # conserve the captured fraction exactly (the triangle CDFs telescope).
    e = u.bit_frame_energies(ir_coastal_22p5, bit_duration=1e-9, tail_epsilon=1e-15)
    assert e.total == pytest.approx(ir_coastal_22p5.total_fraction, rel=1e-12)
    # The default tail threshold truncates at most tail_epsilon of the total.
    e_cut = u.bit_frame_energies(ir_coastal_22p5, bit_duration=1e-9)
    lost = ir_coastal_22p5.total_fraction - e_cut.total
    assert 0.0 <= lost <= 1e-6 * ir_coastal_22p5.total_fraction
    assert e_cut.memory <= e.memory


def test_bit_frame_energies_validation(ir_coastal_22p5):
    with pytest.raises(ValueError, match="bit_duration"):
        u.bit_frame_energies(ir_coastal_22p5, bit_duration=0.0)
    with pytest.raises(ValueError, match="tail_epsilon"):
        u.bit_frame_energies(ir_coastal_22p5, 1e-9, tail_epsilon=0.0)
    empty = u.ImpulseResponse(bin_width=1e-10, t_start=0.0, energy_fraction=np.array([0.0]))
    with pytest.raises(ValueError, match="empty"):
        u.bit_frame_energies(empty, 1e-9)


def test_bit_frame_energies_rejects_a_bin_wider_than_a_bit():
    # Slots span the whole binned response, so a wide bin at a short bit
    # means one slot per bit of it: a 1 s bin at 1 ns bits is 1e9 slots.
    wide = u.ImpulseResponse(bin_width=1e-6, t_start=0.0, energy_fraction=np.array([0.4]))
    with pytest.raises(ValueError, match="bin width 1e-06 s exceeds the bit duration 1e-09 s"):
        u.bit_frame_energies(wide, bit_duration=1e-9)


# ---------------------------------------------------------------------------
# channel_memory
# ---------------------------------------------------------------------------


def test_channel_memory_geometric_series():
    # Slot energies r^m with r = 1/2: the tail after slot L is 2^-(L+1)
    # of the total, so epsilon = 1e-6 needs L = 19 (2^-20 < 1e-6 <= 2^-19).
    slots = 0.5 ** np.arange(40)
    assert u.channel_memory(slots, 1e-6) == 19


def test_channel_memory_edges():
    assert u.channel_memory(np.array([1.0]), 1e-6) == 0
    assert u.channel_memory(np.zeros(5), 1e-6) == 0
    assert u.channel_memory(np.array([1.0, 0.0, 0.0]), 1e-6) == 0
    # All mass in a later slot: memory reaches it.
    assert u.channel_memory(np.array([0.0, 0.0, 1.0]), 1e-6) == 2
    with pytest.raises(ValueError, match="tail_epsilon"):
        u.channel_memory(np.array([1.0]), 1.0)
    with pytest.raises(ValueError, match="finite"):
        u.channel_memory(np.array([1.0, -0.5]), 1e-6)
    with pytest.raises(ValueError, match="nonempty"):
        u.channel_memory(np.array([]), 1e-6)


def test_memory_grows_with_data_rate(ir_coastal_22p5):
    memories = [
        u.bit_frame_energies(ir_coastal_22p5, bit_duration=1.0 / rate).memory
        for rate in (20e6, 100e6, 1e9)
    ]
    assert memories[0] <= memories[1] <= memories[2]
    assert memories[2] > memories[0]


def test_fine_binning_refines_but_preserves_totals(fine_irs, ir_coastal_22p5):
    fine = fine_irs[22.5]
    assert fine.bin_width == 1e-11
    assert fine.total_fraction == pytest.approx(ir_coastal_22p5.total_fraction, rel=1e-9)
    e_fine = u.bit_frame_energies(fine, bit_duration=1e-9, tail_epsilon=1e-15)
    e_coarse = u.bit_frame_energies(ir_coastal_22p5, bit_duration=1e-9, tail_epsilon=1e-15)
    # Same mass, different slot split: each bin's mass is treated as
    # uniform over the bin, so the coarse grid smears the ballistic spike
    # across 10% of the slot and pushes a few percent of it into the next
    # slot. Finer bins keep more of the spike in its own slot.
    assert e_fine.total == pytest.approx(e_coarse.total, rel=1e-9)
    assert e_fine.e_signal > e_coarse.e_signal
    assert e_fine.e_signal == pytest.approx(e_coarse.e_signal, rel=0.1)
