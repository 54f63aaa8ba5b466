"""Monte Carlo photon tracing for the underwater optical channel.

A transmitted pulse is traced photon by photon through absorbing and
scattering water to the receiver plane, producing the fading-free
impulse response h0(t) of one hop as a time-binned fraction of the
transmitted energy. The response is then reduced to per-bit-slot energy
fractions (desired signal plus intersymbol leakage) for the receiver
models, together with the distribution of the leakage summed over
equiprobable bit patterns, which every receiver model averages over.

Scattering is Henyey-Greenstein; absorption is handled by survival
weighting (each interaction multiplies the photon weight by the single-
scattering albedo b/c) so no photon is lost to an absorption roulette.
The never-scattered (ballistic) component is accounted analytically by
default, which removes the dominant variance term on long paths where
exp(-c d) arrivals are too rare to sample.

References
----------
L. G. Henyey and J. L. Greenstein, "Diffuse radiation in the galaxy,"
Astrophys. J. 93 (1941).
C. Mobley, "Light and Water: Radiative Transfer in Natural Waters,"
Academic Press, 1994 (inherent optical properties of sea water).
"""

from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import SPEED_OF_LIGHT

__all__ = [
    "WaterProperties",
    "LinkGeometry",
    "ImpulseResponse",
    "BitEnergies",
    "ISI_ENUMERATION_CAP",
    "WATER_PRESETS",
    "simulate_impulse_response",
    "bit_frame_energies",
    "channel_memory",
]

logger = logging.getLogger(__name__)

WATER_PRESETS = {
    "clear": (0.114, 0.037),
    "coastal": (0.179, 0.219),
    "harbor": (0.295, 1.875),
}
"""Absorption/scattering coefficient pairs (1/m) for standard water types."""

DEFAULT_HG_ASYMMETRY = 0.924
DEFAULT_REFRACTIVE_INDEX = 1.331
DEFAULT_WAVELENGTH = 532e-9

DEFAULT_TAIL_EPSILON = 1e-6
"""Relative tail mass of the slot energies left out of the channel memory."""

WEIGHT_FLOOR = 1e-6
"""Photon weight below which tracing stops; bounds runtime in turbid water."""

_MAX_INTERACTIONS = 10_000
"""Most interactions a photon may survive before its weight falls below
`WEIGHT_FLOOR`; water whose albedo allows more is refused (the presets
need at most about 95)."""

TRACE_BATCH = 1_000_000
"""Photons per traced batch, each with its own child seed; bounds peak memory
at about 72 bytes per photon of a batch."""


@dataclass(frozen=True)
class WaterProperties:
    """Inherent optical properties of the water column.

    Parameters
    ----------
    absorption : float
        Absorption coefficient a (1/m).
    scattering : float
        Scattering coefficient b (1/m).
    hg_asymmetry : float
        Henyey-Greenstein asymmetry parameter g in (-1, 1).
    refractive_index : float
        Group refractive index used for time of flight.
    """

    absorption: float
    scattering: float
    hg_asymmetry: float = DEFAULT_HG_ASYMMETRY
    refractive_index: float = DEFAULT_REFRACTIVE_INDEX

    def __post_init__(self) -> None:
        if not (math.isfinite(self.absorption) and self.absorption >= 0.0):
            raise ValueError(f"absorption must be >= 0, got {self.absorption}")
        if not (math.isfinite(self.scattering) and self.scattering >= 0.0):
            raise ValueError(f"scattering must be >= 0, got {self.scattering}")
        if not (math.isfinite(self.hg_asymmetry) and -1.0 < self.hg_asymmetry < 1.0):
            raise ValueError(f"hg_asymmetry must be in (-1, 1), got {self.hg_asymmetry}")
        if not (math.isfinite(self.refractive_index) and self.refractive_index >= 1.0):
            raise ValueError(f"refractive_index must be >= 1, got {self.refractive_index}")

    @property
    def extinction(self) -> float:
        """Beam attenuation coefficient c = a + b (1/m)."""
        return self.absorption + self.scattering

    @property
    def albedo(self) -> float:
        """Single-scattering albedo b / c (0 when the water is lossless)."""
        c = self.extinction
        return self.scattering / c if c > 0.0 else 0.0

    @classmethod
    def preset(cls, name: str, **overrides) -> "WaterProperties":
        """Standard water type by name: 'clear', 'coastal', or 'harbor'."""
        try:
            a, b = WATER_PRESETS[name]
        except KeyError:
            known = ", ".join(sorted(WATER_PRESETS))
            raise ValueError(f"unknown water preset {name!r}; expected one of: {known}") from None
        return cls(absorption=a, scattering=b, **overrides)


@dataclass(frozen=True)
class LinkGeometry:
    """Transmitter/receiver geometry of a single hop.

    The receiver sits on the beam axis at `distance`, facing the
    transmitter, with a circular aperture and a conical field of view.

    Parameters
    ----------
    distance : float
        Hop length d (m).
    aperture_diameter : float
        Receiver aperture diameter D0 (m).
    half_angle_fov : float
        Receiver field-of-view half angle (degrees), in (0, 90].
    beam_divergence_full : float
        Full divergence angle of the transmit beam (degrees), >= 0.
    wavelength : float
        Optical wavelength (m).
    """

    distance: float
    aperture_diameter: float = 0.2
    half_angle_fov: float = 40.0
    beam_divergence_full: float = 0.02
    wavelength: float = DEFAULT_WAVELENGTH

    def __post_init__(self) -> None:
        if not (math.isfinite(self.distance) and self.distance > 0.0):
            raise ValueError(f"distance must be > 0, got {self.distance}")
        if not (math.isfinite(self.aperture_diameter) and self.aperture_diameter > 0.0):
            raise ValueError(f"aperture_diameter must be > 0, got {self.aperture_diameter}")
        if not (math.isfinite(self.half_angle_fov) and 0.0 < self.half_angle_fov <= 90.0):
            raise ValueError(f"half_angle_fov must be in (0, 90], got {self.half_angle_fov}")
        if not (math.isfinite(self.beam_divergence_full) and self.beam_divergence_full >= 0.0):
            raise ValueError(f"beam_divergence_full must be >= 0, got {self.beam_divergence_full}")
        if not (math.isfinite(self.wavelength) and self.wavelength > 0.0):
            raise ValueError(f"wavelength must be > 0, got {self.wavelength}")


@dataclass(frozen=True)
class ImpulseResponse:
    """Time-binned fraction of transmitted energy reaching the receiver.

    Bin k covers [t_start + k*bin_width, t_start + (k+1)*bin_width), with
    t_start = d*n/c the earliest physically possible arrival, so causality
    holds by construction.
    """

    bin_width: float
    t_start: float
    energy_fraction: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bin_width) and self.bin_width > 0.0):
            raise ValueError(f"bin_width must be > 0, got {self.bin_width}")
        if not (math.isfinite(self.t_start) and self.t_start >= 0.0):
            raise ValueError(f"t_start must be >= 0, got {self.t_start}")
        frac = np.asarray(self.energy_fraction, dtype=float)
        if frac.ndim != 1 or frac.size == 0:
            raise ValueError("energy_fraction must be a nonempty 1-d array")
        if np.any(~np.isfinite(frac)) or np.any(frac < 0.0):
            raise ValueError("energy_fraction entries must be finite and >= 0")
        if frac.sum() > 1.0 + 1e-9:
            raise ValueError(f"total energy fraction {frac.sum()} exceeds 1")
        object.__setattr__(self, "energy_fraction", frac)

    @property
    def total_fraction(self) -> float:
        """Captured fraction of the transmitted energy."""
        return float(self.energy_fraction.sum())

    @property
    def is_empty(self) -> bool:
        """True when no photon energy reached the receiver."""
        return self.total_fraction == 0.0

    def to_csv(self) -> str:
        """Serialize as `bin_start_s,energy_fraction` rows (one per bin)."""
        buf = io.StringIO()
        buf.write("bin_start_s,energy_fraction\n")
        for k, frac in enumerate(self.energy_fraction):
            buf.write(f"{float(self.t_start + k * self.bin_width)!r},{float(frac)!r}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ImpulseResponse":
        """Parse the `to_csv` format back into an ImpulseResponse."""
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0].strip() != "bin_start_s,energy_fraction":
            raise ValueError("expected header 'bin_start_s,energy_fraction'")
        starts = []
        fracs = []
        for ln in lines[1:]:
            s, f = ln.split(",")
            starts.append(float(s))
            fracs.append(float(f))
        if len(starts) < 1:
            raise ValueError("impulse response CSV has no bins")
        if len(starts) == 1:
            raise ValueError("impulse response CSV needs at least 2 bins to recover bin_width")
        starts = np.array(starts)
        if not np.all(np.diff(starts) > 0.0):
            raise ValueError("impulse response CSV bin starts must increase")
        width = _bin_width_from_starts(starts)
        if np.max(np.abs(starts[0] + np.arange(starts.size) * width - starts)) > 1e-6 * width:
            raise ValueError("impulse response CSV bin starts are not evenly spaced")
        return cls(bin_width=width, t_start=float(starts[0]), energy_fraction=np.array(fracs))


def _bin_width_from_starts(starts: np.ndarray) -> float:
    """The shortest decimal width w for which starts[0] + k*w gives every start.

    Placing each start starts[0] + k*w early or late is monotone in w, so
    bisection over the ordered bit patterns of positive floats finds the
    smallest w that places none early and the largest that places none
    late. For starts that `to_csv` wrote, every width between them gives
    every start exactly; of those, the one with the fewest significant
    digits is returned; for starts that no width gives exactly, the
    shortest decimal between the two bounds.
    """
    k = np.arange(starts.size, dtype=float)

    def placed(bits: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            return starts[0] + k * np.int64(bits).view(np.float64) - starts

    def first_bits(pred) -> int:
        # Smallest positive finite float, as bits, where pred turns True.
        lo, hi = 1, int(np.float64(np.finfo(float).max).view(np.int64))
        while lo < hi:
            mid = (lo + hi) // 2
            if pred(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    none_early = first_bits(lambda b: not np.any(placed(b) < 0.0))
    none_late = first_bits(lambda b: np.any(placed(b) > 0.0)) - 1
    low, high = sorted(float(np.int64(b).view(np.float64)) for b in (none_early, none_late))
    # If a decimal of some length lies in [low, high], rounding low, high or
    # their midpoint to that length gives one; 17 digits give low itself.
    for digits in range(1, 17):
        for x in (low, low + (high - low) / 2.0, high):
            width = float(f"{x:.{digits - 1}e}")
            if low <= width <= high:
                return width
    return low


ISI_ENUMERATION_CAP = 16
"""Largest channel memory averaged by exhaustive 2^L pattern enumeration.

Longer memories are averaged over the distribution of the ISI sum,
convolved tap by tap on a grid of _ISI_GRID_POINTS points."""

_ISI_GRID_POINTS = 1 << 14


def _isi_distribution(e_isi: np.ndarray, grid_points: int | None = None):
    """Values of the ISI energy sum_k b_k e_isi[k] over fair bits, and their probabilities.

    Up to ISI_ENUMERATION_CAP taps every one of the 2^L patterns is
    listed, each with probability 2^-L. Beyond the cap the distribution
    of the sum is built by convolving the taps one at a time on a uniform
    grid of `grid_points` (default _ISI_GRID_POINTS) points spanning
    [0, sum(e_isi)]. A tap that falls between two grid points splits its
    mass between them in the proportion that keeps its mean exact, so the
    error this adds to a smooth average is second order in the grid step.
    Time is O(L * grid_points) and memory O(grid_points + L). Only values
    of nonzero probability are returned.
    """
    memory = e_isi.size
    if memory <= ISI_ENUMERATION_CAP:
        sums = np.zeros(1)
        for e in e_isi:
            sums = np.concatenate([sums, sums + e])
        return sums, np.full(sums.size, 1.0 / sums.size)
    total = float(e_isi.sum())
    if total == 0.0:
        return np.zeros(1), np.ones(1)
    grid_points = _ISI_GRID_POINTS if grid_points is None else grid_points
    step = total / (grid_points - 1)
    # Rounding each tap up adds at most one point per tap past the last.
    pmf = np.zeros(grid_points + memory + 1)
    pmf[0] = 1.0
    for e in e_isi:
        j, frac = divmod(float(e) / step, 1.0)
        j = int(j)
        moved = 0.5 * pmf[: pmf.size - j]
        pmf *= 0.5
        pmf[j:] += (1.0 - frac) * moved
        pmf[j + 1:] += frac * moved[:-1]
    nonzero = np.flatnonzero(pmf)
    return nonzero * step, pmf[nonzero]


@dataclass(frozen=True)
class BitEnergies:
    """Per-bit-slot energy fractions seen by an integrate-and-dump receiver.

    e_signal is the fraction of one bit's transmitted energy that lands in
    its own slot; e_isi[k-1] is the fraction leaking into the k-th later
    slot, for k = 1..memory.
    """

    e_signal: float
    e_isi: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.e_signal) and self.e_signal >= 0.0):
            raise ValueError(f"e_signal must be >= 0, got {self.e_signal}")
        # A read-only copy, so that `isi_distribution` cannot go stale.
        isi = np.array(self.e_isi, dtype=float)
        if isi.ndim != 1 or np.any(~np.isfinite(isi)) or np.any(isi < 0.0):
            raise ValueError("e_isi must be a 1-d array of finite entries >= 0")
        isi.setflags(write=False)
        object.__setattr__(self, "e_isi", isi)

    @property
    def memory(self) -> int:
        """Channel memory L: the number of later slots the bit leaks into."""
        return self.e_isi.size

    @property
    def total(self) -> float:
        """e_signal plus all ISI leakage."""
        return float(self.e_signal + self.e_isi.sum())

    @cached_property
    def isi_distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Values of the ISI energy over equiprobable bit patterns, and their probabilities.

        See `_isi_distribution`. Computed once per instance, since every
        method and power point of a hop averages over the same
        distribution; both arrays are read-only.
        """
        values, probabilities = _isi_distribution(self.e_isi)
        values.setflags(write=False)
        probabilities.setflags(write=False)
        return values, probabilities


def _henyey_greenstein_cos(g: float, u: np.ndarray) -> np.ndarray:
    """Scattering-angle cosines from uniform deviates u in [0, 1), computed in place in u."""
    if abs(g) < 1e-12:
        u *= 2.0
        return np.subtract(1.0, u, out=u)
    # frac = (1 - g^2) / (1 - g + 2 g u), then cos = (1 + g^2 - frac^2) / (2 g).
    u *= 2.0 * g
    u += 1.0 - g
    np.divide(1.0 - g * g, u, out=u)
    np.multiply(u, u, out=u)
    np.subtract(1.0 + g * g, u, out=u)
    return np.divide(u, 2.0 * g, out=u)


ROTATION_BLOCK = 8192
"""Photons per block of a tracer step: one block's temporaries fit in cache."""


def _rotate_directions(ux, uy, uz, cos_t, phi) -> None:
    """Rotate unit vectors, in place, by polar angle theta (cos_t) and azimuth phi.

    The formula runs on blocks of `ROTATION_BLOCK` photons, so its
    temporaries stay cache-sized; each element sees the same operations as
    on the whole array, so the result does not depend on the block size.
    """
    for lo in range(0, ux.size, ROTATION_BLOCK):
        blk = slice(lo, lo + ROTATION_BLOCK)
        bx, by, bz, bc = ux[blk], uy[blk], uz[blk], cos_t[blk]
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - bc * bc))
        cos_p = np.cos(phi[blk])
        sin_p = np.sin(phi[blk])
        denom = np.sqrt(np.maximum(1e-24, 1.0 - bz * bz))
        nx = sin_t * (bx * bz * cos_p - by * sin_p) / denom + bx * bc
        ny = sin_t * (by * bz * cos_p + bx * sin_p) / denom + by * bc
        nz = -sin_t * cos_p * denom + bz * bc
        # Along the z axis the frame above is undefined; rotate about z instead.
        pole = np.flatnonzero(np.abs(bz) > 0.999999)
        nx[pole] = sin_t[pole] * cos_p[pole]
        ny[pole] = sin_t[pole] * sin_p[pole]
        nz[pole] = np.sign(bz[pole]) * bc[pole]
        norm = np.sqrt(nx * nx + ny * ny + nz * nz)
        np.divide(nx, norm, out=bx)
        np.divide(ny, norm, out=by)
        np.divide(nz, norm, out=bz)


def _add_histograms(total: np.ndarray, part: np.ndarray) -> np.ndarray:
    """Sum two histograms that share bin 0; the result may reuse either array."""
    if part.size > total.size:
        total, part = part, total
    total[: part.size] += part
    return total


def _launch_directions(rng: np.random.Generator, theta_half: float, ux, uy, uz) -> None:
    """Fill (ux, uy, uz) with unit vectors uniform over the cone of half angle
    theta_half around +z."""
    rng.random(out=uz)
    uz *= 1.0 - math.cos(theta_half)
    np.subtract(1.0, uz, out=uz)
    rng.random(out=uy)
    uy *= 2.0 * np.pi
    for lo in range(0, uz.size, ROTATION_BLOCK):
        blk = slice(lo, lo + ROTATION_BLOCK)
        cos_l, phi_l = uz[blk], uy[blk]
        sin_l = np.sqrt(np.maximum(0.0, 1.0 - cos_l * cos_l))
        np.multiply(sin_l, np.cos(phi_l), out=ux[blk])
        np.multiply(sin_l, np.sin(phi_l), out=phi_l)


def _trace_batch(
    rng: np.random.Generator,
    n: int,
    geometry: LinkGeometry,
    water: WaterProperties,
    bin_width: float,
    ballistic_splitting: bool,
) -> np.ndarray:
    """Trace one photon batch; returns the summed weight histogram (not normalized).

    The batch lives in one preallocated state of eight arrays plus one
    buffer of scattering cosines. Each step runs over blocks of
    `ROTATION_BLOCK` live photons and compacts the kept ones, in place, into
    the front of the state. A step draws, in this order, the free paths of
    all live photons, the scattering cosines of all kept ones, and their
    azimuths; a draw split into consecutive chunks of one distribution
    returns the same values, so the trace does not depend on the block size.
    """
    d = geometry.distance
    r_ap = geometry.aperture_diameter / 2.0
    cos_fov = math.cos(math.radians(geometry.half_angle_fov))
    theta_half = math.radians(geometry.beam_divergence_full / 2.0)
    c = water.extinction
    albedo = water.albedo
    n_water = water.refractive_index
    t_start = d * n_water / SPEED_OF_LIGHT
    hist = np.zeros(1)

    def receive(block: np.ndarray, s_plane: np.ndarray, crossed: np.ndarray, ballistic: bool) -> None:
        """Deposit the photons of `block` in mask `crossed`, which reach the
        plane on the current flight, that land inside the aperture and field
        of view. On the `ballistic` (analytic first) flight each weight also
        carries the survival exp(-c s) to the plane."""
        nonlocal step_hist
        bux, buy, buz, bx, by, _, bw, bpath = block
        idx = np.flatnonzero(crossed)
        s = s_plane[idx]
        xc = bx[idx] + s * bux[idx]
        yc = by[idx] + s * buy[idx]
        ok = (xc * xc + yc * yc <= r_ap * r_ap) & (buz[idx] >= cos_fov)
        if not ok.any():
            return
        idx = idx[ok]
        s = s[ok]
        weights = bw[idx] * np.exp(-c * s) if ballistic else bw[idx]
        arrival_times = (bpath[idx] + s) * n_water / SPEED_OF_LIGHT
        bins = np.floor((arrival_times - t_start) / bin_width).astype(np.int64)
        # Guard against -1 from float cancellation right at t_start.
        bins = np.maximum(bins, 0)
        top = int(bins.max()) + 1
        if top > step_hist.size:
            step_hist = np.concatenate((step_hist, np.zeros(top - step_hist.size)))
        # Adds in photon order, as one bincount of the whole step would.
        np.add.at(step_hist, bins, weights)

    # Rows: direction (ux, uy, uz), position (x, y, z), weight, path length.
    state = np.zeros((8, n))
    ux, uy, uz = state[:3]
    _launch_directions(rng, theta_half, ux, uy, uz)
    state[6] = 1.0
    cos_t = np.empty(n)

    # Lossless water has no interactions, so its analytic first flight is
    # the whole trace (and exp(-c s) is exactly 1).
    analytic_flight = ballistic_splitting or c == 0.0
    live = n
    while live:
        step_hist = np.zeros(0)
        kept = 0
        for lo in range(0, live, ROTATION_BLOCK):
            block = state[:, lo : min(lo + ROTATION_BLOCK, live)]
            bux, buy, buz, bx, by, bz, bw, bpath = block
            with np.errstate(divide="ignore", invalid="ignore"):
                s_plane = (d - bz) / buz
            s_plane[buz <= 0.0] = np.inf
            if analytic_flight:
                # Never-scattered contribution integrated analytically, then the
                # first interaction is forced to happen before the plane with
                # the complementary weight. Unbiased; kills the exp(-c d)
                # rare-arrival variance that dominates long hops.
                receive(block, s_plane, np.isfinite(s_plane), ballistic=True)
                if c == 0.0:
                    continue
                p_interact = -np.expm1(-c * s_plane)
                step = -np.log1p(-rng.random(s_plane.size) * p_interact) / c
                bw *= p_interact
                crossed = np.zeros(s_plane.size, dtype=bool)  # the forced interaction comes first
            else:
                step = rng.exponential(1.0 / c, s_plane.size)
                crossed = s_plane <= step
                receive(block, s_plane, crossed, ballistic=False)

            # Photons that hit the plane terminate there; the rest interact,
            # and those whose weight falls below the floor stop.
            bw *= albedo
            keep = np.flatnonzero(~crossed & (bw >= WEIGHT_FLOOR))
            bx += step * bux
            by += step * buy
            bz += step * buz
            bpath += step
            if kept < lo or keep.size < bw.size:
                state[:, kept : kept + keep.size] = block[:, keep]
            kept += keep.size
        if step_hist.size:
            hist = _add_histograms(hist, step_hist)
        analytic_flight = False
        live = kept

        _henyey_greenstein_cos(water.hg_asymmetry, rng.random(out=cos_t[:live]))
        for lo in range(0, live, ROTATION_BLOCK):
            blk = slice(lo, min(lo + ROTATION_BLOCK, live))
            phi = rng.random(blk.stop - lo) * (2.0 * np.pi)
            _rotate_directions(ux[blk], uy[blk], uz[blk], cos_t[blk], phi)
    return hist


def simulate_impulse_response(
    geometry: LinkGeometry,
    water: WaterProperties,
    n_photons: int,
    bin_width: float,
    rng_seed: int,
    *,
    ballistic_splitting: bool = True,
) -> ImpulseResponse:
    """Monte Carlo estimate of the fading-free impulse response of one hop.

    Photons launch at the origin into a cone of the configured beam
    divergence, fly exponential free paths with rate c = a + b, scatter
    through Henyey-Greenstein angles, and lose weight by the albedo b/c at
    each interaction (weights below `WEIGHT_FLOOR` terminate). A photon is
    recorded when it crosses the receiver plane inside the aperture with
    arrival direction within the field-of-view cone; any plane crossing
    terminates the photon. Water whose albedo keeps a photon above the
    floor for more than `_MAX_INTERACTIONS` interactions (albedo above
    about 0.99862) is refused with a ValueError, since nothing else bounds
    the trace.

    Photons are traced in batches of `TRACE_BATCH`, each driven by a child
    seed spawned from `rng_seed` in a fixed order, so results are
    reproducible and independent of how batches are executed: a given
    seed always yields bit-identical output. Peak memory scales with
    `TRACE_BATCH`, not with `n_photons`: a batch holds about 72 bytes per
    photon at its peak (about 72 MB for a full batch).

    With `ballistic_splitting` (default) the never-scattered energy is
    added analytically and the traced photons importance-sample the
    scattered field; disabling it gives the plain analog estimator, which
    needs of order exp(+c d) photons to resolve the ballistic arrival.

    Returns
    -------
    ImpulseResponse
        Binned energy fractions; all-zero (and logged) if nothing arrived.
    """
    if not isinstance(n_photons, (int, np.integer)) or n_photons < 1:
        raise ValueError(f"n_photons must be a positive integer, got {n_photons!r}")
    if not (math.isfinite(bin_width) and bin_width > 0.0):
        raise ValueError(f"bin_width must be > 0, got {bin_width}")
    # ln(WEIGHT_FLOOR) / ln(albedo) interactions reach the floor.
    if water.albedo > WEIGHT_FLOOR ** (1.0 / _MAX_INTERACTIONS):
        raise ValueError(
            f"albedo b/(a+b) = {water.albedo:.8g} keeps a photon above the weight floor "
            f"{WEIGHT_FLOOR:g} for more than {_MAX_INTERACTIONS} interactions; "
            "raise the absorption"
        )

    n_batches = -(-int(n_photons) // TRACE_BATCH)
    hist = np.zeros(1)
    remaining = int(n_photons)
    for child in np.random.SeedSequence(rng_seed).spawn(n_batches):
        n_batch = min(TRACE_BATCH, remaining)
        remaining -= n_batch
        part = _trace_batch(
            np.random.default_rng(child), n_batch, geometry, water, bin_width, ballistic_splitting
        )
        hist = _add_histograms(hist, part)

    frac = hist / float(n_photons)
    # Trim trailing zero bins but always keep at least one.
    nonzero = np.nonzero(frac)[0]
    if nonzero.size:
        frac = frac[: nonzero[-1] + 1]
    else:
        frac = frac[:1]
        logger.warning(
            "no photons received (d=%g m, %d photons); impulse response is all zero",
            geometry.distance,
            n_photons,
        )
    t_start = geometry.distance * water.refractive_index / SPEED_OF_LIGHT
    return ImpulseResponse(bin_width=bin_width, t_start=t_start, energy_fraction=frac)


def _unit_triangle_cdf(x: np.ndarray) -> np.ndarray:
    """Antiderivative of the unit triangle max(0, 1 - |x|), from -inf."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    rising = (x > -1.0) & (x <= 0.0)
    falling = (x > 0.0) & (x <= 1.0)
    out[rising] = 0.5 * (x[rising] + 1.0) ** 2
    out[falling] = 1.0 - 0.5 * (1.0 - x[falling]) ** 2
    out[x > 1.0] = 1.0
    return out


def bit_frame_energies(
    ir: ImpulseResponse,
    bit_duration: float,
    tail_epsilon: float = DEFAULT_TAIL_EPSILON,
) -> BitEnergies:
    """Reduce an impulse response to per-bit-slot energy fractions.

    The transmitted pulse is a full-slot rectangle (OOK NRZ). Convolving
    it with the response and integrating the result over the 0th receive
    slot, for each transmit offset of k bit periods, amounts to averaging
    a unit triangle of base 2*bit_duration centered at k*bit_duration over
    each response bin. That average has a closed form, so slot energies
    are exact for the binned response (no quadrature grid), and the slot
    sum telescopes to the captured fraction exactly.

    Slots are indexed from t_start: slot m covers
    [t_start + m*T_b, t_start + (m+1)*T_b).

    Parameters
    ----------
    ir : ImpulseResponse
    bit_duration : float
        Bit period T_b (s).
    tail_epsilon : float
        Relative tail mass excluded when picking the channel memory.

    Returns
    -------
    BitEnergies
    """
    if not (math.isfinite(bit_duration) and bit_duration > 0.0):
        raise ValueError(f"bit_duration must be > 0, got {bit_duration}")
    if not (0.0 < tail_epsilon < 1.0):
        raise ValueError(f"tail_epsilon must be in (0, 1), got {tail_epsilon}")
    if ir.bin_width > bit_duration:
        # One slot per bit of the whole trace: a 1 s bin at 1 ns bits is 1e9 slots.
        raise ValueError(f"bin width {ir.bin_width} s exceeds the bit duration {bit_duration} s")
    frac = ir.energy_fraction
    if frac.sum() == 0.0:
        raise ValueError("impulse response is empty; no received energy to partition")

    edges = np.arange(frac.size + 1) * ir.bin_width
    n_slots = int(math.ceil(edges[-1] / bit_duration)) + 1
    slot_energy = np.empty(n_slots + 1)
    scale = bit_duration / ir.bin_width
    for m in range(n_slots + 1):
        g = _unit_triangle_cdf((edges - m * bit_duration) / bit_duration)
        slot_energy[m] = float(frac @ (g[1:] - g[:-1])) * scale

    memory = channel_memory(slot_energy, tail_epsilon)
    return BitEnergies(
        e_signal=float(slot_energy[0]),
        e_isi=slot_energy[1 : memory + 1],
    )


def channel_memory(response_energy_per_slot, tail_epsilon: float) -> int:
    """Number of bit slots whose leakage matters: the ISI depth L.

    Returns the smallest L such that the energy beyond slot L is below
    tail_epsilon times the total slot energy.
    """
    if not (0.0 < tail_epsilon < 1.0):
        raise ValueError(f"tail_epsilon must be in (0, 1), got {tail_epsilon}")
    energies = np.asarray(response_energy_per_slot, dtype=float)
    if energies.ndim != 1 or energies.size == 0:
        raise ValueError("slot energies must be a nonempty 1-d array")
    if np.any(~np.isfinite(energies)) or np.any(energies < 0.0):
        raise ValueError("slot energies must be finite and >= 0")
    total = energies.sum()
    if total == 0.0:
        return 0
    tail = total - np.cumsum(energies)
    below = tail < tail_epsilon * total
    # cumsum makes the tail nonincreasing, so the first True is the answer.
    return int(np.argmax(below))
