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
scattering albedo b/c), so absorption alone never ends a photon. A
photon whose weight has fallen below `ROULETTE_THRESHOLD` plays Russian
roulette: it survives with chance `ROULETTE_CHANCE`, and a survivor's
weight is divided by that chance, so the expected weight, and with it
every estimate, is unchanged. The never-scattered (ballistic) component
is accounted analytically by default, which removes the dominant
variance term on long paths where exp(-c d) arrivals are too rare to
sample.

References
----------
L. G. Henyey and J. L. Greenstein, "Diffuse radiation in the galaxy,"
Astrophys. J. 93 (1941).
C. Mobley, "Light and Water: Radiative Transfer in Natural Waters,"
Academic Press, 1994 (inherent optical properties of sea water).
L. Wang, S. L. Jacques and L. Zheng, "MCML - Monte Carlo modeling of
light transport in multi-layered tissues," Comput. Methods Programs
Biomed. 47 (1995) (Russian roulette).
"""

from __future__ import annotations

import copy
import io
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import check_bound, is_finite

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

ROULETTE_THRESHOLD = 1e-4
"""Fraction of its launch weight below which a photon plays Russian roulette."""

ROULETTE_CHANCE = 0.1
"""Chance that a photon survives the roulette; a survivor's weight is divided by it."""

_MAX_ALBEDO = 1e-6 ** (1.0 / 10_000)
"""Highest albedo the tracer accepts (about 0.99862): no photon may keep
more than 1e-6 of its weight for more than 10000 interactions. Off the
receiver plane only absorption and the roulette end a trace, and at
albedo 1 no weight ever falls; the presets reach `ROULETTE_THRESHOLD`
within about 63 interactions."""

TRACE_BATCH = 1_000_000
"""Photons per traced batch, each with its own child seed; bounds peak memory
at about 64 bytes per photon of a batch."""


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
        check_bound("absorption", self.absorption, ">=", 0)
        check_bound("scattering", self.scattering, ">=", 0)
        check_bound("hg_asymmetry", self.hg_asymmetry, "in", (-1, 1))
        check_bound("refractive_index", self.refractive_index, ">=", 1)

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
        check_bound("distance", self.distance, ">", 0)
        check_bound("aperture_diameter", self.aperture_diameter, ">", 0)
        if not (is_finite(self.half_angle_fov) and 0.0 < self.half_angle_fov <= 90.0):
            raise ValueError(f"half_angle_fov must be in (0, 90], got {self.half_angle_fov}")
        check_bound("beam_divergence_full", self.beam_divergence_full, ">=", 0)
        check_bound("wavelength", self.wavelength, ">", 0)


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
        check_bound("bin_width", self.bin_width, ">", 0)
        check_bound("t_start", self.t_start, ">=", 0)
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
        check_bound("e_signal", self.e_signal, ">=", 0)
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
    def isi_average(self) -> str:
        """How `isi_distribution` averages the patterns: "enumerated" or "convolved".

        Every 2^L pattern is listed up to ISI_ENUMERATION_CAP; beyond it the
        distribution of the ISI sum is convolved on a grid (see `_isi_distribution`).
        """
        return "enumerated" if self.memory <= ISI_ENUMERATION_CAP else "convolved"

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

    @cached_property
    def coarse_isi_distribution(self) -> tuple[int, np.ndarray, np.ndarray]:
        """The convolution grid's size, and the ISI distribution on a grid half as fine.

        Meant for a convolved average (memory beyond ISI_ENUMERATION_CAP):
        the same average over both distributions shows the grid's error.
        Computed once per instance, like `isi_distribution`; both arrays
        are read-only.
        """
        grid_points = _ISI_GRID_POINTS
        values, probabilities = _isi_distribution(self.e_isi, grid_points // 2)
        values.setflags(write=False)
        probabilities.setflags(write=False)
        return grid_points, values, probabilities


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
"""Photons per block of a tracer step. A batch's steps write every
intermediate into one `_workspace` of rows this long, which stays in cache."""


def _workspace(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eight rows of `width` doubles, three of `width` bools and two of
    `width` float32s (the rotation's azimuths and their cosines and sines):
    all that one block of a tracer's launch, step pass or rotation writes
    besides the photon state, the deposits' bins and the indices of the
    photons kept, crossing or playing the roulette. The passes take turns
    with the rows."""
    return (
        np.empty((8, width)), np.empty((3, width), dtype=bool), np.empty((2, width), dtype=np.float32)
    )


def _rotate_directions(ux, uy, uz, cos_t, phi, work) -> None:
    """Rotate unit vectors, in place, by polar angle theta (cos_t) and azimuth phi.

    The cosine and sine of phi are taken in float32, where numpy runs a
    SIMD kernel instead of calling libm per element, and written back as
    doubles; everything else is float64, and the final renormalization
    absorbs their error of about 1e-7 in cos^2 + sin^2.

    Every intermediate goes to rows 2-7, the first bool row and the float32
    rows of `work`, a `_workspace` at least as wide as ux, so cos_t and phi
    may be its first two rows; phi is left holding sin(phi). Each element
    sees the operations of the whole-array formula in their order, whatever
    the array size, so the result does not depend on the block size.
    """
    size = ux.size
    rows, flags, singles = work
    sin_t, cos_p, denom, nx, ny, nz = rows[2:, :size]
    pole = flags[0, :size]
    phi_single, trig_single = singles[:, :size]
    # sin_t = sqrt(max(0, 1 - cos_t^2)); denom = sqrt(max(1e-24, 1 - uz^2)).
    np.multiply(cos_t, cos_t, out=sin_t)
    np.subtract(1.0, sin_t, out=sin_t)
    np.maximum(0.0, sin_t, out=sin_t)
    np.sqrt(sin_t, out=sin_t)
    np.copyto(phi_single, phi, casting="same_kind")
    np.copyto(cos_p, np.cos(phi_single, out=trig_single))
    np.copyto(phi, np.sin(phi_single, out=trig_single))
    sin_p = phi
    np.multiply(uz, uz, out=denom)
    np.subtract(1.0, denom, out=denom)
    np.maximum(1e-24, denom, out=denom)
    np.sqrt(denom, out=denom)
    # nx = sin_t (ux uz cos_p - uy sin_p) / denom + ux cos_t, with nz as scratch.
    np.multiply(ux, uz, out=nx)
    nx *= cos_p
    nx -= np.multiply(uy, sin_p, out=nz)
    nx *= sin_t
    nx /= denom
    nx += np.multiply(ux, cos_t, out=nz)
    # ny = sin_t (uy uz cos_p + ux sin_p) / denom + uy cos_t.
    np.multiply(uy, uz, out=ny)
    ny *= cos_p
    ny += np.multiply(ux, sin_p, out=nz)
    ny *= sin_t
    ny /= denom
    ny += np.multiply(uy, cos_t, out=nz)
    # nz = (-sin_t) cos_p denom + uz cos_t, after which denom is scratch.
    np.negative(sin_t, out=nz)
    nz *= cos_p
    nz *= denom
    nz += np.multiply(uz, cos_t, out=denom)
    # Along the z axis the frame above is undefined; rotate about z instead.
    np.greater(np.abs(uz, out=denom), 0.999999, out=pole)
    at = np.flatnonzero(pole)
    if at.size:
        nx[at] = sin_t[at] * cos_p[at]
        ny[at] = sin_t[at] * sin_p[at]
        nz[at] = np.sign(uz[at]) * cos_t[at]
    # norm = (nx^2 + ny^2) + nz^2, with cos_p as scratch.
    norm = np.multiply(nx, nx, out=denom)
    norm += np.multiply(ny, ny, out=cos_p)
    norm += np.multiply(nz, nz, out=cos_p)
    np.sqrt(norm, out=norm)
    np.divide(nx, norm, out=ux)
    np.divide(ny, norm, out=uy)
    np.divide(nz, norm, out=uz)


def _add_histograms(total: np.ndarray, part: np.ndarray) -> np.ndarray:
    """Sum two histograms that share bin 0; the result may reuse either array."""
    if part.size > total.size:
        total, part = part, total
    total[: part.size] += part
    return total


def _launch_directions(rng: np.random.Generator, theta_half: float, ux, uy, uz, sines) -> None:
    """Fill (ux, uy, uz) with unit vectors uniform over the cone of half angle
    theta_half around +z. `sines`, a row of `ROTATION_BLOCK` doubles (or of
    as many as ux holds, if fewer), takes each block's polar-angle sines."""
    rng.random(out=uz)
    uz *= 1.0 - math.cos(theta_half)
    np.subtract(1.0, uz, out=uz)
    rng.random(out=uy)
    uy *= 2.0 * np.pi
    for lo in range(0, uz.size, ROTATION_BLOCK):
        blk = slice(lo, lo + ROTATION_BLOCK)
        cos_l, phi_l = uz[blk], uy[blk]
        sin_l = sines[: cos_l.size]
        np.multiply(cos_l, cos_l, out=sin_l)
        np.subtract(1.0, sin_l, out=sin_l)
        np.maximum(0.0, sin_l, out=sin_l)
        np.sqrt(sin_l, out=sin_l)
        np.cos(phi_l, out=ux[blk])
        ux[blk] *= sin_l
        np.sin(phi_l, out=phi_l)
        phi_l *= sin_l


def _trace_batch(
    rng: np.random.Generator,
    n: int,
    geometry: LinkGeometry,
    water: WaterProperties,
    bin_width: float,
    ballistic_splitting: bool,
) -> np.ndarray:
    """Trace one photon batch; returns the summed weight histogram (not normalized).

    The batch lives in one preallocated state of eight arrays (64 bytes per
    photon). Each step runs over blocks of `ROTATION_BLOCK` live photons and
    compacts the kept ones, in place, into the front of the state. A step
    draws, in this order, the free paths of all live photons, the scattering
    cosines of all kept ones, and their azimuths. The cosines come from a
    copy of the generator, and the generator itself is advanced past them
    before it draws the azimuths, so both are drawn block by block in the
    scattering pass without buffering a step's cosines. This relies on
    `rng` being PCG64, where one double takes one 64-bit output and
    `advance(k)` equals `random(k)`; a draw split into consecutive chunks
    of one distribution returns the same values, so the trace does not
    depend on the block size.

    Every intermediate of a block (launch sines, distances to the plane,
    free paths, masks, deposits, position update, rotation) goes to one
    `_workspace` made per batch, whose rows the passes share. Each is
    formed by the operations of the plain array expression, in its order,
    and a free path is `standard_exponential() * (1 / c)`, which is
    `exponential(1 / c)` to the bit. A block otherwise allocates only index
    arrays, bins and roulette deviates.

    The rotation takes the azimuth's cosine and sine in float32 (see
    `_rotate_directions`), which moves a direction by about 1e-8 (at most
    about 3e-7). The launch keeps them in float64: its directions set every ballistic
    weight exp(-c s), while a later direction moves a deposit only if it
    flips a bin, aperture, field-of-view or crossing decision.

    The roulette draws one deviate per photon that plays it, in photon
    order, from a generator of its own: the first child of `rng`'s seed
    sequence. The free paths, cosines and azimuths thus keep their stream,
    and every step before the first roulette draws what it would draw
    without one.
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
    # The first child of the seed sequence, built without spawning from
    # (and so changing) the sequence `rng` holds.
    seq = rng.bit_generator.seed_seq
    roulette = np.random.default_rng(np.random.SeedSequence(seq.entropy, spawn_key=(*seq.spawn_key, 0)))

    def receive(block: np.ndarray, s_plane: np.ndarray, crossed: np.ndarray, ballistic: bool) -> None:
        """Deposit the photons of `block` in mask `crossed`, which reach the
        plane on the current flight, that land inside the aperture and field
        of view. On the `ballistic` (analytic first) flight each weight also
        carries the survival exp(-c s) to the plane."""
        nonlocal step_hist
        bux, buy, buz, bx, by, _, bw, bpath = block
        idx = np.flatnonzero(crossed)
        s, xc, yc, scratch = rows[2:6, : idx.size]
        ok, in_fov = flags[1:, : idx.size]
        np.take(s_plane, idx, out=s)
        # The crossing point bx + s ux, by + s uy, and
        # ok = (xc^2 + yc^2 <= r_ap^2) & (uz >= cos_fov).
        np.multiply(s, np.take(bux, idx, out=xc), out=xc)
        xc += np.take(bx, idx, out=scratch)
        np.multiply(s, np.take(buy, idx, out=yc), out=yc)
        yc += np.take(by, idx, out=scratch)
        xc *= xc
        xc += np.multiply(yc, yc, out=yc)
        np.less_equal(xc, r_ap * r_ap, out=ok)
        ok &= np.greater_equal(np.take(buz, idx, out=scratch), cos_fov, out=in_fov)
        if not ok.any():
            return
        idx = idx[ok]
        s = np.compress(ok, s, out=xc[: idx.size])
        weights, arrival_times = yc[: idx.size], scratch[: idx.size]
        np.take(bw, idx, out=weights)
        if ballistic:
            weights *= np.exp(np.multiply(s, -c, out=arrival_times), out=arrival_times)
        # arrival_times = (bpath + s) n_water / SPEED_OF_LIGHT, then its bin.
        np.take(bpath, idx, out=arrival_times)
        arrival_times += s
        arrival_times *= n_water
        arrival_times /= SPEED_OF_LIGHT
        arrival_times -= t_start
        arrival_times /= bin_width
        bins = np.floor(arrival_times, out=arrival_times).astype(np.int64)
        # Guard against -1 from float cancellation right at t_start.
        np.maximum(bins, 0, out=bins)
        top = int(bins.max()) + 1
        if top > step_hist.size:
            step_hist = np.concatenate((step_hist, np.zeros(top - step_hist.size)))
        # Adds in photon order, as one bincount of the whole step would.
        np.add.at(step_hist, bins, weights)

    # Rows: direction (ux, uy, uz), position (x, y, z), weight, path length.
    state = np.zeros((8, n))
    ux, uy, uz = state[:3]
    work = _workspace(min(n, ROTATION_BLOCK))
    rows, flags, _ = work
    _launch_directions(rng, theta_half, ux, uy, uz, rows[0])
    state[6] = 1.0

    # Lossless water has no interactions, so its analytic first flight is
    # the whole trace (and exp(-c s) is exactly 1).
    analytic_flight = ballistic_splitting or c == 0.0
    live = n
    while live:
        step_hist = np.zeros(0)
        kept = 0
        for lo in range(0, live, ROTATION_BLOCK):
            hi = min(lo + ROTATION_BLOCK, live)
            block = state[:, lo:hi]
            bux, buy, buz, bx, by, bz, bw, bpath = block
            s_plane, step, scratch = rows[:3, : hi - lo]
            crossed, players = flags[:2, : hi - lo]
            np.subtract(d, bz, out=s_plane)
            with np.errstate(divide="ignore", invalid="ignore"):
                s_plane /= buz
            np.copyto(s_plane, np.inf, where=np.less_equal(buz, 0.0, out=crossed))
            if analytic_flight:
                # Never-scattered contribution integrated analytically, then the
                # first interaction is forced to happen before the plane with
                # the complementary weight. Unbiased; kills the exp(-c d)
                # rare-arrival variance that dominates long hops.
                receive(block, s_plane, np.isfinite(s_plane, out=crossed), ballistic=True)
                if c == 0.0:
                    continue
                # p_interact = -expm1(-c s); step = -log1p(-u p_interact) / c.
                p_interact = np.multiply(s_plane, -c, out=scratch)
                np.expm1(p_interact, out=p_interact)
                np.negative(p_interact, out=p_interact)
                np.negative(rng.random(out=step), out=step)
                step *= p_interact
                np.log1p(step, out=step)
                np.negative(step, out=step)
                step /= c
                bw *= p_interact
                crossed.fill(False)  # the forced interaction comes first
            else:
                # rng.exponential(1 / c) is this product, to the bit.
                rng.standard_exponential(out=step)
                step *= 1.0 / c
                receive(block, s_plane, np.less_equal(s_plane, step, out=crossed), ballistic=False)

            # Photons that hit the plane terminate there; the rest interact,
            # and those whose weight falls below the threshold play roulette.
            bw *= albedo
            alive = np.logical_not(crossed, out=crossed)
            np.less(bw, ROULETTE_THRESHOLD, out=players)
            players &= alive
            played = np.flatnonzero(players)
            if played.size:
                won = roulette.random(played.size) < ROULETTE_CHANCE
                bw[played[won]] /= ROULETTE_CHANCE
                alive[played[~won]] = False
            keep = np.flatnonzero(alive)
            bx += np.multiply(step, bux, out=scratch)
            by += np.multiply(step, buy, out=scratch)
            bz += np.multiply(step, buz, out=scratch)
            bpath += step
            if kept < lo or keep.size < bw.size:
                for row, dest in zip(block, state[:, kept : kept + keep.size]):
                    np.take(row, keep, out=dest)
            kept += keep.size
        if step_hist.size:
            hist = _add_histograms(hist, step_hist)
        analytic_flight = False
        live = kept

        cosines = copy.deepcopy(rng)
        rng.bit_generator.advance(live)
        for lo in range(0, live, ROTATION_BLOCK):
            hi = min(lo + ROTATION_BLOCK, live)
            cos_t, phi = rows[:2, : hi - lo]
            _henyey_greenstein_cos(water.hg_asymmetry, cosines.random(out=cos_t))
            rng.random(out=phi)
            phi *= 2.0 * np.pi
            _rotate_directions(ux[lo:hi], uy[lo:hi], uz[lo:hi], cos_t, phi, work)
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
    each interaction. A photon whose weight falls below
    `ROULETTE_THRESHOLD` of its launch weight survives with chance
    `ROULETTE_CHANCE` and has its weight divided by that chance (Russian
    roulette), which ends dim photons early without biasing any estimate.
    A photon is recorded when it crosses the receiver plane inside the
    aperture with arrival direction within the field-of-view cone; any
    plane crossing terminates the photon. Water whose albedo exceeds
    `_MAX_ALBEDO` (about 0.99862, where 10000 interactions leave a photon
    1e-6 of its weight) is refused with a ValueError: a photon there takes
    thousands of interactions to reach the roulette, and at albedo 1 it
    never does.

    Photons are traced in batches of `TRACE_BATCH`, each driven by a child
    seed spawned from `rng_seed` in a fixed order, so results are
    reproducible and independent of how batches are executed: a given
    seed always yields bit-identical output. Peak memory scales with
    `TRACE_BATCH`, not with `n_photons`: a batch holds about 64 bytes per
    photon at its peak (about 64 MB for a full batch).

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
    check_bound("bin_width", bin_width, ">", 0)
    if water.albedo > _MAX_ALBEDO:
        raise ValueError(
            f"albedo b/(a+b) = {water.albedo:.8g} keeps a photon above 1e-06 of its weight "
            "for more than 10000 interactions; raise the absorption"
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
    check_bound("bit_duration", bit_duration, ">", 0)
    check_bound("tail_epsilon", tail_epsilon, "in", (0, 1))
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
    check_bound("tail_epsilon", tail_epsilon, "in", (0, 1))
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
