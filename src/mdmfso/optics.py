"""Free-space mode fields and turbulent modal coupling.

Transmit and receive mode sets are linear combinations of
Laguerre-Gaussian fields at a common beam waist, following the standard
weakly-guiding LP -> LG correspondence. A phase screen plus a hard
circular aperture maps to a modal coupling matrix by overlap integrals
(thin-screen, negligible-diffraction model), which is then expanded over
the two polarizations and column-calibrated on the blank screen.

Every mode field is real: a ModeSpec is accepted only when its LG
weights make it so, as for every LP mode, and a bare LG (OAM) mode is
rejected. ModalCoupler is the one coupling implementation, built from
an ExperimentConfig by its one constructor: it evaluates each distinct
mode once, in bands of raster rows, keeps it only on the aperture's
pixels, and reduces each screen to one pass over those pixels in real
arithmetic. LGTerms holds the raster geometry and the one LG formula
that every mode field is built from, and mode_field is the one field
path. The channel leaves this module as a plain (n_r, n_t) complex
array.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

_SQ2 = np.sqrt(2.0)

# weakly-guiding LP modes launched as free-space LG superpositions:
# entries are (radial index p, azimuthal index l, weight)
LP_TO_LG = {
    "LP01": ((0, 0, 1.0),),
    "LP11a": ((0, 1, 1.0 / _SQ2), (0, -1, 1.0 / _SQ2)),
    "LP11b": ((0, 1, -1j / _SQ2), (0, -1, 1j / _SQ2)),
    "LP21a": ((0, 2, 1.0 / _SQ2), (0, -2, 1.0 / _SQ2)),
    "LP21b": ((0, 2, -1j / _SQ2), (0, -2, 1j / _SQ2)),
    "LP02": ((1, 0, 1.0),),
}

DEFAULT_WAIST = 2.1e-3
TX_MODES = ("LP01", "LP11a", "LP11b", "LP21a", "LP21b")
RX_MODES = ("LP01", "LP11a", "LP11b", "LP21a", "LP21b", "LP02")

# aperture pixels per block of ModalCoupler.coupling
COUPLING_BLOCK = 16384
# raster rows per band of mode_field, whose temporaries then stay small
FIELD_BAND = 32


def _coords(grid_size, pitch):
    """Pixel-centre coordinates along either axis of a square raster
    co-registered with a phase screen: pixel grid_size // 2 at 0."""
    return (np.arange(grid_size) - grid_size // 2) * pitch


def _lg_weights(composition):
    """The weight of each LG(p, l) in composition, repeated terms added up."""
    weights = {}
    for p, l, w in composition:
        weights[p, l] = weights.get((p, l), 0) + w
    return weights


@dataclass(frozen=True)
class ModeSpec:
    """A transverse mode as a normalized LG superposition with a real field.

    The field is real exactly when the weight of LG(p, -l) is the
    conjugate of the weight of LG(p, l) for every term, as for every LP
    mode of LP_TO_LG; any other composition, such as a bare LG (OAM)
    mode, raises ValueError.
    """

    label: str
    lg_composition: tuple
    waist: float = DEFAULT_WAIST

    @classmethod
    def lp(cls, label, waist=DEFAULT_WAIST):
        if label not in LP_TO_LG:
            raise ValueError(f"unknown LP label {label!r}")
        return cls(label=label, lg_composition=LP_TO_LG[label], waist=waist)

    def __post_init__(self):
        # repeated LG terms add up (as in LGTerms.field) before the checks
        weights = _lg_weights(self.lg_composition)
        total = sum(abs(w) ** 2 for w in weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("composition weights must have unit squared magnitude")
        for (p, l), w in weights.items():
            if weights.get((p, -l), 0) != w.conjugate():
                raise ValueError(
                    f"mode {self.label}: the weight of LG({p},{-l}) is not the "
                    f"conjugate of that of LG({p},{l}); mode fields must be real"
                )
        # LGTerms scales r^2 by 2 / waist^2, a finite positive float only
        # for a waist between about 1e-154 and 1e154
        if not 1e-150 < self.waist < 1e150:
            raise ValueError(f"waist={self.waist!r} must lie in (1e-150, 1e150)")


def _genlaguerre(n, alpha, x):
    """Generalized Laguerre polynomial L_n^alpha(x) by its three-term recurrence."""
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


class LGTerms:
    """Laguerre-Gaussian superpositions at the waist plane on a square
    raster of grid_size pixels and the given pitch, kept as `pitch`, with
    the pixel-centre coordinates along either axis kept as `coords`.

    This is the one LG formula of the module:

        LG(p, l) = A_p|l| L_p^|l|(2 r^2 / w^2) e^{-r^2 / w^2} Z^|l|,

    with A_pm = sqrt(2 p! / (pi (p + m)!)) / w and Z = sqrt(2) (x + j y) / w,
    conjugated for l < 0. The power of x + j y stands for
    (sqrt(2) r / w)^|l| e^{j l theta}: it needs no arctan2 or complex exp
    and stays finite on the axis. The terms of one (p, m > 0) have the
    weights a and conj(a) (see ModeSpec) and combine as
    a Z^m + conj(a Z^m) = 2 Re(a) Re Z^m - 2 Im(a) Im Z^m, so every field
    is formed in real arithmetic and comes out real-valued. A field is
    evaluated on a band of raster rows; every value is an elementwise
    function of its pixel's coordinates, so a band holds the bits of the
    same rows of the whole raster.
    """

    def __init__(self, grid_size, pitch):
        self.pitch = pitch
        self.coords = _coords(grid_size, pitch)

    def field(self, composition, waist, rows):
        """sum(weight * LG(p, l)) over (p, l, weight) in the composition of
        an accepted ModeSpec, on the raster rows of the slice `rows`, as a
        real (rows, grid_size) array."""
        x, y = self.coords[None, :], self.coords[rows, None]
        u = (2.0 / waist ** 2) * (x ** 2 + y ** 2)
        weights = _lg_weights(composition)
        parts = []
        for p, m in dict.fromkeys((p, abs(l)) for p, l in weights):
            a = complex(weights.get((p, m), 0))
            amp = np.sqrt(2.0 * factorial(p) / (np.pi * factorial(p + m))) / waist
            radial = amp * _genlaguerre(p, m, u) * np.exp(-0.5 * u)
            if m == 0:
                parts.append(a.real * radial)
                continue
            # (Re Z^m, Im Z^m) by Z^m = Z^(m-1) Z
            re_z, im_z = (_SQ2 / waist) * x, (_SQ2 / waist) * y
            re, im = re_z, im_z
            for _ in range(m - 1):
                re, im = re * re_z - im * im_z, re * im_z + im * re_z
            for coeff, part in ((2 * a.real, re), (-2 * a.imag, im)):
                if coeff != 0:
                    parts.append(coeff * part * radial)
        return sum(parts[1:], parts[0])


def mode_field(spec, terms, pixels, out):
    """Write a ModeSpec's field, normalized over the whole raster of the
    LGTerms `terms`, at the flat raster indices `pixels` (ascending) into
    the float64 array `out`, and return it; rejects badly clipped waists.

    The raster is evaluated FIELD_BAND rows at a time. Each band's values
    at `pixels` go straight into `out`, and its squares into one
    raster-sized buffer. The analytic fields carry unit continuum energy,
    so the energy captured on the raster measures clipping directly. It
    is numpy's pairwise sum of that buffer, the sum of the squared whole
    field in the same order, whose bits do not depend on the BLAS thread
    count as a BLAS dot product's do. The field is real (see ModeSpec and
    LGTerms).
    """
    n = terms.coords.size
    squares = np.empty((n, n))
    for top in range(0, n, FIELD_BAND):
        rows = slice(top, top + FIELD_BAND)
        band = terms.field(spec.lg_composition, spec.waist, rows)
        np.square(band, out=squares[rows])
        lo, hi = np.searchsorted(pixels, (top * n, min(top + FIELD_BAND, n) * n))
        out[lo:hi] = band.ravel()[pixels[lo:hi] - top * n]
    captured = np.add.reduce(squares, axis=None) * terms.pitch ** 2
    if captured < 0.99:
        raise ValueError(
            f"mode {spec.label}: only {captured:.3f} of the energy falls on the "
            "raster; waist too large for the grid"
        )
    out /= np.sqrt(captured)
    return out


def _rows(stack, index):
    """stack[index]; a view, not a copy, when index is 0, 1, 2, ..."""
    if index == list(range(len(index))):
        return stack[: len(index)]
    return stack[index]


class ModalCoupler:
    """Modal coupling M_kl = <psi_k_rx | A e^{j phi} psi_l_tx> per screen.

    Each distinct mode of the transmit and receive sets is evaluated
    once by mode_field, band by band of raster rows, normalized over the
    full raster, and written only at the aperture's pixels, where the
    receive side is nonzero, into its row of one float64 stack that the
    transmit and receive sides view; no whole-raster field is held. A
    coupling then exponentiates the screen and sums only over those
    pixels; mode fields are real (see ModeSpec), so <psi_rx| needs no
    conjugate and the sums run in real arithmetic.
    The one constructor reads the grid, aperture, waist and mode labels
    of an ExperimentConfig, which has checked them.
    """

    def __init__(self, config):
        n = config.grid_size
        pitch = config.physical_length / n
        tx = [ModeSpec.lp(m, config.waist) for m in config.tx_modes]
        rx = [ModeSpec.lp(m, config.waist) for m in config.rx_modes]
        self._shape = (n, n)
        terms = LGTerms(n, pitch)
        # the hard circular aperture, co-registered with the screen grid
        c = terms.coords
        self._pixels = np.flatnonzero(
            c[None, :] ** 2 + c[:, None] ** 2 <= (config.aperture_diameter / 2.0) ** 2
        )
        self._pitch2 = pitch ** 2
        # one row per distinct mode, transmit modes first, so that the
        # transmit stack and (when the receive modes are the stack's rows
        # in order, as by default) the receive stack are views of it
        # rather than copies
        specs = list(dict.fromkeys(tx + rx))
        stack = np.empty((len(specs), self._pixels.size))
        for spec, field in zip(specs, stack):
            mode_field(spec, terms, self._pixels, field)
        row = {spec: i for i, spec in enumerate(specs)}
        self._tx = _rows(stack, [row[s] for s in tx])
        self._rx = _rows(stack, [row[s] for s in rx])
        blank = (self._rx @ self._tx.T).astype(complex) * self._pitch2
        self.calibration_spatial = calibrate_columns(blank)
        self.blank_coupling = blank

    def coupling(self, screen):
        """Spatial coupling matrix (n_rx, n_tx) through one phase screen.

        e^{j phi} enters as cos + j sin, which keeps the real field
        stacks in real arithmetic. The aperture pixels are taken in
        blocks of COUPLING_BLOCK, in order; each block adds
        rx_block @ (tx_block * cos(phi_block)).T, and the same with sin,
        to an n_rx x n_tx sum. The blocks are fixed, so the bits do not
        depend on the BLAS thread count, and a block's temporaries stay
        small.
        """
        if screen.raster.shape != self._shape:
            raise ValueError(
                f"screen raster {screen.raster.shape} does not match the "
                f"coupler grid {self._shape}"
            )
        raster = screen.raster.ravel()
        cos_part = np.zeros((len(self._rx), len(self._tx)))
        sin_part = np.zeros_like(cos_part)
        for lo in range(0, self._pixels.size, COUPLING_BLOCK):
            block = slice(lo, lo + COUPLING_BLOCK)
            phi = raster[self._pixels[block]]
            tx, rx = self._tx[:, block], self._rx[:, block]
            cos_part += rx @ (tx * np.cos(phi)).T
            sin_part += rx @ (tx * np.sin(phi)).T
        return (cos_part + 1j * sin_part) * self._pitch2

    def captured_power(self, screen):
        """Captured-power proxy through one screen: the squared Frobenius
        norm of the calibrated coupling, averaged over transmit modes."""
        m = self.coupling(screen) * self.calibration_spatial[None, :]
        return float(np.linalg.norm(m) ** 2 / len(self.calibration_spatial))

    def channel_matrix(self, screen=None):
        """Calibrated polarization-expanded channel array; blank when screen is None."""
        m = self.blank_coupling if screen is None else self.coupling(screen)
        return polarization_expand(m, np.repeat(self.calibration_spatial, 2))


def calibrate_columns(h_blank):
    """Static per-column power-balancing scales from the blank-screen channel.

    Every column is scaled to the smallest blank column norm, so
    calibration only attenuates (like the transmit-side VOAs).
    """
    norms = np.linalg.norm(h_blank, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("blank channel has a zero column norm")
    return norms.min() / norms


def polarization_expand(m, calibration):
    """Expand a spatial coupling matrix over X/Y polarizations.

    H = (M kron I2) diag(calibration): the same screen modulates both
    polarizations, with no cross-polarization coupling, and column j
    takes the static scale calibration[j]. Returns H as an array.
    """
    h = np.kron(np.asarray(m), np.eye(2))
    return h * np.asarray(calibration)[None, :]
