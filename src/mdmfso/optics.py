"""Free-space mode fields and turbulent modal coupling.

Transmit and receive modes are the weakly guiding LP modes named by
their labels, as real Laguerre-Gaussian fields at a common beam waist.
A phase screen plus a hard circular aperture maps to a modal coupling
matrix by overlap integrals (thin-screen, negligible-diffraction
model), which is then expanded over the two polarizations and
column-calibrated on the blank screen.

LP_MODES maps each label to the LG radial and azimuthal indices of its
field and to the cos or sin form of its azimuthal factor, and
mode_field is the one field path. ModalCoupler is the one coupling
implementation, built from an ExperimentConfig by its one constructor:
it evaluates each distinct label once, in bands of raster rows, keeps
it only on the aperture's pixels, and reduces each screen to one pass
over those pixels in real arithmetic. The channel leaves this module as
a plain (n_r, n_t) complex array.
"""

from math import factorial

import numpy as np

_SQ2 = np.sqrt(2.0)
# 2 / sqrt(2), the weight of the real form of an LG(p, +-m) pair with
# weights 1 / sqrt(2) (see _lp_field), one ulp below sqrt(2)
_PAIR = 2.0 * (1.0 / _SQ2)

# weakly guiding LP mode -> (radial index p, azimuthal order m, part):
# part None is the bare radial field (m = 0), and "re" / "im" take the
# cos (Re Z^m) or sin (Im Z^m) form of the azimuthal factor
LP_MODES = {
    "LP01": (0, 0, None),
    "LP11a": (0, 1, "re"),
    "LP11b": (0, 1, "im"),
    "LP21a": (0, 2, "re"),
    "LP21b": (0, 2, "im"),
    "LP02": (1, 0, None),
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


def _genlaguerre(n, alpha, x):
    """Generalized Laguerre polynomial L_n^alpha(x) by its three-term recurrence."""
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def _lp_field(label, waist, coords, rows):
    """The field of the LP mode `label` at the waist plane, on the raster
    rows of the slice `rows` of a square raster whose pixel-centre
    coordinates along either axis are `coords`, as a real
    (rows, grid_size) array.

    With (p, m, part) = LP_MODES[label], the field is the radial factor

        R = A_pm L_p^m(2 r^2 / w^2) e^{-r^2 / w^2},
        A_pm = sqrt(2 p! / (pi (p + m)!)) / w,

    alone for m = 0, and otherwise 2 / sqrt(2) Re Z^m R ("re") or
    2 / sqrt(2) Im Z^m R ("im"), with Z = sqrt(2) (x + j y) / w. These
    are the LG pairs (LG(p, m) + LG(p, -m)) / sqrt(2) and
    (-j LG(p, m) + j LG(p, -m)) / sqrt(2): Z^m stands for
    (sqrt(2) r / w)^m e^{j m theta}, needs no arctan2 or complex exp
    and stays finite on the axis. Every value is an elementwise function
    of its pixel's coordinates, so a band holds the bits of the same
    rows of the whole raster.
    """
    p, m, part = LP_MODES[label]
    x, y = coords[None, :], coords[rows, None]
    u = (2.0 / waist ** 2) * (x ** 2 + y ** 2)
    amp = np.sqrt(2.0 * factorial(p) / (np.pi * factorial(p + m))) / waist
    radial = amp * _genlaguerre(p, m, u) * np.exp(-0.5 * u)
    if part is None:
        return radial
    # (Re Z^m, Im Z^m) by Z^m = Z^(m-1) Z
    re_z, im_z = (_SQ2 / waist) * x, (_SQ2 / waist) * y
    re, im = re_z, im_z
    for _ in range(m - 1):
        re, im = re * re_z - im * im_z, re * im_z + im * re_z
    return _PAIR * (re if part == "re" else im) * radial


def mode_field(label, waist, coords, pitch, pixels, out):
    """Write the field of the LP mode `label`, normalized over the whole
    square raster of the given pitch whose pixel-centre coordinates
    along either axis are `coords`, at the flat raster indices `pixels`
    (ascending) into the float64 array `out`, and return it; rejects
    badly clipped waists.

    The raster is evaluated FIELD_BAND rows at a time. Each band's values
    at `pixels` go straight into `out`, and its squares into one
    raster-sized buffer. The analytic fields carry unit continuum energy,
    so the energy captured on the raster measures clipping directly. It
    is numpy's pairwise sum of that buffer, the sum of the squared whole
    field in the same order, whose bits do not depend on the BLAS thread
    count as a BLAS dot product's do.
    """
    n = coords.size
    squares = np.empty((n, n))
    for top in range(0, n, FIELD_BAND):
        rows = slice(top, top + FIELD_BAND)
        band = _lp_field(label, waist, coords, rows)
        np.square(band, out=squares[rows])
        lo, hi = np.searchsorted(pixels, (top * n, min(top + FIELD_BAND, n) * n))
        out[lo:hi] = band.ravel()[pixels[lo:hi] - top * n]
    captured = np.add.reduce(squares, axis=None) * pitch ** 2
    if captured < 0.99:
        raise ValueError(
            f"mode {label}: only {captured:.3f} of the energy falls on the "
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

    Each distinct label of the transmit and receive sets is evaluated
    once by mode_field, band by band of raster rows, normalized over the
    full raster, and written only at the aperture's pixels, where the
    receive side is nonzero, into its row of one float64 stack that the
    transmit and receive sides view; no whole-raster field is held. A
    coupling then exponentiates the screen and sums only over those
    pixels; LP mode fields are real, so <psi_rx| needs no conjugate and
    the sums run in real arithmetic.
    The one constructor reads the grid, aperture, waist and mode labels
    of an ExperimentConfig, which has checked them.
    """

    def __init__(self, config):
        n = config.grid_size
        pitch = config.physical_length / n
        self._shape = (n, n)
        # the hard circular aperture, co-registered with the screen grid
        c = _coords(n, pitch)
        self._pixels = np.flatnonzero(
            c[None, :] ** 2 + c[:, None] ** 2 <= (config.aperture_diameter / 2.0) ** 2
        )
        self._pitch2 = pitch ** 2
        # one row per distinct label, transmit modes first, so that the
        # transmit stack and (when the receive modes are the stack's rows
        # in order, as by default) the receive stack are views of it
        # rather than copies
        labels = list(dict.fromkeys(config.tx_modes + config.rx_modes))
        stack = np.empty((len(labels), self._pixels.size))
        for label, field in zip(labels, stack):
            mode_field(label, config.waist, c, pitch, self._pixels, field)
        row = {label: i for i, label in enumerate(labels)}
        self._tx = _rows(stack, [row[m] for m in config.tx_modes])
        self._rx = _rows(stack, [row[m] for m in config.rx_modes])
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
