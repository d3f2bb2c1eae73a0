"""System configuration and derived scalar quantities.

The model throughout this package is a training-based point-to-point MIMO
link in block fading: the channel stays constant over a coherence block of
``t`` channel uses, the first ``tp`` of which carry known pilots and the
remaining ``t - tp`` carry data.  The transmitter hardware is imperfect:
after all compensation, a residual additive distortion remains whose power
is ``delta**2`` times the signal power (``delta`` equals the EVM figure of
the transmitter; LTE-grade radios sit in the 0.08-0.175 range, which is
documented here but deliberately not enforced).

Everything downstream (estimator quality, SINR statistics, rate formulas,
large-system limits) is driven by a handful of scalars derived from the
configuration; :func:`derive_params_at` computes them all in one place,
for one training length or for a whole array of them at once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Receiver",
    "SystemConfig",
    "DerivedParams",
    "AccuracyError",
    "derive_params",
    "derive_params_at",
    "db_to_linear",
    "linear_to_db",
]


class AccuracyError(RuntimeError):
    """A numerical routine could not meet its accuracy target.

    Raised instead of silently returning a degraded value, e.g. when
    adaptive quadrature fails to converge within its refinement budget.
    """


class Receiver(str, Enum):
    """Linear receiver family selecting formula sets throughout the package."""

    ZF = "zf"
    MRC = "mrc"
    MMSE = "mmse"

    def __str__(self) -> str:  # so f-strings/CSV show "zf", not "Receiver.ZF"
        return self.value


def db_to_linear(snr_db: float) -> float:
    """Convert an SNR given in dB to linear scale."""
    if math.isnan(snr_db):
        raise ValueError(f"SNR in dB must be a number, got {snr_db}")
    return 10.0 ** (snr_db / 10.0)


def linear_to_db(snr: float) -> float:
    """Convert a linear SNR to dB."""
    if not snr > 0:
        raise ValueError(f"SNR must be positive, got {snr}")
    return 10.0 * math.log10(snr)


@dataclass(frozen=True)
class SystemConfig:
    """Full parameter tuple of the link.

    Attributes:
        nt: number of transmit antennas (>= 1).
        nr: number of receive antennas (>= 1).
        t: coherence block length in channel uses.
        tp: training length in channel uses; feasible range ``nt <= tp < t``.
        rho: average SNR per receive antenna, linear scale (> 0).
        delta: residual transmit-impairment level, equal to the transmitter
            EVM (>= 0; 0 means ideal hardware).
    """

    nt: int
    nr: int
    t: int
    tp: int
    rho: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("nt", "nr", "t", "tp"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.nt < 1 or self.nr < 1:
            raise ValueError(
                f"antenna counts must be >= 1, got nt={self.nt}, nr={self.nr}"
            )
        if not self.nt <= self.tp < self.t:
            raise ValueError(
                "training length must satisfy nt <= tp < t, got "
                f"nt={self.nt}, tp={self.tp}, t={self.t}"
            )
        if not 0.0 < self.rho < math.inf:
            raise ValueError(f"rho must be finite and > 0 (linear SNR), got {self.rho}")
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")

    @property
    def td(self) -> int:
        """Data-phase length ``t - tp`` (always >= 1 for a valid config)."""
        return self.t - self.tp

    def with_tp(self, tp: int) -> "SystemConfig":
        """Copy of this config with a different training length."""
        return SystemConfig(
            nt=self.nt, nr=self.nr, t=self.t, tp=tp, rho=self.rho, delta=self.delta
        )

    def with_rho(self, rho: float) -> "SystemConfig":
        """Copy of this config with a different linear SNR."""
        return SystemConfig(
            nt=self.nt, nr=self.nr, t=self.t, tp=self.tp, rho=rho, delta=self.delta
        )


@dataclass(frozen=True)
class DerivedParams:
    """Scalar quantities derived from a :class:`SystemConfig`.

    Attributes:
        epsilon: estimation quality factor; grows with SNR and training
            length, saturates at ``tp / (nt * delta**2)`` under impairments.
        sigma2_err: per-entry variance of the channel estimation error
            (the NMSE), equal to ``1 / (1 + epsilon)``.
        sigma2_est: per-entry variance of the channel estimate,
            ``epsilon / (1 + epsilon)``; complements ``sigma2_err`` to 1.
        c0: noise-scaling factor entering every finite-dimension SINR
            expression; strictly decreasing in SNR.
        c0_bar: high-SNR limit of ``c0`` (finite only because of the
            impairments; 0 for ideal hardware).
        sigma2_err_floor: high-SNR limit of ``sigma2_err``,
            ``1 / (1 + tp / (nt * delta**2))`` (0 for ideal hardware).
        c1: large-system counterpart of ``c0`` (equals ``c0 / nt``).
        beta: receive-to-transmit antenna ratio ``nr / nt``.

    ``beta`` and ``c1`` are the inputs of the large-system equivalents
    (:func:`mimolink.largescale.det_sinr`).  Built by
    :func:`derive_params_at` with an array of training lengths, every field
    that depends on ``tp`` is an array with one entry per length.
    """

    epsilon: float
    sigma2_err: float
    sigma2_est: float
    c0: float
    c0_bar: float
    sigma2_err_floor: float
    c1: float
    beta: float


def derive_params(cfg: SystemConfig) -> DerivedParams:
    """Compute all derived scalars for a configuration.

    Pure function: identical inputs give bit-identical outputs.

    Args:
        cfg: validated system configuration.

    Returns:
        The full set of derived scalars.
    """
    return derive_params_at(cfg, cfg.tp)


def derive_params_at(cfg: SystemConfig, tp: int | np.ndarray) -> DerivedParams:
    """Derived scalars of ``cfg`` at training length ``tp`` (``cfg.tp`` is
    ignored).

    ``tp`` may be an int or an integer array of feasible training lengths;
    every ``tp``-dependent field is then an array of the same shape, and
    entry ``i`` equals ``derive_params(cfg.with_tp(tp[i]))`` bit for bit
    (numpy's elementwise arithmetic rounds exactly as Python floats do).
    """
    nt, rho, delta = cfg.nt, cfg.rho, cfg.delta
    d2 = delta * delta

    epsilon = rho * tp / (nt * (rho * d2 + 1.0))
    sigma2_err = 1.0 / (1.0 + epsilon)
    sigma2_est = epsilon / (1.0 + epsilon)

    c0 = nt * (rho + rho * d2 + 1.0 + epsilon) / (rho * epsilon)
    c0_bar = d2 * (1.0 + d2) * nt * nt / tp
    # Rounded as nt * delta * delta: the bits the nmse floor column has had.
    sigma2_err_floor = 0.0 if d2 == 0.0 else 1.0 / (1.0 + tp / (nt * delta * delta))

    c1 = (rho + rho * d2 + 1.0 + epsilon) / (rho * epsilon)
    beta = cfg.nr / nt

    return DerivedParams(
        epsilon=epsilon,
        sigma2_err=sigma2_err,
        sigma2_est=sigma2_est,
        c0=c0,
        c0_bar=c0_bar,
        sigma2_err_floor=sigma2_err_floor,
        c1=c1,
        beta=beta,
    )


def _require_zf_ok(nt: int, nr: int, *receivers: Receiver) -> None:
    """Raise ``ValueError`` if ZF is among ``receivers`` with ``nr < nt``."""
    if Receiver.ZF in receivers and nr < nt:
        raise ValueError(
            f"ZF needs at least as many receive as transmit antennas, got nr={nr} < nt={nt}"
        )
