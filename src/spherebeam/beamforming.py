"""Conjugate weights and beam power evaluation.

Weights are the normalized conjugate of the desired channel, so the
response at the design target meets the Cauchy-Schwarz bound exactly.
The sums over elements are ``channel.coherent_power`` and
``channel.channel_energy``, which add a target's terms in element index
order (never pairwise sums), so sweep results reproduce direct summation
over every element bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelVector, channel_energy, coherent_power
from .errors import DegeneratePattern, DimensionMismatch, NoVisibleElements, ValidationError, require_positive

DB_FLOOR = -300.0
"""dB value substituted for exactly-zero linear power."""


def conjugate_weights(h: ChannelVector) -> np.ndarray:
    """Read-only matched-filter weights: conjugate of the channel, scaled to unit norm."""
    if not np.any(h.visible):
        raise NoVisibleElements("no element has line of sight to the target")
    with np.errstate(over="ignore"):
        energy = channel_energy(h)
    if energy == 0.0 or not math.isfinite(energy):
        fault = "underflows to 0" if energy == 0.0 else "overflows"
        raise ValidationError(
            f"channel energy {fault} although {int(np.count_nonzero(h.visible))} elements"
            f" face the target at wavelength {h.wavelength_m} m",
            "wavelength",
        )
    weights = np.conj(h.gains) / np.sqrt(energy)
    weights.setflags(write=False)
    return weights


def beam_response(w: np.ndarray, h_probe: ChannelVector) -> float:
    """Coherent combined power |sum_k w_k h_k|^2, before any normalization."""
    if len(w) != len(h_probe):
        raise DimensionMismatch(
            f"weight length {len(w)} does not match channel length {len(h_probe)}"
        )
    return float(coherent_power(w, h_probe.gains))


def to_db(linear) -> np.ndarray:
    """10*log10 of linear power, with exact zeros pinned to the floor."""
    arr = np.asarray(linear, dtype=np.float64)
    out = np.full(arr.shape, DB_FLOOR)
    positive = arr > 0.0
    out[positive] = 10.0 * np.log10(arr[positive])
    return out


def normalize_pattern(raw, reference: float | None = None):
    """Scale a non-negative pattern and return it, still linear: divided by
    ``reference`` when one is given, else by the pattern's maximum."""
    arr = np.asarray(raw, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("pattern is empty", "raw")
    if np.any(arr < 0.0):
        raise ValidationError("pattern values must be non-negative", "raw")
    if reference is not None:
        return arr / require_positive(reference, "reference")
    ref = float(np.max(arr))
    if ref == 0.0:
        raise DegeneratePattern("all-zero pattern has no maximum to normalize by")
    return arr / ref
