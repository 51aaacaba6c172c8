"""Exception and warning types raised across the package.

Every error inherits from SpherebeamError so callers can catch one base
class at the CLI boundary and map it to an exit code. Warnings flag results
that were computed but may not mean what their names say.

Each input rule has one checker here (the ``require_*`` functions), and the
geometry constructors, the sweeps, the channel and the scenario parser all
call it, so they accept and reject the same values. ``_FIELD_ERRORS`` and
``_COUNT_MINIMA`` hold each field's rule that differs from the default, so a
scenario key, its flag and the library argument of one name raise one error.
"""

from __future__ import annotations

import math


class SpherebeamError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRotation(SpherebeamError):
    """Matrix is not a proper rotation (orthonormal, determinant +1)."""


class DegenerateGeometry(SpherebeamError):
    """A target point coincides with an element position."""


class NoVisibleElements(SpherebeamError):
    """No element has line of sight to the target; the channel is all zero."""


class DimensionMismatch(SpherebeamError):
    """Arrays that must agree in shape do not: weight and channel vectors of
    different lengths, or pattern power whose shape is not its axes'."""


class DegeneratePattern(SpherebeamError):
    """Pattern values are all zero or flat, so normalization or metrics
    extraction has no well-defined reference."""


class AllBeamsInfeasible(SpherebeamError):
    """Every requested focal point was skipped during an overlay."""


class ParseError(SpherebeamError):
    """Scenario text or a flag value could not be parsed.

    Carries the 1-based line number where parsing failed, or None for flags.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(SpherebeamError, ValueError):
    """An input value violates its contract; ``field`` names that input.

    It is also a ``ValueError``, so callers of the library functions can
    catch bad arguments either way.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class InvalidCount(ValidationError):
    """A count is not an integer or is below its minimum."""


class InvalidRadius(ValidationError):
    """Sphere or ring radius is non-positive or non-finite."""


class NotSquare(ValidationError):
    """Planar array size is not a perfect square."""


class InvalidSpacing(ValidationError):
    """Lattice spacing is non-positive or non-finite."""


class InvalidWavelength(ValidationError):
    """Carrier wavelength is non-positive or non-finite."""


class TargetInsideArray(ValidationError):
    """Focal or sweep point lies inside or on the array sphere."""


# the per-field rules that differ from the default: the error a value
# that is not positive and finite raises (``ValidationError`` otherwise),
# and the smallest count accepted (1 otherwise)
_FIELD_ERRORS = {"radius": InvalidRadius, "spacing": InvalidSpacing, "wavelength": InvalidWavelength}
_COUNT_MINIMA = {"subdivision": 0, "theta_samples": 2, "phi_samples": 2, "r_samples": 2, "samples": 2}


def require_positive(value, field: str) -> float:
    """``value`` as a float that is positive and finite."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (math.isfinite(x) and x > 0.0):
        error = _FIELD_ERRORS.get(field, ValidationError)
        raise error(f"{field} must be positive and finite, got {value!r}", field)
    return x


def require_single_line(value: str, field: str) -> str:
    """``value`` when ``str.splitlines`` would not split it into lines."""
    if "".join(value.splitlines()) != value:
        raise ValidationError(f"{field} must be a single line, got {value!r}", field)
    return value


def require_count(value, field: str) -> int:
    """``value`` as an int of at least the field's minimum; fractions are rejected."""
    minimum = _COUNT_MINIMA.get(field, 1)
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or n < minimum:
        raise InvalidCount(f"{field} must be an integer >= {minimum}, got {value!r}", field)
    return n


def require_choice(value, choices, field: str):
    """``value`` when it is one of ``choices``."""
    if value not in tuple(choices):
        names = " or ".join(repr(choice) for choice in choices)
        raise ValidationError(f"{field} must be {names}, got {value!r}", field)
    return value


def require_square(n: int, field: str) -> int:
    """The side of a square count ``n``."""
    side = math.isqrt(n)
    if side * side != n:
        raise NotSquare(f"{field} must be a perfect square", field)
    return side


def require_shape(array, shape: tuple[int, ...], field: str) -> None:
    """Reject an ``array`` whose shape is not ``shape``, or is empty."""
    if array.shape != shape:
        raise DimensionMismatch(f"{field} has shape {array.shape}, its axes give {shape}")
    if 0 in shape:
        raise DimensionMismatch(f"{field} has shape {shape}, an axis has no samples")


def require_clearance(range_m: float, radius: float | None, field: str) -> None:
    """Reject a range at or inside the array sphere; ``radius`` None means planar."""
    if radius is not None and range_m <= radius:
        raise TargetInsideArray(
            f"{field} {range_m} m does not clear the array radius {radius} m", field
        )


def require_window(r_min, r_max, *focal_ranges: float) -> tuple[float, float]:
    """A range window ``0 < r_min < r_max`` that contains every focal range."""
    r_min = require_positive(r_min, "r_min")
    r_max = require_positive(r_max, "r_max")
    if not r_min < r_max:
        raise ValidationError(f"need 0 < r_min < r_max, got [{r_min!r}, {r_max!r}]", "r_min")
    for r in focal_ranges:
        if not r_min <= r <= r_max:
            raise ValidationError(
                f"focal range {r} m lies outside the sweep window [{r_min}, {r_max}] m", "focal"
            )
    return r_min, r_max


class MainLobeMissed(UserWarning):
    """No sampled cell of an angular grid lies in the beam's main lobe.

    The grid maximum then sits on a sidelobe, so the pointing, beamwidth and
    sidelobe figures measured from it describe that sidelobe.
    """
