"""Least-squares estimation of the height-padding constant.

The padding model says a pedestrian's full-body pixel height exceeds the
skeleton-box height by ``alpha / z``. Given manually measured full-body
heights for a handful of pedestrians, ``alpha`` is the zero-intercept
least-squares fit of the height gap ``d = h_true - h_s`` against the
inverse distance ``u = 1 / z``:

    alpha = sum(d_i * u_i) / sum(u_i ** 2)

No intercept term is fitted: the model itself has none, and adding one
would contradict the formula the synthesis pipeline then applies.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

from . import is_finite_number
from .errors import EmptyInput, ParseError
from .formats import csv_rows, load_json

log = logging.getLogger(__name__)

SAMPLE_CSV_HEADER = ("h_s_px", "z_m", "h_true_px")


@dataclass(frozen=True)
class CalibrationSample:
    """One manually measured pedestrian: skeleton-box height, distance, true height."""

    h_s_px: float
    z_m: float
    h_true_px: float


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted padding constant with residual diagnostics.

    ``rmse_px`` and ``max_abs_residual_px`` measure predicted vs measured
    full-body heights under the fitted constant.
    """

    alpha: float
    n_samples: int
    rmse_px: float
    max_abs_residual_px: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationResult":
        """Inverse of :meth:`to_json`; a bad value is a ParseError naming its key.

        Each value must be a number, not a boolean or a string: ``n_samples``
        an integer of at least 1, the residuals finite and at least 0. The
        range of ``alpha`` is the rule of the setting, checked where it is used.
        """
        doc = load_json(text)
        try:
            alpha, n_samples, rmse_px, max_abs = (doc[field.name] for field in fields(cls))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"not a calibration result document: {exc}") from exc
        if not (type(alpha) is float or is_finite_number(alpha)):
            raise ParseError(f"alpha must be a number in float range, got {alpha!r}")
        if type(n_samples) is not int or n_samples < 1:
            raise ParseError(f"n_samples must be an integer of at least 1, got {n_samples!r}")
        for key, value in (("rmse_px", rmse_px), ("max_abs_residual_px", max_abs)):
            if not (is_finite_number(value) and value >= 0):
                raise ParseError(f"{key} must be a finite number of at least 0, got {value!r}")
        return cls(float(alpha), n_samples, float(rmse_px), float(max_abs))


def _check_sample(sample: CalibrationSample, location: str) -> None:
    """Each value finite and positive, and so is the fit weight ``1 / z_m**2``."""
    for field in fields(sample):
        value = getattr(sample, field.name)
        if not (math.isfinite(value) and value > 0):
            message = f"{field.name} must be finite and positive, got {value!r}"
            raise ParseError(message, location=location)
    z_squared = sample.z_m * sample.z_m
    if not (z_squared > 0 and 0 < 1.0 / z_squared < math.inf):
        message = f"z_m {sample.z_m!r} is out of range: 1/z_m**2 is not a positive finite number"
        raise ParseError(message, location=location)


def fit_alpha(samples: Sequence[CalibrationSample]) -> CalibrationResult:
    """Fit the padding constant from measured samples.

    Samples with a measured height below the skeleton height contribute a
    negative gap; they are kept (dropping them would bias the fit upward)
    and logged as a warning since they usually indicate measurement noise.

    Raises:
        EmptyInput: no samples were supplied.
        ParseError: a sample has a non-positive height or distance (located
            as ``row N``), or the samples give no fit in float range (no
            location: the failure belongs to the whole set).
    """
    if not samples:
        raise EmptyInput("cannot fit alpha from zero samples")
    negative_rows = 0
    for i, sample in enumerate(samples):
        _check_sample(sample, location=f"row {i}")
        if sample.h_true_px < sample.h_s_px:
            negative_rows += 1
    if negative_rows:
        log.warning(
            "%d of %d calibration samples have measured height below the "
            "skeleton height; keeping them",
            negative_rows,
            len(samples),
        )

    # Zero-intercept least squares of gap vs 1/z; dividing by z before
    # squaring keeps the one-sample case exact (z*z is exact for integral z).
    try:
        num = math.fsum((s.h_true_px - s.h_s_px) / s.z_m for s in samples)
        den = math.fsum(1.0 / (s.z_m * s.z_m) for s in samples)
    except (OverflowError, ValueError) as exc:  # a sum beyond float range, or inf - inf
        raise ParseError(f"the samples give no finite fit: {exc}") from None
    alpha = num / den

    residuals = [(s.h_s_px + alpha / s.z_m) - s.h_true_px for s in samples]
    rmse = math.sqrt(math.fsum(r * r for r in residuals) / len(residuals))
    max_abs = max(abs(r) for r in residuals)
    result = CalibrationResult(alpha, len(samples), rmse, max_abs)
    if not all(math.isfinite(v) for v in (alpha, rmse, max_abs)):
        raise ParseError(f"the samples give no finite fit: {result}")
    return result


def load_calibration_samples(source: str) -> list[CalibrationSample]:
    """Read samples from CSV with header ``h_s_px,z_m,h_true_px``.

    The file is read by :func:`formats.csv_rows`: blank lines are skipped,
    line numbers in errors are 1-based and count the header line, and a line
    that does not parse is the error before any sample's values are checked.
    """
    samples = []
    for line_no, values in zip(*csv_rows(source, 3, 3, header=SAMPLE_CSV_HEADER)):
        sample = CalibrationSample(*values)
        _check_sample(sample, location=f"line {line_no}")
        samples.append(sample)
    return samples
