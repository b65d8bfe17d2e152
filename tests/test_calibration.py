import logging
import math
import random

import pytest

from skel2box import (
    CalibrationResult,
    CalibrationSample,
    EmptyInput,
    ParseError,
    fit_alpha,
    load_calibration_samples,
)

CSV_HEADER = "h_s_px,z_m,h_true_px"


def exact_samples(alpha, zs, h_s=50.0):
    return [CalibrationSample(h_s, z, h_s + alpha / z) for z in zs]


class TestFitAlpha:
    def test_exact_recovery(self):
        result = fit_alpha(exact_samples(120.0, [5, 10, 20, 40]))
        assert result.alpha == pytest.approx(120.0, rel=1e-12)
        assert result.rmse_px <= 1e-10
        assert result.max_abs_residual_px <= 1e-10
        assert result.n_samples == 4

    def test_single_sample_closed_form(self):
        result = fit_alpha([CalibrationSample(50, 10, 60)])
        assert result.alpha == 100.0
        assert result.rmse_px == 0.0

    def test_zero_gap_gives_zero_alpha(self):
        samples = [CalibrationSample(h, z, h) for h, z in [(50, 5), (80, 10), (120, 20)]]
        result = fit_alpha(samples)
        assert result.alpha == 0.0
        assert result.rmse_px == 0.0

    def test_empty_set(self):
        with pytest.raises(EmptyInput, match="^cannot fit alpha from zero samples$"):
            fit_alpha([])

    def test_invalid_sample_names_row(self):
        samples = [CalibrationSample(50, 10, 60), CalibrationSample(50, 0, 60)]
        with pytest.raises(ParseError, match="^z_m must be finite and positive") as exc_info:
            fit_alpha(samples)
        assert "row 1" in str(exc_info.value)

    @pytest.mark.parametrize(
        "rows, reason",
        [
            ([(50, 1e-154, 60)] * 2, "intermediate overflow in fsum"),
            ([(1, 1e-100, 1e308), (1e308, 1e-100, 1)], "-inf + inf in fsum"),
            ([(1, 1e-100, 1e308)],
             "CalibrationResult(alpha=inf, n_samples=1, rmse_px=inf, max_abs_residual_px=inf)"),
            ([(1, 1, 1e300), (1e300, 1, 1)],
             "CalibrationResult(alpha=0.0, n_samples=2, rmse_px=inf, max_abs_residual_px=1e+300)"),
        ],
        ids=["weights_overflow", "gaps_inf_minus_inf", "alpha_inf", "rmse_inf"],
    )
    def test_fit_beyond_float_range_names_no_row(self, rows, reason):
        samples = [CalibrationSample(*row) for row in rows]
        with pytest.raises(ParseError) as exc_info:
            fit_alpha(samples)
        assert str(exc_info.value) == f"the samples give no finite fit: {reason}"
        assert exc_info.value.location is None

    def test_negative_gap_kept_with_warning(self, caplog):
        samples = exact_samples(200.0, [5, 10, 20]) + [CalibrationSample(100, 10, 95)]
        with caplog.at_level(logging.WARNING):
            result = fit_alpha(samples)
        assert result.n_samples == 4
        assert any("below the" in record.message for record in caplog.records)

    def test_scale_property(self):
        rng = random.Random(3)
        base = [
            CalibrationSample(rng.uniform(20, 200), rng.uniform(5, 40), 0.0) for _ in range(50)
        ]
        gaps = [rng.uniform(1, 30) for _ in base]
        for c in (2.0, 0.5, 7.0):
            original = [
                CalibrationSample(s.h_s_px, s.z_m, s.h_s_px + d) for s, d in zip(base, gaps)
            ]
            scaled = [
                CalibrationSample(s.h_s_px, c * s.z_m, s.h_s_px + d)
                for s, d in zip(base, gaps)
            ]
            assert fit_alpha(scaled).alpha == pytest.approx(
                c * fit_alpha(original).alpha, rel=1e-9
            )

    def test_agrees_with_grid_search(self):
        rng = random.Random(11)
        samples = [
            CalibrationSample(
                rng.uniform(20, 300), rng.uniform(5, 40), rng.uniform(25, 330)
            )
            for _ in range(40)
        ]
        fitted = fit_alpha(samples).alpha

        def sse(a):
            return math.fsum(
                (s.h_true_px - s.h_s_px - a / s.z_m) ** 2 for s in samples
            )

        step = 0.05
        grid = [fitted - 50 + step * i for i in range(2001)]
        best = min(grid, key=sse)
        assert abs(best - fitted) <= step

    def test_noise_robustness(self):
        rng = random.Random(42)
        alpha_true = 400.0
        samples = []
        for _ in range(10_000):
            z = rng.uniform(5, 40)
            h_s = rng.uniform(20, 300)
            samples.append(
                CalibrationSample(h_s, z, h_s + alpha_true / z + rng.gauss(0, 2))
            )
        result = fit_alpha(samples)
        assert abs(result.alpha - alpha_true) <= 0.02 * alpha_true
        assert result.rmse_px > 0


class TestCalibrationResultJson:
    def test_round_trip(self):
        result = CalibrationResult(alpha=123.5, n_samples=7, rmse_px=0.25, max_abs_residual_px=0.5)
        assert CalibrationResult.from_json(result.to_json()) == result

    def test_non_finite_value_is_not_written(self):
        result = CalibrationResult(alpha=math.inf, n_samples=1, rmse_px=0, max_abs_residual_px=0)
        with pytest.raises(ValueError):
            result.to_json()

    def test_json_keys(self):
        import json

        doc = json.loads(CalibrationResult(100.0, 1, 0.0, 0.0).to_json())
        assert set(doc) == {"alpha", "n_samples", "rmse_px", "max_abs_residual_px"}

    def test_bad_document(self):
        with pytest.raises(ParseError):
            CalibrationResult.from_json("[1, 2]")
        with pytest.raises(ParseError):
            CalibrationResult.from_json('{"alpha": 1}')
        with pytest.raises(ParseError):
            CalibrationResult.from_json("not json")


    @pytest.mark.parametrize(
        "key, value",
        [
            ("alpha", '"3.5"'),
            ("alpha", "true"),
            ("alpha", "null"),
            pytest.param("alpha", "1" + "0" * 400, id="alpha-1e400"),
            ("n_samples", "2.7"),
            ("n_samples", "2.0"),
            ("n_samples", "0"),
            ("n_samples", "true"),
            ("rmse_px", "NaN"),
            ("rmse_px", "-0.5"),
            ("rmse_px", '"1"'),
            ("max_abs_residual_px", "Infinity"),
            ("max_abs_residual_px", "false"),
            pytest.param("max_abs_residual_px", "1" + "0" * 400, id="max_abs_residual_px-1e400"),
        ],
    )
    def test_bad_value_names_the_key(self, key, value):
        fields = {"alpha": "100", "n_samples": "4", "rmse_px": "0.5", "max_abs_residual_px": "1"}
        fields[key] = value
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        with pytest.raises(ParseError, match=f"^{key} must be "):
            CalibrationResult.from_json(text)

    @pytest.mark.parametrize("alpha", ["0", "-5", "NaN"])
    def test_alpha_range_is_left_to_the_setting(self, alpha):
        text = f'{{"alpha": {alpha}, "n_samples": 1, "rmse_px": 0, "max_abs_residual_px": 0}}'
        assert repr(CalibrationResult.from_json(text).alpha) == repr(float(alpha.lower()))


class TestLoadCalibrationSamples:
    def test_single_row(self):
        samples = load_calibration_samples(f"{CSV_HEADER}\n50,10,60\n")
        assert samples == [CalibrationSample(50.0, 10.0, 60.0)]

    def test_header_only(self):
        assert load_calibration_samples(f"{CSV_HEADER}\n") == []

    def test_empty_file(self):
        with pytest.raises(ParseError, match=f"^empty file, expected header {CSV_HEADER}$"):
            load_calibration_samples("")

    # The rules of formats.csv_rows, which also reads MOT files.
    @pytest.mark.parametrize(
        "text, rows",
        [
            (f"{CSV_HEADER}\n  \n50,10,60\n\t\n", [(50, 10, 60)]),
            (f"{CSV_HEADER}\r\n50,10,60\r\n25,20,30\r\n", [(50, 10, 60), (25, 20, 30)]),
            (f" h_s_px , z_m,h_true_px\n50, 10 ,60\n", [(50, 10, 60)]),
        ],
        ids=["whitespace_lines_skipped", "crlf", "spaces_around_fields"],
    )
    def test_accepted_layouts(self, text, rows):
        assert load_calibration_samples(text) == [CalibrationSample(*row) for row in rows]

    @pytest.mark.parametrize(
        "text, message",
        [
            (f'{CSV_HEADER}\n"50",10,60\n',
             "non-numeric field: could not convert string to float: '\"50\"' (line 2)"),
            (f"{CSV_HEADER}\n50,10,\f60\n",
             "non-numeric field: could not convert string to float: '' (line 2)"),
            (f"{CSV_HEADER}\n50,1\x000,60\n",
             "non-numeric field: could not convert string to float: '1\\x000' (line 2)"),
            (f'"h_s_px",z_m,h_true_px\n',
             "bad header '\"h_s_px\",z_m,h_true_px', expected h_s_px,z_m,h_true_px (line 1)"),
            (f"\n{CSV_HEADER}\n",
             "bad header '', expected h_s_px,z_m,h_true_px (line 1)"),
        ],
        ids=["quoted_number", "form_feed_splits_the_line", "nul_byte", "quoted_header",
             "blank_first_line"],
    )
    def test_rejected_layouts(self, text, message):
        with pytest.raises(ParseError) as exc_info:
            load_calibration_samples(text)
        assert str(exc_info.value) == message

    def test_zero_distance_names_line(self):
        with pytest.raises(ParseError, match="^z_m must be finite and positive") as exc_info:
            load_calibration_samples(f"{CSV_HEADER}\n50,0,60\n")
        assert "line 2" in str(exc_info.value)

    def test_wrong_header(self):
        with pytest.raises(ParseError) as exc_info:
            load_calibration_samples("a,b,c\n50,10,60\n")
        assert "line 1" in str(exc_info.value)

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as exc_info:
            load_calibration_samples(f"{CSV_HEADER}\n50,10\n")
        assert "line 2" in str(exc_info.value)

    def test_non_numeric_field(self):
        with pytest.raises(ParseError) as exc_info:
            load_calibration_samples(f"{CSV_HEADER}\n50,ten,60\n")
        assert "line 2" in str(exc_info.value)

    def test_row_order_preserved(self):
        samples = load_calibration_samples(f"{CSV_HEADER}\n50,10,60\n25,20,30\n")
        assert samples[0].h_s_px == 50.0
        assert samples[1].h_s_px == 25.0
