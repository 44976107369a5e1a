"""BD-rate metric oracles, PSNR mapping, and CSV plumbing."""

import math

import numpy as np
import pytest

from crlab.analysis import (
    BD_FIT_METADATA,
    CURVE_HEADER,
    QualityCurve,
    bd_rate,
    bd_rate_matrix,
    curve_rows,
    mse_to_psnr,
    quality_curve_from_rd,
    read_csv,
    write_csv,
)
from crlab.errors import InputError
from crlab.pixel_model import REPORT_FIELDS, PixelModelParams, entropy_report
from crlab.rd_solver import RDCurve, RDPoint

BASE = ((0.5, 30.0), (1.0, 34.0), (2.0, 38.0), (4.0, 42.0))


def scaled(factor, label="scaled"):
    return QualityCurve(label, tuple((r * factor, q) for r, q in BASE))


class TestPsnr:
    def test_known_values(self):
        assert mse_to_psnr(255.0 ** 2, 255.0) == pytest.approx(0.0)
        assert mse_to_psnr(1.0, 255.0) == pytest.approx(48.1308036, abs=1e-6)

    def test_zero_mse_is_infinite(self):
        assert mse_to_psnr(0.0, 255.0) == math.inf

    def test_guards(self):
        with pytest.raises(InputError):
            mse_to_psnr(-1.0, 255.0)
        with pytest.raises(InputError):
            mse_to_psnr(1.0, 0.0)


class TestQualityCurve:
    def test_needs_four_points(self):
        with pytest.raises(InputError):
            QualityCurve("c", BASE[:3])

    def test_sorts_input(self):
        shuffled = (BASE[2], BASE[0], BASE[3], BASE[1])
        assert QualityCurve("c", shuffled).points == QualityCurve("c", BASE).points

    def test_rejects_flat_or_decreasing(self):
        same_q = ((0.5, 30.0), (1.0, 30.0), (2.0, 38.0), (4.0, 42.0))
        with pytest.raises(InputError):
            QualityCurve("c", same_q)
        bad_rate = ((0.5, 30.0), (0.5, 34.0), (2.0, 38.0), (4.0, 42.0))
        with pytest.raises(InputError):
            QualityCurve("c", bad_rate)

    def test_rejects_nonpositive_rate(self):
        pts = ((0.0, 30.0), (1.0, 34.0), (2.0, 38.0), (4.0, 42.0))
        with pytest.raises(InputError):
            QualityCurve("c", pts)


class TestBdOracles:
    def test_identity_is_exactly_zero(self):
        ref = QualityCurve("ref", BASE)
        assert bd_rate(ref, ref) == 0.0

    def test_doubled_rates_are_plus_hundred(self):
        assert abs(bd_rate(QualityCurve("r", BASE), scaled(2.0)) - 100.0) < 1e-6

    def test_halved_rates_are_minus_fifty(self):
        assert abs(bd_rate(QualityCurve("r", BASE), scaled(0.5)) + 50.0) < 1e-6

    def test_scale_invariance_in_log_domain(self):
        # BD of k*ref against ref depends only on k
        a = bd_rate(scaled(3.0, "a"), scaled(6.0, "b"))
        assert abs(a - 100.0) < 1e-6

    def test_antisymmetry_of_rate_ratio(self):
        ref = QualityCurve("ref", BASE)
        up = bd_rate(ref, scaled(2.0))
        down = bd_rate(scaled(2.0), ref)
        assert abs((1 + up / 100) * (1 + down / 100) - 1.0) < 1e-9

    def test_disjoint_quality_spans_rejected(self):
        lo = QualityCurve("lo", BASE)
        hi = QualityCurve("hi", tuple((r, q + 100.0) for r, q in BASE))
        with pytest.raises(InputError):
            bd_rate(lo, hi)


class TestEnvelopeSampling:
    def envelope(self):
        # convex, strictly monotone synthetic envelope with extreme ends:
        # rates spanning 5 decades and a near-lossless tail
        pts = []
        rate = 4.0
        dist = 1e-8
        for _ in range(40):
            pts.append(RDPoint(rate, dist, 1.0))
            rate *= 0.72
            dist *= 2.1
        return RDCurve.assemble("env", pts)

    def test_band_restriction_tames_extremes(self):
        qc = quality_curve_from_rd(self.envelope(), peak=15.0)
        rates = [r for r, _ in qc.points]
        top = max(p.rate for p in self.envelope().points)
        assert len(qc.points) == 8
        assert max(rates) <= 0.99 * top + 1e-12
        assert min(rates) >= 0.01 * top - 1e-12

    def test_zero_rate_curve_has_no_band(self):
        flat = RDCurve("flat", (RDPoint(1e-9, 0.1, 1.0),
                                RDPoint(1e-10, 0.5, 0.5)))
        with pytest.raises(InputError):
            quality_curve_from_rd(flat, peak=15.0)


@pytest.fixture(scope="module")
def curves():
    from crlab.rd_solver import compare_paradigms

    return compare_paradigms(PixelModelParams(p=0.3, Q=4, M=16),
                             np.geomspace(1e-3, 1e3, 48))


class TestMatrix:
    def test_diagonal_zero_and_sane_magnitudes(self, curves):
        mat = bd_rate_matrix(curves, peak=15.0)
        assert len(mat) == 16
        for (ref, tst), v in mat.items():
            if ref == tst:
                assert v == 0.0
            else:
                assert v is not None and abs(v) < 100.0

    def test_condres_beats_res(self, curves):
        mat = bd_rate_matrix(curves, peak=15.0)
        assert mat[("res", "condres")] < 0.0

    def test_accepts_mapping_or_sequence(self, curves):
        a = bd_rate_matrix(curves, peak=15.0)
        b = bd_rate_matrix(list(curves.values()), peak=15.0)
        assert a == b

    def test_unfittable_entries_are_none(self):
        from crlab.rd_solver import compare_paradigms

        curves = compare_paradigms(PixelModelParams(p=0.0, Q=1, M=16),
                                   np.geomspace(1e-3, 1e3, 16))
        mat = bd_rate_matrix(curves, peak=15.0)
        assert all(v is None for v in mat.values())


class TestCsv:
    def test_roundtrip_with_provenance(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), [(1.5, "x"), (0.25, "y")],
                  provenance="tool 1.0 | run | seed=0")
        text = path.read_text()
        assert text.startswith("# tool 1.0 | run | seed=0\n")
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert rows == [["1.5", "x"], ["0.25", "y"]]

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("v",), [(math.pi,)], "t")
        _, rows = read_csv(path)
        assert rows[0][0] == "3.14159265"

    def test_unwritable_path_is_input_error(self, tmp_path):
        with pytest.raises(InputError):
            write_csv(tmp_path / "no" / "dir" / "t.csv", ("a",), [(1,)], "t")

    def test_sweep_rows_match_header(self):
        rep = entropy_report(PixelModelParams(p=0.5, Q=2, M=16))
        row = rep.row()
        assert len(row) == len(REPORT_FIELDS)
        assert row[REPORT_FIELDS.index("H_R")] == rep.H_R

    def test_curve_rows_flatten_points(self):
        curve = RDCurve("c", (RDPoint(1.0, 1.0, 2.0), RDPoint(0.5, 2.0, 0.5)))
        rows = curve_rows([curve])
        assert CURVE_HEADER == ("label", "slope", "rate_bits", "distortion_mse")
        assert rows == [("c", 2.0, 1.0, 1.0), ("c", 0.5, 0.5, 2.0)]

    def test_fit_variant_recorded(self):
        assert BD_FIT_METADATA == "fit=cubic-poly"
