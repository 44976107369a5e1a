"""End-to-end CLI behavior: exit codes, files, provenance, formats."""

import re
import sys

import pytest

import crlab.cli
import crlab.codec
import crlab.pixel_model
from crlab.analysis import read_csv
from crlab.cli import main
from crlab.codec import Bitstream
from crlab.errors import FormatError
from crlab.pixel_model import PARADIGMS, PixelModelParams, entropy_report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate"],
        ["sweep", "--p", "1.5"],
        ["sweep", "--M", "1"],
        ["codec", "--p", "0.5"],  # paradigm missing
        ["codec", "--p", "0.5", "--paradigm", "residual", "--n", "0"],
        ["rd", "--M", "128"],
        ["verify", "--trials", "0"],
        ["verify", "--shape", "8by8"],
        ["sweep", "--seed", "-1"],
    ])
    def test_exit_64(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 64
        assert err != ""

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_out_path_is_a_file(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, _, err = run(capsys, "sweep", "--p", "0.5", "--Q", "2",
                           "--M", "16", "--out", str(blocker))
        assert code == 64
        assert "cannot use --out" in err


class TestSweep:
    def test_plain_single_point(self, capsys):
        code, out, _ = run(capsys, "sweep", "--p", "1.0", "--Q", "1",
                           "--M", "256", "--plain")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# crlab ")
        assert lines[1].split(",")[:3] == ["Q", "p", "H_R"]
        h_r = float(lines[2].split(",")[2])
        assert abs(h_r - 8.7213) < 1e-3

    def test_csv_written_with_provenance(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "--p", "0.2", "0.8", "--Q", "2",
                           "--M", "16", "--out", str(tmp_path), "--seed", "9")
        assert code == 0
        text = (tmp_path / "sweep.csv").read_text()
        first = text.splitlines()[0]
        assert first.startswith("# crlab ")
        assert "seed=9" in first
        assert "sweep" in first
        assert len(text.splitlines()) == 2 + 2  # provenance + header + rows

    def test_crossover_printed(self, capsys, tmp_path):
        # conditional loses below the crossover, wins above it
        code, out, _ = run(capsys, "sweep", "--Q", "2", "--M", "64",
                           "--p", *[f"{k / 20:.2f}" for k in range(1, 21)],
                           "--out", str(tmp_path))
        assert code == 0
        assert re.search(r"crossover: Q=2 .* changes sign between p=", out)

    def test_bottleneck_wider_than_alphabet(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--M", "256", "--Q", "256", "--p", "0.05",
                           "--out", str(tmp_path))
        assert code == 0, err
        row = (tmp_path / "sweep.csv").read_text().splitlines()[2].split(",")
        assert row[-3] == "0" and row[-1] == "0"   # I_X_Xphat, I_R_Xphat

    def test_out_dir_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CRLAB_OUT", str(tmp_path / "envdir"))
        code, _, _ = run(capsys, "sweep", "--p", "0.5", "--Q", "1", "--M", "8")
        assert code == 0
        assert (tmp_path / "envdir" / "sweep.csv").exists()


class TestVerify:
    def test_small_run_passes(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--trials", "12",
                           "--shape", "5x4", "--seed", "3",
                           "--out", str(tmp_path))
        assert code == 0
        assert "pass 12/12" in out
        header = (tmp_path / "verify.csv").read_text().splitlines()[1]
        assert header == "check_id,kind,worst,pass_count,trial_count"

    def test_vacuous_shape(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", "--trials", "1", "--shape", "1x1",
                         "--out", str(tmp_path))
        assert code == 0


class TestRd:
    def test_writes_curves_and_matrix(self, capsys, tmp_path):
        code, out, _ = run(capsys, "rd", "--M", "8", "--p", "0.3", "--Q", "2",
                           "--slopes", "16", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "rd_curves.csv").exists()
        bd_text = (tmp_path / "bd_matrix.csv").read_text()
        assert "fit=cubic-poly" in bd_text.splitlines()[0]
        # BD percentages printed with exactly 4 decimals
        printed = re.findall(r"= ([+-]\d+\.\d+)%", out)
        assert printed and all(len(v.split(".")[1]) == 4 for v in printed)

    def test_force_needed_beyond_64(self, capsys, tmp_path):
        code, _, err = run(capsys, "rd", "--M", "65", "--out", str(tmp_path))
        assert code == 64
        assert "--force" in err

    @pytest.mark.parametrize("slopes", ["0", "-3"])
    def test_slope_count_below_one(self, capsys, tmp_path, slopes):
        code, _, err = run(capsys, "rd", "--M", "8", "--slopes", slopes,
                           "--out", str(tmp_path))
        assert code == 64
        assert "at least one slope" in err
        assert list(tmp_path.iterdir()) == []


class TestPlainMatchesCsv:
    @pytest.mark.parametrize("argv,files", [
        (["sweep", "--p", "0.3", "1.0", "--Q", "1.4", "64", "--M", "16"],
         ["sweep.csv"]),
        (["verify", "--trials", "20"], ["verify.csv"]),
        (["rd", "--M", "8", "--p", "0.3", "--Q", "2", "--slopes", "8"],
         ["rd_curves.csv", "bd_matrix.csv"]),
    ], ids=["sweep", "verify", "rd"])
    def test_same_header_and_rows(self, capsys, tmp_path, argv, files):
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 0
        code, out, _ = run(capsys, *argv, "--plain")
        assert code == 0
        # each table under --plain follows its provenance comment line
        lines = out.splitlines()
        tables = [lines[i + 1:] for i, line in enumerate(lines) if line.startswith("# ")]
        assert len(tables) == len(files)
        for name, printed in zip(files, tables):
            header, rows = read_csv(tmp_path / name)
            assert rows
            want = [",".join(header), *(",".join(r) for r in rows)]
            assert printed[:len(want)] == want, name


class TestCodec:
    def test_roundtrip_writes_bitstream(self, capsys, tmp_path):
        code, out, _ = run(capsys, "codec", "--p", "0.5", "--Q", "2",
                           "--M", "16", "--n", "2000", "--paradigm", "condres",
                           "--seed", "4", "--out", str(tmp_path))
        assert code == 0
        assert "round trip exact over 2000 symbols" in out
        files = list(tmp_path.glob("*.crlb"))
        assert len(files) == 1
        stream = Bitstream.from_bytes(files[0].read_bytes())
        assert stream.n == 2000 and stream.M == 16

    def test_condres_alias_maps_to_full_name(self, capsys, tmp_path):
        code, out, _ = run(capsys, "codec", "--p", "0.25", "--M", "8",
                           "--n", "500", "--paradigm", "condres",
                           "--out", str(tmp_path))
        assert code == 0
        assert "conditional-residual" in out

    def test_near_free_stream(self, capsys, tmp_path):
        code, out, _ = run(capsys, "codec", "--p", "0", "--paradigm",
                           "condres", "--n", "10000", "--M", "64",
                           "--out", str(tmp_path))
        assert code == 0
        rate = float(re.search(r"measured rate\s+(\S+)", out).group(1))
        assert rate < 0.01

    def test_plain_skips_bitstream_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "codec", "--p", "0.5", "--M", "8",
                         "--n", "200", "--paradigm", "residual", "--plain",
                         "--out", str(tmp_path))
        assert code == 0
        assert list(tmp_path.glob("*.crlb")) == []

    def test_reports_entropy_bound(self, capsys, tmp_path):
        code, out, _ = run(capsys, "codec", "--p", "0.5", "--Q", "2",
                           "--M", "16", "--n", "4000",
                           "--paradigm", "conditional", "--out", str(tmp_path))
        assert code == 0
        bound = float(re.search(r"entropy bound\s+(\S+)", out).group(1))
        want = entropy_report(PixelModelParams(p=0.5, Q=2, M=16)).H_X_given_Xphat
        assert abs(bound - want) < 1e-9

    def test_overhead_split_into_its_sources(self, capsys, tmp_path):
        code, out, _ = run(capsys, "codec", "--p", "0.25", "--Q", "2",
                           "--M", "256", "--n", "2000", "--paradigm", "residual",
                           "--out", str(tmp_path))
        assert code == 0
        labels = [line.split(" bits/symbol")[0].rsplit(None, 1)[0]
                  for line in out.splitlines()[1:6]]
        assert labels == ["measured rate", "entropy bound", "overhead",
                          "quantization loss", "finite-n cost"]
        figure = {name: float(re.search(rf"^{name}\s+(\S+) bits", out, re.M).group(1))
                  for name in labels}
        params = PixelModelParams(p=0.25, Q=2, M=256)
        expected = crlab.codec.expected_rate(
            crlab.codec.build_model(params, "residual"), params)
        assert figure["quantization loss"] > 1e-5
        assert figure["quantization loss"] == pytest.approx(
            expected - figure["entropy bound"], abs=1e-11)
        assert figure["finite-n cost"] == pytest.approx(
            figure["measured rate"] - expected, abs=1e-11)
        assert figure["overhead"] == pytest.approx(
            figure["quantization loss"] + figure["finite-n cost"], abs=1e-11)

    def test_one_joint_per_op(self, capsys, tmp_path, monkeypatch):
        real = crlab.pixel_model.build_joint
        calls = []

        def counted(params):
            calls.append(params)
            return real(params)

        # every crlab module that imported build_joint by name
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("crlab")
                    and getattr(mod, "build_joint", None) is real):
                monkeypatch.setattr(mod, "build_joint", counted)
        code, _, _ = run(capsys, "codec", "--M", "256", "--n", "2000",
                         "--p", "0.25", "--Q", "2", "--paradigm", "residual",
                         "--out", str(tmp_path))
        assert code == 0
        assert len(calls) == 1

    def test_alphabet_beyond_header_exits_64(self, capsys, tmp_path, monkeypatch):
        def no_joint(*args, **kwargs):
            raise AssertionError("built the joint for an unencodable M")

        monkeypatch.setattr(crlab.codec, "build_joint", no_joint)
        code, _, err = run(capsys, "codec", "--p", "0.5", "--M", "65536",
                           "--paradigm", "residual", "--out", str(tmp_path))
        assert code == 64
        assert "16 bits" in err
        assert list(tmp_path.iterdir()) == []

    def test_format_error_is_integrity_failure(self, capsys, tmp_path, monkeypatch):
        def bad_decode(*args, **kwargs):
            raise FormatError("header does not match")

        monkeypatch.setattr(crlab.cli, "decode", bad_decode)
        code, _, err = run(capsys, "codec", "--p", "0.5", "--M", "8",
                           "--n", "100", "--paradigm", "residual",
                           "--out", str(tmp_path))
        assert code == 2
        assert "codec integrity failure" in err


class TestParadigmTable:
    @pytest.mark.parametrize("row", PARADIGMS, ids=lambda row: row.label)
    def test_codec_spellings(self, capsys, tmp_path, row):
        argv = ["codec", "--p", "0.3", "--Q", "2", "--M", "16", "--n", "500",
                "--seed", "3"]
        if row.byte is None:
            code, _, _ = run(capsys, *argv, "--paradigm", row.label,
                             "--out", str(tmp_path))
            assert code == 64
            return
        blobs = []
        for spelling in (row.name, row.label):
            out_dir = tmp_path / spelling
            code, out, _ = run(capsys, *argv, "--paradigm", spelling,
                               "--out", str(out_dir))
            assert code == 0
            assert f"({row.name})" in out
            bound = float(re.search(r"entropy bound\s+(\S+)", out).group(1))
            report = entropy_report(PixelModelParams(p=0.3, Q=2, M=16))
            assert bound == float(f"{getattr(report, row.bound):.12g}")
            files = list(out_dir.glob("*.crlb"))
            assert [f.name for f in files] == [f"codec_{row.name}_p0.3_Q2.crlb"]
            blobs.append(files[0].read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0][5] == row.byte
