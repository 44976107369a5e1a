"""Output bytes pinned from a known-good build, to hold refactors to
byte identity: the rows of a small entropy sweep and the three codec
streams at Q=2, where every cell starts on an integer, and at Q=1.4,
where most do not. RD and verify tables are not pinned, because their
last digits depend on the BLAS and libm in use.
"""

import hashlib

import pytest

from crlab.cli import main

SWEEP_ARGV = ["sweep", "--p", "0", "0.3", "1", "--Q", "1", "1.4", "2", "64",
              "--M", "256", "--plain"]

# stdout of SWEEP_ARGV after its provenance line
SWEEP_STDOUT = """\
Q,p,H_R,H_X_given_Xp,H_X_given_Xphat,H_R_given_Xphat,H_R_given_Xp,I_X_Xp,I_X_Xphat,I_R_Xp,I_R_Xphat
1,0,-0,0,0,0,0,8,8,0,0
1,0.3,3.4851862,3.26879134,3.26879134,3.26879134,3.26879134,4.73120866,4.73120866,0.216394867,0.216394867
1,1,8.72131622,8,8,8,8,0,0,0.721316223,0.721316223
1.4,0,-0,0,0.5703125,0,0,8,7.4296875,0,0
1.4,0.3,3.4851862,3.26879134,3.66221649,3.26945967,3.26879134,4.73120866,4.33778351,0.216394867,0.215726532
1.4,1,8.72131622,8,8,8.00222778,8,0,0,0.721316223,0.71908844
2,0,-0,0,1,0,0,8,7,0,0
2,0.3,3.4851862,3.26879134,3.9586327,3.26996321,3.26879134,4.73120866,4.0413673,0.216394867,0.215222992
2,1,8.72131622,8,8,8.00390625,8,0,0,0.721316223,0.717409973
64,0,-0,0,6,0,0,8,2,0,0
64,0.3,3.4851862,3.26879134,7.12580939,3.32286095,3.26879134,4.73120866,0.874190608,0.216394867,0.162325256
64,1,8.72131622,8,8,8.18023204,8,0,0,0.721316223,0.541084187
crossover: Q=1 H(X|Xphat)-H(R) = 0 at p=0
crossover: Q=1.4 H(X|Xphat)-H(R) changes sign between p=0.3 and p=1
crossover: Q=2 H(X|Xphat)-H(R) changes sign between p=0.3 and p=1
crossover: Q=64 H(X|Xphat)-H(R) changes sign between p=0.3 and p=1
"""

CODEC_ARGV = ["codec", "--M", "256", "--n", "2000", "--p", "0.25", "--seed", "0"]

# SHA-256 of each stream, by Q and paradigm; the residual coder ignores Q
CODEC_SHA256 = {
    "2": {
        "residual": "443f94f458293eef1a11470428bdca56516afd44440d965b026cedc83092ee15",
        "conditional": "512c81f9087fc93d6b99dfc8782a84e79ba027c4bd54f6ddf2d40b835e6e160e",
        "conditional-residual":
            "1bc6f8a75113de86015a15ee9dbc07178a1728139d328539bb1f2c1903a6dc84",
    },
    "1.4": {
        "residual": "443f94f458293eef1a11470428bdca56516afd44440d965b026cedc83092ee15",
        "conditional": "46605eaf6dc79933352fa3f8953c359239f13460fa258fd74d8fc259184a0eaf",
        "conditional-residual":
            "0794361ccc7d0961c17d5574cbaabb7f0083284d1ffc59f656e28655be59c552",
    },
}


def test_sweep_rows(capsys):
    assert main(SWEEP_ARGV) == 0
    provenance, rest = capsys.readouterr().out.split("\n", 1)
    assert provenance.startswith("# crlab ")
    assert rest == SWEEP_STDOUT


def stream_sha256(tmp_path, Q: str, paradigm: str) -> str:
    assert main([*CODEC_ARGV, "--Q", Q, "--paradigm", paradigm,
                 "--out", str(tmp_path)]) == 0
    blob = (tmp_path / f"codec_{paradigm}_p0.25_Q{Q}.crlb").read_bytes()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("paradigm", sorted(CODEC_SHA256["2"]))
def test_codec_stream(capsys, tmp_path, paradigm):
    assert stream_sha256(tmp_path, "2", paradigm) == CODEC_SHA256["2"][paradigm]


@pytest.mark.parametrize("paradigm", sorted(CODEC_SHA256["1.4"]))
def test_codec_stream_irregular_cells(capsys, tmp_path, paradigm):
    assert stream_sha256(tmp_path, "1.4", paradigm) == CODEC_SHA256["1.4"][paradigm]
