"""Pinned sha256 digests of every shipped scenario's artifacts.

Each file in `scenarios/` runs at its shipped seed and shot count, and the
bytes of `records.jsonl` and `summary.csv` must hash to the values below.
A rerun-equality check cannot see drift between versions; these digests
can. A change that alters sampling or formatting on purpose updates the
table and says which digests changed, and why, in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from obliq.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# stem: (sha256 of records.jsonl, sha256 of summary.csv)
DIGESTS = {
    "channel-composition": (
        "da1a97a53865f1190e2f38b128472e091e9d597359a00fb0eee93090b3146e83",
        "b0d779805e1555d863175ca3c6b0a0e5bee5d0694b2ea0038d484cb8133a8862",
    ),
    "dbqc": (
        "ce8093f19f6dfea948e9f6bacd06c40e6520e5670096a2044ed57f7d1968b762",
        "aa591a93c6e7cafed42d7a6837eec986627fedf238312205baa298fef9715355",
    ),
    "knitting-exact": (
        "549d2ab7b01b7b4fe850a623f13118c24f109dadf1fa1a956dbaaed6305bb6e5",
        "9433af465c0c0421f7bfb1953de78570d6a5af9de5e51d5b2480e6aec68d4da7",
    ),
    "knitting-sampled": (
        "43b417dcf7b2d090051b3056690a1b661b296a1f0fbdef124cf86d1428ae7809",
        "7a7d1269c089fa5c6cfc01f703983c4ca09e5ffe99fb4dc19e3860d15e5c5a38",
    ),
    "pingpong": (
        "2bb277459cd39a7f1cfaab92b5e0095cbdaf3f5b3241a4c2766db62aa9fe9c5b",
        "b9c7c89ed99283dfa637e28fc38f30c3eef27184070322430c266b65e87be94a",
    ),
    "script-teleport": (
        "c868bbc99eb6ae1e06abb4684d57365d5930b4909e68ccc65f0acfb8d4da41bf",
        "467e077db818a869f2babc2057da337ffe8a067010e34ca66cd3ddc3dac27f8a",
    ),
    "triparty-scheme1": (
        "7d86b89a34fdb8cf96cd936c28aba22412a93cdf16060a16cc451b2f46aeba8a",
        "ff412fc6665594e10f2ee6ac1a763e5df54286a3c2150885616be297136c513a",
    ),
    "triparty-scheme2": (
        "1ec8676f1d864a46f17a47fd7d4ef6be7afc6150a65eaf7b05bf0a8ed71c31b2",
        "ceb771486bbdf8456a32acd2e7d060c30b16be98f459fdc748ba4e3e36c5c033",
    ),
}


def test_every_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.json")) == sorted(DIGESTS)


@pytest.mark.parametrize("stem", sorted(DIGESTS))
def test_artifact_digests(stem, tmp_path):
    out = tmp_path / stem
    assert main(["run", str(SCENARIO_DIR / f"{stem}.json"), "--out", str(out)]) == 0
    got = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("records.jsonl", "summary.csv")
    )
    assert got == DIGESTS[stem]
