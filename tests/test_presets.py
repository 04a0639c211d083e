"""Every preset, shortened, keeps its artifacts byte for byte.

Each preset runs through the command line at seed 1 with its sample
counts cut to the benchmark's smoke sizes.  The sha256 of each
seed-reproducible artifact was recorded on x86-64 Linux (numpy 2.4,
OpenBLAS): a change that keeps behaviour keeps them, while a platform
whose libm or BLAS rounds differently changes them.
"""

import hashlib
import json

import pytest

from alps.cli import main

SMOKE = {"total_target_samples": 200, "burnin_samples": 100}

# preset: (subcommand, override, {artifact: sha256})
PINNED_PRESETS = {
    "synthetic-20d": ("run", SMOKE, {
        "trace.csv": "b7c3b203a2e967be734104be8cb71c385cdc39cc10a8a5b3918c3841458f7d25",
        "acceptance.json": "56b6be6d175ac54e1a749a0ce41c750397b3b630630a54dd3b8a1a47966acac1",
        "modes.json": "8e59a8d311028abdc1f02b3d735e6161380aedc46cecabc856469b580008ac2f",
        "summary.json": "36b4f03ad66e6b25846fe2bd03bb12b27764d8ae4e0d46a66d07d1882b7c4e83"}),
    "synthetic-20d-pt": ("pt", SMOKE, {
        "trace.csv": "7e6f43408fee5490eb3cc93c32bea2a11da446d84f79126087cedcf86873ca9f",
        "acceptance.json": "fe9e30767ed466d8f0ee14103b01dd152d993de8ae9882eea1497bc2ef4db71f",
        "modes.json": "f4e2aa74a1cd000c2499f7c1f692105ba35c3e9f4d8d77b9585f8643dec94a13",
        "summary.json": "167bb552a1317d254e451401a6a8a73b82e727f569c156f8338954478bbce7dd"}),
    "synthetic-20d-lais": ("run", SMOKE, {
        "trace.csv": "419268f159476d5ba5632831e1ab92e575e6b30592134ca8196702b14fa55eb0",
        "acceptance.json": "0400168ac388f9edd07878d1c170f1aa506225d3cf9ee76b58ede4cd66aabbda",
        "modes.json": "8e59a8d311028abdc1f02b3d735e6161380aedc46cecabc856469b580008ac2f",
        "summary.json": "7c8710d97802356d0296ba765017d2d7cbcfccb32c1560ac2885c1c196685e6f"}),
    "sur-grunfeld": ("run", {"total_target_samples": 100,
                             "burnin_samples": 50}, {
        "trace.csv": "31d2837f3b6dba482dec7591bf31a7b563d321d9f8685952b894b5a5f01d0c32",
        "acceptance.json": "bd0f1752ceb31b446fd42f4f135df79e0b486c8dee1486b41fe59accacd89811",
        "modes.json": "b63719077841ff762deeb0685006b12763c94b620bb2ba790bb0477c8d337756",
        "summary.json": "15a973e9061e5320f09ed6deef8042516aba68d194b384e1c0e822ded7b65220"}),
}


@pytest.mark.parametrize("preset", sorted(PINNED_PRESETS))
def test_shortened_presets_keep_their_artifacts(tmp_path, capsys, preset):
    command, override, pinned = PINNED_PRESETS[preset]
    path = tmp_path / "override.json"
    path.write_text(json.dumps(override))
    out = tmp_path / "out"
    assert main([command, "--preset", preset, "--config", str(path),
                 "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("trace.csv", "acceptance.json", "modes.json",
                            "summary.json")}
    assert digests == pinned
