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
        "trace.csv": "6373f196484472e0978fd707a8bea468ba68e7389c612ef4b9c3ab15f109818d",
        "acceptance.json": "6293e9bbc477c2efa84700c3698ecaa258babbb5285cd1b9170f8d52d9afe715",
        "modes.json": "8e59a8d311028abdc1f02b3d735e6161380aedc46cecabc856469b580008ac2f",
        "summary.json": "7d6077d763a95d043b9729c145290c4d69958639ab3e223dcbfa2aab2ffa60ee"}),
    "synthetic-20d-pt": ("pt", SMOKE, {
        "trace.csv": "7e6f43408fee5490eb3cc93c32bea2a11da446d84f79126087cedcf86873ca9f",
        "acceptance.json": "fe9e30767ed466d8f0ee14103b01dd152d993de8ae9882eea1497bc2ef4db71f",
        "modes.json": "f4e2aa74a1cd000c2499f7c1f692105ba35c3e9f4d8d77b9585f8643dec94a13",
        "summary.json": "167bb552a1317d254e451401a6a8a73b82e727f569c156f8338954478bbce7dd"}),
    "synthetic-20d-lais": ("run", SMOKE, {
        "trace.csv": "716ab80ced5924208d2ac9296612778dd544411b891b00d87062265e1c9e4986",
        "acceptance.json": "306595f93cde424f5a8d67f6d2a9841a28b1797592f2db7e8144f3d8fa45e9c3",
        "modes.json": "8e59a8d311028abdc1f02b3d735e6161380aedc46cecabc856469b580008ac2f",
        "summary.json": "dff57815e72ea30b26a10be1eb50a3ac89b90ad7b63b5941d6c7550c91f208ae"}),
    "sur-grunfeld": ("run", {"total_target_samples": 100,
                             "burnin_samples": 50}, {
        "trace.csv": "81b480be5aea46b7d362c855441e7f6c6bdcf1c42af43f8fc9a8b79cf50c6486",
        "acceptance.json": "de3292ad9165f60429f0ba32ebf3c8ad726fab62eef2ab3ed6388f89067081cd",
        "modes.json": "b63719077841ff762deeb0685006b12763c94b620bb2ba790bb0477c8d337756",
        "summary.json": "87100d74ba0a9acf50b0a4254cd809332e2fcc53be0891333d9fe3f650b3068c"}),
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
