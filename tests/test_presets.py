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
        "trace.csv": "313cea0bf2741b77c12b35fd3d253b80e240531ca7f932b2dfbb6b0d028e520f",
        "acceptance.json": "fa147ff0f5628467c54b4b195e055540fc443c7ab0b09b44b54951beef858d26",
        "modes.json": "8e59a8d311028abdc1f02b3d735e6161380aedc46cecabc856469b580008ac2f",
        "summary.json": "f810c82a11b48854e339374950f0b7d34dc837646e1ed904dc4d197c1abc175b"}),
    "synthetic-20d-pt": ("pt", SMOKE, {
        "trace.csv": "e4a9a45fecec6b5a605df7dc7a7cc91f2fcd894310899bf34993409bdb4c39f9",
        "acceptance.json": "ed89cc3d1276c13f6648cfb5046cb6987d21991195fd29947d9c1b667ebaac11",
        "modes.json": "f4e2aa74a1cd000c2499f7c1f692105ba35c3e9f4d8d77b9585f8643dec94a13",
        "summary.json": "1e6826c0560163078c00a52091bc721966f393701a8b061b161578e49001bb9f"}),
    "synthetic-20d-lais": ("run", SMOKE, {
        "trace.csv": "419268f159476d5ba5632831e1ab92e575e6b30592134ca8196702b14fa55eb0",
        "acceptance.json": "0400168ac388f9edd07878d1c170f1aa506225d3cf9ee76b58ede4cd66aabbda",
        "modes.json": "8e59a8d311028abdc1f02b3d735e6161380aedc46cecabc856469b580008ac2f",
        "summary.json": "9f69f6fa277aed898e41cb8584458551f96d2ed51e14f4f33a675e57ff35e139"}),
    "sur-grunfeld": ("run", {"total_target_samples": 100,
                             "burnin_samples": 50}, {
        "trace.csv": "d0d5486380add2c1a852db2b0502023b1b48f7e623759cfd4a9a1ebb8a046665",
        "acceptance.json": "d3d3fa36cc2ac00589345492dfc463f37ba2d595d3ef911a841aa67d6e893135",
        "modes.json": "b63719077841ff762deeb0685006b12763c94b620bb2ba790bb0477c8d337756",
        "summary.json": "8d6b74df97acba8340a3753b8939182ef0cbf3ffb7d06901490018dc87f5ee2a"}),
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
