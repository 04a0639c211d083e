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
        "trace.csv": "0763ff78264a5a301fe4362d598716eba6d741d4158625601ccddae3461c337d",
        "acceptance.json": "2df79f00a5550063eb55561481858afafbc8286ba895017813441366db76223c",
        "modes.json": "8e59a8d311028abdc1f02b3d735e6161380aedc46cecabc856469b580008ac2f",
        "summary.json": "ad444c8bb4aa8948f24f284af838aca2c34b90129e49366d74d74f53d174af7e"}),
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
        "trace.csv": "31d2837f3b6dba482dec7591bf31a7b563d321d9f8685952b894b5a5f01d0c32",
        "acceptance.json": "7cc7dfc5baafd47899b2fd956747995d49e475201a176f110358ad4109f447ab",
        "modes.json": "b63719077841ff762deeb0685006b12763c94b620bb2ba790bb0477c8d337756",
        "summary.json": "d2b210881738a5611f95f799e0c44a541c7676a08f244e1d4df839de4e527dd4"}),
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
