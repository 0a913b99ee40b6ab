"""Golden digests: the figure CSVs of a fixed small config, byte for byte.

The digests were recorded before candidate resolution was batched; any
change to them is a behaviour change and must be explained.
"""

import hashlib

import pytest

from weaktyp.cli import main

GOLDEN_CONFIG = """\
master_seed = 77001
trials_per_point = 500
fig3_q_values = 0.2,0.5,0.8
fig3_blocklengths = 20,40
fig12_blocklengths = 25,50,100
"""

GOLDEN_DIGESTS = {
    "fig1": "c775365b0d7fdaba0b236333463c663f4492eedcc4f922d8e1d228b9f852a353",
    "fig3": "adbee8db3f7e967daedd68dfaf6f1fdb00e84eb8ea860ab5092e7046774b430b",
}


@pytest.mark.parametrize("figure", sorted(GOLDEN_DIGESTS))
def test_figure_csv_matches_golden_digest(tmp_path, figure):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN_CONFIG)
    out = tmp_path / "out"
    assert main([figure, "--config", str(cfg), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / f"{figure}.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_DIGESTS[figure]
