"""Golden digests: the figure CSVs of fixed small configs, byte for byte.

The ``cluster`` digests were recorded before candidate resolution was
batched; the ``svm`` and fixed-codebook ``cluster-random`` digests were
recorded while sweep points were still resolved one point at a time.
The benchmark's workload digests, stored in ``perfbench/run.py``, are
reproduced from its own configs.  Any change to them is a behaviour
change and must be explained.
"""

import ast
import hashlib
import importlib.util
from pathlib import Path

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

# at channel_p = 0.3 the best blocklength differs between q values, so
# the CSV reads points at several n, and the weak decoder differs from the
# classical one at most of them
RESOLVER_GOLDEN = {
    "svm": (
        """\
master_seed = 77002
trials_per_point = 400
resolver = svm
fig3_q_values = 0.2,0.35,0.5,0.65,0.8
fig3_channel_p = 0.3
fig3_blocklengths = 20,30,40,60
""",
        "df3a1e52c9ca3a081f660903731a308587fbe42d381910d0c125f90d67d65dd4",
    ),
    "cluster-random": (
        """\
master_seed = 77003
trials_per_point = 400
resolver = cluster-random
codebook_mode = fixed
fig3_q_values = 0.2,0.35,0.5,0.65,0.8
fig3_channel_p = 0.3
fig3_blocklengths = 20,30,40,60
""",
        "87a2bd0823f27f7c18a9f99512a50567ca2cf56d4e93bde43dac087e302bc3ba",
    ),
}

# m = 16 on blocklengths down to 3: a resolver flush joins trials of several n, and
# of c > n and c <= n, in one block of one candidate count (5 such blocks, 9 to 10
# blocks of several n); the svm digest replays 232 trials in floats, so it holds
# under the default BLAS kernel, as the svm digest above does
MIXED_BLOCK_CONFIG = """\
master_seed = 77004
trials_per_point = 200
m_messages = 16
fig3_q_values = 0.2,0.5,0.8
fig3_channel_p = 0.3
fig3_blocklengths = 3,5,8,12,20
"""

MIXED_BLOCK_DIGESTS = {
    "cluster": "503722552319bcf6b23b8d1fa6d643cd8fa4378b795c2f0dd8e7913a1f407708",
    "cluster-random": "f5c48d16e43e466b15c46603764f703b97aa975c97abbbf6076b8241fbcc30e4",
    "svm": "686cbd77e440a7bac5bce4848072de8eb5292b1fa8797e783f337fb4beea8ea7",
}


PERFBENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def perfbench_literals(*names):
    """The literal values perfbench/run.py assigns to ``names``, read from its source without running it."""
    tree = ast.parse(PERFBENCH_RUN.read_text(encoding="utf-8"))
    found = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) and node.targets[0].id in names
    }
    return [found[name] for name in names]


def test_golden_config_and_digests_match_perfbench():
    # perfbench checks the same figures before it times anything; the two copies must not drift
    config, digests = perfbench_literals("GOLDEN_CONFIG", "GOLDEN_DIGESTS")
    assert "".join(f"{key} = {value}\n" for key, value in config.items()) == GOLDEN_CONFIG
    assert digests == GOLDEN_DIGESTS


def figure_digest(tmp_path, figure, config_text):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    assert main([figure, "--config", str(cfg), "--out", str(out)]) == 0
    return hashlib.sha256((out / f"{figure}.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("figure", sorted(GOLDEN_DIGESTS))
def test_figure_csv_matches_golden_digest(tmp_path, figure):
    assert figure_digest(tmp_path, figure, GOLDEN_CONFIG) == GOLDEN_DIGESTS[figure]


@pytest.mark.parametrize("resolver", sorted(RESOLVER_GOLDEN))
def test_resolver_fig3_csv_matches_golden_digest(tmp_path, resolver):
    config_text, digest = RESOLVER_GOLDEN[resolver]
    assert figure_digest(tmp_path, "fig3", config_text) == digest


@pytest.mark.parametrize("resolver", sorted(MIXED_BLOCK_DIGESTS))
def test_fig3_csv_with_blocks_of_mixed_blocklengths_matches_golden_digest(tmp_path, resolver):
    config_text = MIXED_BLOCK_CONFIG + f"resolver = {resolver}\n"
    assert figure_digest(tmp_path, "fig3", config_text) == MIXED_BLOCK_DIGESTS[resolver]


def perfbench_run_module():
    """perfbench/run.py loaded as a module, its own source unedited; loading it runs no benchmark."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["fig3-desk", "fig1-rate", "fig3-svm"])
def test_perfbench_workload_csv_matches_its_stored_digest(tmp_path, workload):
    # the benchmark checks these digests on every run; here a byte move shows up in the tests too
    run = perfbench_run_module()
    figure, _, _, digest = run.WORKLOADS[workload]
    assert figure_digest(tmp_path, figure, run.workload_config(workload, run.DEFAULT_SEED, None)) == digest
