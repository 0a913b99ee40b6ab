"""The same bytes under every BLAS kernel and SIMD target numpy can pick: commands in child processes.

numpy's OpenBLAS, when built with DYNAMIC_ARCH, picks its kernels by
CPU, and ``OPENBLAS_CORETYPE`` overrides the pick for one process;
``NPY_DISABLE_CPU_FEATURES`` turns numpy's own SIMD dispatch targets
off.  Both variables are set only in the child processes started here.

Outside ``svm`` every output reads only integers, or floats in exact
ranges, so the figure CSVs and ``oracle-check``'s report must not move
with either.  ``svm`` decides most trials in integers too, so a fixed
svm pool must send the same trials to the float replay under every
kernel and decode every other trial alike.  The replayed trials' bytes
are pinned per BLAS kernel: they take the reference's ``ddot`` and
``gemv``, whose summation order is the kernel's, so they must equal the
per-trial reference under every kernel, wherever the trial sits in the
replay.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

SRC = str(Path(__file__).resolve().parent.parent / "src")

COMMANDS = {
    "fig1": ("fig1", "master_seed = 5\ntrials_per_point = 200\nfig12_blocklengths = 25,50\n"),
    "fig3-cluster": (
        "fig3",
        "master_seed = 6\ntrials_per_point = 150\nfig3_q_values = 0.2,0.5,0.8\nfig3_blocklengths = 20,40\n",
    ),
    "fig3-fixed-cluster-random": (
        "fig3",
        "master_seed = 7\ntrials_per_point = 150\nresolver = cluster-random\ncodebook_mode = fixed\n"
        "fig3_q_values = 0.35,0.65\nfig3_blocklengths = 20,30\n",
    ),
    "oracle-check": ("oracle-check", "master_seed = 8\noracle_trials = 2000\n"),
}

# svm tie trials, (n, packed [z] rows, 2-means labels), taken from desk fig3 svm at 2000
# trials per point: under OPENBLAS_CORETYPE=Prescott, whose ddot sums in an order that
# depends on the alignment of its second operand, a replay that took the ddot on weights
# at odd offsets decoded every second copy of each of them otherwise than the reference
SVM_TIES = [
    (20, "ecce400fa0c01a3f40", [-1, 1, 1]),
    (20, "4e0370f768007c9550023810", [-1, 1, 1, -1]),
    (20, "c1f0a0d096c01352e0d4d2a0", [1, 1, -1, 1]),
    (80, "bbb40eb591469bcab998a7b60321fff417c177d42205087dcba30cd959e231f013ea62300857d988", [1, -1, -1, 1]),
    (80, "d913b19894b113501391d80b115814b197501793bd03319a1631b74213935907b19c16b197700380", [1, 1, -1, 1]),
]

# the fixed svm pool: (n, candidates, trials) of each part, c > n in the last; its rows and
# streams are drawn from SVM_POOL_SEED, and only its open trials are resolved
SVM_POOL = [(20, 3, 300), (40, 4, 300), (3, 6, 100)]
SVM_POOL_SEED = 22

CHILD = r"""
import contextlib, hashlib, io, json, sys
from pathlib import Path
import numpy as np
from weaktyp import decoders
from weaktyp.cli import main
from weaktyp.rng import stream_states

spec = json.loads(sys.stdin.read())
work = Path(spec["work"])
out = {}
for name, (command, config) in spec["commands"].items():
    cfg = work / f"{name}.cfg"
    cfg.write_text(config)
    args = [command, "--config", str(cfg)]
    if command != "oracle-check":
        args += ["--out", str(work / name)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(args)
    files = sorted((work / name).iterdir()) if command != "oracle-check" else []
    text = stdout.getvalue().replace(str(work), "<work>")
    out[name] = [code, text, {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}]
ties = []
for n, packed, labels in spec["svm_ties"]:
    rows = np.unpackbits(np.frombuffer(bytes.fromhex(packed), dtype=np.uint8).reshape(len(labels), -1), axis=1, count=n)
    feats = np.hstack([rows, np.ones((len(labels), 1))])
    reference = feats @ decoders._pegasos_separator(feats, np.array(labels, dtype=np.float64))
    wide = rows.astype(np.int64)
    kernel = np.repeat((wide @ wide.T + 1)[None], 4, axis=0)
    group = (n, np.packbits(np.repeat(rows[None], 4, axis=0), axis=2), np.repeat(np.array([labels], dtype=np.int8), 4, axis=0), kernel)
    (scores,) = decoders._pegasos_scores([group], True)
    ties.append([score.tobytes() == reference.tobytes() for score in scores])
out["svm_ties"] = ties
rng = np.random.default_rng(spec["svm_pool_seed"])
parts = []
for n, c, size in spec["svm_pool"]:
    rows = rng.integers(0, 2, size=(size, c, n), dtype=np.uint8)
    states = stream_states(spec["svm_pool_seed"], rng.integers(0, 2**40, size=size))
    mask = np.ones((size, c), dtype=bool)
    # resolve_batch takes open trials only: the index rule decides a set of equal rows
    keep = ~decoders.index_decided(rows, mask, mask.sum(axis=1), np.arange(size), "svm", 2)
    parts.append(decoders.PackedTrials(n, mask[keep], np.packbits(rows[keep], axis=2), states[keep]))
replayed, pegasos_scores = set(), decoders._pegasos_scores

def recorded(groups, certified):
    replayed.update((n, z_t.tobytes()) for n, z, _, _ in groups for z_t in z)
    return pegasos_scores(groups, certified)

decoders._pegasos_scores = recorded
got = decoders.resolve_batch(parts, "svm", 2)
# each trial's decode and whether it was replayed; all its candidates reach the resolver
out["svm_pool"] = [
    [[int(d), (part.n, part.z_seqs[t].tobytes()) in replayed] for t, d in enumerate(res.decoded.tolist())]
    for part, res in zip(parts, got)
]
print(json.dumps(out))
"""


def run_child(tmp_path: Path, name: str, **env_vars) -> dict:
    """Run every command of COMMANDS, and the svm tie replays, in one child process with ``env_vars`` set."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(env_vars)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    work = tmp_path / name
    work.mkdir()
    spec = {
        "work": str(work),
        "commands": COMMANDS,
        "svm_ties": SVM_TIES,
        "svm_pool": SVM_POOL,
        "svm_pool_seed": SVM_POOL_SEED,
    }
    done = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(spec), capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def check_alike(results: dict) -> None:
    """Every command gave the same exit code, stdout and output files in every environment."""
    (base_name, base), *others = results.items()
    for name in COMMANDS:
        code, text, files = base[name]
        assert code == 0, (base_name, name, text)
        assert files or name == "oracle-check"
        for other_name, other in others:
            assert other[name] == [code, text, files], (name, base_name, other_name)
    for name, result in results.items():
        # svm bytes are pinned per kernel: every copy of every tie trial scores as the reference
        assert all(all(copies) for copies in result["svm_ties"]), (name, result["svm_ties"])


def check_svm_pool(results: dict) -> None:
    """The svm pool replayed the same trials in every environment, and decoded every other trial alike."""
    (base_name, base), *others = results.items()
    trials = [trial for part in base["svm_pool"] for trial in part]
    assert 0 < sum(replayed for _, replayed in trials) < len(trials) // 4, base_name
    for other_name, other in others:
        for part, other_part in zip(base["svm_pool"], other["svm_pool"]):
            assert [r for _, r in part] == [r for _, r in other_part], (base_name, other_name)
            assert [d for d, r in part if not r] == [d for d, r in other_part if not r], (base_name, other_name)


def openblas_dynamic_arch() -> str:
    """Why OPENBLAS_CORETYPE has no kernel to vary here, or '' when it has."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = str(blas.get("openblas configuration", ""))
    if "DYNAMIC_ARCH" not in config:
        return f"numpy's BLAS is {blas.get('name')!r} ({config or 'no OpenBLAS configuration'}), not a DYNAMIC_ARCH OpenBLAS"
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the Sandybridge and Prescott kernels are x86-64 kernels, and this host is {platform.machine()}"
    if not _multiarray_umath.__cpu_features__.get("AVX"):
        return "this CPU has no AVX, which the Sandybridge kernels need"
    return ""


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """The commands in a child process with neither variable set."""
    return run_child(tmp_path_factory.mktemp("blas"), "default")


@pytest.fixture(scope="module")
def core_type_runs(tmp_path_factory, default_run):
    """The commands in child processes under the default core, Sandybridge and Prescott."""
    reason = openblas_dynamic_arch()
    if reason:
        pytest.skip(f"OPENBLAS_CORETYPE has no kernel to vary: {reason}")
    work = tmp_path_factory.mktemp("cores")
    return {
        "default": default_run,
        "Sandybridge": run_child(work, "sandybridge", OPENBLAS_CORETYPE="Sandybridge"),
        "Prescott": run_child(work, "prescott", OPENBLAS_CORETYPE="Prescott"),
    }


def test_every_openblas_core_type_gives_the_same_bytes(core_type_runs):
    check_alike(core_type_runs)


def test_svm_decodes_outside_the_replay_are_the_same_under_every_core_type(core_type_runs):
    check_svm_pool(core_type_runs)


def test_numpy_simd_dispatch_targets_give_the_same_bytes(tmp_path, default_run):
    targets = list(_multiarray_umath.__cpu_dispatch__)
    if not targets:
        pytest.skip("numpy was built without SIMD dispatch targets: NPY_DISABLE_CPU_FEATURES has nothing to turn off")
    results = {
        "default": default_run,
        "baseline SIMD": run_child(tmp_path, "baseline", NPY_DISABLE_CPU_FEATURES=" ".join(targets)),
    }
    check_alike(results)
    check_svm_pool(results)
