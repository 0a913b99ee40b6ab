"""weaktyp benchmark: figure commands end to end, and a traced layer split.

    python3 perfbench/run.py --workload fig3-desk --seed 1 --seconds 20 --trace 0

Each workload runs one figure command of the public CLI
(``weaktyp.cli.main(["fig1"|"fig3", "--config", ..., "--out", ...])``)
on a config generated from ``--seed`` (it becomes ``master_seed``).
Every measured run is a fresh Python process (``child.py``), and runs go
one after another, never two at once: ``fig1-rate`` alone peaks near
2.4 GB.

``--trace 0`` reports the end-to-end metrics (medians over untraced
runs).  ``wall_s`` and ``setup_s`` are given at a reference host speed,
because shared hosts drift by tens of percent within minutes: each
figure process also times a fixed probe computation and its wall time
is scaled by ``PROBE_REF_S / probe``, and each set-up sample is paired
with a process that only starts and imports numpy, its set-up time
scaled by ``STARTUP_REF_S / startup``.  The raw times are in the report
beside them.
``--trace 1`` alternates untraced and traced runs and reports
the per-layer metrics: the traced runs wrap the public functions of
``kernels``, ``montecarlo``, ``decoders``, ``rng`` and ``cli`` at the
names their callers look up, record spans, and derive self times and
counts from them.  The program under test is not modified.

Correctness is checked outside the timed region and feeds ``failed``:
the ROADMAP golden digests are reproduced first; every run's CSV must be
byte-identical to the first one and, for the default seed, to the digest
stored below; every ``diff`` must be <= 0; sampled trial ids of every
sweep point must agree between ``run_trials`` and the reference
``run_trial``; and two traced runs must give identical counts.

The report lists every metric with its unit and sample count; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
# a run must end within 180 s; child processes are killed past this budget
RUN_BUDGET_S = 165

FIG3_GRID = {
    "fig3_channel_p": "0.4",
    "fig3_eps": "0.1",
    "fig3_q_values": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
    "fig3_blocklengths": "20,40,60,80,100,120",
    "m_messages": "4",
    "k_max": "3",
    "codebook_mode": "redraw",
}

# name -> (figure, config keys, trials_per_point, CSV sha256 at DEFAULT_SEED)
# trials_per_point is the run-length setting: it keeps one figure command
# at a few seconds on a 2-core box so a run holds several samples.
WORKLOADS = {
    # headline figure; per-trial Python resolution (cluster_resolve ->
    # kmeans) takes over 90% of the wall time
    "fig3-desk": (
        "fig3",
        {**FIG3_GRID, "resolver": "cluster"},
        500,
        "cda05b78578f357044ae37d128350b3ab384da14185f0097b43dd29802d76b00",
    ),
    # kernel and memory workload: simulate_trials over chunk x m x n with
    # m up to 256 at n=200; resolution almost never runs
    "fig1-rate": (
        "fig1",
        {
            "m_mode": "fixed-rate",
            "rate_bits": "0.04",
            "fig12_blocklengths": "25,50,100,150,200",
            "fig12_channel_p": "0.05",
            "fig12_eps": "0.8",
            "fig12_q": "0.5",
            "resolver": "cluster",
            "k_max": "3",
            "codebook_mode": "redraw",
        },
        2048,
        "b320dfced676d0dc7f9ff4987581ad9b51165af9b0eb7a29f943bea7d2aeaf8a",
    ),
    # same grid as fig3-desk through the Pegasos resolver, which uses the
    # resolve layer differently (k-means is a small part of it)
    "fig3-svm": (
        "fig3",
        {**FIG3_GRID, "resolver": "svm"},
        50,
        "2926d07cb334a5ebe35ffc76fb94bd4d2806e69bb02641f1e53301497fbc208d",
    ),
}
DEFAULT_SEED = 1

# ROADMAP golden config and digests
GOLDEN_CONFIG = {
    "master_seed": "77001",
    "trials_per_point": "500",
    "fig3_q_values": "0.2,0.5,0.8",
    "fig3_blocklengths": "20,40",
    "fig12_blocklengths": "25,50,100",
}
GOLDEN_DIGESTS = {
    "fig1": "c775365b0d7fdaba0b236333463c663f4492eedcc4f922d8e1d228b9f852a353",
    "fig3": "adbee8db3f7e967daedd68dfaf6f1fdb00e84eb8ea860ab5092e7046774b430b",
}

SETUP_SAMPLES = 7

# typical child.probe_s and interpreter-plus-numpy start-up times on the
# 2-core host the benchmark was tuned on (Python 3.11, numpy 2.4)
PROBE_REF_S = 0.07
STARTUP_REF_S = 0.15
SPOT_IDS_PER_POINT = 3

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("kernels.simulate_s", "s"),
    ("kernels.calls", "count"),
    ("kernels.trials_per_s", "1/s"),
    ("kernels.symbols", "symbols"),
    ("kernels.ns_per_symbol", "ns"),
    ("kernels.out_bytes", "B"),
    ("montecarlo.run_trials_s", "s"),
    ("montecarlo.resolve_s", "s"),
    ("montecarlo.trials_per_s", "1/s"),
    ("montecarlo.multi_frac", "fraction"),
    ("montecarlo.us_per_multi", "us"),
    ("montecarlo.cand_hist.0", "count"),
    ("montecarlo.cand_hist.1", "count"),
    ("montecarlo.cand_hist.2", "count"),
    ("montecarlo.cand_hist.3", "count"),
    ("montecarlo.cand_hist.4p", "count"),
    ("decoders.resolve_s", "s"),
    ("decoders.cluster_calls", "count"),
    ("decoders.kmeans_calls", "count"),
    ("decoders.lloyd_iters_mean", "iterations"),
    ("decoders.shortcut_frac", "fraction"),
    ("decoders.svm_calls", "count"),
    ("rng.streams", "count"),
    ("experiments.sweep_s", "s"),
    ("experiments.points", "count"),
    ("cli.emit_s", "s"),
    ("config.load_s", "s"),
    ("run.import_s", "s"),
    ("run.cpu_s", "s"),
    ("run.cpu_util", "fraction"),
    ("trace.overhead_frac", "fraction"),
]
# reported, but left out of the JSON result: they read exactly 0 on the
# workloads whose resolver never reaches them
REPORT_ONLY = [("decoders.kmeans_s", "s"), ("decoders.svm_s", "s")]
# reported next to the reference-speed times they are derived from
RAW = [("wall_raw_s", "s"), ("setup_raw_s", "s"), ("host.probe_s", "s"), ("host.startup_s", "s")]
UNITS = dict(END_TO_END + PER_LAYER + REPORT_ONLY + RAW + [("failed_frac", "fraction")])
NOTES = {
    "wall_s": "at reference host speed",
    "setup_s": "at reference host speed",
    "wall_raw_s": "as measured",
    "setup_raw_s": "as measured",
    "host.probe_s": f"reference {PROBE_REF_S} s",
    "host.startup_s": f"reference {STARTUP_REF_S} s",
    "kernels.symbols": "computed: trials x m x n of each call",
    "kernels.out_bytes": "computed from the returned array sizes",
    "failed_frac": "failed / attempted checked runs",
}


class Failure(Exception):
    """A run whose process or output check failed."""


def config_text(settings: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in settings.items())


def workload_config(name: str, seed: int, trials: int | None) -> str:
    _, keys, default_trials, _ = WORKLOADS[name]
    settings = {"master_seed": str(seed), "trials_per_point": str(trials or default_trials), **keys}
    return config_text(settings)


def child_env() -> dict:
    env = dict(os.environ)
    # every thread pool the program may use is capped at the core count
    threads = str(os.cpu_count() or 1)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "WEAKTYP_THREADS"):
        env[key] = threads
    return env


class Bench:
    """Child processes, checks and samples of one benchmark run."""

    def __init__(self, work: Path, workload: str, seed: int, trials: int | None) -> None:
        self.work = work
        self.workload = workload
        self.seed = seed
        self.figure = WORKLOADS[workload][0]
        self.config = work / "workload.cfg"
        self.config.write_text(workload_config(workload, seed, trials))
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.counter = 0
        self.check_stored = seed == DEFAULT_SEED and trials in (None, WORKLOADS[workload][2])
        self.hard_deadline = time.monotonic() + RUN_BUDGET_S

    def child(self, mode: str, *extra: str) -> dict:
        """Run child.py in ``mode``; return its result or raise Failure."""
        self.counter += 1
        result = self.work / f"result{self.counter}.json"
        cmd = [sys.executable, str(CHILD), mode, "--result", str(result), *extra]
        cmd += ["--spawn", repr(time.monotonic())]
        timeout = max(1.0, self.hard_deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise Failure(f"{mode} run killed after {timeout:.0f} s, at the run's time budget") from exc
        if proc.returncode != 0 or not result.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            raise Failure(f"{mode} run exited with {proc.returncode}: {' | '.join(tail)}")
        return json.loads(result.read_text())

    def attempt(self, what: str, fn, *args):
        """Count one checked run; record its failure instead of raising."""
        self.attempted += 1
        try:
            return fn(*args)
        except Failure as exc:
            self.failures.append(f"{what}: {exc}")
            return None

    def setup(self) -> dict:
        """One set-up sample, paired with a start-up reference taken right after it."""
        res = self.child("setup", "--config", str(self.config))
        res["startup_s"] = self.child("startup")["startup_s"]
        return res

    def figure_run(self, figure: str, config: Path, spans: Path | None = None) -> tuple[dict, str]:
        """One figure command; returns the child's result and the CSV digest."""
        out = self.work / "out"
        extra = ["--config", str(config), "--figure", figure, "--out", str(out)]
        if spans is not None:
            extra += ["--spans", str(spans)]
        (out / f"{figure}.csv").unlink(missing_ok=True)
        res = self.child("fig", *extra)
        csv_bytes = (out / f"{figure}.csv").read_bytes()
        check_csv(csv_bytes.decode("utf-8"))
        return res, hashlib.sha256(csv_bytes).hexdigest()

    def golden(self) -> None:
        """Reproduce the ROADMAP golden digests before anything is timed."""
        config = self.work / "golden.cfg"
        config.write_text(config_text(GOLDEN_CONFIG))
        for figure, want in GOLDEN_DIGESTS.items():
            self.attempt(f"golden {figure}", self.golden_run, figure, config, want)

    def golden_run(self, figure: str, config: Path, want: str) -> None:
        _, digest = self.figure_run(figure, config)
        if digest != want:
            raise Failure(f"golden {figure}.csv sha256 {digest} != {want}")

    def workload_run(self, spans: Path | None = None) -> dict:
        res, digest = self.figure_run(self.figure, self.config, spans)
        if self.digest is None:
            self.digest = digest
            stored = WORKLOADS[self.workload][3]
            if self.check_stored and digest != stored:
                raise Failure(f"{self.figure}.csv sha256 {digest} != stored {stored}")
        elif digest != self.digest:
            raise Failure(f"rerun changed {self.figure}.csv: {digest} != {self.digest}")
        if spans is not None:
            res["layers"] = layer_metrics(json.loads(spans.read_text())["spans"])
            res["layers"][1]["run.import_s"] = res["import_s"]
            res["layers"][1]["config.load_s"] = res["load_s"]
        return res

    def spot_check(self) -> int:
        res = self.child(
            "spot", "--config", str(self.config), "--figure", self.figure,
            "--seed", str(self.seed), "--per-point", str(SPOT_IDS_PER_POINT),
        )
        if res["mismatches"]:
            raise Failure(f"batch != reference on {res['mismatches'][:3]}")
        return res["checked"]


def check_csv(text: str) -> None:
    lines = text.splitlines()
    header = lines[0].split(",")
    if "diff" not in header or len(lines) < 2:
        raise Failure("CSV has no diff column or no rows")
    col = header.index("diff")
    bad = [line for line in lines[1:] if float(line.split(",")[col]) > 0.0]
    if bad:
        raise Failure(f"diff > 0 in rows {bad}")


def layer_metrics(spans: list) -> tuple[dict, dict]:
    """(counts, timings) of one traced figure run, from its spans."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span[0]].append(index)
        children[span[3]].append(index)

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def total(name: str) -> float:
        return sum(dur(i) for i in by_name[name])

    def summed(name: str, key: str) -> int:
        return sum(spans[i][4][key] for i in by_name[name])

    sim = by_name["kernels.simulate_trials"]
    sim_s = total("kernels.simulate_trials")
    symbols = summed("kernels.simulate_trials", "symbols")
    run_s = total("montecarlo.run_trials")
    # run_trials minus its simulate_trials children: everything after the
    # kernel (scan reduction, resolution, dominance check), whatever calls it
    resolve_s = sum(
        dur(i) - sum(dur(c) for c in children[i] if spans[c][0] == "kernels.simulate_trials")
        for i in by_name["montecarlo.run_trials"]
    )
    trials = summed("montecarlo.run_trials", "trials")
    hist = [0] * 5
    for i in by_name["montecarlo.run_trials"]:
        hist = [a + b for a, b in zip(hist, spans[i][4]["cand_hist"])]
    multi = hist[2] + hist[3] + hist[4]
    cluster = by_name["montecarlo.cluster_resolve"]
    shortcut = sum(
        1 for i in cluster if not any(spans[c][0] == "decoders.kmeans" for c in children[i])
    )
    kmeans = by_name["decoders.kmeans"]
    sweeps = by_name["cli.sweep_blocklengths"] + by_name["cli.sweep_source_prob"]
    main = by_name["cli.main"]
    counts = {
        "kernels.calls": len(sim),
        "kernels.symbols": symbols,
        "kernels.out_bytes": summed("kernels.simulate_trials", "out_bytes"),
        "montecarlo.trials": trials,
        "montecarlo.multi_frac": multi / trials if trials else 0.0,
        **{f"montecarlo.cand_hist.{k}": v for k, v in zip(("0", "1", "2", "3", "4p"), hist)},
        "decoders.cluster_calls": len(cluster),
        "decoders.kmeans_calls": len(kmeans),
        "decoders.lloyd_iters_mean": (
            sum(spans[i][4]["iters"] for i in kmeans) / len(kmeans) if kmeans else 0.0
        ),
        "decoders.shortcut_frac": shortcut / len(cluster) if cluster else 0.0,
        "decoders.svm_calls": len(by_name["montecarlo.svm_resolve"]),
        "rng.streams": len(by_name["rng.stream_state"]),
        "experiments.points": sum(spans[i][4]["points"] for i in sweeps),
    }
    timings = {
        "kernels.simulate_s": sim_s,
        "kernels.trials_per_s": summed("kernels.simulate_trials", "trials") / sim_s if sim_s else 0.0,
        "kernels.ns_per_symbol": sim_s / symbols * 1e9 if symbols else 0.0,
        "montecarlo.run_trials_s": run_s,
        "montecarlo.resolve_s": resolve_s,
        "montecarlo.trials_per_s": trials / run_s if run_s else 0.0,
        "montecarlo.us_per_multi": resolve_s / multi * 1e6 if multi else 0.0,
        "decoders.resolve_s": total("montecarlo.cluster_resolve") + total("montecarlo.svm_resolve"),
        "decoders.kmeans_s": total("decoders.kmeans"),
        "decoders.svm_s": total("montecarlo.svm_resolve"),
        "experiments.sweep_s": sum(dur(i) for i in sweeps),
        "cli.emit_s": sum(spans[i][2] for i in main) - max(spans[i][2] for i in sweeps),
    }
    return counts, timings


def summarize(values: list[float]) -> dict:
    return {"value": statistics.median(values), "n": len(values), "min": min(values), "max": max(values)}


def exact(value: float, n: int) -> dict:
    """A value that is one number for all n samples (a count, or a ratio of medians)."""
    return {"value": value, "n": n, "min": value, "max": value}


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Run the workload until ``seconds`` have passed; return the run results."""
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        enough = len(plain) >= (1 if trace else 3) and len(traced) >= (2 if trace else 0)
        # past the deadline, a failure also ends the run instead of retrying
        if time.monotonic() >= deadline and (enough or bench.failures):
            break
        # traced and untraced runs alternate, starting with a traced one
        use_trace = trace and len(traced) <= len(plain)
        spans = bench.work / f"spans{bench.counter + 1}.json" if use_trace else None
        res = bench.attempt(f"{'traced' if use_trace else 'untraced'} run", bench.workload_run, spans)
        if res is not None:
            (traced if use_trace else plain).append(res)
    return {"plain": plain, "traced": traced}


def check_counts(bench: Bench, traced: list[dict]) -> None:
    first = traced[0]["layers"][0]
    for res in traced[1:]:
        if res["layers"][0] != first:
            diff = {k: (first[k], v) for k, v in res["layers"][0].items() if first.get(k) != v}
            bench.failures.append(f"traced counts differ between runs: {diff}")


def wall_at_reference(res: dict) -> float:
    """Wall time scaled to a host where child.probe_s takes PROBE_REF_S."""
    return res["wall_s"] * PROBE_REF_S / ((res["probe_before_s"] + res["probe_after_s"]) / 2)


def metrics_from(runs: dict, setups: list[dict]) -> dict[str, dict]:
    """Metric summaries in three blocks: end to end, layer counts, layer timings."""
    plain, traced = runs["plain"], runs["traced"]
    e2e = {
        "setup_s": summarize([s["setup_s"] * STARTUP_REF_S / s["startup_s"] for s in setups]),
        "setup_raw_s": summarize([s["setup_s"] for s in setups]),
        "host.startup_s": summarize([s["startup_s"] for s in setups]),
    }
    counts: dict[str, dict] = {}
    timings: dict[str, dict] = {}
    if plain:
        e2e["wall_s"] = summarize([wall_at_reference(r) for r in plain])
        e2e["wall_raw_s"] = summarize([r["wall_s"] for r in plain])
        e2e["host.probe_s"] = summarize([r[k] for r in plain for k in ("probe_before_s", "probe_after_s")])
        e2e["peak_rss_mb"] = summarize([r["peak_rss_mb"] for r in plain])
        timings["run.cpu_s"] = summarize([r["cpu_s"] for r in plain])
        timings["run.cpu_util"] = summarize([r["cpu_s"] / r["wall_s"] for r in plain])
    if traced:
        for key, value in traced[0]["layers"][0].items():
            counts[key] = exact(value, len(traced))
        for key in traced[0]["layers"][1]:
            timings[key] = summarize([r["layers"][1][key] for r in traced])
        if plain:
            # traced and untraced runs alternate, so raw times compare directly
            overhead = statistics.median(r["wall_s"] for r in traced) / e2e["wall_raw_s"]["value"] - 1.0
            timings["trace.overhead_frac"] = exact(overhead, len(traced) + len(plain))
    return {
        "end to end (untraced runs)": e2e,
        "layer counts (deterministic, identical in every traced run)": counts,
        "layer timings (traced runs; run.* from untraced runs)": timings,
    }


def environment(setup_result: dict) -> dict:
    env = dict(setup_result["env"])
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or commit
    env["git_commit"] = commit
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="weaktyp benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trials-per-point", type=int, default=None,
        help="override the workload's run length (the self-test uses a tiny one)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it becomes master_seed)")
    if not (ROOT / "src" / "weaktyp" / "cli.py").is_file():
        print(f"error: no weaktyp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args, work: Path) -> int:
    bench = Bench(work, args.workload, args.seed, args.trials_per_point)
    trace = bool(args.trace)
    try:
        bench.setup()  # warm-up: the first import may compile bytecode
        setups = [bench.setup() for _ in range(SETUP_SAMPLES)]
    except Failure as exc:
        print(f"error: cannot set up weaktyp: {exc}", file=sys.stderr)
        return 1
    env = environment(setups[0])

    bench.golden()
    runs = measure(bench, args.seconds, trace)
    if trace and len(runs["traced"]) >= 2:
        check_counts(bench, runs["traced"])
    checked = bench.attempt("spot check", bench.spot_check)

    blocks = metrics_from(runs, setups)
    failed = len(bench.failures)
    blocks["end to end (untraced runs)"]["failed_frac"] = exact(failed / bench.attempted, bench.attempted)
    metrics = {name: stats for block in blocks.values() for name, stats in block.items()}
    wanted = PER_LAYER if trace else END_TO_END
    missing = [name for name, _ in wanted if name not in metrics]
    if missing:
        for failure in bench.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        print(f"error: too few successful runs to report {missing}", file=sys.stderr)
        return 1

    stored = "compared with the stored digest" if bench.check_stored else "recorded; no stored digest here"
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}",
        f"env {json.dumps(env, sort_keys=True)}",
        f"check {bench.figure}.csv sha256 {bench.digest} ({stored})",
        f"check golden digests reproduced: {not any(f.startswith('golden') for f in bench.failures)}",
        f"check batch == reference on {checked or 0} sampled trials",
    ]
    lines += [f"FAILED {failure}" for failure in bench.failures]
    for title, block in blocks.items():
        if block:
            lines.append(f"-- {title}")
        for name, stats in block.items():
            note = f"  ({NOTES[name]})" if name in NOTES else ""
            lines.append(
                f"{name:28s} {stats['value']:<14.6g} {UNITS.get(name, 'count'):10s} "
                f"n={stats['n']} min={stats['min']:.6g} max={stats['max']:.6g}{note}"
            )
    if trace:
        traced_wall = statistics.median(r["wall_s"] for r in runs["traced"])
        shares = ", ".join(
            f"{name}={metrics[name]['value'] / traced_wall:.3f}"
            for name in ("kernels.simulate_s", "montecarlo.resolve_s", "decoders.kmeans_s", "decoders.svm_s", "cli.emit_s")
        )
        lines.append(f"share of traced wall_s ({traced_wall:.6g} s): {shares}")
    print("\n".join(lines))

    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
