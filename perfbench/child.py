"""One measured process of the weaktyp benchmark; started by ``run.py``.

Modes (the first argument):

  setup  --spawn T --config C --result R
      import weaktyp and load the config, then stop.  Reports the set-up
      time and the environment.
  fig    --spawn T --config C --result R --figure fig1|fig3 --out DIR [--spans S]
      set up as above, then run ``weaktyp <figure> --config C --out DIR``
      through ``weaktyp.cli.main``.  With ``--spans`` the public layer
      functions are wrapped where their callers look them up, and every
      call is recorded as a span (name, start, end, parent, counts).
  startup --spawn T --result R
      start the interpreter and import numpy, then stop: the reference
      that ``run.py`` scales set-up times by.
  spot   --config C --result R --figure fig1|fig3 --seed N --per-point K
      check K sampled trial ids of every sweep point: the batch path
      (``run_trials``) must give the same trial as the reference path
      (``run_trial``).

``T`` is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is shared by all processes of a machine, so
``monotonic() - T`` is the time since the interpreter was launched.
``fig`` also times a fixed probe computation before and after the figure
command, so that ``run.py`` can express its time at a reference host
speed.  Everything is written to the JSON file ``R``; a missing result
file means the process failed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import inspect
import json
import os
import platform
import random
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _setup(config_path: str) -> tuple[dict, dict]:
    """Import weaktyp and load the config; return (config, timings)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import weaktyp.cli  # noqa: F401  (the import is what is timed)
    from weaktyp import config

    t1 = time.perf_counter()
    cfg = config.load_config(config_path)
    t2 = time.perf_counter()
    return cfg, {"import_s": t1 - t0, "load_s": t2 - t1}


def _environment() -> dict:
    import numpy

    from weaktyp import kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": kernels.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
    }


PROBE_ROUNDS = 6000


def probe_s() -> float:
    """Seconds for a fixed computation shaped like one k-means step on 4 points.

    Small numpy operations driven by the interpreter, as in per-trial
    resolution; the host's speed at the moment is what varies it.  It calls nothing from weaktyp, so no change to the
    program can change it.
    """
    import numpy as np

    pts = np.linspace(0.0, 1.0, 240).reshape(4, 60)
    t0 = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        dist2 = ((pts[:, None, :] - pts[None, :3, :]) ** 2).sum(axis=2)
        nearest = dist2.argmin(axis=1)
        pts[nearest == nearest[0]].mean(axis=0)
    return time.perf_counter() - t0


class Tracer:
    """In-memory span recorder around module-level functions.

    A span is ``[name, start, end, parent index, counts]``; the parent is
    the innermost wrapped call still open when the span started.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, module, attr: str, counts=None) -> None:
        """Replace ``module.attr`` by a recording wrapper; absent names are skipped."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            span = self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block."""
        span = self._start(name)
        try:
            yield
        finally:
            self._end(span)

    def _start(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._open.pop()


def _simulate_counter(simulate_trials):
    """Counts of one simulate_trials call, from its sizes (computed, not measured)."""
    signature = inspect.signature(simulate_trials)

    def counts(args, kwargs, result) -> dict:
        call = signature.bind(*args, **kwargs).arguments
        count, m, n = int(call["count"]), int(call["m"]), int(call["n"])
        out_bytes = sum(int(a.nbytes) for a in result if a is not None)
        return {"trials": count, "symbols": count * m * n, "out_bytes": out_bytes}

    return counts


def _batch_counts(args, kwargs, result) -> dict:
    import numpy as np

    hist = np.bincount(np.minimum(result.candidate_counts, 4), minlength=5)
    return {"trials": int(result.trials), "cand_hist": [int(v) for v in hist]}


def _kmeans_counts(args, kwargs, result) -> dict:
    return {"iters": int(getattr(result, "iterations_used", 0))}


def _sweep_counts(args, kwargs, result) -> dict:
    return {"points": len(result.points)}


def install_tracer(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the name its callers use."""
    from weaktyp import cli, decoders, kernels, montecarlo, rng

    tracer.wrap(kernels, "simulate_trials", _simulate_counter(kernels.simulate_trials))
    tracer.wrap(montecarlo, "run_trials", _batch_counts)
    tracer.wrap(montecarlo, "cluster_resolve")
    tracer.wrap(montecarlo, "svm_resolve")
    tracer.wrap(decoders, "kmeans", _kmeans_counts)
    tracer.wrap(rng, "stream_state")
    tracer.wrap(cli, "sweep_blocklengths", _sweep_counts)
    tracer.wrap(cli, "sweep_source_prob", _sweep_counts)
    tracer.wrap(cli, "sweep_to_csv")
    tracer.wrap(cli, "svg_from_csv")


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def cmd_setup(args) -> int:
    _, timings = _setup(args.config)
    setup_s = time.monotonic() - args.spawn
    _write(args.result, {"setup_s": setup_s, **timings, "env": _environment()})
    return 0


def cmd_startup(args) -> int:
    import numpy  # noqa: F401  (interpreter start plus this import is the reference)

    _write(args.result, {"startup_s": time.monotonic() - args.spawn})
    return 0


def cmd_fig(args) -> int:
    _, timings = _setup(args.config)
    setup_s = time.monotonic() - args.spawn
    from weaktyp import cli

    tracer = None
    if args.spans:
        tracer = Tracer()
        install_tracer(tracer)
    argv = [args.figure, "--config", args.config, "--out", args.out]
    probe_before = probe_s()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with tracer.span("cli.main") if tracer else contextlib.nullcontext():
        rc = cli.main(argv)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    probe_after = probe_s()
    if rc != 0:
        print(f"error: weaktyp {args.figure} exited with {rc}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        _write(args.spans, {"spans": tracer.spans})
    _write(
        args.result,
        {
            "setup_s": setup_s,
            **timings,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
            "probe_before_s": probe_before,
            "probe_after_s": probe_after,
        },
    )
    return 0


def sweep_points(cfg: dict, figure: str) -> list:
    """TrialConfigs of every sweep point, in the order the figure command runs them."""
    import math
    from dataclasses import replace

    from weaktyp import config

    if figure == "fig3":
        base = config.fig3_trial_config(cfg)
        return [replace(base, q=q, n=n) for q in cfg["fig3_q_values"] for n in cfg["fig3_blocklengths"]]
    base = config.fig12_trial_config(cfg)
    points = []
    for n in cfg["fig12_blocklengths"]:
        # the documented fixed-rate rule m = 2**ceil(rate_bits * n), at least 2
        m = base.m if cfg["m_mode"] == "fixed-m" else max(2, 2 ** math.ceil(cfg["rate_bits"] * n))
        points.append(replace(base, n=n, m=m))
    return points


def cmd_spot(args) -> int:
    cfg, _ = _setup(args.config)
    from weaktyp.montecarlo import run_trial, run_trials

    pick = random.Random(args.seed)
    trials = cfg["trials_per_point"]
    checked = 0
    mismatches = []
    for point in sweep_points(cfg, args.figure):
        for tid in pick.sample(range(trials), min(args.per_point, trials)):
            batch = run_trials(point, 1, start=tid)
            ref = run_trial(point, tid)
            got = [int(a[0]) for a in (batch.true_w, batch.jt_decoded, batch.weak_decoded, batch.candidate_counts)]
            want = [ref.true_w, ref.jt_outcome.decoded, ref.weak_outcome.decoded, ref.candidate_count]
            checked += 1
            if got != want:
                mismatches.append({"n": point.n, "m": point.m, "q": point.q, "trial": tid, "batch": got, "reference": want})
    _write(args.result, {"checked": checked, "mismatches": mismatches})
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "startup", "fig", "spot"))
    parser.add_argument("--config")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawn", type=float, default=0.0)
    parser.add_argument("--figure", choices=("fig1", "fig3"))
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-point", type=int, default=3)
    args = parser.parse_args(argv)
    modes = {"setup": cmd_setup, "startup": cmd_startup, "fig": cmd_fig, "spot": cmd_spot}
    return modes[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
