"""Command-line front end.

Commands:
  weaktyp fig1 --config cfg.txt --out results/   classical-exponent blocklength sweep
  weaktyp fig2 --config cfg.txt --out results/   weak-exponent curve from the same sweep
  weaktyp fig3 --config cfg.txt --out results/   bias sweep of max-exponent differences
  weaktyp oracle-check --config cfg.txt          Monte Carlo vs exhaustive enumeration
  weaktyp trial --config cfg.txt --trial-id K    dump one trial end to end
  weaktyp --print-config                         all defaults in config syntax

Each figure command writes <name>.csv, <name>.svg, and <name>.manifest
into the output directory.  The CSV is the authoritative artifact; the
SVG is regenerated purely from the CSV text, and the manifest records
every knob needed to reproduce the run byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import (
    defaults,
    fig12_trial_config,
    fig3_trial_config,
    format_config,
    generic_trial_config,
    load_config,
    oracle_trial_config,
)
from .experiments import SweepResult, sweep_blocklengths, sweep_source_prob
from .montecarlo import estimate_pe, exhaustive_pe, trial_detail
from .svgplot import line_chart

CSV_HEADER = "x,n,rate,pe_jt,pe_weak,exp_jt,exp_weak,diff,zero_error_jt,zero_error_weak"


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def sweep_to_csv(result: SweepResult, x_is_int: bool) -> str:
    """Render a sweep in the stable 10-column schema, 12 significant digits.

    For the bias sweep the two decoders may peak at different
    blocklengths; the n and rate columns describe the weak decoder's
    best point (pe/exp columns are per decoder).
    """
    lines = [CSV_HEADER]
    for x, ep_jt, ep_weak in result.points:
        x_text = str(int(x)) if x_is_int else _fmt(x)
        diff = ep_jt.exponent - ep_weak.exponent
        lines.append(
            ",".join(
                [
                    x_text,
                    str(ep_weak.n),
                    _fmt(ep_weak.rate),
                    _fmt(ep_jt.pe.pe_hat),
                    _fmt(ep_weak.pe.pe_hat),
                    _fmt(ep_jt.exponent),
                    _fmt(ep_weak.exponent),
                    _fmt(diff),
                    str(int(ep_jt.pe.zero_error)),
                    str(int(ep_weak.pe.zero_error)),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[dict[str, float]]:
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    if header != CSV_HEADER.split(","):
        raise ValueError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append({key: float(value) for key, value in zip(header, parts)})
    return rows


def svg_from_csv(which: str, csv_text: str) -> str:
    """Chart for a figure command, built purely from its CSV text."""
    rows = parse_csv(csv_text)
    if which == "fig1":
        series = [("classical decoding", [(r["x"], r["exp_jt"]) for r in rows])]
        return line_chart(series, "Classical decoding exponent", "block length", "error exponent")
    if which == "fig2":
        series = [("weak decoding", [(r["x"], r["exp_weak"]) for r in rows])]
        return line_chart(series, "Weak decoding exponent", "block length", "error exponent")
    if which == "fig3":
        series = [("classical - weak", [(r["x"], r["diff"]) for r in rows])]
        return line_chart(
            series,
            "Max-exponent difference (classical - weak)",
            "probability of a 1 symbol",
            "exponent difference",
        )
    raise ValueError(f"unknown figure {which!r}")


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _manifest_text(command: str, cfg: dict, outputs: list[Path]) -> str:
    lines = [
        f"command = {command}",
        f"tool_version = {__version__}",
    ]
    for path in outputs:
        lines.append(f"output = {path.name}")
    body = format_config(cfg)
    return "\n".join(lines) + "\n" + body


def cmd_fig(which: str, config_path: str | None, out_dir: str) -> int:
    cfg = load_config(config_path)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out_dir!r}: {exc}", file=sys.stderr)
        return 2

    if which in ("fig1", "fig2"):
        base = fig12_trial_config(cfg)
        result = sweep_blocklengths(
            base,
            cfg["fig12_blocklengths"],
            cfg["trials_per_point"],
            m_mode=cfg["m_mode"],
            rate_bits=cfg["rate_bits"],
        )
        csv_text = sweep_to_csv(result, x_is_int=True)
    else:
        base = fig3_trial_config(cfg)
        result = sweep_source_prob(
            base, cfg["fig3_q_values"], cfg["fig3_blocklengths"], cfg["trials_per_point"]
        )
        csv_text = sweep_to_csv(result, x_is_int=False)

    csv_path = out / f"{which}.csv"
    svg_path = out / f"{which}.svg"
    manifest_path = out / f"{which}.manifest"
    try:
        _write_text(csv_path, csv_text)
        _write_text(svg_path, svg_from_csv(which, csv_text))
        _write_text(manifest_path, _manifest_text(which, cfg, [csv_path, svg_path]))
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    print(f"{which}: wrote {csv_path}, {svg_path}, {manifest_path}")
    return 0


def cmd_oracle_check(config_path: str | None) -> int:
    cfg = load_config(config_path)
    oracle_cfg = oracle_trial_config(cfg)
    exact_jt, exact_weak = exhaustive_pe(oracle_cfg)
    trials = cfg["oracle_trials"]
    mc_jt, mc_weak = estimate_pe(oracle_cfg, trials)

    ok = True
    for name, exact, mc in (("jt", exact_jt, mc_jt), ("weak", exact_weak, mc_weak)):
        sigma = (exact * (1.0 - exact) / trials) ** 0.5
        band = 3.0 * sigma
        # the raw frequency: pe_hat floors zero errors at 1/trials, outside a zero-width band
        rate = mc.errors / trials
        delta = abs(rate - exact)
        inside = delta <= band
        ok = ok and inside
        print(
            f"{name}: exact={_fmt(exact)} mc={_fmt(rate)} |delta|={_fmt(delta)} "
            f"3sigma={_fmt(band)} -> {'ok' if inside else 'OUTSIDE BAND'}"
        )
    return 0 if ok else 1


def cmd_trial(config_path: str | None, trial_id: int) -> int:
    cfg = load_config(config_path)
    detail = trial_detail(generic_trial_config(cfg), trial_id)
    rec = detail.record
    print(f"trial {rec.trial_id}")
    print(f"true message: {rec.true_w}")
    print(f"received word: {''.join(str(b) for b in detail.received)}")
    print(f"candidates ({detail.candidates.count}): {detail.candidates.indices.tolist()}")
    sent_typical = rec.true_w in detail.candidates.indices
    print(f"sent word typical: {'yes' if sent_typical else 'no'}")
    weights = detail.candidates.z_seqs.sum(axis=1).tolist()
    print(f"z weights: {weights}")
    lost = detail.candidates.count >= 2 and not sent_typical
    if detail.clustering is not None:
        print(f"cluster assignments: {detail.clustering.assignments.tolist()}")
        print(f"clusters: k={detail.clustering.k} iters={detail.clustering.iterations_used}")
    elif not lost:
        print("cluster assignments: (resolution needed no clustering run)")
    print(f"jt decoded: {rec.jt_outcome.decoded} (path {rec.jt_outcome.path})")
    why = ": sent word atypical, not resolved" if lost else ""
    print(f"weak decoded: {rec.weak_outcome.decoded} (path {rec.weak_outcome.path}{why})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaktyp",
        description="Monte Carlo error exponents for classical vs weak joint-typicality decoding",
    )
    parser.add_argument(
        "--print-config", action="store_true", help="print all defaults in config syntax and exit"
    )
    sub = parser.add_subparsers(dest="command")
    for name in ("fig1", "fig2", "fig3"):
        p = sub.add_parser(name, help=f"run the {name} preset")
        p.add_argument("--config", default=None, help="config file (defaults when omitted)")
        p.add_argument("--out", required=True, help="output directory")
    p = sub.add_parser("oracle-check", help="Monte Carlo vs exhaustive enumeration self-check")
    p.add_argument("--config", default=None)
    p = sub.add_parser("trial", help="print one trial in full detail")
    p.add_argument("--config", default=None)
    p.add_argument("--trial-id", type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_config:
        print(format_config(defaults()), end="")
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command in ("fig1", "fig2", "fig3"):
            return cmd_fig(args.command, args.config, args.out)
        if args.command == "oracle-check":
            return cmd_oracle_check(args.config)
        if args.command == "trial":
            return cmd_trial(args.config, args.trial_id)
    except ValueError as exc:  # config.ConfigError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
