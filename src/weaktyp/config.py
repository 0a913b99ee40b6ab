"""Flat key-value configuration: one `key = value` per line, `#` comments.

No nesting, no sections.  Lists are comma-separated.  Every knob has a
documented default; the "full" profile swaps in the long blocklength
grids (up to 600 symbols) for workstation runs, while the default
"desk" profile stays CI-friendly.

The figure presets read their own key families (fig12_*, fig3_*,
oracle_*) so one file can drive every command; the generic keys (n, q,
channel_p, ...) feed single-trial inspection.
"""

from __future__ import annotations

from dataclasses import replace

from .core import bsc
from .decoders import RESOLVERS
from .experiments import M_MODES, messages_at_rate
from .kernels import MAX_N
from .montecarlo import CHUNK_BYTES, CODEBOOK_MODES, ENUM_MAX_M, ENUM_MAX_N, TrialConfig, call_bytes


class ConfigError(ValueError):
    """A configuration file or value the tool refuses to run with."""


def _int_list(text: str) -> list[int]:
    return [int(part.strip()) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part.strip()) for part in text.split(",") if part.strip()]


# key -> (parser, desk-profile default)
SCHEMA: dict[str, tuple] = {
    "master_seed": (int, 20260809),
    "profile": (str, "desk"),
    "m_messages": (int, 4),
    "q": (float, 0.5),
    "channel_p": (float, 0.05),
    "n": (int, 50),
    "eps": (float, 0.1),
    "k_max": (int, 3),
    "resolver": (str, "cluster"),
    "codebook_mode": (str, "redraw"),
    "trials_per_point": (int, 20000),
    "m_mode": (str, "fixed-m"),
    "rate_bits": (float, 0.04),
    "fig12_channel_p": (float, 0.05),
    "fig12_q": (float, 0.5),
    "fig12_eps": (float, 0.8),
    "fig12_blocklengths": (_int_list, [25, 50, 100, 150, 200]),
    "fig3_channel_p": (float, 0.4),
    "fig3_eps": (float, 0.1),
    "fig3_q_values": (_float_list, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
    "fig3_blocklengths": (_int_list, [20, 40, 60, 80, 100, 120]),
    "oracle_n": (int, 6),
    "oracle_m": (int, 2),
    "oracle_q": (float, 0.5),
    "oracle_channel_p": (float, 0.1),
    "oracle_eps": (float, 0.3),
    "oracle_trials": (int, 200000),
}

# the "full" profile reaches the 600-symbol regime; only applied where
# the file did not set the key explicitly
FULL_PROFILE_DEFAULTS = {
    "fig12_blocklengths": [25, 50, 100, 150, 200, 300, 400, 500, 600],
    "fig3_blocklengths": [60, 120, 180, 240, 300, 360, 420, 480, 540, 600],
}

PROFILES = ("desk", "full")


def defaults(profile: str = "desk") -> dict:
    cfg = {key: default for key, (_, default) in SCHEMA.items()}
    cfg["profile"] = profile
    if profile == "full":
        cfg.update(FULL_PROFILE_DEFAULTS)
    return cfg


def parse_config(text: str) -> dict:
    """Parse config text over the defaults; unknown keys are rejected."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    profile = raw.get("profile", "desk")
    if profile not in PROFILES:
        raise ConfigError(f"profile must be one of {PROFILES}, got {profile!r}")
    cfg = defaults(profile)
    for key, value in raw.items():
        parser = SCHEMA[key][0]
        try:
            cfg[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {value!r}") from exc
    validate(cfg)
    return cfg


def load_config(path: str | None) -> dict:
    """Config from a file path, or pure defaults when no path is given."""
    if path is None:
        cfg = defaults()
        validate(cfg)
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def format_config(cfg: dict) -> str:
    """Canonical text form; parse_config(format_config(c)) == c."""
    lines = []
    for key in SCHEMA:
        value = cfg[key]
        if isinstance(value, list):
            rendered = ",".join(_render_scalar(v) for v in value)
        else:
            rendered = _render_scalar(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def _render_scalar(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _check(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{field}: {message}")


def _check_trial(n_field: str, n: int, m_field: str, m: int, m_text: str) -> None:
    """One trial of m codewords (``m_text``) of n symbols, n the longest of ``n_field``, must fit a kernel call.

    n must lie below ``MAX_N``, where the kernel's float32 counts are
    exact, else the error names ``n_field``; the trial's footprint,
    :func:`~weaktyp.montecarlo.call_bytes`, must fit ``CHUNK_BYTES``,
    else it names ``m_field``.
    """
    _check(n < MAX_N, n_field, f"blocklength {n} is not below 2**24 = {MAX_N}")
    _check(
        call_bytes(m, n) <= CHUNK_BYTES,
        m_field,
        f"at blocklength {n} ({n_field}), a trial of {m_text} codewords of {n} symbols "
        f"needs more than the {CHUNK_BYTES} bytes budgeted for one trial",
    )


def validate(cfg: dict) -> None:
    """Domain checks; error messages name the offending field."""
    _check(cfg["profile"] in PROFILES, "profile", f"must be one of {PROFILES}")
    _check(cfg["m_messages"] >= 2, "m_messages", "need at least 2 messages")
    _check(cfg["n"] >= 1, "n", "blocklength must be positive")
    _check(cfg["k_max"] >= 1, "k_max", "must be positive")
    _check(cfg["trials_per_point"] >= 1, "trials_per_point", "must be positive")
    _check(cfg["resolver"] in RESOLVERS, "resolver", f"must be one of {RESOLVERS}")
    _check(cfg["codebook_mode"] in CODEBOOK_MODES, "codebook_mode", f"must be one of {CODEBOOK_MODES}")
    _check(cfg["m_mode"] in M_MODES, "m_mode", f"must be one of {M_MODES}")
    _check(cfg["rate_bits"] > 0.0, "rate_bits", "must be positive")
    for field in ("q", "fig12_q", "oracle_q"):
        _check(0.0 < cfg[field] < 1.0, field, "must lie strictly between 0 and 1")
    for field in ("channel_p", "fig12_channel_p", "fig3_channel_p", "oracle_channel_p"):
        _check(0.0 <= cfg[field] <= 1.0, field, "must lie in [0, 1]")
    for field in ("eps", "fig12_eps", "fig3_eps", "oracle_eps"):
        _check(cfg[field] > 0.0, field, "must be positive")
    for field in ("fig12_blocklengths", "fig3_blocklengths"):
        values = cfg[field]
        _check(bool(values), field, "must be nonempty")
        _check(all(v >= 1 for v in values), field, "blocklengths must be positive")
        _check(
            all(b > a for a, b in zip(values, values[1:])),
            field,
            "blocklengths must be strictly increasing",
        )
    # one trial must fit a kernel call at each instance's longest blocklength: fig3 and
    # the generic instance (`weaktyp trial`, at n) take m_messages, fig1/fig2 take it
    # under fixed-m and 2^ceil(rate_bits * n) codewords under fixed-rate
    m = cfg["m_messages"]
    _check_trial("fig3_blocklengths", cfg["fig3_blocklengths"][-1], "m_messages", m, str(m))
    n, rate = cfg["fig12_blocklengths"][-1], cfg["rate_bits"]
    if cfg["m_mode"] == "fixed-m":
        _check_trial("fig12_blocklengths", n, "m_messages", m, str(m))
    else:
        # the exponent is bounded first, so no huge integer is ever built: past the
        # budget's bits, CHUNK_BYTES codewords stand in, and no such trial fits
        at_rate = messages_at_rate(n, rate) if rate * n < CHUNK_BYTES.bit_length() else CHUNK_BYTES
        _check_trial("fig12_blocklengths", n, "rate_bits", at_rate, f"2^ceil({rate!r} * {n})")
    _check_trial("n", cfg["n"], "n", m, str(m))
    qs = cfg["fig3_q_values"]
    _check(bool(qs), "fig3_q_values", "must be nonempty")
    _check(all(0.0 < v < 1.0 for v in qs), "fig3_q_values", "entries must lie strictly between 0 and 1")
    _check(
        all(b > a for a, b in zip(qs, qs[1:])),
        "fig3_q_values",
        "entries must be strictly increasing",
    )
    _check(cfg["oracle_n"] >= 1, "oracle_n", "must be positive")
    _check(cfg["oracle_m"] >= 2, "oracle_m", "need at least 2 messages")
    bounds = f"the exhaustive enumeration bounds (n<={ENUM_MAX_N}, m<={ENUM_MAX_M})"
    _check(cfg["oracle_n"] <= ENUM_MAX_N, "oracle_n", f"beyond {bounds}")
    _check(cfg["oracle_m"] <= ENUM_MAX_M, "oracle_m", f"beyond {bounds}")
    _check(cfg["oracle_trials"] >= 1, "oracle_trials", "must be positive")
    _check(cfg["master_seed"] >= 0, "master_seed", "must be nonnegative")


def _trial_config(cfg: dict, n: int, m: int, q: float, channel_p: float, eps: float) -> TrialConfig:
    """One key family's instance, with the resolver, codebook and seed keys that every family shares."""
    return TrialConfig(
        n=n,
        m=m,
        q=q,
        channel=bsc(channel_p),
        eps=eps,
        resolver=cfg["resolver"],
        k_max=cfg["k_max"],
        codebook_mode=cfg["codebook_mode"],
        master_seed=cfg["master_seed"],
    )


def fig12_trial_config(cfg: dict) -> TrialConfig:
    return _trial_config(
        cfg, cfg["fig12_blocklengths"][0], cfg["m_messages"], cfg["fig12_q"], cfg["fig12_channel_p"],
        cfg["fig12_eps"],
    )


def fig3_trial_config(cfg: dict) -> TrialConfig:
    return _trial_config(
        cfg, cfg["fig3_blocklengths"][0], cfg["m_messages"], cfg["fig3_q_values"][0], cfg["fig3_channel_p"],
        cfg["fig3_eps"],
    )


def oracle_trial_config(cfg: dict) -> TrialConfig:
    # the oracle enumerates one fixed codebook whatever codebook_mode says
    return replace(
        _trial_config(
            cfg, cfg["oracle_n"], cfg["oracle_m"], cfg["oracle_q"], cfg["oracle_channel_p"], cfg["oracle_eps"]
        ),
        codebook_mode="fixed",
    )


def generic_trial_config(cfg: dict) -> TrialConfig:
    return _trial_config(cfg, cfg["n"], cfg["m_messages"], cfg["q"], cfg["channel_p"], cfg["eps"])
