import pytest

from weaktyp.config import (
    ConfigError,
    defaults,
    fig12_trial_config,
    fig3_trial_config,
    format_config,
    generic_trial_config,
    load_config,
    oracle_trial_config,
    parse_config,
)
from weaktyp.experiments import messages_at_rate
from weaktyp.montecarlo import CHUNK_BYTES, ENUM_MAX_M, ENUM_MAX_N, call_bytes


def test_defaults_validate_and_round_trip():
    cfg = defaults()
    text = format_config(cfg)
    assert parse_config(text) == cfg


def test_partial_file_overrides_defaults():
    cfg = parse_config("master_seed = 99\ntrials_per_point = 10\n")
    assert cfg["master_seed"] == 99
    assert cfg["trials_per_point"] == 10
    assert cfg["eps"] == defaults()["eps"]


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nq = 0.25  # trailing comment\n")
    assert cfg["q"] == 0.25


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("qq = 0.5\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("q = 0.5\nq = 0.6\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")


def test_unparseable_value_names_key():
    with pytest.raises(ConfigError, match="'q'"):
        parse_config("q = banana\n")


def test_domain_error_names_field():
    with pytest.raises(ConfigError, match="q:"):
        parse_config("q = 0\n")
    with pytest.raises(ConfigError, match="fig3_q_values:"):
        parse_config("fig3_q_values = 0.5,0.2\n")
    with pytest.raises(ConfigError, match="channel_p:"):
        parse_config("channel_p = 1.5\n")
    with pytest.raises(ConfigError, match="resolver:"):
        parse_config("resolver = magic\n")


def test_full_profile_swaps_blocklength_defaults():
    cfg = parse_config("profile = full\n")
    assert cfg["fig3_blocklengths"][-1] == 600
    assert cfg["fig12_blocklengths"][-1] == 600
    # explicit keys beat the profile
    cfg = parse_config("profile = full\nfig3_blocklengths = 10,20\n")
    assert cfg["fig3_blocklengths"] == [10, 20]


def test_fixed_rate_over_the_chunk_budget_names_rate_bits():
    # the footprint is computed, never allocated: the full profile's n=600
    # needs 2^24 codewords, about 10 GB for a single trial
    assert messages_at_rate(600, 0.04) * 600 == 2**24 * 600 > CHUNK_BYTES
    with pytest.raises(ConfigError, match="rate_bits:"):
        parse_config("profile = full\nm_mode = fixed-rate\n")
    # an absurd rate is refused without building 2^(rate * n)
    for rate in ("0.2", "1e6", "inf"):
        with pytest.raises(ConfigError, match="rate_bits:"):
            parse_config(f"m_mode = fixed-rate\nrate_bits = {rate}\n")
    # the desk grid stops at n=200, m=256: 51200 bytes per trial
    cfg = parse_config("m_mode = fixed-rate\n")
    assert messages_at_rate(200, cfg["rate_bits"]) * 200 == 256 * 200
    # fixed-m mode is not affected
    parse_config("profile = full\n")


def test_fixed_m_over_the_chunk_budget_names_m_messages():
    # the footprint is computed, never allocated: 400000 codewords of 600
    # symbols are 240 MB for a single fig3 trial of the full profile
    assert 400_000 * 600 == 240_000_000 > CHUNK_BYTES
    with pytest.raises(ConfigError, match="m_messages:.*fig3_blocklengths"):
        parse_config("profile = full\nm_messages = 400000\n")
    # the largest message count whose trial footprint fits is accepted
    per_codeword = call_bytes(1, 600) - call_bytes(0, 600)
    largest = (CHUNK_BYTES - call_bytes(0, 600)) // per_codeword
    assert call_bytes(largest, 600) <= CHUNK_BYTES < call_bytes(largest + 1, 600)
    parse_config(f"profile = full\nm_messages = {largest}\n")
    with pytest.raises(ConfigError, match="m_messages:"):
        parse_config(f"profile = full\nm_messages = {largest + 1}\n")
    # fig1/fig2 use m_messages only under fixed-m
    text = "fig3_blocklengths = 20\nfig12_blocklengths = 600\nm_messages = 400000\n"
    with pytest.raises(ConfigError, match="m_messages:.*fig12_blocklengths"):
        parse_config(text)
    parse_config(text + "m_mode = fixed-rate\nrate_bits = 0.01\n")


def test_fixed_m_is_admitted_by_the_trial_footprint_not_the_codebook():
    # at small n the scan arrays, not the codebook, dominate a trial: 2^24
    # codewords of 8 symbols are 128 MiB of codebook, within the budget, but
    # one trial takes 1296 MiB in a kernel call (computed, never allocated)
    assert 2**24 * 8 <= CHUNK_BYTES < call_bytes(2**24, 8) == 1296 * 2**20 + 2 * 8 + 56
    text = "m_messages = 16777216\nfig3_blocklengths = 4,8\nfig12_blocklengths = 8\n"
    with pytest.raises(ConfigError, match="m_messages:.*fig3_blocklengths"):
        parse_config(text)
    # the same holds under fixed-rate: 2^ceil(2.9 * 8) = 2^24 codewords at n = 8
    text = "m_mode = fixed-rate\nrate_bits = 2.9\nfig12_blocklengths = 4,8\n"
    with pytest.raises(ConfigError, match="rate_bits:"):
        parse_config(text)


def test_the_longest_admitted_blocklength_keeps_float32_counts_exact():
    # the kernel counts in float32, exact while every count stays below 2**24;
    # two codewords (the fewest a trial has) of 2**24 symbols fit the trial
    # budget, so validate bounds the blocklength itself (computed, never allocated)
    assert call_bytes(2, 2**24) <= CHUNK_BYTES
    parse_config(f"m_messages = 2\nfig3_blocklengths = {2**24 - 1}\n")
    with pytest.raises(ConfigError, match="fig3_blocklengths:.*2\\*\\*24"):
        parse_config(f"m_messages = 2\nfig3_blocklengths = {2**24}\n")
    # fig1/fig2's grid is bounded alike, in either m mode
    parse_config(f"m_messages = 2\nfig12_blocklengths = {2**24 - 1}\n")
    for mode in ("m_mode = fixed-m", "m_mode = fixed-rate\nrate_bits = 1e-9"):
        with pytest.raises(ConfigError, match="fig12_blocklengths:.*2\\*\\*24"):
            parse_config(f"m_messages = 2\nfig12_blocklengths = {2**24}\n{mode}\n")


def test_the_generic_blocklength_is_bounded_as_the_grids_are():
    # `weaktyp trial` builds its instance from n and m_messages: n = 10**9 would ask
    # generate_codebook for about 32 GB, so it is refused (computed, never allocated)
    with pytest.raises(ConfigError, match="^n: .*2\\*\\*24"):
        parse_config("n = 1000000000\n")
    parse_config(f"m_messages = 2\nn = {2**24 - 1}\n")
    with pytest.raises(ConfigError, match="^n: .*2\\*\\*24"):
        parse_config(f"m_messages = 2\nn = {2**24}\n")
    # below 2**24 symbols, one trial's footprint bounds n at the given message count
    per_symbol = call_bytes(64, 1) - call_bytes(64, 0)
    largest = (CHUNK_BYTES - call_bytes(64, 0)) // per_symbol
    assert call_bytes(64, largest) <= CHUNK_BYTES < call_bytes(64, largest + 1) and largest < 2**24
    assert generic_trial_config(parse_config(f"m_messages = 64\nn = {largest}\n")).n == largest
    with pytest.raises(ConfigError, match="^n: .*bytes"):
        parse_config(f"m_messages = 64\nn = {largest + 1}\n")


def test_every_preset_validates():
    # both profiles, each resolver and codebook mode, and the desk fixed-rate grid
    for profile in ("desk", "full"):
        for resolver in ("cluster", "cluster-random", "svm"):
            for mode in ("redraw", "fixed"):
                parse_config(f"profile = {profile}\nresolver = {resolver}\ncodebook_mode = {mode}\n")
    parse_config("m_mode = fixed-rate\n")


def test_oracle_instance_beyond_enumeration_bounds_names_the_key():
    assert parse_config(f"oracle_n = {ENUM_MAX_N}\noracle_m = {ENUM_MAX_M}\n")["oracle_n"] == ENUM_MAX_N
    with pytest.raises(ConfigError, match="oracle_n:.*enumeration bounds"):
        parse_config(f"oracle_n = {ENUM_MAX_N + 1}\n")
    with pytest.raises(ConfigError, match="oracle_m:.*enumeration bounds"):
        parse_config(f"oracle_m = {ENUM_MAX_M + 1}\n")


def test_list_parsing():
    cfg = parse_config("fig12_blocklengths = 5, 10 ,15\n")
    assert cfg["fig12_blocklengths"] == [5, 10, 15]


# every key family set apart from the others and from the defaults, so a
# builder that reads one family's key for another's field fails
DISTINCT_KEYS = """
master_seed = 4242
m_messages = 5
resolver = cluster-random
k_max = 2
n = 33
q = 0.31
channel_p = 0.07
eps = 0.21
fig12_blocklengths = 27, 54
fig12_q = 0.37
fig12_channel_p = 0.03
fig12_eps = 0.6
fig3_blocklengths = 22, 44
fig3_q_values = 0.15, 0.45
fig3_channel_p = 0.35
fig3_eps = 0.12
oracle_n = 7
oracle_m = 3
oracle_q = 0.43
oracle_channel_p = 0.13
oracle_eps = 0.27
"""


def _fields(tc):
    """Every field of a TrialConfig, the channel by its crossover probability."""
    return (
        tc.n, tc.m, tc.q, float(tc.channel.transition[0, 1]), tc.eps,
        tc.resolver, tc.k_max, tc.codebook_mode, tc.master_seed,
    )


def test_trial_config_builders():
    for mode in ("redraw", "fixed"):
        cfg = parse_config(DISTINCT_KEYS + f"codebook_mode = {mode}\n")
        shared = ("cluster-random", 2, mode, 4242)
        assert _fields(generic_trial_config(cfg)) == (33, 5, 0.31, 0.07, 0.21) + shared
        assert _fields(fig12_trial_config(cfg)) == (27, 5, 0.37, 0.03, 0.6) + shared
        assert _fields(fig3_trial_config(cfg)) == (22, 5, 0.15, 0.35, 0.12) + shared
        # the oracle enumerates a fixed codebook whatever codebook_mode says
        assert _fields(oracle_trial_config(cfg)) == (7, 3, 0.43, 0.13, 0.27, "cluster-random", 2, "fixed", 4242)



def test_trial_config_builder_defaults():
    cfg = defaults()
    oracle = oracle_trial_config(cfg)
    assert oracle.codebook_mode == "fixed"
    # at m = 2 resolution is seeding-invariant, so exhaustive_pe is exactly the Monte Carlo expectation
    assert oracle.n == 6 and oracle.m == 2
    fig3 = fig3_trial_config(cfg)
    assert float(fig3.channel.transition[0, 1]) == 0.4
    assert fig3.eps == cfg["fig3_eps"]


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_load_config_none_gives_defaults():
    assert load_config(None) == defaults()
