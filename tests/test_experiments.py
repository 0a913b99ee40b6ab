import tracemalloc

import pytest

from weaktyp import montecarlo
from weaktyp.core import bsc
from weaktyp.experiments import SweepResult, sweep_blocklengths, sweep_source_prob
from weaktyp.montecarlo import DEFAULT_CHUNK, TrialConfig, estimate_pe, exponent


def base_cfg(**kw):
    defaults = dict(n=20, m=4, q=0.5, channel=bsc(0.4), eps=0.1, master_seed=515)
    defaults.update(kw)
    return TrialConfig(**defaults)


def test_single_point_sweep_equals_direct_estimate():
    base = base_cfg()
    res = sweep_blocklengths(base, [20], 400)
    pe_jt, pe_weak = estimate_pe(base, 400)
    (x, ep_jt, ep_weak), = res.points
    assert x == 20.0
    assert ep_jt == exponent(pe_jt, 20, 4)
    assert ep_weak == exponent(pe_weak, 20, 4)


def test_blocklength_sweep_dominance_is_exact():
    res = sweep_blocklengths(base_cfg(), [10, 20, 30], 500)
    for _, ep_jt, ep_weak in res.points:
        assert ep_weak.exponent >= ep_jt.exponent


def test_fixed_rate_mode_grows_messages():
    res = sweep_blocklengths(
        base_cfg(m=2), [10, 20, 40], 200, m_mode="fixed-rate", rate_bits=0.2
    )
    # m = 2**ceil(0.2 * n), floored at 2
    expected = [4, 16, 256]
    for (_, ep_jt, _), m in zip(res.points, expected):
        assert abs(2 ** (ep_jt.rate * ep_jt.n) - m) < 1e-9


def test_fixed_rate_needs_rate():
    with pytest.raises(ValueError):
        sweep_blocklengths(base_cfg(), [10], 100, m_mode="fixed-rate", rate_bits=None)


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep_blocklengths(base_cfg(), [], 100)
    with pytest.raises(ValueError):
        sweep_blocklengths(base_cfg(), [20, 10], 100)
    with pytest.raises(ValueError):
        sweep_blocklengths(base_cfg(), [10, 20], 0)
    with pytest.raises(ValueError):
        sweep_source_prob(base_cfg(), [0.5, 0.2], [10], 100)
    with pytest.raises(ValueError):
        sweep_source_prob(base_cfg(), [0.0, 0.5], [10], 100)
    with pytest.raises(ValueError):
        sweep_source_prob(base_cfg(), [0.5], [], 100)


def test_sweep_result_requires_increasing_x():
    base = base_cfg()
    pe_jt, pe_weak = estimate_pe(base, 50)
    point = (1.0, exponent(pe_jt, 20, 4), exponent(pe_weak, 20, 4))
    with pytest.raises(ValueError):
        SweepResult(points=(point, point))


def test_bias_sweep_single_cell_degenerates_to_one_estimate():
    base = base_cfg()
    res = sweep_source_prob(base, [0.5], [20], 300)
    pe_jt, pe_weak = estimate_pe(base, 300)
    (q, ep_jt, ep_weak), = res.points
    assert q == 0.5
    assert ep_jt.exponent - ep_weak.exponent == exponent(pe_jt, 20, 4).exponent - exponent(
        pe_weak, 20, 4
    ).exponent


def test_bias_sweep_diff_nonpositive():
    res = sweep_source_prob(base_cfg(), [0.3, 0.5, 0.7], [10, 20], 800)
    for _, ep_jt, ep_weak in res.points:
        assert ep_jt.exponent - ep_weak.exponent <= 0.0


def test_bias_sweep_tracks_per_decoder_argmax():
    res = sweep_source_prob(base_cfg(), [0.4], [10, 20, 30], 500)
    (_, ep_jt, ep_weak), = res.points
    # each decoder's point must be the max over its own curve
    base = base_cfg(q=0.4)
    from dataclasses import replace

    jt_all, weak_all = [], []
    for n in (10, 20, 30):
        pe_jt, pe_weak = estimate_pe(replace(base, n=n), 500)
        jt_all.append(exponent(pe_jt, n, 4).exponent)
        weak_all.append(exponent(pe_weak, n, 4).exponent)
    assert ep_jt.exponent == max(jt_all)
    assert ep_weak.exponent == max(weak_all)


SWEEPS = {
    "bias": lambda base, trials: sweep_source_prob(base, [0.3, 0.5], [10, 20], trials),
    "fixed-m": lambda base, trials: sweep_blocklengths(base, [10, 20], trials),
    "fixed-rate": lambda base, trials: sweep_blocklengths(base, [10, 20], trials, "fixed-rate", 0.15),
}


@pytest.mark.parametrize("sweep", SWEEPS)
def test_bias_sweep_in_spans_equals_one_call(monkeypatch, sweep):
    # the grid runs through iter_points once per span of DEFAULT_CHUNK trials; each
    # trial id draws the same trial in any span, so the summed counts match bit for bit
    calls = []
    iter_points = montecarlo.iter_points

    def counted(cfgs, num_trials, **kw):
        calls.append((num_trials, kw.get("start", 0)))
        return iter_points(cfgs, num_trials, **kw)

    monkeypatch.setattr(montecarlo, "iter_points", counted)
    for resolver in ("cluster", "svm"):
        base = base_cfg(resolver=resolver)
        whole = SWEEPS[sweep](base, 7)
        assert calls == [(7, 0)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "DEFAULT_CHUNK", 3)
            spans = SWEEPS[sweep](base, 7)
        assert calls == [(7, 0), (3, 0), (3, 3), (1, 6)]
        # repr tells a signed zero from an unsigned one
        assert repr(spans.points) == repr(whole.points)
        calls.clear()


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "estimate",
    (lambda cfg, trials: sweep_blocklengths(cfg, [cfg.n], trials), estimate_pe),
    ids=("sweep_blocklengths", "estimate_pe"),
)
def test_error_counting_memory_does_not_grow_with_the_trial_count(estimate):
    # errors are counted in spans of DEFAULT_CHUNK trials: ten times the trials may
    # not hold a batch of every trial, 32 bytes each, 576 KiB more at 10x
    cfg = base_cfg(n=10)
    one_span = traced_peak(lambda: estimate(cfg, DEFAULT_CHUNK))
    assert traced_peak(lambda: estimate(cfg, 10 * DEFAULT_CHUNK)) < one_span + 256 * 1024
