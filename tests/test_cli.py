import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weaktyp.cli import CSV_HEADER, main, parse_csv, svg_from_csv
from weaktyp.config import defaults, generic_trial_config, load_config, parse_config
from weaktyp.montecarlo import trial_detail

SMALL_FIG_CONFIG = """\
master_seed = 424242
trials_per_point = 300
fig12_blocklengths = 10,20
fig3_q_values = 0.3,0.5,0.7
fig3_blocklengths = 10,20
"""

TRIAL_CONFIG = """\
master_seed = 20260809
channel_p = 0.4
n = 50
"""


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_print_config_round_trips(capsys):
    assert main(["--print-config"]) == 0
    out = capsys.readouterr().out
    assert parse_config(out) == defaults()


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "fig1" in capsys.readouterr().out


def test_fig1_writes_all_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_FIG_CONFIG)
    out = tmp_path / "out"
    assert main(["fig1", "--config", cfg, "--out", str(out)]) == 0
    csv_text = (out / "fig1.csv").read_text()
    assert csv_text.splitlines()[0] == CSV_HEADER
    rows = parse_csv(csv_text)
    assert [int(r["x"]) for r in rows] == [10, 20]
    svg = (out / "fig1.svg").read_text()
    assert svg.startswith("<svg ")
    manifest = (out / "fig1.manifest").read_text()
    assert "command = fig1" in manifest
    assert "master_seed = 424242" in manifest
    # the svg is a pure function of the csv
    assert svg == svg_from_csv("fig1", csv_text)


def test_fig1_and_fig2_share_numbers(tmp_path):
    cfg = write_config(tmp_path, SMALL_FIG_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["fig1", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["fig2", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "fig1.csv").read_text() == (out2 / "fig2.csv").read_text()
    assert (out1 / "fig1.svg").read_text() != (out2 / "fig2.svg").read_text()


def test_fig3_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SMALL_FIG_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["fig3", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["fig3", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "fig3.csv").read_bytes() == (out2 / "fig3.csv").read_bytes()
    assert (out1 / "fig3.svg").read_bytes() == (out2 / "fig3.svg").read_bytes()


def test_fig3_diff_column_nonpositive(tmp_path):
    cfg = write_config(tmp_path, SMALL_FIG_CONFIG)
    out = tmp_path / "out"
    assert main(["fig3", "--config", cfg, "--out", str(out)]) == 0
    rows = parse_csv((out / "fig3.csv").read_text())
    assert all(r["diff"] <= 0.0 for r in rows)
    assert [r["x"] for r in rows] == [0.3, 0.5, 0.7]


def test_domain_error_exits_nonzero_and_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "q = 0\n")
    assert main(["fig1", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "q" in err


def test_unreadable_config_exits_nonzero(tmp_path, capsys):
    assert main(["fig1", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_oracle_check_passes_reference_instance(tmp_path, capsys):
    cfg = write_config(tmp_path, "master_seed = 20260809\noracle_trials = 20000\n")
    assert main(["oracle-check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "jt:" in out and "weak:" in out and "ok" in out


@pytest.mark.parametrize("channel_p", ["0.0", "1.0"])
def test_oracle_check_passes_a_zero_error_instance(tmp_path, capsys, channel_p):
    # exact Pe is 0 at both ends of the channel, so the band has zero width
    cfg = write_config(tmp_path, f"oracle_channel_p = {channel_p}\noracle_trials = 2000\n")
    assert main(["oracle-check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("exact=0 mc=0 ") == 2 and "OUTSIDE" not in out


def test_oracle_check_rejects_large_instance(tmp_path, capsys):
    cfg = write_config(tmp_path, "oracle_n = 20\n")
    assert main(["oracle-check", "--config", cfg]) == 2
    assert "enumeration bounds" in capsys.readouterr().err


def test_oracle_check_names_the_key_beyond_enumeration_bounds(tmp_path, capsys):
    cfg = write_config(tmp_path, "oracle_n = 14\n")
    assert main(["oracle-check", "--config", cfg]) == 2
    assert "oracle_n:" in capsys.readouterr().err


def test_trial_output_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, TRIAL_CONFIG)
    assert main(["trial", "--config", cfg, "--trial-id", "0"]) == 0
    first = capsys.readouterr().out
    assert main(["trial", "--config", cfg, "--trial-id", "0"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_trial_shows_multi_candidate_resolution(tmp_path, capsys):
    # trial 0 at this seed has several candidates: jt emits the dummy,
    # weak picks a candidate
    cfg = write_config(tmp_path, TRIAL_CONFIG)
    assert main(["trial", "--config", cfg, "--trial-id", "0"]) == 0
    out = capsys.readouterr().out
    assert "jt decoded: 0" in out
    assert "weak decoded: 0" not in out


def test_trial_shows_the_svm_clustering(tmp_path, capsys):
    # the same trial through svm: its 2-means labels are printed
    cfg = write_config(tmp_path, TRIAL_CONFIG + "resolver = svm\n")
    assert main(["trial", "--config", cfg, "--trial-id", "0"]) == 0
    out = capsys.readouterr().out
    assert "candidates (2): [2, 3]" in out
    assert "cluster assignments: [0, 1]" in out
    assert "clusters: k=2 iters=2" in out
    assert "weak decoded: 2 (path svm)" in out


def test_trial_says_whether_the_sent_word_is_typical(tmp_path, capsys):
    # scan the trial config for a lost trial (several candidates, the sent word not among them)
    # and a resolved one (several candidates, the sent word among them)
    cfg = write_config(tmp_path, TRIAL_CONFIG)
    trial_cfg = generic_trial_config(load_config(cfg))
    found = {}
    for trial_id in range(200):
        detail = trial_detail(trial_cfg, trial_id)
        if detail.candidates.count >= 2:
            found.setdefault(detail.record.true_w in detail.candidates.indices, trial_id)
        if len(found) == 2:
            break
    assert main(["trial", "--config", cfg, "--trial-id", str(found[False])]) == 0
    out = capsys.readouterr().out
    assert "sent word typical: no" in out
    assert "weak decoded: 0 (path none: sent word atypical, not resolved)" in out
    assert "cluster" not in out
    assert main(["trial", "--config", cfg, "--trial-id", str(found[True])]) == 0
    out = capsys.readouterr().out
    assert "sent word typical: yes" in out
    assert "cluster assignments:" in out
    assert "not resolved" not in out and "weak decoded: 0" not in out


def test_trial_no_candidates_prints_dummies(tmp_path, capsys):
    cfg = write_config(tmp_path, "eps = 0.000000001\nq = 0.3\nn = 11\n")
    assert main(["trial", "--config", cfg, "--trial-id", "1"]) == 0
    out = capsys.readouterr().out
    assert "candidates (0): []" in out
    assert "jt decoded: 0" in out
    assert "weak decoded: 0" in out


def test_csv_numbers_have_12_significant_digits(tmp_path):
    cfg = write_config(tmp_path, SMALL_FIG_CONFIG)
    out = tmp_path / "out"
    assert main(["fig3", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "fig3.csv").read_text()
    row = text.splitlines()[1].split(",")
    rate = float(row[2])
    assert abs(rate - np.log2(4) / float(row[1])) < 1e-11


# desk fig3 under the cluster resolver and svm, desk fig1 and fig1 at fixed rate, each over
# its whole desk grid at a tenth of the desk trial count
NO_MA_RUNS = {
    "fig3-cluster": ("fig3", ""),
    "fig3-svm": ("fig3", "resolver = svm\n"),
    "fig1": ("fig1", ""),
    "fig1-rate": ("fig1", "m_mode = fixed-rate\n"),
}

# runs [figure, config path, output dir] commands in one fresh process, then prints their exit
# codes and every module it imported
NO_MA_CHILD = """\
import json, sys
from weaktyp.cli import main

codes = [main([figure, "--config", cfg, "--out", out]) for figure, cfg, out in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def test_desk_figures_never_import_numpy_ma(tmp_path):
    # numpy.ma costs a cold process tens of ms and MB, which perfbench's setup_s and
    # peak_rss_mb would read; numpy functions such as np.unique import it on first use
    commands = []
    for name, (figure, keys) in NO_MA_RUNS.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("trials_per_point = 2000\n" + keys)
        commands.append([figure, str(cfg), str(tmp_path / name)])
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", NO_MA_CHILD, json.dumps(commands)], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(NO_MA_RUNS)
    for name, (figure, _) in NO_MA_RUNS.items():
        assert (tmp_path / name / f"{figure}.csv").is_file()
    assert "weaktyp.decoders" in report["modules"]
    assert [name for name in report["modules"] if name.split(".")[:2] == ["numpy", "ma"]] == []
