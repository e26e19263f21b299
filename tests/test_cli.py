import os
import re
import shlex
import socket
import threading
from pathlib import Path

import pytest

from flmm.cli import main
from flmm.errors import HistoryError
from flmm.model import init_snapshot, save_snapshot

from support import logged_frames, malformed_checkpoints, relog, relog_update, \
    relog_with_wrong_blocks

CONFIG = """
[run]
seed = 7
rounds = 2
epochs = 2
lr = 0.1
batch_size = 16
deadline = 60

[model]

[party:p0]
size = 40
seed = 7
classes = 0,1,2,3
anchor_mu = 2.0

[party:p1]
size = 40
seed = 8
classes = 0,1,2,3
anchor_mu = 2.0

[eval]
size = 40
seed = 106
classes = 0,1,2,3
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(CONFIG)
    return str(path)


def test_gendata(config_file, tmp_path, capsys):
    out = str(tmp_path / "data")
    assert main(["gendata", "--spec", config_file, "--out", out]) == 0
    for name in ("p0.corpus", "p1.corpus", "eval.corpus"):
        assert os.path.exists(os.path.join(out, name))
    assert "wrote 40 records" in capsys.readouterr().out


def test_gendata_missing_config(tmp_path, capsys):
    code = main(["gendata", "--spec", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "d")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("batch_size = 16", "batch_size = 0"),
    ("batch_size = 16", "batch_size = 1"),
    ("epochs = 2", "epochs = 0"),
    ("lr = 0.1", "lr = -0.1"),
    ("[model]\n", "[model]\nrank = 0\n"),
    ("anchor_mu = 2.0\n\n[party:p1]", "anchor_mu = 2.0\nmismatched = 2.0\n\n[party:p1]"),
    ("classes = 0,1,2,3\nanchor_mu = 2.0\n\n[party:p1]",
     "classes = ,\nanchor_mu = 2.0\n\n[party:p1]"),
    ("classes = 0,1,2,3\nanchor_mu = 2.0\n\n[party:p1]",
     "classes = 0,54\nanchor_mu = 2.0\n\n[party:p1]"),
    ("rounds = 2", "rounds = 0"),
    ("anchor_mu = 2.0\n\n[party:p1]", "anchor_mu = nan\n\n[party:p1]"),
    ("size = 40\nseed = 8", "size = -3\nseed = 8"),
    ("anchor_mu = 2.0\n\n[party:p1]", "anchor_mu = 2.0\nmismatched = nan\n\n[party:p1]"),
    ("anchor_mu = 2.0\n\n[party:p1]",
     "anchor_mu = 2.0\nmismatched = 1.5\ntoo_short = -0.6\n\n[party:p1]"),
    ("deadline = 60", "deadline = 0"),
    ("deadline = 60", "deadline = -1"),
    ("deadline = 60", "deadline = nan"),
    ("[model]\n", "[aggregation]\nstrategy = async_mix\nhistory_window = -1\n\n[model]\n"),
    ("[model]\n", "[privacy]\ndp_enabled = true\nclip_norm = nan\n\n[model]\n"),
    ("[model]\n", "[privacy]\ndp_enabled = true\nclip_norm = inf\n\n[model]\n"),
    ("[model]\n", "[privacy]\ndp_enabled = true\nclip_norm = 0\n\n[model]\n"),
    ("[model]\n", "[privacy]\ndp_enabled = true\nnoise_std = -0.5\n\n[model]\n"),
    ("[model]\n", "[privacy]\ndp_enabled = true\nnoise_std = nan\n\n[model]\n"),
    ("[model]\n",
     "[aggregation]\nstrategy = product_refactor\nblock_mask = text.a\n\n[model]\n"),
], ids=["batch_size_0", "batch_size_1", "epochs_0", "lr_negative", "rank_0",
        "rates_above_1", "empty_pool", "class_54", "rounds_0", "anchor_mu_nan",
        "size_negative", "rate_nan", "rate_above_1_sum_below_1", "deadline_0",
        "deadline_negative", "deadline_nan", "history_window_negative",
        "dp_clip_norm_nan", "dp_clip_norm_inf", "dp_clip_norm_0",
        "dp_noise_std_negative", "dp_noise_std_nan", "product_refactor_half_tower"])
def test_simulate_out_of_range_config_exits_2(tmp_path, capsys, old, new):
    assert old in CONFIG
    path = tmp_path / "scenario.ini"
    path.write_text(CONFIG.replace(old, new, 1))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_simulate(config_file, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", config_file, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "final.ckpt"))
    assert os.path.exists(os.path.join(out, "eval.txt"))
    assert "recall_at_1=" in capsys.readouterr().out


def test_a_second_run_in_a_used_directory_exits_2_and_keeps_the_first(
        config_file, tmp_path, capsys, monkeypatch):
    import flmm.simulate

    def no_server(*args):
        raise AssertionError("the server started on a used log directory")

    out = tmp_path / "run"
    log = out / "log"
    assert main(["simulate", "--config", config_file, "--out", str(out)]) == 0
    files = [out / "final.ckpt", log / "rounds.log", log / "updates.seg",
             log / "checkpoints" / "v0.ckpt"]
    before = [f.read_bytes() for f in files]
    capsys.readouterr()
    assert main(["simulate", "--config", config_file, "--out", str(out)]) == 2
    assert f"error: {log} already holds a run's round log" in capsys.readouterr().err
    monkeypatch.setattr(flmm.simulate, "FederationServer", no_server)
    assert main(["server", "start", "--config", config_file, "--port", "0",
                 "--log-dir", str(log)]) == 2
    assert f"error: {log} already holds a run's round log" in capsys.readouterr().err
    assert [f.read_bytes() for f in files] == before


def test_simulate_shapley(config_file, tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["simulate", "--config", config_file, "--out", out, "--shapley"])
    assert code == 0
    text = capsys.readouterr().out
    assert "shapley p0=" in text and "shapley p1=" in text


def test_readme_quick_start_runs_as_documented(tmp_path, monkeypatch, capsys):
    """The README's Quick start config and commands, run in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick = readme[readme.index("## Quick start"):]
    ini = re.search(r"```ini\n(.*?)```", quick, re.S)[1]
    commands = re.search(r"```sh\n(.*?)```", quick, re.S)[1].splitlines()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.ini").write_text(ini)
    assert len(commands) == 6
    for line in commands:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "flmm"
        assert main(argv[1:]) == 0, (line, capsys.readouterr().err)
    assert "value factory=" in capsys.readouterr().out


def test_eval_and_clean(config_file, tmp_path, capsys):
    data = str(tmp_path / "data")
    run = str(tmp_path / "run")
    main(["gendata", "--spec", config_file, "--out", data])
    main(["simulate", "--config", config_file, "--out", run])
    capsys.readouterr()

    ckpt = os.path.join(run, "final.ckpt")
    corpus = os.path.join(data, "eval.corpus")
    assert main(["eval", "--model", ckpt, "--corpus", corpus]) == 0
    assert "mean_bleu=" in capsys.readouterr().out

    kept_path = str(tmp_path / "kept.corpus")
    assert main(["clean", "--model", ckpt, "--corpus", corpus,
                 "--threshold", "-1.0", "--out", kept_path]) == 0
    text = capsys.readouterr().out
    assert "kept=" in text and os.path.exists(kept_path)


@pytest.mark.parametrize("threshold", ["abc", "nan", "inf", "-inf", ""])
def test_clean_threshold_other_than_auto_or_a_finite_number_exits_2(
        config_file, tmp_path, capsys, threshold):
    data = str(tmp_path / "data")
    main(["gendata", "--spec", config_file, "--out", data])
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(save_snapshot(init_snapshot(7)))
    kept_path = tmp_path / "kept.corpus"
    capsys.readouterr()
    assert main(["clean", "--model", str(ckpt), "--corpus", os.path.join(data, "eval.corpus"),
                 f"--threshold={threshold}", "--out", str(kept_path)]) == 2
    assert "config error: --threshold" in capsys.readouterr().err
    assert not kept_path.exists()


@pytest.mark.parametrize("case", ["bridge_5x5", "vision_b_7_rows", "trailing_junk"])
def test_eval_of_a_malformed_checkpoint_exits_4(config_file, tmp_path, capsys, case):
    data = str(tmp_path / "data")
    main(["gendata", "--spec", config_file, "--out", data])
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(malformed_checkpoints()[case])
    capsys.readouterr()
    assert main(["eval", "--model", str(ckpt),
                 "--corpus", os.path.join(data, "eval.corpus")]) == 4
    assert "malformed checkpoint" in capsys.readouterr().err


def test_shapley_from_log(config_file, tmp_path, capsys):
    data = str(tmp_path / "data")
    run = str(tmp_path / "run")
    main(["gendata", "--spec", config_file, "--out", data])
    main(["simulate", "--config", config_file, "--out", run])
    capsys.readouterr()
    code = main(["shapley", "--log", os.path.join(run, "log"),
                 "--eval", os.path.join(data, "eval.corpus")])
    assert code == 0
    text = capsys.readouterr().out
    assert "method=exact" in text and "value p0=" in text

    code = main(["shapley", "--log", os.path.join(run, "log"),
                 "--eval", os.path.join(data, "eval.corpus"),
                 "--method", "wtdp", "--budget", "20",
                 "--weights", "p0=2.0"])
    assert code == 0
    assert "method=wtdp" in capsys.readouterr().out


@pytest.fixture(scope="module")
def logged_run(tmp_path_factory):
    """The round log and eval corpus of a two-party run."""
    work = tmp_path_factory.mktemp("logged")
    (work / "scenario.ini").write_text(CONFIG)
    assert main(["gendata", "--spec", str(work / "scenario.ini"),
                 "--out", str(work / "data")]) == 0
    assert main(["simulate", "--config", str(work / "scenario.ini"),
                 "--out", str(work / "run")]) == 0
    return str(work / "run" / "log"), str(work / "data" / "eval.corpus")


@pytest.mark.parametrize("weights", ["p0", "p0=heavy", "p0=nan", "p0=2.0,p9=1.0"],
                         ids=["no_equals", "not_a_float", "not_finite", "party_not_in_log"])
def test_shapley_bad_weights_rejected_before_replay(logged_run, capsys, monkeypatch,
                                                    weights):
    import flmm.contribution

    def no_replay(*args, **kwargs):
        raise AssertionError("replay ran before --weights was checked")

    monkeypatch.setattr(flmm.contribution, "fl_value_function", no_replay)
    log, eval_corpus = logged_run
    capsys.readouterr()
    assert main(["shapley", "--log", log, "--eval", eval_corpus, "--method", "wtdp",
                 "--weights", weights]) == 2
    assert "config error: --weights" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--budget", "20"], ["--tolerance", "0.1"],
                                  ["--weights", "p0=2.0"], ["--seed", "3"]],
                         ids=["budget", "tolerance", "weights", "seed"])
@pytest.mark.parametrize("method", [[], ["--method", "exact"]], ids=["default", "exact"])
def test_shapley_refuses_a_wtdp_flag_under_exact(logged_run, capsys, flag, method):
    log, eval_corpus = logged_run
    capsys.readouterr()
    assert main(["shapley", "--log", log, "--eval", eval_corpus, *method, *flag]) == 2
    assert f"config error: {flag[0]} applies only with --method wtdp" \
        in capsys.readouterr().err


def test_shapley_after_more_rounds_than_history_window(tmp_path, capsys):
    from flmm.aggregation import AggregationPlan
    from flmm.config import load_config
    from flmm.contribution import exact_shapley, fl_value_function
    from flmm.orchestrator import RoundLog
    from flmm.simulate import build_eval_set, build_initial_model
    path = tmp_path / "scenario.ini"
    # the run's deadline is sync_avg's, and history_window async_mix's
    path.write_text(CONFIG.replace("rounds = 2", "rounds = 5").replace("deadline = 60\n", "")
                    + "\n[aggregation]\nstrategy = async_mix\nhistory_window = 2\n")
    data = str(tmp_path / "data")
    run = str(tmp_path / "run")
    log = os.path.join(run, "log")
    assert main(["gendata", "--spec", str(path), "--out", data]) == 0
    assert main(["simulate", "--config", str(path), "--out", run]) == 0
    # v0 is the only checkpoint file and the replay base
    assert os.listdir(os.path.join(log, "checkpoints")) == ["v0.ckpt"]
    capsys.readouterr()
    assert main(["shapley", "--log", log,
                 "--eval", os.path.join(data, "eval.corpus")]) == 0
    text = capsys.readouterr().out
    cfg = load_config(str(path))
    rounds = RoundLog(log).logged_rounds(AggregationPlan(strategy="async_mix"))
    fn = fl_value_function(build_initial_model(cfg), rounds, build_eval_set(cfg),
                           ["p0", "p1"])
    for party, value in sorted(exact_shapley(fn).values.items()):
        assert f"value {party}={value:.6f}" in text


def test_shapley_replays_with_the_runs_block_mask(tmp_path, capsys):
    from flmm.aggregation import AggregationPlan
    from flmm.config import load_config
    from flmm.contribution import exact_shapley, fl_value_function
    from flmm.orchestrator import RoundLog
    from flmm.simulate import build_eval_set, build_initial_model
    path = tmp_path / "scenario.ini"
    path.write_text(CONFIG + "\n[aggregation]\nblock_mask = vision.a,vision.b\n")
    data = str(tmp_path / "data")
    run = str(tmp_path / "run")
    log = os.path.join(run, "log")
    assert main(["gendata", "--spec", str(path), "--out", data]) == 0
    assert main(["simulate", "--config", str(path), "--out", run]) == 0
    capsys.readouterr()
    assert main(["shapley", "--log", log,
                 "--eval", os.path.join(data, "eval.corpus")]) == 0
    text = capsys.readouterr().out
    cfg = load_config(str(path))
    rounds = RoundLog(log).logged_rounds(cfg.plan)
    fn = fl_value_function(build_initial_model(cfg), rounds, build_eval_set(cfg),
                           ["p0", "p1"])
    for party, value in sorted(exact_shapley(fn).values.items()):
        assert f"value {party}={value:.6f}" in text
    with pytest.raises(HistoryError):
        RoundLog(log).logged_rounds(AggregationPlan())


def test_shapley_refuses_an_update_from_another_run(tmp_path, capsys):
    """Replaying the log must reproduce its logged blocks; an update frame
    taken from a run at another seed does not."""
    from flmm.orchestrator import RoundLog
    for seed in (7, 8):
        path = tmp_path / f"seed{seed}.ini"
        path.write_text(CONFIG.replace("[run]\nseed = 7", f"[run]\nseed = {seed}"))
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / f"run{seed}")]) == 0
    assert main(["gendata", "--spec", str(tmp_path / "seed7.ini"),
                 "--out", str(tmp_path / "data")]) == 0
    log = tmp_path / "run7" / "log"
    frame = logged_frames(str(tmp_path / "run8" / "log"))[1, "p0"]
    assert frame != logged_frames(str(log))[1, "p0"]
    relog_update(str(log), 1, "p0", frame)
    capsys.readouterr()
    assert main(["shapley", "--log", str(log),
                 "--eval", str(tmp_path / "data" / "eval.corpus")]) == 4
    assert "does not reproduce the blocks logged in round 1" in capsys.readouterr().err
    with pytest.raises(HistoryError):
        RoundLog(str(log)).logged_rounds()


def test_shapley_refuses_a_wrong_middle_record(tmp_path, capsys):
    """Every round's logged blocks are checked, not only the last one's."""
    path = tmp_path / "scenario.ini"
    path.write_text(CONFIG.replace("rounds = 2", "rounds = 3"))
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    assert main(["gendata", "--spec", str(path), "--out", data]) == 0
    assert main(["simulate", "--config", str(path), "--out", run]) == 0
    relog_with_wrong_blocks(os.path.join(run, "log"), 1)
    capsys.readouterr()
    assert main(["shapley", "--log", os.path.join(run, "log"),
                 "--eval", os.path.join(data, "eval.corpus")]) == 4
    assert "round 1: replaying" in capsys.readouterr().err


def test_shapley_with_a_malformed_update_file_exits_4(logged_run, tmp_path, capsys):
    import shutil
    log, eval_corpus = logged_run
    copy = tmp_path / "log"
    shutil.copytree(log, copy)
    data = logged_frames(str(copy))[1, "p0"]
    assert b"base_version: 1\n" in data
    relog_update(str(copy), 1, "p0", data.replace(b"base_version: 1\n",
                                                  b"base_version: x\n"))
    capsys.readouterr()
    assert main(["shapley", "--log", str(copy), "--eval", eval_corpus]) == 4
    err = capsys.readouterr().err
    assert "round 1 party 'p0'" in err and "'base_version'" in err


@pytest.mark.parametrize("field", ["round", "status", "blocks", "post_version",
                                   "history_window", "contributors", "updates"])
def test_a_record_without_a_field_every_reader_reads_is_refused_by_line(
        logged_run, tmp_path, capsys, field):
    """A CRC-valid record that lacks a field its readers read is a
    HistoryError naming its line, not a KeyError, in every reader. A log
    from before ``history_window=`` was logged is refused the same way."""
    import shutil
    from flmm.config import load_config
    from flmm.orchestrator import RoundLog, ServerCore
    from flmm.simulate import server_config
    log, eval_corpus = logged_run
    copy = str(tmp_path / "log")
    shutil.copytree(log, copy)
    relog(copy, 1, drop=(field,))
    line = "round log line 1: "
    with pytest.raises(HistoryError, match=line):
        RoundLog(copy).logged_rounds()
    cfg = server_config(load_config(str(Path(log).parents[1] / "scenario.ini")))
    with pytest.raises(HistoryError, match=line):
        ServerCore.recover(cfg, copy)
    capsys.readouterr()
    assert main(["shapley", "--log", copy, "--eval", eval_corpus]) == 4
    assert f"error: {line}" in capsys.readouterr().err


def test_shapley_on_an_empty_log_dir_exits_4_and_creates_nothing(logged_run, tmp_path,
                                                                 capsys):
    _, eval_corpus = logged_run
    empty = tmp_path / "empty"
    empty.mkdir()
    capsys.readouterr()
    assert main(["shapley", "--log", str(empty), "--eval", eval_corpus]) == 4
    assert "no checkpoint for version 0" in capsys.readouterr().err
    assert os.listdir(empty) == []


def test_simulate_shapley_on_a_masked_run_fails_after_writing_artifacts(tmp_path,
                                                                      capsys):
    path = tmp_path / "scenario.ini"
    path.write_text(CONFIG + "\n[privacy]\nmasking_enabled = true\n")
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(run),
                 "--shapley"]) == 4
    assert "masked" in capsys.readouterr().err
    assert (run / "final.ckpt").exists() and (run / "eval.txt").exists()


def test_server_client_loopback(config_file, tmp_path, capsys):
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    log_dir = str(tmp_path / "log")
    server = threading.Thread(
        target=main,
        args=(["server", "start", "--config", config_file,
               "--port", str(port), "--log-dir", log_dir],),
        daemon=True)
    server.start()
    clients = []
    for pid in ("p0", "p1"):
        t = threading.Thread(
            target=main,
            args=(["client", "run", "--config", config_file,
                   "--endpoint", f"127.0.0.1:{port}", "--party", pid],),
            daemon=True)
        t.start()
        clients.append(t)
    for t in clients:
        t.join(timeout=120)
        assert not t.is_alive()
    server.join(timeout=120)
    assert not server.is_alive()
    assert os.path.exists(os.path.join(log_dir, "rounds.log"))


@pytest.mark.parametrize("command", [
    ["server", "start", "--port", "9", "--log-dir", "{out}"],
    ["client", "run", "--endpoint", "127.0.0.1:9", "--party", "p0"]],
    ids=["server", "client"])
def test_socket_run_refuses_the_quality_loop(tmp_path, capsys, command):
    path = tmp_path / "scenario.ini"
    path.write_text(CONFIG + "\n[quality]\niters = 1\n")
    out = tmp_path / "log"
    argv = [arg.format(out=out) for arg in command] + ["--config", str(path)]
    assert main(argv) == 2
    assert "config error: [quality] iters = 1: a socket run has no quality loop" \
        in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["scenario.ini"]


def test_client_bad_endpoint(config_file, capsys, monkeypatch):
    import flmm.client
    monkeypatch.setattr(flmm.client.time, "sleep", lambda _t: None)
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    code = main(["client", "run", "--config", config_file,
                 "--endpoint", f"127.0.0.1:{port}", "--party", "p0"])
    assert code == 3
    assert "transport error" in capsys.readouterr().err


def test_client_unknown_party_is_a_config_error(config_file, capsys):
    code = main(["client", "run", "--config", config_file,
                 "--endpoint", "127.0.0.1:9", "--party", "nope"])
    assert code == 2
    assert "config error: unknown party 'nope'" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
