import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glossgen import checkpoint
from glossgen.autodiff import ShapeError
from glossgen.cli import main, resolve_data_path
from glossgen.config import (S0_VARIANTS, config_to_text, default_config,
                             load_config_file, set_key)
from glossgen.data import Vocabulary, load_corpus, split_by_sense
from glossgen.models import DefinitionModel, expected_param_count

MICRO_CFG = """
model.d_w = 8
model.d_h = 4
model.d_s = 8
model.d_attn = 8
model.d_e = 8
model.char_on = false
model.contextual_on = false
model.max_gen_len = 8
train.batch_size = 8
train.lr = 0.005
train.max_epochs = 2
train.patience = 9
"""


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "micro.cfg"
    path.write_text(MICRO_CFG)
    return str(path)


@pytest.fixture(scope="module")
def trained(cfg_path, tmp_path_factory):
    """One trained run shared by the eval/generate tests."""
    out = tmp_path_factory.mktemp("trained")
    split_dir = out / "split"
    assert main(["data", "split", "--config", cfg_path, "--seed", "0",
                 "--out-dir", str(split_dir),
                 "--override", "data.split_ratios=0.7,0.15,0.15"]) == 0
    manifest = str(split_dir / "split_manifest.json")
    run = out / "run"
    assert main(["train", "--config", cfg_path, "--seed", "0",
                 "--out-dir", str(run), "--manifest", manifest]) == 0
    return {"cfg": cfg_path, "manifest": manifest, "dir": str(run),
            "checkpoint": str(run / "model.npz")}


# Overrides that make the first Adam step blow the parameters up to about
# 1e300: finite, but overflowing as soon as the model runs again.
ONE_HUGE_STEP = ["--override", "train.lr=1e300", "--override", "train.max_epochs=1",
                 "--override", "train.batch_size=32"]


@pytest.fixture(scope="module")
def overflowing(cfg_path, tmp_path_factory):
    """A single-kind checkpoint whose parameters sit at 1e300, as one huge
    step leaves them: finite, but overflowing as soon as the model runs.
    ``train`` refuses to keep such an epoch, so the file is written here."""
    out = tmp_path_factory.mktemp("overflowing")
    assert main(["train", "--config", cfg_path, "--out-dir", str(out),
                 "--override", "train.max_epochs=1"]) == 0
    path = str(out / "model.npz")
    model, cfg, meta = checkpoint.load_checkpoint(path)
    for tensor in model.params().values():
        tensor.data[...] = 1e300
    checkpoint.save_checkpoint(path, model, cfg, extra_meta=meta)
    return path


@pytest.fixture(scope="module")
def missing_array(trained, tmp_path_factory):
    """The trained checkpoint with a valid header but without one array: a
    command fails on it only once it reads the arrays."""
    path = tmp_path_factory.mktemp("broken") / "broken.npz"
    meta, arrays = checkpoint._read(trained["checkpoint"])
    del arrays["def.W_d"]
    checkpoint._write(path, meta, arrays)
    return path


@pytest.fixture(scope="module")
def warm_start(cfg_path, tmp_path_factory):
    """A warm-start file of the initial decoder branch at the micro config."""
    out = tmp_path_factory.mktemp("pre")
    assert main(["pretrain", "--config", cfg_path, "--seed", "0", "--out-dir", str(out),
                 "--override", "train.pretrain_epochs=0"]) == 0
    return out / "pretrained.npz"


class TestDataCommands:
    def test_validate_bundled_corpus(self, capsys):
        assert main(["data", "validate"]) == 0
        out = capsys.readouterr().out
        assert "loaded 32" in out and "malformed 0" in out

    def test_validate_broken_corpus(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\nalso not json\n")
        code = main(["data", "validate", "--override", f"data.corpus={bad}"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_split_manifest_covers_corpus(self, tmp_path):
        out = tmp_path / "s"
        assert main(["data", "split", "--seed", "3", "--out-dir", str(out),
                     "--override", "data.split_ratios=0.7,0.15,0.15"]) == 0
        manifest = json.loads((out / "split_manifest.json").read_text())
        ids = [i for part in manifest.values() for i in part]
        assert len(ids) == len(set(ids)) == 32

    def test_stats_writes_artifacts_with_digest(self, tmp_path, capsys):
        out = tmp_path / "st"
        assert main(["data", "stats", "--out-dir", str(out)]) == 0
        text = (out / "stats.txt").read_text()
        assert text.startswith("# config ")
        assert "all" in text
        table = json.loads((out / "stats.json").read_text())
        assert table["all"]["entries"] == 32
        assert table["all"]["words"] == 30

    def test_vocab_stopword_filter_shrinks(self, tmp_path, capsys):
        assert main(["data", "vocab"]) == 0
        plain = capsys.readouterr().out
        assert main(["data", "vocab", "--stopwords", "bundled"]) == 0
        filtered = capsys.readouterr().out
        size = lambda s: int(s.split("vocabulary size ")[1].split()[0])
        assert size(filtered) < size(plain)

    def test_vocab_writes_file(self, tmp_path):
        out = tmp_path / "v"
        assert main(["data", "vocab", "--out-dir", str(out)]) == 0
        lines = (out / "vocab.txt").read_text().splitlines()
        assert lines[:4] == ["<pad>", "<unk>", "<bos>", "<eos>"]

    def test_success_after_failure_clears_marker(self, tmp_path, capsys):
        out = tmp_path / "st"
        out.mkdir()
        assert main(["data", "stats", "--out-dir", str(out),
                     "--manifest", str(tmp_path / "missing.json")]) == 1
        assert (out / "FAILED").exists()
        assert main(["data", "stats", "--out-dir", str(out)]) == 0
        assert not (out / "FAILED").exists()
        assert (out / "run.json").exists() and (out / "config.txt").exists()

    @pytest.mark.parametrize("args", [["--override", "model.d_w=abc"], ["--bogus"]],
                             ids=["bad-value", "unknown-flag"])
    def test_rejected_command_leaves_earlier_run_unmarked(self, tmp_path, capsys, args):
        # rejected before it writes anything, so the good run beside it stays clean
        out = tmp_path / "s"
        assert main(["data", "split", "--out-dir", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["data", "split", "--out-dir", str(out)] + args) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("flag", ["--out", "--out-d", "--over"])
    def test_abbreviated_flag_is_usage_error(self, tmp_path, capsys, flag):
        # the run record drops --out-dir by its full spelling only
        out = tmp_path / "st"
        assert main(["data", "stats", flag, str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_artifacts_and_run_record(self, trained):
        run = trained["dir"]
        for name in ("run.json", "config.txt", "vocab.txt", "model.npz",
                     "train_log.jsonl", "summary.json"):
            assert os.path.exists(os.path.join(run, name)), name
        record = json.loads(open(os.path.join(run, "run.json")).read())
        assert "--out-dir" not in record["command"]
        assert record["seed"] == 0
        assert len(record["config_digest"]) == 64

    def test_summary_names_counts_and_best(self, trained):
        summary = json.loads(open(os.path.join(trained["dir"], "summary.json")).read())
        assert summary["n_train"] + summary["n_valid"] + summary["n_test"] == 32
        assert summary["epochs_run"] == 2
        assert np.isfinite(summary["best_valid_ppl"])

    def test_identical_seeds_byte_identical_logs(self, cfg_path, trained, tmp_path):
        other = tmp_path / "again"
        assert main(["train", "--config", cfg_path, "--seed", "0",
                     "--out-dir", str(other), "--manifest", trained["manifest"]]) == 0
        for name in ("train_log.jsonl", "summary.json"):
            a = open(os.path.join(trained["dir"], name), "rb").read()
            b = open(os.path.join(other, name), "rb").read()
            assert a == b, name

    @pytest.mark.parametrize("override, kept", [("train.max_epochs=0", False),
                                                ("data.split_ratios=0.9,0,0.1", True)])
    def test_json_files_are_strict(self, cfg_path, tmp_path, capsys, override, kept):
        # No epoch run, or no validation split: the perplexity is undefined,
        # which must reach the files as null, not as Infinity or NaN.
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_path, "--out-dir", str(out),
                     "--override", override]) == 0
        printed = capsys.readouterr().out
        assert (out / "model.npz").exists() == kept
        assert ("checkpoint:" in printed) == kept

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        names = sorted(p.name for p in out.iterdir() if p.suffix in (".json", ".jsonl"))
        assert {"run.json", "summary.json", "train_log.jsonl"} <= set(names)
        for name in names:
            text = (out / name).read_text()
            for doc in text.splitlines() if name.endswith(".jsonl") else [text]:
                json.loads(doc, parse_constant=reject)
        assert json.loads((out / "summary.json").read_text())["best_valid_ppl"] is None
        if kept:
            with np.load(out / "model.npz") as data:
                header = json.loads(str(data[checkpoint.META_KEY]), parse_constant=reject)
            assert header["valid_ppl"] is None
            checkpoint.load_checkpoint(out / "model.npz")

    def test_run_keeping_no_epoch_removes_earlier_checkpoint(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_path, "--out-dir", str(out),
                     "--override", "train.max_epochs=1"]) == 0
        assert (out / "model.npz").exists()
        assert main(["train", "--config", cfg_path, "--out-dir", str(out),
                     "--override", "train.max_epochs=0"]) == 0
        assert not (out / "model.npz").exists()
        assert json.loads((out / "summary.json").read_text())["best_epoch"] == 0

    def test_non_finite_validation_names_epoch(self, cfg_path, tmp_path, capsys):
        # one step per epoch, so the first non-finite value shows in validation
        code = main(["train", "--config", cfg_path, "--out-dir", str(tmp_path),
                     "--override", "model.kind=hier-du"] + ONE_HUGE_STEP)
        assert code == 1
        assert "non-finite values in validation after epoch 1" in capsys.readouterr().err

    def test_overflowing_step_without_validation_keeps_no_checkpoint(self, cfg_path, tmp_path,
                                                                      capsys):
        # With no validation split nothing else runs the stepped parameters
        # before they would be saved.
        code = main(["train", "--config", cfg_path, "--out-dir", str(tmp_path),
                     "--override", "model.kind=single",
                     "--override", "data.split_ratios=0.9,0,0.1"] + ONE_HUGE_STEP)
        assert code == 1
        assert ("non-finite values in a training batch after epoch 1"
                in capsys.readouterr().err)
        assert not (tmp_path / "model.npz").exists()
        assert (tmp_path / "FAILED").exists()

    def test_missing_out_dir_is_user_error(self, capsys):
        assert main(["train"]) == 1
        assert "--out-dir" in capsys.readouterr().err

    def test_failure_leaves_marker(self, tmp_path, capsys):
        out = tmp_path / "doomed"
        code = main(["train", "--out-dir", str(out),
                     "--override", "data.corpus=/missing.jsonl"])
        assert code == 1
        assert (out / "FAILED").exists()

    def test_warm_start_path(self, cfg_path, trained, tmp_path, capsys):
        pre = tmp_path / "pre"
        assert main(["pretrain", "--config", cfg_path, "--seed", "0",
                     "--out-dir", str(pre),
                     "--override", "train.pretrain_epochs=1"]) == 0
        capsys.readouterr()
        run = tmp_path / "warm"
        assert main(["train", "--config", cfg_path, "--seed", "0",
                     "--out-dir", str(run), "--manifest", trained["manifest"],
                     "--pretrained", str(pre / "pretrained.npz")]) == 0
        assert "warm start" in capsys.readouterr().out


class TestContextualFile:
    """``data.contextual_file`` supplies one precomputed vector per entry id."""

    def write_vectors(self, path, skip=(), width=8):
        entries, _ = load_corpus(resolve_data_path("", "mini_corpus.jsonl"))
        rng = np.random.default_rng(0)
        with open(path, "w", encoding="utf-8") as fh:
            for e in entries:
                if e.entry_id not in skip:
                    fh.write(e.entry_id + " "
                             + " ".join(f"{v:.6f}" for v in rng.normal(size=width)) + "\n")
        return entries

    def args(self, cfg_path, out, vectors):
        return ["--config", cfg_path, "--seed", "0", "--out-dir", str(out),
                "--override", "model.contextual_on=true",
                "--override", "train.max_epochs=1",
                "--override", f"data.contextual_file={vectors}"]

    def test_full_coverage_trains_and_evaluates(self, cfg_path, tmp_path, capsys):
        vectors = tmp_path / "ctx.txt"
        self.write_vectors(vectors)
        run = tmp_path / "run"
        assert main(["train"] + self.args(cfg_path, run, vectors)) == 0
        assert main(["eval", "--checkpoint", str(run / "model.npz")]
                    + self.args(cfg_path, tmp_path / "ev", vectors)) == 0

    def test_eval_refuses_other_provider_kind(self, cfg_path, tmp_path, capsys):
        vectors = tmp_path / "ctx.txt"
        self.write_vectors(vectors)
        run = tmp_path / "run"
        # trained on deterministic-test features, scored on file-backed ones
        assert main(["train"] + self.args(cfg_path, run, vectors)[:-2]) == 0
        code = main(["eval", "--checkpoint", str(run / "model.npz")]
                    + self.args(cfg_path, tmp_path / "ev", vectors))
        err = capsys.readouterr().err
        assert code == 1, err
        assert "error:" in err and "internal error" not in err
        assert "deterministic-test" in err and "file-backed" in err

    def test_missing_entry_is_user_error(self, cfg_path, tmp_path, capsys):
        entries, _ = load_corpus(resolve_data_path("", "mini_corpus.jsonl"))
        missing = split_by_sense(entries, (0.8, 0.1, 0.1), 0)[0][0].entry_id
        vectors = tmp_path / "ctx.txt"
        self.write_vectors(vectors, skip={missing})
        assert main(["train"] + self.args(cfg_path, tmp_path / "run", vectors)) == 1
        assert missing in capsys.readouterr().err

    def test_file_unread_when_contextual_off(self, cfg_path, tmp_path, capsys):
        # 4 values per entry for an 8-wide model that reads no contextual feature
        vectors = tmp_path / "ctx.txt"
        self.write_vectors(vectors, width=4)
        assert main(["train", "--config", cfg_path, "--out-dir", str(tmp_path / "run"),
                     "--override", "train.max_epochs=1",
                     "--override", f"data.contextual_file={vectors}"]) == 0

    def test_eval_reads_file_as_checkpoint_does(self, cfg_path, tmp_path, capsys):
        # contextual_on and the width come from the checkpoint; the command's
        # config (contextual off, d_e 8) names only the file
        vectors = tmp_path / "ctx.txt"
        self.write_vectors(vectors, width=4)
        with open(vectors, "a", encoding="utf-8") as fh:
            fh.write("query-0 0.1 0.2 0.3 0.4\n")  # generate's one context
        run = tmp_path / "run"
        assert main(["train", "--override", "model.d_e=4"]
                    + self.args(cfg_path, run, vectors)) == 0
        checkpoint_path = str(run / "model.npz")
        given = ["--config", cfg_path, "--checkpoint", checkpoint_path,
                 "--override", f"data.contextual_file={vectors}"]
        assert main(["eval"] + given) == 0
        assert main(["generate"] + given + ["--word", "check", "--context", "check the oil"]) == 0

    def test_contextual_off_checkpoint_needs_no_file(self, cfg_path, tmp_path, capsys):
        vectors = tmp_path / "ctx.txt"
        self.write_vectors(vectors, width=4)
        run = tmp_path / "run"
        assert main(["train", "--config", cfg_path, "--seed", "0", "--out-dir", str(run),
                     "--override", "model.d_e=4", "--override", "train.max_epochs=1",
                     "--override", f"data.contextual_file={vectors}"]) == 0
        checkpoint_path = str(run / "model.npz")
        assert main(["eval", "--config", cfg_path, "--checkpoint", checkpoint_path]) == 0
        assert main(["generate", "--config", cfg_path, "--checkpoint", checkpoint_path,
                     "--word", "check", "--context", "check the oil"]) == 0


class TestEvalAndGenerate:
    def test_eval_writes_report(self, trained, tmp_path, capsys):
        out = tmp_path / "ev"
        assert main(["eval", "--config", trained["cfg"], "--seed", "0",
                     "--checkpoint", trained["checkpoint"],
                     "--manifest", trained["manifest"],
                     "--out-dir", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "partition" in text and "perplexity" in text
        first = json.loads((out / "report.jsonl").read_text().splitlines()[0])
        assert "config_digest" in first and "--out-dir" not in first["command"]

    def test_run_record_matches_everywhere(self, trained, tmp_path, capsys):
        out = tmp_path / "ev"
        argv = ["eval", "--config", trained["cfg"], "--seed", "0",
                "--checkpoint", trained["checkpoint"], "--manifest", trained["manifest"]]
        assert main(argv + ["--out-dir", str(out)]) == 0
        run_dir = Path(trained["dir"])
        train_run = json.loads((run_dir / "run.json").read_text())
        eval_run = json.loads((out / "run.json").read_text())
        assert eval_run["command"] == argv
        # the same config and seed resolve to the same digest for both commands
        assert eval_run["config_digest"] == train_run["config_digest"]
        for record, directory in ((train_run, run_dir), (eval_run, out)):
            digest_line = (directory / "config.txt").read_text().splitlines()[0]
            assert digest_line == f"# digest {record['config_digest']}"
        summary = json.loads((run_dir / "summary.json").read_text())
        assert (summary["command"], summary["config_digest"]) == (
            train_run["command"], train_run["config_digest"])
        header, _ = checkpoint._read(trained["checkpoint"])
        assert header["command"] == train_run["command"]
        first = json.loads((out / "report.jsonl").read_text().splitlines()[0])
        assert first == {"command": argv, "config_digest": eval_run["config_digest"]}
        assert (out / "report.txt").read_text().splitlines()[:2] == [
            f"# config {eval_run['config_digest']}", f"# command {' '.join(argv)}"]

    @pytest.mark.parametrize("command, overrides, named", [
        (["eval"], ["model.temperature=5.0", "model.max_gen_len=2"],
         ("model.temperature=5.0", "model.temperature = 0.05")),
        (["eval"], ["model.kind=parallel", "model.d_w=999"],
         ("model.kind=parallel", "model.kind = single")),
        (["generate", "--word", "check", "--context", "check the oil"],
         ["model.d_w=8", "model.max_gen_len=2"],
         ("model.max_gen_len=2", "model.max_gen_len = 8")),
        (["eval"], ["data.vocab_size=50"],
         ("data.vocab_size=50", "data.vocab_size = 65000")),
    ])
    def test_model_override_apart_from_checkpoint_refused(self, trained, capsys,
                                                          command, overrides, named):
        # the checkpoint fixes the model, so the override would change nothing
        # while entering the command line and config digest of the run record
        argv = command + ["--config", trained["cfg"], "--checkpoint", trained["checkpoint"]]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "internal error" not in err
        assert all(part in err for part in named) and trained["checkpoint"] in err

    def test_config_file_model_section_gives_way_to_checkpoint(self, trained, tmp_path,
                                                               capsys):
        # the checkpoint fixes the model, so a config file's model.* value
        # changes nothing eval runs, and the run records the training config
        hot = tmp_path / "hot.cfg"
        hot.write_text(Path(trained["cfg"]).read_text() + "model.temperature = 5.0\n")
        bodies = []
        for cfg, out in ((trained["cfg"], tmp_path / "ev"), (str(hot), tmp_path / "hot")):
            assert main(["eval", "--config", cfg, "--seed", "0",
                         "--checkpoint", trained["checkpoint"],
                         "--manifest", trained["manifest"], "--out-dir", str(out)]) == 0
            bodies.append((out / "report.txt").read_text().splitlines()[2:])
        train_run = json.loads((Path(trained["dir"]) / "run.json").read_text())
        hot_run = json.loads((tmp_path / "hot" / "run.json").read_text())
        assert hot_run["config_digest"] == train_run["config_digest"]
        assert bodies[0] == bodies[1] and bodies[0]

    def test_eval_without_config_records_checkpoint_model(self, trained, tmp_path, capsys):
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", trained["checkpoint"],
                     "--manifest", trained["manifest"], "--out-dir", str(out)]) == 0
        stored = config_to_text(checkpoint.load_checkpoint(trained["checkpoint"])[1])

        def fixed(text):
            return [line for line in text.splitlines()
                    if line.startswith(("model.", "data.vocab_size "))]

        assert fixed((out / "config.txt").read_text()) == fixed(stored)
        assert "model.d_w = 8" in fixed(stored)

    def test_model_override_equal_to_checkpoint_accepted(self, trained, tmp_path, capsys):
        given = ["--config", trained["cfg"], "--checkpoint", trained["checkpoint"],
                 "--override", "model.d_w=8", "--override", "model.max_gen_len=8"]
        assert main(["eval"] + given) == 0
        assert main(["generate"] + given + ["--word", "check", "--context", "check it"]) == 0

    def test_eval_refuses_vocab_mismatch(self, trained, tmp_path, capsys):
        # the bundled corpus with one definition token changed
        lines = open(resolve_data_path("", "mini_corpus.jsonl"), encoding="utf-8").readlines()
        first = json.loads(lines[0])
        first["definition"] += " zebra"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join([json.dumps(first) + "\n"] + lines[1:]), encoding="utf-8")
        code = main(["eval", "--config", trained["cfg"],
                     "--checkpoint", trained["checkpoint"],
                     "--override", f"data.corpus={corpus}"])
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_eval_builds_vocabulary_at_checkpoint_size(self, cfg_path, tmp_path, capsys):
        # trained at a vocabulary size the command does not repeat
        run = tmp_path / "run"
        assert main(["train", "--config", cfg_path, "--out-dir", str(run),
                     "--override", "data.vocab_size=200",
                     "--override", "train.max_epochs=1"]) == 0
        assert main(["eval", "--checkpoint", str(run / "model.npz")]) == 0
        assert main(["eval", "--checkpoint", str(run / "model.npz"),
                     "--override", "data.vocab_size=200"]) == 0
        capsys.readouterr()
        assert main(["generate", "--checkpoint", str(run / "model.npz"),
                     "--word", "check", "--context", "check it",
                     "--override", "data.vocab_size=300"]) == 1
        err = capsys.readouterr().err
        assert "data.vocab_size=300" in err and "data.vocab_size = 200" in err

    def test_generate_one_line_per_context(self, trained, capsys):
        assert main(["generate", "--config", trained["cfg"],
                     "--checkpoint", trained["checkpoint"],
                     "--word", "check",
                     "--context", "he cashed the check at the bank",
                     "--context", "please check the answer"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 2
        for rec in lines:
            assert rec["word"] == "check"
            assert set(rec) >= {"context", "output", "task"}

    @pytest.mark.parametrize("temperature", ["-1", "nan", "inf"])
    def test_generate_rejects_bad_temperature(self, trained, temperature, capsys):
        code = main(["generate", "--config", trained["cfg"],
                     "--checkpoint", trained["checkpoint"],
                     "--word", "check", "--context", "a check mark",
                     "--temperature", temperature])
        assert code == 1
        assert "--temperature" in capsys.readouterr().err

    def test_multi_task_usage_text_needed_to_train_not_to_eval(self, cfg_path, tmp_path,
                                                                capsys):
        rows = [json.loads(line) for line in
                open(resolve_data_path("", "mini_corpus.jsonl"), encoding="utf-8")]

        def args(*no_usage):  # mini-028 falls in the train split, mini-032 in test
            corpus = tmp_path / f"corpus-{len(no_usage)}.jsonl"
            corpus.write_text("".join(
                json.dumps({k: v for k, v in row.items()
                            if k != "usage" or row["id"] not in no_usage}) + "\n"
                for row in rows))
            return ["--config", cfg_path, "--override", "model.kind=hier-du",
                    "--override", f"data.corpus={corpus}"]

        run = tmp_path / "run"
        assert main(["train", "--out-dir", str(run)] + args("mini-028", "mini-032")) == 1
        assert "entry mini-028: no usage text" in capsys.readouterr().err
        assert not (run / "train_log.jsonl").exists()
        assert main(["train", "--out-dir", str(run)] + args("mini-032")) == 0
        manifest = run / "split_manifest.json"
        assert "mini-032" in json.loads(manifest.read_text())["test"]
        assert main(["eval", "--checkpoint", str(run / "model.npz"), "--manifest",
                     str(manifest), "--out-dir", str(tmp_path / "ev")]
                    + args("mini-032")) == 0

    def test_eval_names_overflowing_checkpoint(self, cfg_path, overflowing, capsys):
        code = main(["eval", "--config", cfg_path, "--checkpoint", overflowing])
        assert code == 1
        assert f"{overflowing}: the checkpoint's parameters give non-finite" in (
            capsys.readouterr().err)

    def test_generate_names_overflowing_checkpoint(self, cfg_path, overflowing, capsys):
        code = main(["generate", "--config", cfg_path, "--checkpoint", overflowing,
                     "--word", "check", "--context", "a check mark"])
        assert code == 1
        assert f"{overflowing}: the checkpoint's parameters give non-finite" in (
            capsys.readouterr().err)

    def test_generate_usage_needs_multi_task_model(self, trained, capsys):
        code = main(["generate", "--config", trained["cfg"],
                     "--checkpoint", trained["checkpoint"],
                     "--word", "check", "--context", "a check mark",
                     "--task", "usage"])
        assert code == 1
        err = capsys.readouterr().err
        assert trained["checkpoint"] in err and "single" in err and "usage" in err

    # Refusals that the checkpoint's header and the flags show: (command,
    # the refused input, a part of the message that names it)
    GENERATE = ["generate", "--word", "check", "--context", "check the oil"]
    HEADER_REFUSALS = {
        "eval-override": (["eval"], ["--override", "model.d_w=9"], "model.d_w=9"),
        "generate-override": (GENERATE, ["--override", "model.max_gen_len=2"],
                              "model.max_gen_len=2"),
        "temperature": (GENERATE, ["--temperature", "-1"], "--temperature"),
        "task": (GENERATE, ["--task", "usage"], "a single checkpoint has no 'usage' task"),
    }

    @pytest.mark.parametrize("case", HEADER_REFUSALS)
    def test_header_refusal_leaves_earlier_run_as_it_was(self, trained, tmp_path, capsys,
                                                          case):
        command, refused, named = self.HEADER_REFUSALS[case]
        out = tmp_path / "run"
        argv = command + ["--config", trained["cfg"], "--checkpoint", trained["checkpoint"],
                          "--out-dir", str(out)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(argv + refused) == 1
        assert named in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert not (out / "FAILED").exists()

    @pytest.mark.parametrize("case", HEADER_REFUSALS)
    def test_header_refusal_reads_no_array(self, trained, missing_array, capsys, case):
        command, refused, named = self.HEADER_REFUSALS[case]
        assert main(command + ["--config", trained["cfg"], "--checkpoint",
                               str(missing_array)] + refused) == 1
        err = capsys.readouterr().err
        assert named in err and "def.W_d" not in err

    @pytest.mark.parametrize("word, context, named", [
        ("check", "  ", "query: empty context"), (" ", "check the oil", "query: empty word")],
        ids=["context", "word"])
    def test_generate_refuses_blank_query_before_loading(self, missing_array, capsys,
                                                         word, context, named):
        assert main(["generate", "--checkpoint", str(missing_array), "--word", word,
                     "--context", "check it", "--context", context]) == 1
        err = capsys.readouterr().err
        assert named in err and "def.W_d" not in err

    def test_shape_fault_inside_a_command_is_internal(self, trained, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ShapeError("attention: v* must be (1, 8), got (2, 8)")

        monkeypatch.setattr(DefinitionModel, "generate", broken)
        code = main(["generate", "--config", trained["cfg"],
                     "--checkpoint", trained["checkpoint"],
                     "--word", "check", "--context", "a check mark"])
        assert code == 2
        assert "internal error: ShapeError" in capsys.readouterr().err


class TestMalformedInputFiles:
    """A malformed input file is a user error (exit 1) that names the file."""

    def run(self, argv, path, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1, err
        assert str(path) in err

    @pytest.mark.parametrize("key, line", [
        ("embeddings_file", "the 0.1 abc 0 0 0 0 0 0"),
        ("contextual_file", "adv.1 0.1 abc 0 0 0 0 0 0"),
        ("contextual_file", "query-0 nan 0.4 0 0 0 0 0 0"),
        ("contextual_file", ""),
    ])
    def test_vector_file(self, cfg_path, tmp_path, capsys, key, line):
        path = tmp_path / "vectors.txt"
        path.write_text(line + "\n")
        self.run(["train", "--config", cfg_path, "--out-dir", str(tmp_path / "run"),
                  "--override", "train.max_epochs=0",
                  "--override", "model.contextual_on=true",
                  "--override", f"data.{key}={path}"], path, capsys)

    @pytest.mark.parametrize("kind", [
        "text", "truncated", "npy", "header", "warm-start", "no-config", "bad-config",
        "config-type", "config-range", "config-oversized", "vocab-type", "vocab-repeat",
        "seed-type", "no-contextual-seed"])
    def test_checkpoint_file(self, trained, warm_start, tmp_path, capsys, kind):
        path = tmp_path / "bad.npz"
        meta, arrays = checkpoint._read(trained["checkpoint"])
        edits = {
            "config-type": lambda m: m["config"]["model"].update(d_w="abc"),
            "config-range": lambda m: m["config"]["train"].update(lr=-1.0),
            "config-oversized": lambda m: m["config"]["model"].update(d_w=10 ** 13),
            "vocab-type": lambda m: m["vocab_tokens"].append(7),
            "vocab-repeat": lambda m: m["vocab_tokens"].append(m["vocab_tokens"][-1]),
            "seed-type": lambda m: m.update(seed="0"),
            "no-contextual-seed": lambda m: m.pop("contextual_seed"),
        }
        if kind in edits:
            edits[kind](meta)
            checkpoint._write(path, meta, arrays)
        elif kind == "no-config":
            checkpoint._write(path, {"x": 1}, {})
        elif kind == "bad-config":
            checkpoint._write(path, {"config": {"model": {"d_w": "abc"}}}, {})
        elif kind == "text":
            path.write_text("# glossgen\n")
        elif kind == "truncated":
            data = open(trained["checkpoint"], "rb").read()
            path.write_bytes(data[:len(data) // 2])
        elif kind == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        elif kind == "header":
            with open(path, "wb") as fh:
                np.savez(fh, __meta__=np.array("{not json"))
        else:
            path = warm_start
        self.run(["generate", "--config", trained["cfg"], "--checkpoint", str(path),
                  "--word", "check", "--context", "a check mark"], path, capsys)

    def test_unreadable_checkpoint_leaves_no_run_directory(self, tmp_path, capsys):
        # the checkpoint's header is read while the run's config is resolved,
        # before the run directory is made
        path, out = tmp_path / "model.npz", tmp_path / "ev"
        path.write_text("# glossgen\n")
        self.run(["eval", "--checkpoint", str(path), "--out-dir", str(out)], path, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("edit", ["drop", "reverse"])
    def test_checkpoint_char_inventory(self, cfg_path, tmp_path, capsys, edit):
        cfg = set_key(load_config_file(cfg_path), "model.char_on", "true")
        model = DefinitionModel(cfg.model, Vocabulary(["check", "oil"]), seed=0)
        path, bad = tmp_path / "model.npz", tmp_path / "bad.npz"
        checkpoint.save_checkpoint(path, model, cfg)
        argv = ["generate", "--word", "check", "--context", "check the oil", "--checkpoint"]
        assert main(argv + [str(path)]) == 0
        meta, arrays = checkpoint._read(path)
        chars = meta.pop("char_vocab")
        if edit == "reverse":
            meta["char_vocab"] = chars[::-1]
        checkpoint._write(bad, meta, arrays)
        self.run(argv + [str(bad)], bad, capsys)

    def test_checkpoint_missing_array(self, trained, missing_array, capsys):
        self.run(["eval", "--config", trained["cfg"], "--checkpoint", str(missing_array)],
                 missing_array, capsys)

    def test_contextual_file_narrower_than_checkpoint(self, cfg_path, tmp_path, capsys):
        # the file is read at the checkpoint's width, 8, so a 4-wide file is
        # a malformed vector file
        entries, _ = load_corpus(resolve_data_path("", "mini_corpus.jsonl"))
        vec8, vec4, run = tmp_path / "vec8.txt", tmp_path / "vec4.txt", tmp_path / "run"
        vec8.write_text("".join(f"{e.entry_id}" + " 0.1" * 8 + "\n" for e in entries))
        vec4.write_text("".join(f"{e.entry_id}" + " 0.1" * 4 + "\n" for e in entries))
        assert main(["train", "--config", cfg_path, "--out-dir", str(run),
                     "--override", "model.contextual_on=true",
                     "--override", "train.max_epochs=1",
                     "--override", f"data.contextual_file={vec8}"]) == 0
        self.run(["eval", "--config", cfg_path, "--checkpoint", str(run / "model.npz"),
                  "--override", f"data.contextual_file={vec4}"], vec4, capsys)

    def test_eval_rejects_warm_start_file(self, trained, warm_start, capsys):
        self.run(["eval", "--config", trained["cfg"], "--checkpoint", str(warm_start)],
                 warm_start, capsys)

    def test_train_rejects_text_as_warm_start(self, cfg_path, tmp_path, capsys):
        path = tmp_path / "README.md"
        path.write_text("# glossgen\n")
        self.run(["train", "--config", cfg_path, "--out-dir", str(tmp_path / "run"),
                  "--override", "train.max_epochs=0", "--pretrained", str(path)],
                 path, capsys)

    def test_train_rejects_warm_start_without_fingerprint(self, cfg_path, tmp_path, capsys):
        path = tmp_path / "pre.npz"
        checkpoint._write(path, {"kind": checkpoint.WARM_START}, {})
        self.run(["train", "--config", cfg_path, "--out-dir", str(tmp_path / "run"),
                  "--override", "train.max_epochs=0", "--pretrained", str(path)],
                 path, capsys)

    @pytest.mark.parametrize("text", ["# glossgen\n", "[]", '{"train": 5}',
                                      '{"train": [], "valid": []}'])
    def test_stats_manifest(self, tmp_path, capsys, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        self.run(["data", "stats", "--manifest", str(path)], path, capsys)

    def test_stats_manifest_repeated_id(self, trained, tmp_path, capsys):
        manifest = json.loads(open(trained["manifest"]).read())
        manifest["test"].append(manifest["train"][0])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        self.run(["data", "stats", "--manifest", str(path)], path, capsys)

    def test_train_checks_manifest_before_fitting(self, cfg_path, trained, tmp_path, capsys):
        manifest = json.loads(open(trained["manifest"]).read())
        del manifest["test"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        run = tmp_path / "run"
        self.run(["train", "--config", cfg_path, "--out-dir", str(run),
                  "--manifest", str(path)], path, capsys)
        assert not (run / "model.npz").exists()


class TestAblate:
    def test_grid_runs_and_tabulates(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "abl"
        assert main(["ablate", "--config", cfg_path, "--seed", "0",
                     "--out-dir", str(out)]) == 0
        rows = [json.loads(l)
                for l in (out / "ablation.jsonl").read_text().splitlines()[1:]]
        assert len(rows) == 24
        combos = {(r["gate"], r["features"], r["s0"]) for r in rows}
        assert len(combos) == 24
        assert all(np.isfinite(r["train_loss"]) for r in rows)
        table = (out / "ablation.txt").read_text()
        assert table.startswith("# config ")
        record = json.loads((out / "run.json").read_text())
        first = json.loads((out / "ablation.jsonl").read_text().splitlines()[0])
        assert first == {k: record[k] for k in ("command", "config_digest")}
        assert "--out-dir" not in first["command"]

    def test_each_row_reads_vector_file_by_its_own_config(self, cfg_path, tmp_path, capsys):
        # the command's config reads no contextual feature, but the "+ctx" rows
        # do, at d_e 8: a 4-wide file stops the first of them, after every
        # "base" row has trained without opening it
        entries, _ = load_corpus(resolve_data_path("", "mini_corpus.jsonl"))
        vectors = tmp_path / "vec4.txt"
        vectors.write_text("".join(f"{e.entry_id}" + " 0.1" * 4 + "\n" for e in entries))
        code = main(["ablate", "--config", cfg_path, "--out-dir", str(tmp_path / "abl"),
                     "--override", f"data.contextual_file={vectors}"])
        out, err = capsys.readouterr()
        assert code == 1, err
        assert str(vectors) in err and "internal error" not in err
        rows = [line for line in out.splitlines() if line.startswith("gate=")]
        assert len(rows) == len(S0_VARIANTS)
        assert all("features=base" in row for row in rows)

    def test_epochs_set_max_epochs(self, cfg_path, tmp_path, capsys):
        # --epochs is the run's train.max_epochs, whatever the config file says
        assert "train.max_epochs = 2" in Path(cfg_path).read_text()
        out = tmp_path / "abl"
        assert main(["ablate", "--config", cfg_path, "--out-dir", str(out),
                     "--epochs", "1"]) == 0
        assert "train.max_epochs = 1\n" in (out / "config.txt").read_text()

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_epochs_below_one_is_user_error(self, cfg_path, tmp_path, capsys, epochs):
        out = tmp_path / "abl"
        assert main(["ablate", "--config", cfg_path, "--out-dir", str(out),
                     "--epochs", epochs]) == 1
        err = capsys.readouterr().err
        assert "--epochs" in err and "internal error" not in err
        assert not out.exists()  # rejected while parsing: no run directory, no FAILED


class TestErrorsAndPaths:
    def test_unknown_flag_is_user_error(self, capsys):
        assert main(["data", "validate", "--bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_override_is_user_error(self, capsys):
        assert main(["data", "validate", "--override", "model.nope=1"]) == 1
        assert "nope" in capsys.readouterr().err

    def test_split_ratios_need_three_parts(self, tmp_path, capsys):
        assert main(["data", "split", "--out-dir", str(tmp_path / "s"),
                     "--override", "data.split_ratios=0.5,0.5"]) == 1
        assert "3 parts" in capsys.readouterr().err

    @pytest.mark.parametrize("args, key", [
        (["--override", "model.d_w=abc"], "model.d_w"),
        (["--override", "data.split_ratios=1.5,-0.25,-0.25"], "data.split_ratios"),
        (["--override", "data.split_ratios=nan,nan,nan"], "data.split_ratios"),
        (["--seed", "-1"], "train.seed"),
        (["--override", "model.temperature=nan"], "model.temperature"),
        (["--override", "data.corpus=a\x00b"], "data.corpus"),
        (["--override", "train.lr=nan"], "train.lr"),
        (["--override", "train.lr=inf"], "train.lr"),
        (["--override", "train.eps=0"], "train.eps"),
        (["--override", "train.clip_norm=0"], "train.clip_norm"),
        (["--override", "train.clip_norm=-5"], "train.clip_norm"),
        (["--override", "model.temperature=inf"], "model.temperature"),
    ])
    def test_bad_value_names_key(self, tmp_path, capsys, args, key):
        assert main(["data", "split", "--out-dir", str(tmp_path / "s")] + args) == 1
        assert key in capsys.readouterr().err

    def test_negative_pretrain_epochs_rejected(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "pre"
        assert main(["pretrain", "--config", cfg_path, "--out-dir", str(out),
                     "--override", "train.pretrain_epochs=-1"]) == 1
        assert "train.pretrain_epochs" in capsys.readouterr().err
        assert not (out / "pretrained.npz").exists()

    def test_non_utf8_corpus_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"id": "\xff\xfe"}\n')
        assert main(["data", "validate", "--override", f"data.corpus={bad}"]) == 1
        assert "utf-8" in capsys.readouterr().err

    @pytest.mark.parametrize("d_w", [10 ** 13, 2 ** 62, 2 ** 70])
    def test_model_larger_than_memory_is_user_error(self, tmp_path, capsys, d_w):
        # numpy would refuse each of these before touching memory, so even a
        # missing check allocates nothing here
        code = main(["train", "--out-dir", str(tmp_path / "run"),
                     "--override", "model.kind=single", "--override", f"model.d_w={d_w}"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error:") and "bytes" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_memory_check_counts_every_copy(self, trained, tmp_path, capsys,
                                            monkeypatch, command):
        # The old check counted one copy of the parameters and the frozen
        # table. Training also holds gradients and Adam's m and v; loading a
        # checkpoint holds the file's arrays beside the model's. A machine
        # between the two counts must be refused, with nothing large allocated.
        model, cfg, _ = checkpoint.load_checkpoint(trained["checkpoint"])
        params = expected_param_count(cfg.model, len(model.vocab))
        frozen = len(model.vocab) * cfg.model.d_w
        old = 8 * (params + frozen)
        new = 8 * (4 * params + frozen if command == "train" else 2 * (params + frozen))
        real = os.sysconf
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": (old + new) // 2}
        monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or real(name))
        argv = [command, "--config", trained["cfg"], "--seed", "0",
                "--manifest", trained["manifest"], "--out-dir", str(tmp_path / "run")]
        if command == "eval":
            argv += ["--checkpoint", trained["checkpoint"]]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error:") and f"needs {new} bytes" in err

    def test_bad_config_value_is_user_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.kind = frobnicate\n")
        assert main(["data", "validate", "--config", str(cfg)]) == 1

    def test_env_var_resolves_relative_paths(self, tmp_path, monkeypatch):
        target = tmp_path / "corpora" / "c.jsonl"
        target.parent.mkdir()
        target.write_text("")
        monkeypatch.setenv("GLOSSGEN_DATA_DIR", str(tmp_path))
        assert resolve_data_path("corpora/c.jsonl") == str(target)

    def test_env_var_miss_names_both_places(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GLOSSGEN_DATA_DIR", str(tmp_path))
        with pytest.raises(Exception, match="GLOSSGEN_DATA_DIR"):
            resolve_data_path("nowhere.jsonl")

    def test_empty_path_uses_bundled_asset(self):
        path = resolve_data_path("", "mini_corpus.jsonl")
        assert path.endswith("mini_corpus.jsonl") and os.path.exists(path)


CONFIG_KEYS = [f"{section}.{f.name}" for section in ("model", "train", "data")
               for f in fields(getattr(default_config(), section))]
CONFIG_VALUES = st.one_of(
    st.text(max_size=24),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70).map(str),
    st.floats().map(repr),
    st.lists(st.floats(), min_size=1, max_size=4).map(lambda xs: ",".join(map(repr, xs))),
    st.sampled_from(["true", "off", "hier-du", "word", "0.5,0.5,0"]),
)


@pytest.mark.parametrize("key", CONFIG_KEYS)
@settings(max_examples=30, deadline=None)
@given(value=CONFIG_VALUES)
def test_any_config_value_exits_zero_or_one(tmp_path_factory, key, value):
    """Whatever a config key is set to, the CLI runs or reports a user error."""
    out = tmp_path_factory.getbasetemp() / "any-config-value"
    code = main(["data", "split", "--out-dir", str(out), "--override", f"{key}={value}"])
    assert code in (0, 1)


HIER_MICRO_CFG = """
model.kind = hier-du
model.d_w = 8
model.d_h = 4
model.d_s = 8
model.d_attn = 8
model.d_e = 8
model.max_gen_len = 4
train.max_epochs = 1
"""

EDGE_OVERRIDES = [
    "model.max_context_len=1", "model.temperature=1e-320", "model.temperature=1e300",
    "model.n_decoder_layers=1", "model.d_e=1", "model.d_attn=1",
    "model.s0_variant=zeros", "model.gate_on=false",
    "train.batch_size=100000", "train.clip_norm=1e-320", "train.clip_norm=1e300",
    "train.eps=1e-320", "train.eps=1e300", "train.beta2=0", "train.patience=0",
    "train.lr=1e-320", "train.lr=1e300",
    "data.vocab_size=4", "data.split_ratios=0,0,1", "data.split_ratios=1,0,0",
]


@pytest.mark.parametrize("override", EDGE_OVERRIDES)
def test_edge_config_value_trains_or_exits_one(tmp_path, override):
    """Extreme values the validator accepts run through a whole train."""
    cfg = tmp_path / "hier.cfg"
    cfg.write_text(HIER_MICRO_CFG)
    code = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run"),
                 "--override", override])
    assert code in (0, 1)


EDITS = st.one_of(st.binary(max_size=4),
                  st.sampled_from([b"nan", b"inf", b"abc", b"-1", b"1e999", b"0", b" ",
                                   b"\n", b"=", b",", b'"', b"{", b"]", b"\xff"]))


def file_variants(valid: bytes):
    """Random bytes, truncations and one-spot edits of a valid file."""
    at = st.integers(0, len(valid))
    return st.one_of(
        st.binary(max_size=64),
        at.map(lambda n: valid[:n]),
        st.tuples(at, st.integers(0, 4), EDITS).map(
            lambda t: valid[:t[0]] + t[2] + valid[t[0] + t[1]:]),
    )


@pytest.fixture(scope="module")
def input_files(cfg_path, trained, warm_start, tmp_path_factory):
    """Per file input: a valid file's bytes and a command reading ``{path}``."""
    read = lambda path: Path(path).read_bytes()
    asset = lambda name: read(resolve_data_path("", name))
    entries, _ = load_corpus(resolve_data_path("", "mini_corpus.jsonl"))
    vector = "0.25 -1 3e-2 0 1 0.5 -0.125 2"
    return {
        "data.corpus": (asset("mini_corpus.jsonl"),
                        ["train", "--override", "data.corpus={path}"]),
        "data.lm_corpus": (asset("lm_corpus.txt"),
                           ["pretrain", "--override", "data.lm_corpus={path}"]),
        "data.embeddings_file": ("".join(f"{w} {vector}\n" for w in ("the", "a", "check")
                                         ).encode(),
                                 ["train", "--override", "data.embeddings_file={path}"]),
        "data.contextual_file": ("".join(f"{e.entry_id} {vector}\n" for e in entries
                                         ).encode(),
                                 ["train", "--override", "model.contextual_on=true",
                                  "--override", "data.contextual_file={path}"]),
        "--config": (MICRO_CFG.encode(), ["train", "--config", "{path}"]),
        "--manifest": (read(trained["manifest"]), ["train", "--manifest", "{path}"]),
        "--checkpoint": (read(trained["checkpoint"]),
                         ["generate", "--checkpoint", "{path}", "--word", "check",
                          "--context", "a check mark"]),
        "--pretrained": (read(warm_start), ["train", "--pretrained", "{path}"]),
        "--stopwords": (asset("stopwords.txt"), ["data", "vocab", "--stopwords", "{path}"]),
    }


@pytest.mark.parametrize("name", ["data.corpus", "data.lm_corpus", "data.embeddings_file",
                                  "data.contextual_file", "--config", "--manifest",
                                  "--checkpoint", "--pretrained", "--stopwords"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_any_input_file_exits_zero_or_one(input_files, cfg_path, tmp_path_factory,
                                          name, data):
    """Whatever bytes an input file holds, the CLI runs (micro dims, no
    epochs) or reports a user error."""
    base = tmp_path_factory.getbasetemp() / "any-input-file"
    base.mkdir(exist_ok=True)
    valid, command = input_files[name]
    path = base / "input"
    path.write_bytes(data.draw(file_variants(valid)))
    argv = [arg.format(path=path) for arg in command]
    argv += ["--out-dir", str(base / "run"), "--override", "train.max_epochs=0",
             "--override", "train.pretrain_epochs=0"]
    if name != "--config":
        argv += ["--config", cfg_path]
    assert main(argv) in (0, 1)
