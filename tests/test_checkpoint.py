import json
import os
import re
from dataclasses import asdict

import numpy as np
import pytest

from glossgen.checkpoint import (FORMAT_VERSION, META_KEY, CheckpointError,
                                 load_checkpoint, load_pretrained, read_config,
                                 save_checkpoint, save_pretrained)
from glossgen.config import (Config, ConfigError, DataConfig, ModelConfig, TrainConfig,
                             config_from_dict)
from glossgen.data import DictionaryEntry, Vocabulary
from glossgen.embeddings import CHARS
from glossgen.models import DefinitionModel

WORDS = ["check", "run", "walk", "cat", "dog", "sun", "tree", "bird",
         "fish", "rock", "rain", "wind", "fire", "snow", "moon", "star"]


def micro_cfg(**kw):
    base = dict(d_w=8, d_h=4, d_s=8, d_attn=8, d_e=8, max_gen_len=8,
                char_on=False, contextual_on=False)
    base.update(kw)
    return ModelConfig(**base)


def full_cfg(**kw):
    return Config(model=micro_cfg(**kw), train=TrainConfig(max_epochs=2),
                  data=DataConfig())


def entry(word="check", definition=("a", "small", "mark")):
    context = ["the", word, "is", "here"]
    return DictionaryEntry(
        entry_id=f"{word}.1", word=word, pos="n", sense_id="s1",
        definition=list(definition), contexts=[context],
        context_target_indices=[1], usage=None, usage_target_index=None)


def build(seed=0, **kw):
    return DefinitionModel(micro_cfg(**kw), Vocabulary(WORDS), seed=seed)


def write_vectors(path, value=1.0):
    """An 8-wide contextual vector file holding ``entry()``'s vector."""
    path.write_text(f"{entry().entry_id}" + f" {value}" * 8 + "\n")
    return path


def _tamper(path, new_path, **meta_changes):
    """Rewrite a checkpoint with edited header fields."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data[META_KEY]))
        arrays = {k: data[k] for k in data.files if k != META_KEY}
    meta.update(meta_changes)
    with open(new_path, "wb") as fh:
        np.savez(fh, **{META_KEY: np.array(json.dumps(meta))}, **arrays)


def refusal(path, *args) -> str:
    """The message with which both ``load_checkpoint`` and ``read_config``
    refuse ``path``: the two judge a header alike."""
    messages = []
    for read in (load_checkpoint, read_config):
        with pytest.raises(CheckpointError) as info:
            read(path, *args)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    return messages[0]


class TestRoundTrip:
    def test_state_is_bit_exact(self, tmp_path):
        model = build(seed=3)
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, full_cfg())
        loaded, _, _ = load_checkpoint(path)
        orig = model.state_arrays()
        new = loaded.state_arrays()
        assert sorted(orig) == sorted(new)
        for name in orig:
            assert np.array_equal(orig[name], new[name]), name

    def test_loaded_model_holds_no_gradients(self, tmp_path):
        # a loaded model holds one copy of its parameters, as
        # check_fits_memory counts, not a zeroed gradient beside each
        path = tmp_path / "m.npz"
        kw = {"kind": "hier-du", "char_on": True}
        save_checkpoint(path, build(seed=3, **kw), full_cfg(**kw))
        loaded, _, _ = load_checkpoint(path)
        assert loaded.params() and all(p.grad is None for p in loaded.params().values())

    @pytest.mark.parametrize("contextual_on", [False, True])
    def test_forward_identical_after_reload(self, tmp_path, contextual_on):
        kw = dict(kind="hier-du", s0_variant="word", contextual_on=contextual_on)
        model = build(seed=5, **kw)
        e = entry()
        e.usage = ["the", "check", "works"]
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, full_cfg(**kw))
        loaded, _, _ = load_checkpoint(path)
        a = model.forward_batch([e])
        b = loaded.forward_batch([e])
        assert a.nll == b.nll

    def test_config_round_trips(self, tmp_path):
        cfg = full_cfg(kind="parallel", gate_on=False)
        model = build(seed=1, kind="parallel", gate_on=False)
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, cfg)
        _, cfg2, meta = load_checkpoint(path)
        assert asdict(cfg2) == asdict(cfg)
        assert meta["seed"] == 1

    def test_mutating_original_does_not_touch_reload(self, tmp_path):
        model = build(seed=0)
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, full_cfg())
        loaded, _, _ = load_checkpoint(path)
        ref = loaded.params()["attn.W_Q"].data.copy()
        model.params()["attn.W_Q"].data[...] = 99.0
        assert np.array_equal(loaded.params()["attn.W_Q"].data, ref)

    def test_extra_meta_preserved(self, tmp_path):
        model = build()
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, full_cfg(), extra_meta={"valid_ppl": 2.5})
        assert load_checkpoint(path)[2]["valid_ppl"] == 2.5

    def test_header_with_stopwords_field_loads(self, tmp_path):
        """Checkpoints written before ``data.stopwords`` was dropped still load."""
        cfg = full_cfg()
        path, old = tmp_path / "m.npz", tmp_path / "old.npz"
        save_checkpoint(path, build(), cfg)
        payload = asdict(cfg)
        payload["data"]["stopwords"] = ""
        _tamper(path, old, config=payload)
        _, cfg2, _ = load_checkpoint(old)
        assert asdict(cfg2) == asdict(cfg)

    @pytest.mark.parametrize("kw", [{}, {"kind": "hier-du", "char_on": True}])
    def test_read_config_is_the_loaded_config(self, tmp_path, kw):
        path = tmp_path / "m.npz"
        save_checkpoint(path, build(**kw), full_cfg(**kw))
        assert read_config(path) == load_checkpoint(path)[1]

    def test_read_config_reads_no_array(self, tmp_path):
        # the header alone: a checkpoint holding no array still gives it
        path, bad = tmp_path / "m.npz", tmp_path / "bad.npz"
        save_checkpoint(path, build(), full_cfg())
        with np.load(path, allow_pickle=False) as data:
            np.savez(bad, **{META_KEY: data[META_KEY]})
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(bad)
        assert read_config(bad) == full_cfg()


class TestGuards:
    def test_fingerprint_mismatch_rejected(self, tmp_path):
        model = build()
        path, bad = tmp_path / "m.npz", tmp_path / "bad.npz"
        save_checkpoint(path, model, full_cfg())
        _tamper(path, bad, vocab_fingerprint="0" * 64)
        assert refusal(bad) == f"{bad}: vocabulary fingerprint mismatch"

    def test_future_format_version_rejected(self, tmp_path):
        model = build()
        path, bad = tmp_path / "m.npz", tmp_path / "bad.npz"
        save_checkpoint(path, model, full_cfg())
        _tamper(path, bad, format_version=FORMAT_VERSION + 1)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bad)

    def test_contextual_kind_mismatch_rejected(self, tmp_path):
        # a run on deterministic-test features is not scored on file-backed ones
        cfg = full_cfg(contextual_on=True)
        model = DefinitionModel(cfg.model, Vocabulary(WORDS), seed=0)
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, cfg)
        vectors = write_vectors(tmp_path / "ctx.txt")
        assert re.search("deterministic-test.*file-backed", refusal(path, vectors))
        # a model that does not read the features loads with any provider
        save_checkpoint(path, build(), full_cfg())
        load_checkpoint(path, vectors)
        read_config(path, vectors)

    def test_file_backed_header_loads_without_file_when_unread(self, tmp_path):
        # a model reading no contextual feature loads, and runs the same,
        # without the vector file its run named; one reading it does not
        vectors = write_vectors(tmp_path / "ctx.txt")
        model = DefinitionModel(micro_cfg(), Vocabulary(WORDS), seed=0, contextual_file=vectors)
        path, old = tmp_path / "m.npz", tmp_path / "old.npz"
        save_checkpoint(path, model, full_cfg())
        # such a model builds no file-backed provider; earlier writers
        # recorded the one they were given
        _tamper(path, old, contextual_kind="file-backed")
        loaded, _, meta = load_checkpoint(old)
        assert meta["contextual_kind"] == "file-backed"
        assert (loaded.forward_batch([entry()]).loss.data
                == model.forward_batch([entry()]).loss.data)
        cfg = full_cfg(contextual_on=True)
        model = DefinitionModel(cfg.model, Vocabulary(WORDS), seed=0, contextual_file=vectors)
        save_checkpoint(path, model, cfg)
        assert "file-backed contextual provider; supply" in refusal(path)

    def test_vector_file_read_at_stored_width_when_read(self, tmp_path):
        # a vector file's path is read at the stored d_e, only by a model reading it
        vectors = write_vectors(tmp_path / "ctx.txt", value=0.5)
        cfg = full_cfg(contextual_on=True)
        model = DefinitionModel(cfg.model, Vocabulary(WORDS), seed=0, contextual_file=vectors)
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, cfg)
        loaded, _, _ = load_checkpoint(path, vectors)
        assert (loaded.forward_batch([entry()]).loss.data
                == model.forward_batch([entry()]).loss.data)
        save_checkpoint(path, build(), full_cfg())
        load_checkpoint(path, tmp_path / "absent.txt")

    @pytest.mark.parametrize("contextual_on", [False, True])
    def test_contextual_seed_apart_from_model_seed(self, tmp_path, contextual_on):
        # the deterministic provider is seeded with the model seed; a header
        # saying otherwise would load with other features than the run's
        cfg = full_cfg(contextual_on=contextual_on)
        path, bad = tmp_path / "m.npz", tmp_path / "bad.npz"
        save_checkpoint(path, build(seed=2, contextual_on=contextual_on), cfg)
        _tamper(path, bad, contextual_seed=7)
        if contextual_on:
            assert re.match(f"{re.escape(str(bad))}: .*'contextual_seed'", refusal(bad))
        else:
            assert load_checkpoint(bad)[0].seed == 2
            assert read_config(bad) == cfg

    def test_repeated_vocab_token_names_path(self, tmp_path):
        path, bad = tmp_path / "m.npz", tmp_path / "bad.npz"
        save_checkpoint(path, build(), full_cfg())
        tokens = build().vocab.id_to_token
        _tamper(path, bad, vocab_tokens=tokens + [tokens[-1]])
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(bad))}: .*repeats"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("char_vocab", [None, "abcdefghijklmnopqrstuvwxyz",
                                            CHARS[:-1], CHARS[::-1]])
    def test_char_inventory_checked_when_read(self, tmp_path, char_vocab):
        # a char-on model's table rows are indexed by the stored inventory,
        # so one that is not this program's would map characters to other rows
        path, bad = tmp_path / "m.npz", tmp_path / "bad.npz"
        save_checkpoint(path, build(char_on=True), full_cfg(char_on=True))
        _tamper(path, bad, char_vocab=char_vocab)
        for read in (load_checkpoint, read_config):
            with pytest.raises(CheckpointError,
                               match=f"^{re.escape(str(bad))}: .*'char_vocab'"):
                read(bad)
        # a model without the char encoder reads no inventory
        save_checkpoint(path, build(), full_cfg())
        _tamper(path, bad, char_vocab=char_vocab)
        load_checkpoint(bad)

    def test_model_too_large_to_load(self, tmp_path, monkeypatch):
        # loading holds two copies of every array: the file's and the model's
        path = tmp_path / "m.npz"
        save_checkpoint(path, build(), full_cfg())
        real = os.sysconf
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 1000}
        monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or real(name))
        assert re.match(f"{re.escape(str(path))}: the model needs [0-9]+ bytes to load, "
                        "more than this machine's 1000 bytes", refusal(path))

    @pytest.mark.parametrize("edit, named", [
        (lambda m: m["config"].pop("train"), "config section 'train' missing"),
        (lambda m: m["config"].update(model=5), "config section 'model' missing"),
        (lambda m: m["config"]["model"].update(d_z=8), "unknown config key 'model.d_z'"),
        (lambda m: m["config"]["model"].update(char_on="yes"),
         "model.char_on: expected bool, got 'yes'"),
        (lambda m: m.update(seed=-1), "header field 'seed' is negative"),
    ], ids=["no-section", "section", "key", "value", "negative"])
    def test_malformed_stored_config(self, tmp_path, edit, named):
        path, bad = tmp_path / "m.npz", tmp_path / "bad.npz"
        save_checkpoint(path, build(), full_cfg())
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data[META_KEY]))
        edit(meta)
        _tamper(path, bad, **meta)
        assert str(bad) in refusal(bad) and named in refusal(bad)

    def test_stored_config_must_be_an_object(self):
        # a header's 'config' field is checked to be one first
        with pytest.raises(ConfigError, match="config must be an object"):
            config_from_dict([])

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "not.npz"
        with open(path, "wb") as fh:
            np.savez(fh, a=np.zeros(3))
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match="header"):
            load_pretrained(path, build())


class TestAtomicWrite:
    @pytest.mark.parametrize("save", ["checkpoint", "pretrained"])
    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch, save):
        def write(path, model):
            if save == "checkpoint":
                save_checkpoint(path, model, full_cfg())
            else:
                save_pretrained(path, model)

        path = tmp_path / "m.npz"
        write(path, build(seed=1))
        before = path.read_bytes()

        def savez_then_crash(fh, **arrays):
            fh.write(b"partial archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_then_crash)
        with pytest.raises(OSError, match="disk full"):
            write(path, build(seed=2))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.npz"]
        if save == "checkpoint":
            loaded, _, _ = load_checkpoint(path)
            assert loaded.seed == 1
        else:
            assert load_pretrained(path, build(seed=3))


class TestPretrained:
    def test_round_trip_restores_decoder_branch(self, tmp_path):
        src = build(seed=7)
        dst = build(seed=8)
        path = tmp_path / "pre.npz"
        save_pretrained(path, src)
        names = load_pretrained(path, dst)
        assert "emb.specials" in names and any(n.startswith("def.") for n in names)
        for name, t in src.pretrainable_params().items():
            assert np.array_equal(t.data, dst.pretrainable_params()[name].data)

    def test_encoder_untouched_by_warm_start(self, tmp_path):
        src, dst = build(seed=7), build(seed=8)
        before = dst.params()["enc.fwd.W_z"].data.copy()
        path = tmp_path / "pre.npz"
        save_pretrained(path, src)
        load_pretrained(path, dst)
        assert np.array_equal(dst.params()["enc.fwd.W_z"].data, before)

    def test_width_mismatch_rejected(self, tmp_path):
        src = build(seed=0)
        dst = DefinitionModel(micro_cfg(d_s=12), Vocabulary(WORDS), seed=0)
        path = tmp_path / "pre.npz"
        save_pretrained(path, src)
        with pytest.raises(CheckpointError):
            load_pretrained(path, dst)

    def test_vocab_mismatch_rejected(self, tmp_path):
        src = build(seed=0)
        dst = DefinitionModel(micro_cfg(), Vocabulary(WORDS[:8]), seed=0)
        path = tmp_path / "pre.npz"
        save_pretrained(path, src)
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_pretrained(path, dst)

    @pytest.mark.parametrize("fields", [{}, {"vocab_fingerprint": None},
                                        {"vocab_fingerprint": 5}])
    def test_header_without_fingerprint_rejected(self, tmp_path, fields):
        path = tmp_path / "pre.npz"
        meta = {"kind": "pretrained-decoder", "format_version": FORMAT_VERSION, **fields}
        with open(path, "wb") as fh:
            np.savez(fh, **{META_KEY: np.array(json.dumps(meta))})
        with pytest.raises(CheckpointError) as info:
            load_pretrained(path, build())
        assert str(path) in str(info.value) and "'vocab_fingerprint'" in str(info.value)

    def test_full_checkpoint_is_not_a_pretrained_file(self, tmp_path):
        model = build()
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, full_cfg())
        with pytest.raises(CheckpointError, match="pretrained"):
            load_pretrained(path, model)
