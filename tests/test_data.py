import ast
import json
from pathlib import Path

import pytest

from glossgen import data as D
from glossgen.cli import asset_path, main
from glossgen.config import config_digest, default_config, set_key


def make_record(**overrides):
    record = {
        "id": "e1",
        "word": "check",
        "pos": "noun",
        "sense_id": "check.n.01",
        "definition": "an inspection for accuracy",
        "contexts": ["he paid the checks"],
        "usage": "please check the totals",
    }
    record.update(overrides)
    return record


def write_corpus(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    return path


class TestInflection:
    def test_exact_match_wins(self):
        assert D.find_target_occurrence(["a", "check", "checks"], "check") == 1

    def test_plural_stripping(self):
        toks = D.tokenize("he paid the checks")
        assert D.find_target_occurrence(toks, "check") == 3

    def test_soldiers(self):
        toks = D.tokenize("the soldiers under his command")
        assert D.find_target_occurrence(toks, "soldier") == 1

    def test_ing_and_est(self):
        assert D.find_target_occurrence(["walking"], "walk") == 0
        assert D.find_target_occurrence(["tallest"], "tall") == 0

    def test_absent(self):
        assert D.find_target_occurrence(["nothing", "here"], "check") is None


class TestLoadCorpus:
    def test_basic_load(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [make_record()])
        entries, report = D.load_corpus(path)
        assert report.loaded == 1 and report.n_malformed == 0
        e = entries[0]
        assert e.word == "check"
        assert e.definition == ["an", "inspection", "for", "accuracy"]
        assert e.context_target_indices == [3]
        assert e.usage_target_index == 1

    def test_lowercasing(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [make_record(word="Check", contexts=["He PAID the Checks"])])
        entries, _ = D.load_corpus(path)
        assert entries[0].word == "check"
        assert entries[0].contexts[0] == ["he", "paid", "the", "checks"]

    def test_missing_definition_rejected(self, tmp_path):
        bad = make_record()
        del bad["definition"]
        path = write_corpus(tmp_path / "c.jsonl", [make_record(id="ok"), bad])
        entries, report = D.load_corpus(path)
        assert len(entries) == 1
        assert report.n_malformed == 1
        assert "definition" in report.malformed[0][1]

    def test_non_alphabetic_word_rejected(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl", [make_record(), make_record(id="e2", word="check-in")])
        entries, report = D.load_corpus(path)
        assert len(entries) == 1 and report.n_malformed == 1

    def test_context_count_bounds(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [make_record(), make_record(id="e2", contexts=["a b", "c d", "e f", "g h"])])
        _, report = D.load_corpus(path)
        assert report.n_malformed == 1

    @pytest.mark.parametrize("field, value", [
        ("definition", None), ("definition", ["a", "mark"]), ("contexts", [["he", "checks"]]),
        ("usage", ["a", "check"]), ("usage", 5), ("sense_id", None), ("pos", {"n": 1}),
        ("id", 3), ("word", True), ("domain", 2)])
    def test_non_string_field_is_malformed(self, tmp_path, field, value):
        # a field's Python text (None, ['a', 'mark']) is never tokenized
        path = write_corpus(tmp_path / "c.jsonl",
                            [make_record(), make_record(**{"id": "e2", field: value})])
        entries, report = D.load_corpus(path)
        assert [e.entry_id for e in entries] == ["e1"]
        assert report.malformed[0][0] == 2 and repr(field) in report.malformed[0][1]

    def test_optional_fields_may_be_null_or_absent(self, tmp_path):
        bare = make_record(id="e2")
        del bare["usage"]
        path = write_corpus(tmp_path / "c.jsonl", [make_record(usage=None, domain=None), bare])
        entries, report = D.load_corpus(path)
        assert report.n_malformed == 0
        assert [(e.usage, e.domain) for e in entries] == [(None, None), (None, None)]

    def test_absent_target_counted(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl", [make_record(contexts=["totally unrelated words"])])
        entries, report = D.load_corpus(path)
        assert entries[0].context_target_indices == [None]
        assert report.absent_context_targets == 1

    def test_bad_json_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(make_record()) + "\n")
            fh.write("{not json\n")
            fh.write(json.dumps(make_record(id="e2")) + "\n")
        entries, report = D.load_corpus(path)
        assert len(entries) == 2 and report.n_malformed == 1

    def test_repeated_id_is_malformed_and_first_kept(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [
            make_record(id="e1"),
            make_record(id="e2", word="lamp", contexts=["a lamp"]),
            make_record(id="e1", word="lamp", contexts=["the lamp is on"])])
        entries, report = D.load_corpus(path)
        assert [(e.entry_id, e.word) for e in entries] == [("e1", "check"), ("e2", "lamp")]
        assert report.loaded == 2
        assert report.malformed == [(3, "id 'e1' repeats line 1")]

    def test_majority_malformed_is_hard_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with open(path, "w") as fh:
            fh.write("junk\n" * 3)
            fh.write(json.dumps(make_record()) + "\n")
        with pytest.raises(D.CorpusError):
            D.load_corpus(path)


class TestVocabulary:
    def test_specials_and_frequency_order(self):
        v = D.build_vocab(["a", "a", "b"], k=6)
        assert v.id_to_token[:4] == ["<pad>", "<unk>", "<bos>", "<eos>"]
        assert v.token_to_id["a"] == 4
        assert v.token_to_id["b"] == 5

    def test_lexicographic_tie_break(self):
        v = D.build_vocab(["c", "b", "z", "z"], k=7)
        assert v.id_to_token[4:] == ["z", "b", "c"]

    def test_truncates_to_k(self):
        v = D.build_vocab(["a", "a", "b", "c"], k=5)
        assert len(v) == 5 and "a" in v and "b" not in v

    def test_filters_non_alphabetic_and_stopwords(self):
        v = D.build_vocab(["don't", "the", "cat", "3rd"], k=8, stopwords={"the"})
        assert v.id_to_token[4:] == ["cat"]

    def test_k_too_small(self):
        with pytest.raises(D.CorpusError):
            D.build_vocab(["a"], k=3)

    def test_empty_stream(self):
        with pytest.raises(D.CorpusError):
            D.build_vocab(["1", "2"], k=10)

    def test_encode_decode(self):
        v = D.build_vocab(["cat", "sat"], k=6)
        ids = v.encode(["cat", "dog", "sat"])
        assert ids[1] == v.unk_id
        assert v.decode(ids) == ["cat", "<unk>", "sat"]


class TestStableSeed:
    # Every sampled token of `evaluate` and every deterministic contextual
    # vector follows from these values, so they must not drift.
    def test_pinned_values(self):
        assert D.stable_seed(0, "mini-001") == 15675695350899264315
        assert D.stable_seed(7, "query-0#usage") == 6599080058863597878
        assert D.stable_seed(123, "é") == 12206518619071985475
        assert D.stable_seed(0, "check", "the", "is") == 17915997345362770075
        assert D.stable_seed(3, "naïve", "", "") == 10655668103367429859


class TestJsonText:
    def test_only_json_writer(self):
        # every JSON file, record and checkpoint header is written by
        # json_text: no other json.dump or json.dumps call in the package
        calls = []
        for path in sorted(Path(D.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for top in tree.body:
                for node in ast.walk(top):
                    if isinstance(node, ast.ImportFrom) and node.module == "json":
                        calls.append((path.name, "from json import"))
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr in ("dump", "dumps")
                            and isinstance(node.func.value, ast.Name)
                            and node.func.value.id == "json"):
                        calls.append((path.name, getattr(top, "name", None)))
        assert calls == [("data.py", "json_text")]

    def test_config_digest_pinned(self):
        # run records of different versions compare by this digest
        cfg = default_config()
        assert config_digest(cfg) == (
            "03e4ea428aaae8fa1ec9fb39ea3e4230a2f8fdda95d3dc3f8a117d6ea9b57e42")
        cfg = set_key(set_key(cfg, "model.kind", "hier-du"),
                      "data.split_ratios", "0.7,0.15,0.15")
        assert config_digest(cfg) == (
            "ccb36afce7ec024fa03e9df3e55af9bd6c5540596c00de3768c8ff3e523fe5cf")

    def test_split_manifest_layout(self, tmp_path):
        path = tmp_path / "split_manifest.json"
        D.write_split_manifest({"train": [entry("a", "s", "a.1")], "valid": [],
                                "test": [entry("b", "s", "b.1"), entry("c", "s", "c.1")]},
                               path)
        assert path.read_text() == ('{\n"test": [\n"b.1",\n"c.1"\n],\n'
                                    '"train": [\n"a.1"\n],\n"valid": []\n}\n')


class TestModelVocab:
    @pytest.mark.parametrize("stopwords, size, fingerprint", [
        (None, 341, "2626c97f4484"), ("stopwords.txt", 314, "0ac98e548a9d")])
    def test_bundled_corpus_matches_cli(self, stopwords, size, fingerprint, capsys):
        """The vocabulary, and so the fingerprint checkpoints are checked
        against, that ``glossgen data vocab`` prints."""
        entries, _ = D.load_corpus(asset_path("mini_corpus.jsonl"))
        v = D.model_vocab(entries, 400,
                          D.load_stopwords(asset_path(stopwords)) if stopwords else None)
        assert (len(v), v.fingerprint()[:12]) == (size, fingerprint)
        assert main(["data", "vocab"] + (["--stopwords", "bundled"] if stopwords else [])) == 0
        assert capsys.readouterr().out == (f"vocabulary size {size} (4 specials)  "
                                           f"fingerprint {fingerprint}\n")

    def test_stream_is_definition_contexts_usage(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [make_record(
            word="zebra", definition="an animal", contexts=["an animal ran"],
            usage="ran fast")])
        entries, _ = D.load_corpus(path)
        v = D.model_vocab(entries, 50)
        # counts: an 2, animal 2, ran 2, fast 1 (usage only); no headword
        assert v.id_to_token[4:] == ["an", "animal", "ran", "fast"]
        assert "zebra" not in v


def entry(word, sense, eid):
    return D.DictionaryEntry(
        entry_id=eid, word=word, pos="noun", sense_id=sense,
        definition=["a", "thing"], contexts=[["the", word]],
        context_target_indices=[1])


class TestSplits:
    def setup_method(self):
        self.entries = [
            entry("check", "s1", "a"), entry("check", "s1", "b"),
            entry("check", "s2", "c"), entry("run", "s1", "d"),
            entry("walk", "s1", "e"), entry("walk", "s2", "f"),
            entry("jump", "s1", "g"), entry("talk", "s1", "h"),
        ]

    def test_groups_stay_together(self):
        splits = D.split_by_sense(self.entries, (0.5, 0.25, 0.25), seed=0)
        for part in splits:
            keys = {(e.word, e.sense_id) for e in part}
            for other in splits:
                if other is not part:
                    assert keys.isdisjoint({(e.word, e.sense_id) for e in other})

    def test_union_is_input(self):
        splits = D.split_by_sense(self.entries, (0.5, 0.25, 0.25), seed=1)
        ids = sorted(e.entry_id for part in splits for e in part)
        assert ids == sorted(e.entry_id for e in self.entries)

    def test_deterministic(self):
        a = D.split_by_sense(self.entries, (0.6, 0.2, 0.2), seed=42)
        b = D.split_by_sense(self.entries, (0.6, 0.2, 0.2), seed=42)
        assert [[e.entry_id for e in p] for p in a] == [[e.entry_id for e in p] for p in b]

    def test_degenerate_ratio(self):
        splits = D.split_by_sense(self.entries, (1.0, 0.0, 0.0), seed=0)
        assert len(splits[0]) == len(self.entries)
        assert splits[1] == [] and splits[2] == []

    def test_bad_ratios(self):
        with pytest.raises(D.CorpusError):
            D.split_by_sense(self.entries, (0.5, 0.2), seed=0)

    def test_too_few_groups(self):
        with pytest.raises(D.CorpusError):
            D.split_by_sense(self.entries[:1], (0.4, 0.3, 0.3), seed=0)

    def test_manifest_round_trip(self, tmp_path):
        splits = dict(zip(("train", "valid", "test"),
                          D.split_by_sense(self.entries, (0.5, 0.25, 0.25), seed=3)))
        path = tmp_path / "splits.json"
        D.write_split_manifest(splits, path)
        restored = D.apply_split_manifest(self.entries, path)
        for name in splits:
            assert [e.entry_id for e in restored[name]] == [e.entry_id for e in splits[name]]

    @pytest.mark.parametrize("into, shared", [("train", "train and train"),
                                              ("test", "test and train")])
    def test_manifest_repeated_id_rejected(self, tmp_path, into, shared):
        splits = dict(zip(("train", "valid", "test"),
                          D.split_by_sense(self.entries, (0.5, 0.25, 0.25), seed=3)))
        path = tmp_path / "splits.json"
        D.write_split_manifest(splits, path)
        manifest = json.loads(path.read_text())
        repeated = manifest["train"][0]
        manifest[into].append(repeated)
        path.write_text(json.dumps(manifest))
        with pytest.raises(D.CorpusError, match=f"{repeated!r} is listed twice, in {shared}"):
            D.apply_split_manifest(self.entries, path)


class TestSeenUnseen:
    def test_same_word_different_sense_is_seen(self):
        train = [entry("check", "s1", "a")]
        test = [entry("check", "s2", "b")]
        assert D.partition_seen_unseen(train, test)[0][1] == "seen"

    def test_absent_word_is_unseen(self):
        labeled = D.partition_seen_unseen([entry("run", "s1", "a")],
                                          [entry("walk", "s1", "b")])
        assert labeled[0][1] == "unseen"

    def test_empty_train_all_unseen(self):
        test = [entry("walk", "s1", "a"), entry("run", "s1", "b")]
        labels = [lab for _, lab in D.partition_seen_unseen([], test)]
        assert labels == ["unseen", "unseen"]

    def test_partition_covers_test(self):
        train = [entry("check", "s1", "a")]
        test = [entry("check", "s2", "b"), entry("walk", "s1", "c")]
        labeled = D.partition_seen_unseen(train, test)
        assert len(labeled) == len(test)
        assert {lab for _, lab in labeled} == {"seen", "unseen"}


class TestStats:
    def test_recount_against_independent_tally(self):
        entries = [
            D.DictionaryEntry("a", "check", "noun", "s1", ["an", "order", "for", "money"],
                              [["he", "paid", "the", "checks"]], [3],
                              usage=["cash", "a", "check"], usage_target_index=2),
            D.DictionaryEntry("b", "check", "noun", "s2", ["a", "mark"],
                              [["check", "the", "box"], ["a", "check", "mark"]], [0, 1]),
            D.DictionaryEntry("c", "run", "verb", "s1", ["move", "fast"],
                              [["they", "run"]], [1], usage=["we", "run", "far", "now"],
                              usage_target_index=1),
        ]
        stats = D.corpus_stats({"train": entries})["train"]
        # hand tally: words {check, run}; defs 4+2+2=8 tokens over 3 entries;
        # contexts 4,3,3,2 tokens; usages 3 and 4 tokens
        assert stats["words"] == 2
        assert stats["entries"] == 3
        assert stats["tokens"] == 8
        assert stats["avg_definition_len"] == round(8 / 3, 2)
        assert stats["avg_context_len"] == 3.0
        assert stats["avg_usage_len"] == 3.5

    def test_empty_split_zeros(self):
        stats = D.corpus_stats({"test": []})["test"]
        assert stats == {"words": 0, "entries": 0, "tokens": 0,
                         "avg_definition_len": 0, "avg_context_len": 0,
                         "avg_usage_len": 0}
