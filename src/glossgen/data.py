"""Corpus loading, vocabulary, sense-aware splits, and statistics.

Corpus wire format: UTF-8 JSON, one entry per line, fields
``id, word, pos, sense_id, definition, contexts`` plus optional ``domain``
and ``usage``, each a JSON string (``contexts``: a list of 1 to 3; optional
ones may be null). Text fields are lowercased and whitespace-tokenized on load.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, OrderedDict
from dataclasses import dataclass, field

import numpy as np

PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<bos>", "<eos>"
SPECIALS = (PAD, UNK, BOS, EOS)

# strip-and-compare table for matching inflected target occurrences
INFLECTION_SUFFIXES = ("s", "es", "ed", "ing", "er", "est")


class CorpusError(Exception):
    pass


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def stable_seed(*parts) -> int:
    """A 64-bit seed from the sha256 of the "|"-joined parts: the same on every
    run and platform, unlike ``hash``."""
    digest = hashlib.sha256("|".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def json_text(payload, indent: int | None = None) -> str:
    """Strict JSON with sorted keys; a non-finite float (an undefined metric,
    such as the perplexity of an empty split) is written as null."""
    def clean(value):
        if isinstance(value, float) and not np.isfinite(value):
            return None
        if isinstance(value, dict):
            return {k: clean(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [clean(v) for v in value]
        return value

    return json.dumps(clean(payload), sort_keys=True, indent=indent, allow_nan=False)


def find_target_occurrence(tokens: list[str], word: str) -> int | None:
    """Leftmost index of ``word`` in ``tokens``, allowing inflected forms.

    A token matches if it equals the word, or stripping one suffix from the
    table yields the word. Returns None when no token matches.
    """
    for i, tok in enumerate(tokens):
        if tok == word:
            return i
    for i, tok in enumerate(tokens):
        for suf in INFLECTION_SUFFIXES:
            if tok.endswith(suf) and tok[: -len(suf)] == word:
                return i
    return None


@dataclass
class DictionaryEntry:
    entry_id: str
    word: str
    pos: str
    sense_id: str
    definition: list[str]
    contexts: list[list[str]]
    context_target_indices: list[int | None]
    usage: list[str] | None = None
    usage_target_index: int | None = None
    domain: str | None = None


@dataclass
class ValidationReport:
    total_lines: int = 0
    loaded: int = 0
    malformed: list[tuple[int, str]] = field(default_factory=list)
    absent_context_targets: int = 0
    absent_usage_targets: int = 0

    @property
    def n_malformed(self) -> int:
        return len(self.malformed)


def _parse_entry(record: dict) -> DictionaryEntry:
    for key in ("id", "word", "pos", "sense_id", "definition", "contexts"):
        if key not in record:
            raise ValueError(f"missing field {key!r}")
    for key in ("id", "word", "pos", "sense_id", "definition", "usage", "domain"):
        value = record.get(key)
        if not (isinstance(value, str) or value is None and key in ("usage", "domain")):
            raise ValueError(f"field {key!r} is not a string")
    word = record["word"].lower().strip()
    if not word or not word.isalpha():
        raise ValueError(f"word {word!r} is empty or not alphabetic")
    definition = tokenize(record["definition"])
    if not definition:
        raise ValueError("empty definition")
    raw_contexts = record["contexts"]
    if not isinstance(raw_contexts, list) or not (1 <= len(raw_contexts) <= 3):
        raise ValueError("contexts must be a list of 1 to 3 sentences")
    contexts = []
    for c in raw_contexts:
        toks = tokenize(c) if isinstance(c, str) else []
        if not toks:
            raise ValueError("field 'contexts' holds an empty or non-string sentence")
        contexts.append(toks)
    usage = tokenize(record.get("usage") or "") or None
    return DictionaryEntry(
        entry_id=record["id"],
        word=word,
        pos=record["pos"],
        sense_id=record["sense_id"],
        definition=definition,
        contexts=contexts,
        context_target_indices=[find_target_occurrence(c, word) for c in contexts],
        usage=usage,
        usage_target_index=find_target_occurrence(usage, word) if usage else None,
        domain=record.get("domain"),
    )


def load_corpus(path) -> tuple[list[DictionaryEntry], ValidationReport]:
    """Parse a line-delimited corpus file; skip and report malformed lines.

    A repeated entry id is malformed; the first entry with it is kept. Raises
    CorpusError when more than half of the non-blank lines fail.
    """
    entries: list[DictionaryEntry] = []
    first_line: dict[str, int] = {}  # entry id -> line it was loaded from
    report = ValidationReport()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            report.total_lines += 1
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
                entry = _parse_entry(record)
                if entry.entry_id in first_line:
                    raise ValueError(f"id {entry.entry_id!r} repeats line "
                                     f"{first_line[entry.entry_id]}")
            except (json.JSONDecodeError, ValueError) as exc:
                report.malformed.append((line_no, str(exc)))
                continue
            first_line[entry.entry_id] = line_no
            report.loaded += 1
            report.absent_context_targets += sum(
                1 for idx in entry.context_target_indices if idx is None)
            if entry.usage and entry.usage_target_index is None:
                report.absent_usage_targets += 1
            entries.append(entry)
    if report.total_lines and report.n_malformed * 2 > report.total_lines:
        raise CorpusError(
            f"{path}: {report.n_malformed} of {report.total_lines} lines malformed")
    return entries, report


class Vocabulary:
    """Bijective token/id mapping with specials pinned at ids 0 to 3."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = list(SPECIALS) + [t for t in tokens if t not in SPECIALS]
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise CorpusError("vocabulary contains duplicate tokens")
        self.pad_id, self.unk_id, self.bos_id, self.eos_id = 0, 1, 2, 3

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def encode(self, tokens) -> list[int]:
        unk = self.unk_id
        return [self.token_to_id.get(t, unk) for t in tokens]

    def decode(self, ids) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def fingerprint(self) -> str:
        payload = "\n".join(self.id_to_token).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.id_to_token:
                fh.write(tok + "\n")


def load_stopwords(path) -> set[str]:
    with open(path, encoding="utf-8") as fh:
        return {line.strip().lower() for line in fh if line.strip()}


def build_vocab(token_stream, k: int, stopwords: set[str] | None = None) -> Vocabulary:
    """Up to k tokens: the specials, then the most frequent, ties lexicographic.

    Non-alphabetic tokens and stopwords are filtered before ranking.
    """
    if k < len(SPECIALS):
        raise CorpusError(f"vocabulary size {k} leaves no room for the {len(SPECIALS)} specials")
    stopwords = stopwords or set()
    counts = Counter(
        t for t in token_stream if t.isalpha() and t not in stopwords)
    if not counts:
        raise CorpusError("no tokens survive vocabulary filtering")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [t for t, _ in ranked[: k - len(SPECIALS)]]
    return Vocabulary(kept)


def model_vocab(entries, k: int, stopwords: set[str] | None = None) -> Vocabulary:
    """The vocabulary a model is built over: each entry's definition,
    contexts and usage tokens, in that order; the headword counts only where
    a text field holds it.

    A vocabulary for a model takes no stopwords, because the decoder must
    emit function words; ``glossgen data vocab --stopwords`` passes them only
    to print the filtered vocabulary. The stream fixes the token order, and
    so the fingerprint that ``glossgen eval`` checks a checkpoint against.
    """
    stream = [t for e in entries
              for seq in ([e.definition] + e.contexts + [e.usage or []])
              for t in seq]
    return build_vocab(stream, k, stopwords)


def sense_groups(entries) -> "OrderedDict[tuple[str, str], list[DictionaryEntry]]":
    groups: OrderedDict[tuple[str, str], list[DictionaryEntry]] = OrderedDict()
    for e in entries:
        groups.setdefault((e.word, e.sense_id), []).append(e)
    return groups


def split_by_sense(entries, ratios, seed: int) -> list[list[DictionaryEntry]]:
    """Seeded split keeping every (word, sense) group inside one part."""
    ratios = list(ratios)
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise CorpusError(f"split ratios {ratios} do not sum to 1")
    groups = sense_groups(entries)
    keys = list(groups)
    if len(keys) < len(ratios):
        raise CorpusError(
            f"only {len(keys)} (word, sense) groups for {len(ratios)} splits")
    order = np.random.default_rng(seed).permutation(len(keys))
    shuffled = [keys[i] for i in order]
    bounds = [int(np.floor(c * len(keys))) for c in np.cumsum(ratios)]
    bounds[-1] = len(keys)
    splits: list[list[DictionaryEntry]] = []
    lo = 0
    for hi in bounds:
        part: list[DictionaryEntry] = []
        for key in shuffled[lo:hi]:
            part.extend(groups[key])
        splits.append(part)
        lo = hi
    return splits


def partition_seen_unseen(train, test) -> list[tuple[DictionaryEntry, str]]:
    """Label each test entry Seen iff its word is a training target word."""
    train_words = {e.word for e in train}
    return [(e, "seen" if e.word in train_words else "unseen") for e in test]


def corpus_stats(splits: dict) -> dict:
    """Per-split counts: distinct words, entries, definition tokens, lengths."""
    table = {}
    for name, entries in splits.items():
        n_def_tokens = sum(len(e.definition) for e in entries)
        ctx_lengths = [len(c) for e in entries for c in e.contexts]
        usage_lengths = [len(e.usage) for e in entries if e.usage]
        table[name] = {
            "words": len({e.word for e in entries}),
            "entries": len(entries),
            "tokens": n_def_tokens,
            "avg_definition_len": round(n_def_tokens / len(entries), 2) if entries else 0,
            "avg_context_len": round(sum(ctx_lengths) / len(ctx_lengths), 2) if ctx_lengths else 0,
            "avg_usage_len": round(sum(usage_lengths) / len(usage_lengths), 2) if usage_lengths else 0,
        }
    return table


def write_split_manifest(splits: dict, path) -> None:
    manifest = {name: [e.entry_id for e in entries] for name, entries in splits.items()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(manifest, indent=0) + "\n")


def apply_split_manifest(entries, path) -> dict:
    """Entries per split of a JSON manifest mapping split names (at least
    train, valid and test) to lists of entry ids, each id listed once."""
    with open(path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise CorpusError(f"manifest {path}: not JSON text: {exc}") from None
    if not (isinstance(manifest, dict) and {"train", "valid", "test"} <= manifest.keys()
            and all(isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                    for ids in manifest.values())):
        raise CorpusError(f"manifest {path}: expected a JSON object mapping train, "
                          "valid and test to lists of entry ids")
    by_id = {e.entry_id: e for e in entries}
    out, split_of = {}, {}
    for name, ids in manifest.items():
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise CorpusError(f"manifest {path}: unknown entry ids {missing[:3]}")
        for i in ids:
            if i in split_of:
                raise CorpusError(f"manifest {path}: entry id {i!r} is listed twice, "
                                  f"in {split_of[i]} and {name}")
            split_of[i] = name
        out[name] = [by_id[i] for i in ids]
    return out
