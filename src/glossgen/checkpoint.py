"""Checkpoints: one .npz per model holding every array plus a JSON header.

The header carries the format version, the full resolved config, the
vocabulary itself, and its fingerprint, so a checkpoint is self-contained and
guards against evaluating under a different vocabulary. Round trips are
bit-exact (float64 arrays are stored losslessly). Writes are atomic: a crash
mid-write leaves any previous file at the target path as it was.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np

from .autodiff import ShapeError
from .config import Config, ConfigError, config_from_dict, validate
from .data import SPECIALS, Vocabulary, json_text
from .embeddings import CHARS
from .models import DefinitionModel, assign_arrays, check_fits_memory, gated_input_dim

FORMAT_VERSION = 1
META_KEY = "__meta__"
WARM_START = "pretrained-decoder"   # header "kind" of a warm-start file


class CheckpointError(Exception):
    pass


def _write(path, meta: dict, arrays: dict) -> None:
    """Write the strict JSON header, stamped with the format version, and the
    arrays to a temp file next to ``path``, then move it over ``path``; on
    failure the temp file is removed."""
    header = json_text({**meta, "format_version": FORMAT_VERSION})
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **{META_KEY: np.array(header)}, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read(path, kind: str | None = None, with_arrays: bool = True) -> tuple[dict, dict]:
    """(header, arrays) of a ``_write`` file of header "kind" ``kind`` (None for
    a checkpoint) holding that kind's ``HEADER_FIELDS``, arrays empty unless
    ``with_arrays``. The file comes from outside: any fault is a CheckpointError."""
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data[META_KEY])) if META_KEY in data else None
            arrays = {k: data[k] for k in data.files if with_arrays and k != META_KEY}
    except Exception as exc:
        raise CheckpointError(f"{path}: not a readable .npz file "
                              f"({type(exc).__name__}: {exc})") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: not a checkpoint (no header)")
    if meta.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {meta.get('format_version')} unsupported")
    if meta.get("kind") != kind:
        raise CheckpointError(f"{path}: not a {kind or 'checkpoint'} file "
                              f"(header kind {meta.get('kind')!r})")
    _check_fields(path, meta, HEADER_FIELDS[kind])
    return meta, arrays


# header kind -> field -> type, for every field read from a file of that kind
HEADER_FIELDS = {None: {"config": dict, "vocab_tokens": list, "vocab_fingerprint": str,
                        "seed": int, "contextual_kind": str, "contextual_seed": int},
                 WARM_START: {"vocab_fingerprint": str}}


def _check_fields(path, meta: dict, fields: dict) -> None:
    """Each header field is present with its type (ints non-negative, bools
    no ints); any fault is a CheckpointError naming the path and field."""
    for key, kind in fields.items():
        value = meta.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise CheckpointError(f"{path}: header field {key!r} is missing or "
                                  f"not a {kind.__name__}")
        if kind is int and value < 0:
            raise CheckpointError(f"{path}: header field {key!r} is negative")


def _checked_header(path, meta: dict, contextual_file) -> tuple[Config, Vocabulary]:
    """Check a checkpoint header, and the vector file a run gives, before
    anything is built from them; returns the validated config and vocabulary.
    Any fault is a CheckpointError naming the path."""
    tokens = meta["vocab_tokens"]
    if not all(isinstance(t, str) for t in tokens):
        raise CheckpointError(f"{path}: header field 'vocab_tokens' holds a non-string")
    if len(set(tokens)) != len(tokens):
        raise CheckpointError(f"{path}: header field 'vocab_tokens' repeats a token")
    try:
        cfg = config_from_dict(meta["config"])
        validate(cfg)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: stored config is invalid: {exc}") from None
    if cfg.model.char_on and meta.get("char_vocab") != CHARS:
        raise CheckpointError(f"{path}: header field 'char_vocab' is not this "
                              "program's character inventory")
    vocab = Vocabulary(tokens[len(SPECIALS):])
    if vocab.fingerprint() != meta["vocab_fingerprint"]:
        raise CheckpointError(f"{path}: vocabulary fingerprint mismatch")
    if cfg.model.contextual_on:
        stored = meta["contextual_kind"]
        if contextual_file is not None:
            if stored != "file-backed":
                raise CheckpointError(f"{path}: run used a {stored} contextual provider, "
                                      "not the file-backed one supplied")
        elif stored != "deterministic-test":
            raise CheckpointError(
                f"{path}: run used a {stored} contextual provider; supply it to load")
        elif meta["contextual_seed"] != meta["seed"]:
            raise CheckpointError(f"{path}: header field 'contextual_seed' is not 'seed', "
                                  "which seeds the model's contextual features")
    try:
        check_fits_memory(cfg.model, len(vocab), training=False)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return cfg, vocab


def read_config(path, contextual_file: str | os.PathLike | None = None) -> Config:
    """The config in a checkpoint's header, judged as ``load_checkpoint(path,
    contextual_file)`` judges it, with the same messages; no array is read."""
    return _checked_header(path, _read(path, with_arrays=False)[0], contextual_file)[0]


def save_checkpoint(path, model, cfg: Config, extra_meta: dict | None = None) -> None:
    meta = {
        "config": asdict(cfg),
        "vocab_tokens": model.vocab.id_to_token,
        "vocab_fingerprint": model.vocab.fingerprint(),
        "seed": model.seed,
        "contextual_kind": model.contextual.kind,
        "contextual_seed": model.contextual.seed,
    }
    if model.char_encoder is not None:
        meta["char_vocab"] = CHARS
    meta.update(extra_meta or {})
    _write(path, meta, model.state_arrays())


def load_checkpoint(path, contextual_file: str | os.PathLike | None = None):
    """Rebuild the model from a checkpoint. Returns (model, cfg, meta).

    File-backed contextual vectors are not stored: when the stored model
    reads them, the caller gives the vector file's path. The header is judged
    as ``read_config`` judges it; arrays that do not fit the stored config are
    then a CheckpointError naming the path.
    """
    meta, arrays = _read(path)
    cfg, vocab = _checked_header(path, meta, contextual_file)
    try:
        model = DefinitionModel(cfg.model, vocab, seed=meta["seed"],
                                contextual_file=contextual_file)
        model.load_state_arrays(arrays)
    except ShapeError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return model, cfg, meta


def save_pretrained(path, model, extra_meta: dict | None = None) -> None:
    """Store only the decoder-side parameters for later warm starts."""
    meta = {
        "kind": WARM_START,
        "vocab_fingerprint": model.vocab.fingerprint(),
        "d_s": model.cfg.d_s,
        "input_dim": gated_input_dim(model.cfg),
    }
    meta.update(extra_meta or {})
    _write(path, meta, {name: t.data for name, t in model.pretrainable_params().items()})


def read_warm_start(path) -> dict:
    """The checked header of a warm-start file; its arrays are not read."""
    return _read(path, WARM_START, with_arrays=False)[0]


def load_pretrained(path, model) -> list[str]:
    """Copy pretrained decoder arrays into a model; returns the copied names."""
    meta, arrays = _read(path, WARM_START)
    if meta["vocab_fingerprint"] != model.vocab.fingerprint():
        raise CheckpointError(f"{path}: vocabulary fingerprint mismatch")
    try:
        assign_arrays(model.pretrainable_params(), arrays)
    except ShapeError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return sorted(arrays)
