"""Training loop: Adam on shuffled minibatches, patience-based model selection.

Every run is deterministic given (seed, corpus, config): epoch shuffles come
from generators seeded with (seed, epoch), so identical settings produce
byte-identical step logs. Validation perplexity pools the teacher-forced NLL
over every task the model scores, weighted by token counts, and the best
checkpoint is whichever epoch minimizes it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (AdamState, NumericalError, ShapeError, Tape, adam_step, backward,
                       global_grad_norm, zero_grads)
from .checkpoint import save_checkpoint, save_pretrained
from .config import Config
from .data import DictionaryEntry, find_target_occurrence, json_text, tokenize
from .metrics import perplexity


class TrainingError(Exception):
    pass


@dataclass
class TrainResult:
    best_epoch: int          # 1-based; 0 when no epoch ran
    best_ppl: float
    epochs_run: int
    history: list = field(default_factory=list)   # one dict per epoch


def _batches(items: list, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(len(items))
    for i in range(0, len(order), batch_size):
        yield [items[j] for j in order[i:i + batch_size]]


def _log(fh, record: dict) -> None:
    if fh is not None:
        fh.write(json_text(record) + "\n")
        fh.flush()


def _taped_step(score, batch) -> float:
    """One taped forward and backward pass over ``batch``; returns the loss.
    The tape, and with it every activation of the step, is freed on return,
    so none of it is alive when the optimizer allocates."""
    with Tape() as tape:
        loss = score(batch).loss
        backward(tape, loss)
    return float(loss.data)


def _fit(params, t, items, epochs: int, score, where, log_path,
         end_epoch=None) -> list[dict]:
    """The fit loop: Adam on minibatches of ``items``, reshuffled each epoch.

    ``score(batch)`` is the model's scorer (``forward_batch`` or
    ``lm_loss``); its ``ForwardOutput.loss`` is built on the active tape, and
    ``where(epoch, step, batch)`` names the step in error messages. A
    non-finite loss or gradient norm aborts before Adam touches a parameter.
    Gradients left from before the fit are dropped once here; after that
    each backward pass makes them and ``adam_step``, which applies the clip
    factor, drops them again. The step's tape is freed before the gradient
    norm and Adam run (``_taped_step``). Each step's log record
    holds the pre-clip gradient norm and whether it was clipped.
    ``end_epoch(record)``, when given, adds fields to the epoch's record
    before it is logged and returns True to stop. Returns the epoch records.
    """
    adam = AdamState(lr=t.lr, beta1=t.beta1, beta2=t.beta2, eps=t.eps)
    history: list[dict] = []
    step = 0
    zero_grads(params)
    with open(log_path, "w", encoding="utf-8") if log_path else nullcontext() as log:
        for epoch in range(1, epochs + 1):
            rng = np.random.default_rng((t.seed, epoch))
            epoch_loss, epoch_batches = 0.0, 0
            for batch in _batches(items, t.batch_size, rng):
                step += 1
                try:
                    loss_val = _taped_step(score, batch)
                except NumericalError as exc:
                    raise TrainingError(
                        f"non-finite values at {where(epoch, step, batch)}: {exc}") from exc
                norm = global_grad_norm(params)
                if not np.isfinite(norm):
                    raise TrainingError(
                        f"non-finite gradient norm {norm} at {where(epoch, step, batch)}")
                clipped = norm > t.clip_norm
                adam_step(params, adam, t.clip_norm / norm if clipped else 1.0)
                epoch_loss += loss_val
                epoch_batches += 1
                _log(log, {"epoch": epoch, "step": step, "loss": loss_val,
                           "grad_norm": norm, "clipped": clipped})
            record = {"epoch": epoch, "mean_train_loss": epoch_loss / epoch_batches}
            stop = end_epoch is not None and end_epoch(record)
            history.append(record)
            _log(log, record)
            if stop:
                break
    return history


def train(model, cfg: Config, train_entries, valid_entries,
          checkpoint_path=None, log_path=None, stop_ppl: float | None = None,
          extra_meta: dict | None = None) -> TrainResult:
    """Fit the model; keeps the checkpoint of the best validation epoch.

    Stops after ``cfg.train.max_epochs`` epochs, once more than
    ``cfg.train.patience`` consecutive epochs fail to improve validation
    perplexity, or as soon as it drops to ``stop_ppl`` when one is given.
    A non-finite loss aborts with the epoch, step, and batch entry ids, a
    non-finite validation score with the epoch; an entry without the text of
    one of the model's tasks, before the first step. Without validation
    entries, each epoch's parameters score one training batch before they
    are kept, and a non-finite value there aborts with the epoch.
    """
    train_entries = list(train_entries)
    valid_entries = list(valid_entries)
    if not train_entries:
        raise TrainingError("train: empty training corpus")
    for task in model.tasks:
        try:
            model.encode_task(train_entries + valid_entries, task)
        except ShapeError as exc:
            raise TrainingError(f"train: {exc}") from None
    t = cfg.train
    best_ppl, best_epoch, since_improve = float("inf"), 0, 0

    def where(epoch, step, batch):
        ids = ", ".join(e.entry_id for e in batch)
        return f"epoch {epoch} step {step} (batch entries: {ids})"

    def end_epoch(record) -> bool:
        nonlocal best_ppl, best_epoch, since_improve
        epoch = record["epoch"]
        try:
            if valid_entries:
                ppl = perplexity(model, valid_entries, model.tasks)
            else:
                # nothing else runs the stepped parameters before they are
                # kept: score one training batch so an overflow shows here
                model.forward_batch(train_entries[:t.batch_size])
                ppl = float("nan")
        except NumericalError as exc:
            part = "validation" if valid_entries else "a training batch"
            raise TrainingError(
                f"non-finite values in {part} after epoch {epoch}: {exc}") from exc
        record["valid_ppl"] = ppl
        if not valid_entries or ppl < best_ppl:
            best_ppl, best_epoch, since_improve = ppl, epoch, 0
            if checkpoint_path is not None:
                meta = {"best_epoch": epoch, "valid_ppl": ppl}
                meta.update(extra_meta or {})
                save_checkpoint(checkpoint_path, model, cfg, extra_meta=meta)
        else:
            since_improve += 1
            if since_improve > t.patience:
                return True
        return stop_ppl is not None and ppl <= stop_ppl

    history = _fit(model.params(), t, train_entries, t.max_epochs, model.forward_batch,
                   where, log_path, end_epoch)
    return TrainResult(best_epoch=best_epoch, best_ppl=best_ppl,
                       epochs_run=len(history), history=history)


def load_lm_sentences(path, vocab) -> list[list[int]]:
    """Read one sentence per line, tokenize, encode; skip blank lines."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            toks = tokenize(line)
            if toks:
                out.append(vocab.encode(toks))
    if not out:
        raise TrainingError(f"{path}: no usable sentences")
    return out


def pretrain_decoder(model, cfg: Config, sentences, out_path=None,
                     log_path=None) -> list[dict]:
    """Fit the decoder branch as a plain language model on raw sentences.

    Runs a fixed ``cfg.train.pretrain_epochs`` epochs (zero is valid and just
    stores the initialization). Only the decoder-side parameters move; the
    encoder, attention, and all tables stay at their initial values.
    """
    sentences = list(sentences)
    if not sentences:
        raise TrainingError("pretrain: empty sentence corpus")
    t = cfg.train
    history = _fit(model.pretrainable_params(), t, sentences, t.pretrain_epochs,
                   model.lm_loss,
                   lambda epoch, step, batch: f"pretrain epoch {epoch} step {step}",
                   log_path)
    if out_path is not None:
        save_pretrained(out_path, model,
                        extra_meta={"pretrain_epochs": t.pretrain_epochs})
    return history


def make_query_entry(word: str, context: str, entry_id: str = "query") -> DictionaryEntry:
    """Build a one-off entry for generation from a raw word and context line."""
    word = word.strip().lower()
    if not word:
        raise TrainingError("query: empty word")
    ctx_tokens = tokenize(context)
    if not ctx_tokens:
        raise TrainingError("query: empty context")
    idx = find_target_occurrence(ctx_tokens, word)
    return DictionaryEntry(entry_id=entry_id, word=word, pos="unk",
                           sense_id="query", definition=["<unk>"],
                           contexts=[ctx_tokens], context_target_indices=[idx])
