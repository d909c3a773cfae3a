"""Command line surface: data preparation, training, evaluation, generation.

Every run records its resolved config, digest, and (out-dir-independent)
command line in the output directory, so identical config+seed invocations
produce byte-identical logs and reports. Exit codes: 0 ok, 1 user error,
2 internal error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from importlib import resources

import numpy as np

from .autodiff import NumericalError
from .checkpoint import CheckpointError, load_checkpoint, load_pretrained, read_config
from .config import (KINDS, S0_VARIANTS, Config, ConfigError, apply_overrides,
                     config_digest, config_to_text, default_config,
                     load_config_file, set_key, validate)
from .data import (SPECIALS, CorpusError, Vocabulary, apply_split_manifest,
                   corpus_stats, json_text, load_corpus, load_stopwords, model_vocab,
                   partition_seen_unseen, split_by_sense, write_split_manifest)
from .embeddings import EmbeddingError, load_word_embeddings
from .metrics import MetricsError, evaluate, format_report, report_lines
from .models import DefinitionModel, check_fits_memory
from .training import (TrainingError, load_lm_sentences, make_query_entry,
                       pretrain_decoder, train)

ENV_DATA_DIR = "GLOSSGEN_DATA_DIR"

# OSError covers unreadable paths; UnicodeError covers data files that are
# not UTF-8 text.
USER_ERRORS = (ConfigError, CorpusError, EmbeddingError, CheckpointError,
               MetricsError, TrainingError, OSError, UnicodeError)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # no abbreviated long flags: ``_clean_argv`` drops --out-dir by its full
    # spelling, and an abbreviation would leak the directory into the run record
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def asset_path(name: str) -> str:
    return str(resources.files("glossgen").joinpath("assets").joinpath(name))


def resolve_data_path(value: str, bundled: str | None = None) -> str:
    """Empty -> bundled asset; relative paths fall back to $GLOSSGEN_DATA_DIR.
    A file without a bundled default is resolved only when it is set."""
    if not value:
        return asset_path(bundled)
    if os.path.isabs(value) or os.path.exists(value):
        return value
    base = os.environ.get(ENV_DATA_DIR, "")
    if base:
        candidate = os.path.join(base, value)
        if os.path.exists(candidate):
            return candidate
        raise CliError(f"{value}: not found here or under {ENV_DATA_DIR}={base}")
    return value


def _clean_argv(argv: list[str]) -> list[str]:
    """Drop --out-dir so embedded command lines match across run directories."""
    out, skip = [], False
    for item in argv:
        if skip:
            skip = False
            continue
        if item == "--out-dir":
            skip = True
            continue
        if item.startswith("--out-dir="):
            continue
        out.append(item)
    return out


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(payload, indent=2) + "\n")


def _prepare_out(out_dir: str, cfg: Config, run: dict) -> None:
    """Create the run directory: clear a stale FAILED marker and record the
    run's command and resolved config."""
    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, "FAILED")
    if os.path.exists(marker):
        os.remove(marker)
    _write_json(os.path.join(out_dir, "run.json"), {**run, "seed": cfg.train.seed})
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"# digest {run['config_digest']}\n")
        fh.write(config_to_text(cfg))


def _write_report(out_dir: str | None, name: str, run: dict, body: str,
                  json_lines: list[str] | None = None) -> str:
    """Head ``body`` with the run's config digest and command, write it to
    <name>.txt when there is an out-dir, and return it. JSON lines also go
    to <name>.jsonl, after the run record."""
    text = (f"# config {run['config_digest']}\n"
            f"# command {' '.join(run['command'])}\n" + body)
    if out_dir:
        with open(os.path.join(out_dir, f"{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
        if json_lines is not None:
            with open(os.path.join(out_dir, f"{name}.jsonl"), "w",
                      encoding="utf-8") as fh:
                fh.write("\n".join([json_text(run)] + json_lines) + "\n")
    return text


def _load_entries(cfg: Config):
    path = resolve_data_path(cfg.data.corpus, "mini_corpus.jsonl")
    return load_corpus(path)


def _contextual_file(cfg: Config) -> str | None:
    """``data.contextual_file`` resolved, or None when unset. The model reads
    it only when its own config has ``model.contextual_on``, at its ``d_e``:
    for ``eval`` and ``generate``, the checkpoint's config, not the command's."""
    return resolve_data_path(cfg.data.contextual_file) if cfg.data.contextual_file else None


def _build_model(cfg: Config, vocab: Vocabulary) -> DefinitionModel:
    check_fits_memory(cfg.model, len(vocab), training=True)
    pretrained = None
    if cfg.data.embeddings_file:
        path = resolve_data_path(cfg.data.embeddings_file)
        pretrained, coverage = load_word_embeddings(path, vocab, seed=cfg.train.seed,
                                                    dim=cfg.model.d_w)
        print(f"embedding file covers {coverage:.1%} of the vocabulary")
    return DefinitionModel(cfg.model, vocab, seed=cfg.train.seed, pretrained_matrix=pretrained,
                           contextual_file=_contextual_file(cfg))


@contextmanager
def _checkpoint_numerics(path: str):
    """A loaded checkpoint is outside input: its parameters may be finite yet
    overflow when run, which is the user's error, not the program's."""
    try:
        yield
    except NumericalError as exc:
        raise CliError(f"{path}: the checkpoint's parameters give non-finite "
                       f"values: {exc}") from None


def _splits(entries, cfg: Config, manifest: str | None) -> dict:
    if manifest:
        return apply_split_manifest(entries, manifest)
    parts = split_by_sense(entries, cfg.data.split_ratios, cfg.train.seed)
    return {"train": parts[0], "valid": parts[1], "test": parts[2]}


# -- subcommands -------------------------------------------------------------

def cmd_data_validate(args, cfg, run) -> int:
    entries, report = _load_entries(cfg)
    print(f"lines {report.total_lines}  loaded {report.loaded}  "
          f"malformed {report.n_malformed}")
    print(f"contexts without a resolvable target occurrence: "
          f"{report.absent_context_targets}")
    print(f"usages without a resolvable target occurrence: "
          f"{report.absent_usage_targets}")
    for line_no, cause in report.malformed[:20]:
        print(f"  line {line_no}: {cause}")
    return 0


def cmd_data_split(args, cfg, run) -> int:
    entries, _ = _load_entries(cfg)
    splits = _splits(entries, cfg, None)
    path = os.path.join(args.out_dir, "split_manifest.json")
    write_split_manifest(splits, path)
    for name in ("train", "valid", "test"):
        print(f"{name}: {len(splits[name])} entries")
    print(f"manifest: {path}")
    return 0


def cmd_data_stats(args, cfg, run) -> int:
    entries, _ = _load_entries(cfg)
    splits = (apply_split_manifest(entries, args.manifest) if args.manifest
              else {"all": entries})
    table = corpus_stats(splits)
    lines = [f"{'split':<8} {'words':>7} {'entries':>8} {'tokens':>8} "
             f"{'def-len':>8} {'ctx-len':>8} {'usg-len':>8}"]
    for name, row in table.items():
        lines.append(f"{name:<8} {row['words']:>7} {row['entries']:>8} "
                     f"{row['tokens']:>8} {row['avg_definition_len']:>8.2f} "
                     f"{row['avg_context_len']:>8.2f} {row['avg_usage_len']:>8.2f}")
    print(_write_report(args.out_dir, "stats", run, "\n".join(lines) + "\n"), end="")
    if args.out_dir:
        _write_json(os.path.join(args.out_dir, "stats.json"), table)
    return 0


def cmd_data_vocab(args, cfg, run) -> int:
    entries, _ = _load_entries(cfg)
    stopwords = None
    if args.stopwords:
        path = (asset_path("stopwords.txt") if args.stopwords == "bundled"
                else args.stopwords)
        stopwords = load_stopwords(path)
    vocab = model_vocab(entries, cfg.data.vocab_size, stopwords)
    print(f"vocabulary size {len(vocab)} ({len(SPECIALS)} specials)  "
          f"fingerprint {vocab.fingerprint()[:12]}")
    if args.out_dir:
        path = os.path.join(args.out_dir, "vocab.txt")
        vocab.save(path)
        print(f"written: {path}")
    return 0


def cmd_pretrain(args, cfg, run) -> int:
    out_dir = args.out_dir
    entries, _ = _load_entries(cfg)
    vocab = model_vocab(entries, cfg.data.vocab_size)
    lm_path = resolve_data_path(cfg.data.lm_corpus, "lm_corpus.txt")
    sentences = load_lm_sentences(lm_path, vocab)
    model = _build_model(cfg, vocab)
    out_path = os.path.join(out_dir, "pretrained.npz")
    history = pretrain_decoder(model, cfg, sentences, out_path=out_path,
                               log_path=os.path.join(out_dir, "pretrain_log.jsonl"))
    last = history[-1]["mean_train_loss"] if history else float("nan")
    print(f"pretrained {cfg.train.pretrain_epochs} epochs on "
          f"{len(sentences)} sentences; final mean loss {last:.4f}")
    print(f"saved: {out_path}")
    return 0


def cmd_train(args, cfg, run) -> int:
    out_dir = args.out_dir
    entries, _ = _load_entries(cfg)
    vocab = model_vocab(entries, cfg.data.vocab_size)
    vocab.save(os.path.join(out_dir, "vocab.txt"))
    splits = _splits(entries, cfg, args.manifest)
    if not args.manifest:
        write_split_manifest(splits, os.path.join(out_dir, "split_manifest.json"))
    model = _build_model(cfg, vocab)
    if args.pretrained:
        names = load_pretrained(args.pretrained, model)
        print(f"warm start: {len(names)} arrays from {args.pretrained}")
    # an earlier run's checkpoint must not outlive a run that keeps no epoch
    checkpoint_path = os.path.join(out_dir, "model.npz")
    if os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    result = train(model, cfg, splits["train"], splits["valid"],
                   checkpoint_path=checkpoint_path,
                   log_path=os.path.join(out_dir, "train_log.jsonl"),
                   extra_meta={"command": run["command"]})
    _write_json(os.path.join(out_dir, "summary.json"), {
        **run,
        "vocab_fingerprint": vocab.fingerprint(),
        "n_train": len(splits["train"]),
        "n_valid": len(splits["valid"]),
        "n_test": len(splits["test"]),
        "epochs_run": result.epochs_run,
        "best_epoch": result.best_epoch,
        "best_valid_ppl": result.best_ppl,
    })
    print(f"trained {result.epochs_run} epochs; best valid perplexity "
          f"{result.best_ppl:.4f} at epoch {result.best_epoch}")
    if result.best_epoch:  # an epoch was kept, so its checkpoint was written
        print(f"checkpoint: {checkpoint_path}")
    return 0


def cmd_eval(args, cfg, run) -> int:
    entries, _ = _load_entries(cfg)
    model, _, meta = load_checkpoint(args.checkpoint, _contextual_file(cfg))
    vocab = model_vocab(entries, cfg.data.vocab_size)
    if vocab.fingerprint() != meta["vocab_fingerprint"]:
        raise CliError(
            f"{args.checkpoint}: checkpoint vocabulary does not match this corpus "
            f"(fingerprints {meta['vocab_fingerprint'][:12]} vs "
            f"{vocab.fingerprint()[:12]})")
    splits = (apply_split_manifest(entries, args.manifest) if args.manifest
              else {"train": [], "test": entries})
    labeled = partition_seen_unseen(splits["train"], splits["test"])
    with _checkpoint_numerics(args.checkpoint):
        report = evaluate(model, labeled, seed=cfg.train.seed)
    print(_write_report(args.out_dir, "report", run, format_report(report),
                        report_lines(report)), end="")
    return 0


def cmd_generate(args, cfg, run) -> int:
    model, _, _ = load_checkpoint(args.checkpoint, _contextual_file(cfg))
    for entry in args.queries:
        with _checkpoint_numerics(args.checkpoint):
            tokens, meta = model.generate(entry, task=args.task,
                                          temperature=cfg.model.temperature,
                                          seed=cfg.train.seed)
        record = {"word": entry.word, "context": " ".join(entry.contexts[0]),
                  "output": " ".join(tokens)}
        record.update(meta)
        print(json_text(record))
    return 0


ABLATION_FEATURES = (("base", {"char_on": False, "contextual_on": False}),
                     ("+ctx", {"char_on": False, "contextual_on": True}),
                     ("+ctx+char", {"char_on": True, "contextual_on": True}))


def cmd_ablate(args, cfg, run) -> int:
    entries, _ = _load_entries(cfg)
    vocab = model_vocab(entries, cfg.data.vocab_size)
    rows = []
    for gate in (True, False):
        for feat_name, feat in ABLATION_FEATURES:
            for s0 in S0_VARIANTS:
                run_cfg = replace(cfg, model=replace(cfg.model, gate_on=gate,
                                                     s0_variant=s0, **feat))
                model = _build_model(run_cfg, vocab)
                n_params = sum(t.size for t in model.params().values())
                result = train(model, run_cfg, entries, entries)
                last = result.history[-1]
                row = {"gate": "on" if gate else "off", "features": feat_name, "s0": s0,
                       "params": n_params, "train_loss": last["mean_train_loss"],
                       "valid_ppl": last["valid_ppl"]}
                rows.append(row)
                print(f"gate={row['gate']:<3} features={feat_name:<9} s0={s0:<7} "
                      f"params={n_params:>8} loss={row['train_loss']:.4f} "
                      f"ppl={row['valid_ppl']:.4f}")
    lines = [f"{'gate':<5} {'features':<10} {'s0':<8} {'params':>9} "
             f"{'train-loss':>11} {'valid-ppl':>10}"]
    for r in rows:
        lines.append(f"{r['gate']:<5} {r['features']:<10} {r['s0']:<8} "
                     f"{r['params']:>9} {r['train_loss']:>11.4f} "
                     f"{r['valid_ppl']:>10.4f}")
    _write_report(args.out_dir, "ablation", run, "\n".join(lines) + "\n",
                  [json_text(r) for r in rows])
    print(f"table: {os.path.join(args.out_dir, 'ablation.txt')}")
    return 0


# -- wiring ------------------------------------------------------------------

def _epochs(text: str) -> int:
    """Checked while parsing, so a rejected value leaves no FAILED marker."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _common(out_dir_required: bool) -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="path to a section.key = value file")
    common.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="config override, repeatable")
    common.add_argument("--seed", type=int, help="sets train.seed")
    common.add_argument("--out-dir", required=out_dir_required,
                        help="directory for run artifacts")
    return common


def build_parser() -> _Parser:
    parser = _Parser(prog="glossgen",
                     description="Context-aware definition and usage generation.")
    optional_out, required_out = _common(False), _common(True)

    sub = parser.add_subparsers(dest="command", required=True)

    p_data = sub.add_parser("data", help="corpus utilities")
    data_sub = p_data.add_subparsers(dest="data_command", required=True)
    data_sub.add_parser("validate", parents=[optional_out],
                        help="parse the corpus and print a validation report"
                        ).set_defaults(handler=cmd_data_validate)
    data_sub.add_parser("split", parents=[required_out],
                        help="write a sense-disjoint train/valid/test manifest"
                        ).set_defaults(handler=cmd_data_split)
    p_stats = data_sub.add_parser("stats", parents=[optional_out],
                                  help="per-split corpus statistics")
    p_stats.add_argument("--manifest", help="split manifest to group by")
    p_stats.set_defaults(handler=cmd_data_stats)
    p_vocab = data_sub.add_parser("vocab", parents=[optional_out],
                                  help="build and save the token vocabulary")
    p_vocab.add_argument("--stopwords",
                         help="stopword file to filter with, or 'bundled'")
    p_vocab.set_defaults(handler=cmd_data_vocab)

    sub.add_parser("pretrain", parents=[required_out],
                   help="language-model pretraining of the decoder branch"
                   ).set_defaults(handler=cmd_pretrain)

    p_train = sub.add_parser("train", parents=[required_out], help="fit a model")
    p_train.add_argument("--pretrained", help="warm-start file from 'pretrain'")
    p_train.add_argument("--manifest", help="reuse an existing split manifest")
    p_train.set_defaults(handler=cmd_train)

    p_eval = sub.add_parser("eval", parents=[optional_out],
                            help="score a checkpoint on the test split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--manifest", help="split manifest; omitted = whole corpus")
    p_eval.set_defaults(handler=cmd_eval)

    p_gen = sub.add_parser("generate", parents=[optional_out],
                           help="define a word as used in the given context")
    p_gen.add_argument("--checkpoint", required=True)
    p_gen.add_argument("--word", required=True)
    p_gen.add_argument("--context", action="append", required=True,
                       help="context sentence, repeatable")
    p_gen.add_argument("--task", choices=("definition", "usage"),
                       default="definition")
    p_gen.add_argument("--temperature", type=float, help="sets model.temperature")
    p_gen.set_defaults(handler=cmd_generate)

    p_abl = sub.add_parser("ablate", parents=[required_out],
                           help="train every switch combination and tabulate")
    p_abl.add_argument("--epochs", type=_epochs, default=1,
                       help="epochs per combination, at least 1 (default 1)")
    p_abl.set_defaults(handler=cmd_ablate)

    return parser


def _resolve_config(args) -> Config:
    """The one config a run records, resolved and judged before the run
    writes or loads anything: the file's or the defaults, with a given
    checkpoint's model and vocabulary size, then the overrides, which may
    not change what the checkpoint fixes, then the flags, with a
    ``generate`` query built as ``args.queries`` (a blank one is refused)."""
    cfg = load_config_file(args.config) if args.config else default_config()
    path = getattr(args, "checkpoint", None)
    if path is not None:
        stored = read_config(path)
        cfg = replace(cfg, model=stored.model,
                      data=replace(cfg.data, vocab_size=stored.data.vocab_size))
    cfg = apply_overrides(cfg, args.override)
    if path is not None:
        # a value apart from the checkpoint's came from an override that
        # would change nothing yet enter the run record
        for key in [f"model.{f.name}" for f in fields(cfg.model)] + ["data.vocab_size"]:
            section, name = key.split(".")
            given, fixed = (getattr(getattr(c, section), name) for c in (cfg, stored))
            if given != fixed:
                raise CliError(f"{path}: --override {key}={given} differs from "
                               f"the checkpoint's {key} = {fixed}, which fixes the model")
    if args.seed is not None:
        cfg = set_key(cfg, "train.seed", str(args.seed))
    if getattr(args, "epochs", None) is not None:
        cfg = set_key(cfg, "train.max_epochs", str(args.epochs))
    if getattr(args, "temperature", None) is not None:
        if not 0 < args.temperature < math.inf:
            raise CliError(f"--temperature must be positive and finite, "
                           f"got {args.temperature}")
        cfg = set_key(cfg, "model.temperature", str(args.temperature))
    validate(cfg)
    if getattr(args, "task", None) not in (None, *KINDS[cfg.model.kind][0]):
        raise CliError(f"{path}: a {cfg.model.kind} checkpoint has no {args.task!r} task")
    if getattr(args, "context", None) is not None:
        args.queries = [make_query_entry(args.word, context, entry_id=f"query-{i}")
                        for i, context in enumerate(args.context)]
    return cfg


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    out_dir = None  # set once this command starts writing its run directory
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        run = {"command": _clean_argv(argv), "config_digest": config_digest(cfg)}
        if args.out_dir is not None:
            out_dir = args.out_dir
            _prepare_out(out_dir, cfg, run)
        # Every autodiff primitive checks its output for non-finite values
        # (``autodiff._finish``) and raises the error that names the fault, so
        # numpy's floating-point warnings would only print it once more, first.
        with np.errstate(all="ignore"):
            return args.handler(args, cfg, run)
    except (CliError, *USER_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 2
    if out_dir is not None and os.path.isdir(out_dir):
        # the command died after touching its run directory: artifacts may be partial
        with open(os.path.join(out_dir, "FAILED"), "w", encoding="utf-8") as fh:
            fh.write("incomplete run; artifacts may be partial\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
