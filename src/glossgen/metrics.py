"""Evaluation: sentence-level BLEU, ROUGE-L F-measure, corpus perplexity, and
the per-partition report produced after generation.

The BLEU here follows the Moses sentence-level scorer's behavior: modified
n-gram precisions for n = 1..4 capped at the candidate length, add-one
smoothing of numerator and denominator for n >= 2 only when the raw numerator
is zero, geometric mean, and the standard brevity penalty. It is an emulation
of that scorer's documented rules, not a byte-exact port.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import find_target_occurrence, json_text, stable_seed


class MetricsError(Exception):
    pass


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def sentence_bleu(candidate, reference) -> float:
    """Sentence BLEU in [0, 1]; empty candidate scores 0."""
    candidate, reference = list(candidate), list(reference)
    if not reference:
        raise MetricsError("sentence_bleu: empty reference")
    if not candidate:
        return 0.0
    c, r = len(candidate), len(reference)
    n_max = min(4, c)
    log_sum = 0.0
    for n in range(1, n_max + 1):
        cand_counts = _ngram_counts(candidate, n)
        ref_counts = _ngram_counts(reference, n)
        num = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
        den = c - n + 1
        if n >= 2 and num == 0:
            num += 1
            den += 1
        if num == 0:
            return 0.0  # unigram precision zero kills the geometric mean
        log_sum += np.log(num / den)
    precision = np.exp(log_sum / n_max)
    brevity = np.exp(1.0 - r / c) if c < r else 1.0
    return float(brevity * precision)


def lcs_length(a, b) -> int:
    """Longest common subsequence length via the standard DP recurrence."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate, reference) -> float:
    """Balanced LCS-based F-measure in [0, 1]."""
    candidate, reference = list(candidate), list(reference)
    if not reference:
        raise MetricsError("rouge_l: empty reference")
    if not candidate:
        return 0.0
    lcs = lcs_length(candidate, reference)
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def perplexity(model, entries, tasks=("definition",), batch_size: int = 16) -> float:
    """exp(total teacher-forced NLL / total scored tokens, end marker included),
    pooled over ``tasks`` and so weighted by their token counts."""
    entries = list(entries)
    if not entries:
        raise MetricsError("perplexity: empty corpus")
    total, count = 0.0, 0
    for i in range(0, len(entries), batch_size):
        nll = model.forward_batch(entries[i:i + batch_size], tasks).nll
        for name in sorted(nll):  # definition before usage, whatever the decode order
            total += nll[name][0]
            count += nll[name][1]
    return float(np.exp(total / count))


@dataclass
class PartitionScores:
    entries: int
    bleu: float
    rouge: float


@dataclass
class EvalReport(PartitionScores):
    """The full test set's scores, with its perplexity and partitions."""
    ppl: float
    seen: PartitionScores
    unseen: PartitionScores
    usage_inclusion: float | None = None
    empty_candidates: int = 0

    def partitions(self) -> list[tuple[str, PartitionScores]]:
        return [("full", self), ("seen", self.seen), ("unseen", self.unseen)]


def evaluate(model, labeled_entries, seed: int = 0, max_len: int | None = None) -> EvalReport:
    """Generate one hypothesis per entry and score against the gold definition.

    ``labeled_entries`` is the data module's Seen/Unseen labeling of the test
    set. Every hypothesis is sampled at the model's own ``cfg.temperature``.
    Per-entry generation seeds derive from (seed, entry id), so the report is
    independent of entry order.
    """
    labeled_entries = list(labeled_entries)
    if not labeled_entries:
        raise MetricsError("evaluate: empty test set")
    for _, label in labeled_entries:
        if label not in ("seen", "unseen"):
            raise MetricsError(f"evaluate: entry lacks a seen/unseen label, got {label!r}")
    buckets = {"seen": [], "unseen": []}
    empty = inclusion_hits = 0
    multi = "usage" in model.tasks
    for e, label in labeled_entries:
        tokens, _ = model.generate(e, task="definition",
                                   seed=stable_seed(seed, e.entry_id), max_len=max_len)
        if not tokens:
            empty += 1
        buckets[label].append((sentence_bleu(tokens, e.definition),
                               rouge_l(tokens, e.definition)))
        if multi:
            usage, _ = model.generate(e, task="usage",
                                      seed=stable_seed(seed, e.entry_id + "#usage"),
                                      max_len=max_len)
            if find_target_occurrence(usage, e.word) is not None:
                inclusion_hits += 1

    def scores(pairs) -> PartitionScores:
        if not pairs:
            return PartitionScores(entries=0, bleu=0.0, rouge=0.0)
        return PartitionScores(entries=len(pairs),
                               bleu=float(np.mean([p[0] for p in pairs])),
                               rouge=float(np.mean([p[1] for p in pairs])))

    full = scores(buckets["seen"] + buckets["unseen"])
    return EvalReport(
        **vars(full),
        ppl=perplexity(model, [e for e, _ in labeled_entries]),
        seen=scores(buckets["seen"]),
        unseen=scores(buckets["unseen"]),
        usage_inclusion=(inclusion_hits / len(labeled_entries)) if multi else None,
        empty_candidates=empty,
    )


def report_lines(report: EvalReport) -> list[str]:
    """Line-delimited JSON records, full precision, stable key order."""
    rows = [{"partition": name, "entries": p.entries, "bleu": p.bleu, "rouge_l": p.rouge}
            for name, p in report.partitions()]
    rows[0]["ppl"] = report.ppl
    if report.usage_inclusion is not None:
        rows.append({"usage_inclusion": report.usage_inclusion})
    if report.empty_candidates:
        rows.append({"empty_candidates": report.empty_candidates})
    return [json_text(row) for row in rows]


def format_report(report: EvalReport) -> str:
    """Human-readable table; scores printed x100 as is conventional."""
    lines = [f"{'partition':<10} {'entries':>7} {'bleu':>7} {'rouge-l':>8}"]
    lines += [f"{name:<10} {p.entries:>7} {100 * p.bleu:>7.2f} {100 * p.rouge:>8.2f}"
              for name, p in report.partitions()]
    lines.append(f"perplexity {report.ppl:.4f}")
    if report.usage_inclusion is not None:
        lines.append(f"usage-inclusion-rate {report.usage_inclusion:.4f}")
    if report.empty_candidates:
        lines.append(f"empty-candidates {report.empty_candidates}")
    return "\n".join(lines) + "\n"
