import itertools

import numpy as np
import pytest

from glossgen import metrics as M
from glossgen.config import ModelConfig
from glossgen.data import DictionaryEntry, Vocabulary, partition_seen_unseen
from glossgen.models import DefinitionModel

WORDS = ["check", "run", "walk", "cat", "dog", "sun", "tree", "bird",
         "fish", "rock", "rain", "wind", "fire", "snow", "moon", "star"]


def entry(word="check", definition=("a", "small", "mark"), eid="e1"):
    return DictionaryEntry(
        entry_id=eid, word=word, pos="n", sense_id="s1", definition=list(definition),
        contexts=[["the", word, "is", "here"]], context_target_indices=[1],
        usage=["the", word, "works"])


def micro_model(**kw):
    base = dict(d_w=8, d_h=4, d_s=8, d_attn=8, d_e=8, max_gen_len=8,
                char_on=False, contextual_on=False)
    base.update(kw)
    return DefinitionModel(ModelConfig(**base), Vocabulary(WORDS), seed=0)


class TestBleu:
    def test_perfect_match(self):
        toks = "a b c d e".split()
        assert M.sentence_bleu(toks, toks) == pytest.approx(1.0)

    def test_hand_oracle_brevity_case(self):
        # all three precisions are 1, so only the brevity penalty remains
        score = M.sentence_bleu("the cat sat".split(), "the cat sat down".split())
        assert score == pytest.approx(np.exp(1 - 4 / 3), abs=1e-9)
        assert score == pytest.approx(0.7165, abs=1e-4)

    def test_disjoint_zero(self):
        assert M.sentence_bleu("a b c".split(), "x y z".split()) == 0.0

    def test_smoothing_hand_oracle(self):
        # p1 = 2/3; bigram and trigram raw numerators are 0 and get add-one
        # smoothing: p2 = 1/3, p3 = 1/2; equal lengths so no brevity penalty
        score = M.sentence_bleu("a b a".split(), "a c b".split())
        expected = (2 / 3 * 1 / 3 * 1 / 2) ** (1 / 3)
        assert score == pytest.approx(expected, abs=1e-12)

    def test_n_capped_at_candidate_length(self):
        # single-token candidate: only unigram precision counts
        assert M.sentence_bleu(["cat"], ["cat"]) == pytest.approx(np.exp(1 - 1 / 1) * 1.0)
        assert M.sentence_bleu(["cat"], ["the", "cat"]) == pytest.approx(np.exp(1 - 2))

    def test_no_penalty_when_candidate_longer(self):
        score = M.sentence_bleu("a b c d e".split(), "a b c d".split())
        assert score < 1.0  # precision drops but no brevity penalty
        p1, p2, p3, p4 = 4 / 5, 3 / 4, 2 / 3, 1 / 2
        assert score == pytest.approx((p1 * p2 * p3 * p4) ** 0.25)

    def test_empty_candidate_scores_zero(self):
        assert M.sentence_bleu([], ["a"]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(M.MetricsError):
            M.sentence_bleu(["a"], [])

    def test_relabeling_invariance(self):
        cand = "a b b c".split()
        ref = "a b c c d".split()
        mapping = {"a": "w", "b": "x", "c": "y", "d": "z"}
        assert M.sentence_bleu(cand, ref) == pytest.approx(
            M.sentence_bleu([mapping[t] for t in cand], [mapping[t] for t in ref]))

    def test_range(self):
        rng = np.random.default_rng(0)
        alphabet = list("abcde")
        for _ in range(200):
            cand = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(1, 9))]
            ref = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(1, 9))]
            assert 0.0 <= M.sentence_bleu(cand, ref) <= 1.0


class TestRougeL:
    def test_identical(self):
        assert M.rouge_l("a b c".split(), "a b c".split()) == pytest.approx(1.0)

    def test_hand_oracle(self):
        # LCS=3, P=1, R=3/4 -> F = 2*(3/4)/(7/4) = 6/7
        score = M.rouge_l("the cat sat".split(), "the cat sat down".split())
        assert score == pytest.approx(6 / 7, abs=1e-12)
        assert score == pytest.approx(0.8571, abs=1e-4)

    def test_disjoint(self):
        assert M.rouge_l("a b".split(), "x y".split()) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(M.MetricsError):
            M.rouge_l(["a"], [])

    def test_empty_candidate(self):
        assert M.rouge_l([], ["a", "b"]) == 0.0

    def test_subsequence_not_substring(self):
        # LCS skips over gaps: a c e is a subsequence of a b c d e
        assert M.lcs_length("a c e".split(), "a b c d e".split()) == 3

    def test_relabeling_invariance(self):
        cand = "a b c a".split()
        ref = "b a c".split()
        mapping = {"a": "q", "b": "r", "c": "s"}
        assert M.rouge_l(cand, ref) == pytest.approx(
            M.rouge_l([mapping[t] for t in cand], [mapping[t] for t in ref]))

    def test_against_recursive_oracle_sample(self):
        # exhaustive length<=8 cross-check runs in the acceptance suite; here
        # a seeded sample of binary-alphabet pairs
        def lcs_rec(a, b, memo=None):
            memo = {} if memo is None else memo
            key = (len(a), len(b))
            if not a or not b:
                return 0
            if key in memo:
                return memo[key]
            if a[-1] == b[-1]:
                out = 1 + lcs_rec(a[:-1], b[:-1], memo)
            else:
                out = max(lcs_rec(a[:-1], b, memo), lcs_rec(a, b[:-1], memo))
            memo[key] = out
            return out

        rng = np.random.default_rng(1)
        for _ in range(300):
            a = ["ab"[i] for i in rng.integers(0, 2, size=rng.integers(0, 9))]
            b = ["ab"[i] for i in rng.integers(0, 2, size=rng.integers(0, 9))]
            assert M.lcs_length(a, b) == lcs_rec(tuple(a), tuple(b))


# kind -> definition perplexity of the three entries of
# test_two_path_aggregation at batch sizes 1 and 2, char and contextual
# features on, recorded while every kind also decoded usage for it
PINNED_PPL = {
    "single": (19.817474980623132, 19.817474980623132),
    "parallel": (19.817474980623132, 19.817474980623132),
    "hier-du": (19.817474980623132, 19.817474980623132),
    "hier-ud": (19.62219679282477, 19.622196792824763),
}


class TestPerplexity:
    def test_uniform_model_equals_vocab_size(self):
        model = micro_model()
        model.def_stack.params()["def.W_d"].data[...] = 0.0
        model.def_stack.params()["def.b_d"].data[...] = 0.0
        ppl = M.perplexity(model, [entry(), entry(word="cat", eid="e2")])
        assert abs(ppl - 20.0) < 1e-9

    def test_single_entry_degenerate_average(self):
        model = micro_model()
        e = entry()
        total, count = model.forward(e).nll["definition"]
        ppl = M.perplexity(model, [e])
        assert ppl == pytest.approx(np.exp(total / count), abs=1e-12)

    def test_two_path_aggregation(self):
        model = micro_model()
        entries = [entry(eid="a"), entry(word="cat", definition=("a", "cat",), eid="b"),
                   entry(word="dog", definition=("a", "good", "dog", "runs"), eid="c")]
        ppl = M.perplexity(model, entries, batch_size=2)
        total = sum(model.forward(e).nll["definition"][0] for e in entries)
        count = sum(model.forward(e).nll["definition"][1] for e in entries)
        assert ppl == pytest.approx(np.exp(total / count), abs=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(M.MetricsError):
            M.perplexity(micro_model(), [])

    @pytest.mark.parametrize("kind", sorted(PINNED_PPL))
    def test_pinned(self, kind):
        model = micro_model(kind=kind, char_on=True, contextual_on=True)
        entries = [entry(eid="a"), entry(word="cat", definition=("a", "cat",), eid="b"),
                   entry(word="dog", definition=("a", "good", "dog", "runs"), eid="c")]
        got = tuple(M.perplexity(model, entries, batch_size=b) for b in (1, 2))
        assert got == PINNED_PPL[kind]

    def test_at_least_one_for_proper_distributions(self):
        ppl = M.perplexity(micro_model(), [entry()])
        assert ppl >= 1.0


class FakeEchoModel:
    """Returns the gold definition for every generate call."""

    def __init__(self, inner, echo=True):
        self.inner = inner
        self.cfg = inner.cfg
        self.tasks = inner.tasks
        self.echo = echo
        self._gold = {}

    def note(self, entries):
        for e in entries:
            self._gold[e.entry_id] = list(e.definition)

    def generate(self, e, task="definition", seed=0, max_len=None):
        if self.echo and task == "definition":
            return list(self._gold[e.entry_id]), {}
        return self.inner.generate(e, task=task, temperature=0.5, seed=seed, max_len=max_len)

    def forward_batch(self, entries, tasks=None):
        return self.inner.forward_batch(entries, tasks)


class TestEvaluate:
    def labeled(self):
        train = [entry(word="check", eid="t1")]
        test = [entry(word="check", definition=("a", "mark",), eid="x1"),
                entry(word="cat", definition=("a", "small", "cat"), eid="x2"),
                entry(word="dog", definition=("a", "dog",), eid="x3")]
        return partition_seen_unseen(train, test)

    def test_echo_model_scores_one(self):
        labeled = self.labeled()
        fake = FakeEchoModel(micro_model())
        fake.note([e for e, _ in labeled])
        report = M.evaluate(fake, labeled, seed=0)
        assert report.bleu == pytest.approx(1.0)
        assert report.rouge == pytest.approx(1.0)

    def test_partition_arithmetic(self):
        labeled = self.labeled()
        model = micro_model(temperature=0.5)
        report = M.evaluate(model, labeled, seed=3)
        assert report.seen.entries + report.unseen.entries == report.entries
        weighted = (report.seen.entries * report.seen.bleu
                    + report.unseen.entries * report.unseen.bleu) / report.entries
        assert report.bleu == pytest.approx(weighted, abs=1e-12)

    def test_deterministic_given_seed(self):
        labeled = self.labeled()
        model = micro_model(temperature=0.7)
        r1 = M.evaluate(model, labeled, seed=9)
        r2 = M.evaluate(model, labeled, seed=9)
        assert M.report_lines(r1) == M.report_lines(r2)

    def test_order_independent(self):
        labeled = self.labeled()
        model = micro_model(temperature=0.7)
        r1 = M.evaluate(model, labeled, seed=9)
        r2 = M.evaluate(model, list(reversed(labeled)), seed=9)
        assert r1.bleu == pytest.approx(r2.bleu)

    def test_missing_partition_rejected(self):
        model = micro_model()
        with pytest.raises(M.MetricsError):
            M.evaluate(model, [(entry(), None)])

    def test_empty_test_set_rejected(self):
        with pytest.raises(M.MetricsError, match="empty test set"):
            M.evaluate(micro_model(), [])

    def test_usage_inclusion_reported_for_multi(self):
        labeled = self.labeled()
        model = micro_model(kind="parallel", temperature=0.5)
        report = M.evaluate(model, labeled, seed=1)
        assert report.usage_inclusion is not None
        assert 0.0 <= report.usage_inclusion <= 1.0

    @pytest.mark.parametrize("kind", ["hier-du", "hier-ud"])
    def test_entry_without_usage_scores_the_same(self, kind):
        model = micro_model(kind=kind, temperature=0.5)
        labeled = self.labeled()
        with_usage = M.evaluate(model, labeled, seed=1)
        labeled[1][0].usage = None
        without = M.evaluate(model, labeled, seed=1)
        assert M.report_lines(without) == M.report_lines(with_usage)

    def test_single_has_no_inclusion_rate(self):
        report = M.evaluate(micro_model(temperature=0.5), self.labeled(), seed=1)
        assert report.usage_inclusion is None

    def test_report_renders(self):
        report = M.evaluate(micro_model(temperature=0.5), self.labeled(), seed=1)
        table = M.format_report(report)
        assert "perplexity" in table and "full" in table
        lines = M.report_lines(report)
        assert all(isinstance(line, str) for line in lines)


class TestReportLayout:
    """The bytes of report.txt and report.jsonl for a hand-built multi-task
    report, recorded before the full set's scores became the report itself."""

    REPORT = M.EvalReport(
        entries=5, bleu=0.2, rouge=0.26, ppl=12.345678901,
        seen=M.PartitionScores(entries=2, bleu=0.5, rouge=1 / 3),
        unseen=M.PartitionScores(entries=3, bleu=0.0, rouge=0.21333333333333335),
        usage_inclusion=0.4, empty_candidates=1)

    def test_table(self):
        assert M.format_report(self.REPORT) == (
            "partition  entries    bleu  rouge-l\n"
            "full             5   20.00    26.00\n"
            "seen             2   50.00    33.33\n"
            "unseen           3    0.00    21.33\n"
            "perplexity 12.3457\n"
            "usage-inclusion-rate 0.4000\n"
            "empty-candidates 1\n")

    def test_json_lines(self):
        assert M.report_lines(self.REPORT) == [
            '{"bleu": 0.2, "entries": 5, "partition": "full", "ppl": 12.345678901, '
            '"rouge_l": 0.26}',
            '{"bleu": 0.5, "entries": 2, "partition": "seen", "rouge_l": 0.3333333333333333}',
            '{"bleu": 0.0, "entries": 3, "partition": "unseen", '
            '"rouge_l": 0.21333333333333335}',
            '{"usage_inclusion": 0.4}',
            '{"empty_candidates": 1}',
        ]
