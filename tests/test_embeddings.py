import numpy as np
import pytest

from glossgen import embeddings as E
from glossgen.autodiff import AdamState, Tape, adam_step, backward, grad_check, mul, sum_all
from glossgen.data import DictionaryEntry, Vocabulary
from glossgen.decoder import DecoderEmbedding
from glossgen.encoder import ContextEncoder


def small_vocab():
    return Vocabulary(["cat", "dog", "bird"])


def write_vectors(path, rows, header=None):
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for token, vec in rows:
            fh.write(token + " " + " ".join(str(x) for x in vec) + "\n")
    return path


class TestWordEmbeddings:
    def test_direct_load_full_coverage(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", [("cat", [1, 0]), ("dog", [0, 1]),
                                                  ("bird", [1, 1])])
        matrix, coverage = E.load_word_embeddings(path, small_vocab(), seed=0, dim=2)
        assert coverage == 1.0
        assert np.array_equal(matrix[4], [1, 0])
        assert np.array_equal(matrix[5], [0, 1])

    def test_missing_token_sampled(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", [("cat", [1, 0])])
        matrix, coverage = E.load_word_embeddings(path, small_vocab(), seed=0, dim=2)
        assert coverage == pytest.approx(1 / 3)
        row = matrix[5]
        assert np.all(np.abs(row) <= 0.1) and np.any(row != 0)

    def test_pad_row_zero(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", [("cat", [1, 0])])
        matrix, _ = E.load_word_embeddings(path, small_vocab(), seed=0, dim=2)
        assert np.all(matrix[0] == 0)

    def test_header_tolerated(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", [("cat", [1, 0])], header="1 2")
        matrix, _ = E.load_word_embeddings(path, small_vocab(), seed=0, dim=2)
        assert matrix.shape == (7, 2)

    def test_wrong_arity_names_line(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", [("cat", [1, 0]), ("dog", [1, 2, 3])])
        with pytest.raises(E.EmbeddingError, match=":2:"):
            E.load_word_embeddings(path, small_vocab(), seed=0, dim=2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("")
        with pytest.raises(E.EmbeddingError, match="empty"):
            E.load_word_embeddings(path, small_vocab(), seed=0, dim=2)

    def test_frozen_table_untouched_by_adam(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", [("cat", [1.0, 0.5])])
        matrix, _ = E.load_word_embeddings(path, small_vocab(), seed=0, dim=2)
        emb = DecoderEmbedding(matrix, np.random.default_rng(0))
        before = emb.frozen.data.copy()
        # the frozen table is not a parameter, so updates cannot move it
        assert all(t is not emb.frozen for t in emb.params().values())
        state = AdamState(lr=0.01)
        for _ in range(3):
            with Tape() as tape:
                rows = emb.embed([2, 4, 5])
                backward(tape, sum_all(mul(rows, rows)))
            adam_step(emb.params(), state)
        assert np.array_equal(emb.frozen.data, before)

    def test_trainable_table_moves(self):
        rng = np.random.default_rng(1)
        enc = ContextEncoder(rng, rng.uniform(-0.1, 0.1, size=(len(small_vocab()), 4)), d_h=3)
        params = enc.params()
        assert params["enc.table"] is enc.table
        with Tape() as tape:
            _, v_c, _ = enc.encode([[4, 5]])
            backward(tape, sum_all(mul(v_c, v_c)))
        before = enc.table.data.copy()
        adam_step(params, AdamState(lr=0.01))
        assert not np.array_equal(enc.table.data, before)


class TestCharEncoder:
    def test_output_dim_160(self):
        enc = E.CharEncoder(np.random.default_rng(0))
        for word in ["a", "like", "dislike", "extraordinarily"]:
            out = enc.encode([word])
            assert out.shape == (1, 160)

    def test_deterministic_per_word(self):
        enc = E.CharEncoder(np.random.default_rng(0))
        a = enc.encode(["check"]).data
        b = enc.encode(["check"]).data
        assert np.array_equal(a, b)

    def test_different_words_differ(self):
        enc = E.CharEncoder(np.random.default_rng(0))
        a = enc.encode(["like"]).data
        b = enc.encode(["dislike"]).data
        assert not np.allclose(a, b)

    def test_empty_word_rejected(self):
        enc = E.CharEncoder(np.random.default_rng(0))
        with pytest.raises(E.EmbeddingError):
            enc.encode([""])
        with pytest.raises(E.EmbeddingError):
            enc.encode(["word", ""])

    def test_unknown_chars_fall_back(self):
        enc = E.CharEncoder(np.random.default_rng(0))
        out = enc.encode(["naïve"])
        assert out.shape == (1, 160)

    def test_carry_only_highway_is_identity(self):
        enc = E.CharEncoder(np.random.default_rng(0))
        # transform gate forced shut: t ~ 0 so each highway layer passes input
        for layer in range(E.HIGHWAY_LAYERS):
            enc._params[f"char.hw{layer}.b_T"].data[...] = -1e3
        with_gates = enc.encode(["check"]).data

        pieces = []
        p = enc._params
        ids = [E.CHAR_IDS[c] for c in "check"] + [E.BOUNDARY_CHAR_ID]
        emb = p["char.table"].data[ids]
        for w, n in zip(E.CONV_WIDTHS, E.CONV_COUNTS):
            k = p[f"char.conv{w}.kernel"].data
            lout = len(ids) - w + 1
            conv = np.zeros((lout, n))
            for i in range(w):
                conv += emb[i:i + lout] @ k[i]
            feat = np.tanh(conv + p[f"char.conv{w}.bias"].data)
            pieces.append(feat.max(axis=0))
        pre_highway = np.concatenate(pieces)[None, :]
        assert np.allclose(with_gates, pre_highway, atol=1e-9)

    def test_zero_filters_give_tanh_bias(self):
        enc = E.CharEncoder(np.random.default_rng(0))
        for w in E.CONV_WIDTHS:
            enc._params[f"char.conv{w}.kernel"].data[...] = 0.0
            enc._params[f"char.conv{w}.bias"].data[...] = 0.3
        for layer in range(E.HIGHWAY_LAYERS):
            enc._params[f"char.hw{layer}.b_T"].data[...] = -1e3
        out = enc.encode(["word"]).data
        assert np.allclose(out, np.tanh(0.3))

    def test_gradients_flow(self):
        enc = E.CharEncoder(np.random.default_rng(3))
        params = enc.params()
        with Tape() as tape:
            out = enc.encode(["cat"])
            backward(tape, sum_all(mul(out, out)))
        table_grad = params["char.table"].grad
        assert np.any(table_grad != 0)

    def test_batch_rows_match_each_word_alone(self):
        # A word longer than the widest filter pads the others past their own
        # six chars; a repeated word is encoded in each of its rows alike.
        enc = E.CharEncoder(np.random.default_rng(5))
        words = ["check", "a", "extraordinarily", "check", "naïve"]
        with Tape() as tape:
            out = enc.encode(words)
        assert out.shape == (5, 160)
        for row, word in zip(out.data, words):
            assert np.allclose(row, enc.encode([word]).data[0], rtol=0, atol=1e-12)
        assert np.array_equal(out.data[0], out.data[3])
        assert sum(node.op == "conv1d" for node in tape.nodes) == len(E.CONV_WIDTHS)

    def test_grad_check_small(self):
        enc = E.CharEncoder(np.random.default_rng(4))
        point = [enc._params[name] for name in (
            "char.conv2.kernel", "char.hw0.W_T", "char.hw0.b_H", "char.hw1.W_H", "char.hw1.b_T")]

        def f(*params):
            out = enc.encode(["dog"])
            return sum_all(mul(out, out))

        assert grad_check(f, point, coord_limit=20, seed=0) < 1e-6


class TestContextualProvider:
    def make_entry(self, contexts, indices, word="check", entry_id="e1"):
        return DictionaryEntry(
            entry_id=entry_id, word=word, pos="n", sense_id="s1",
            definition=["a", "thing"], contexts=contexts,
            context_target_indices=indices)

    def test_deterministic_same_input(self):
        p = E.ContextualProvider(dim=16, seed=1)
        entry = self.make_entry([["he", "paid", "the", "check"]], [3])
        assert np.array_equal(p.embed_for_entry(entry), p.embed_for_entry(entry))

    def test_different_neighbors_differ(self):
        p = E.ContextualProvider(dim=16, seed=1)
        a = p.embed_for_entry(self.make_entry([["the", "check", "bounced"]], [1]))
        b = p.embed_for_entry(self.make_entry([["a", "check", "mark"]], [1]))
        assert not np.allclose(a, b)

    def test_unit_norm(self):
        p = E.ContextualProvider(dim=32, seed=5)
        for ctx, i in [(["lone"], 0), (["a", "b", "c"], 1), (["x", "y"], 1), (["z"], None)]:
            v = p.embed_for_entry(self.make_entry([ctx], [i]))
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-9

    def test_index_out_of_range(self):
        p = E.ContextualProvider(dim=8)
        with pytest.raises(E.EmbeddingError, match="out of range"):
            p.embed_for_entry(self.make_entry([["one", "two"]], [2]))

    def test_absent_occurrence_falls_back_to_word(self):
        p = E.ContextualProvider(dim=8, seed=2)
        v = p.embed_for_entry(self.make_entry([["unrelated", "words"]], [None]))
        # the word alone hashes like a one-token context holding only the word
        assert np.array_equal(v, p.embed_for_entry(self.make_entry([["check"]], [0])))

    def test_file_backed_lookup(self, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text("e1 " + " ".join(["0.5"] * 4) + "\n")
        p = E.load_contextual_file(path, dim=4)
        assert np.array_equal(p.embed_for_entry(self.make_entry([["x"]], [None])), [0.5] * 4)

    def test_file_backed_missing_key(self, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text("e1 1 2 3 4\n")
        p = E.load_contextual_file(path, dim=4)
        with pytest.raises(E.EmbeddingError, match="e9"):
            p.embed_for_entry(self.make_entry([["x"]], [None], entry_id="e9"))

    def test_file_backed_length_checked(self, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text("e1 1 2 3\n")
        with pytest.raises(E.EmbeddingError, match=":1:"):
            E.load_contextual_file(path, dim=4)

    def test_kind_follows_table(self, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text("e1 1 2 3 4\n")
        assert E.ContextualProvider(dim=4).kind == "deterministic-test"
        assert E.load_contextual_file(path, dim=4).kind == "file-backed"


class TestVectorFiles:
    """Word-vector and contextual files share one "key v1 .. vd" parser."""

    LOADERS = {
        "word": lambda path: E.load_word_embeddings(path, small_vocab(), seed=0, dim=2),
        "contextual": lambda path: E.load_contextual_file(path, dim=2),
    }

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize("text, match", [
        ("cat 0.1 0.2\nthe 0.1 abc\n", ":2: values must be numbers"),
        ("cat 0.1 0.2\nquery-0 nan 0.4\n", ":2: values must be finite"),
        ("cat inf 0.2\n", ":1: values must be finite"),
        ("cat 0.1 0.2 0.3\n", ":1: expected 2 values, got 3"),
        ("cat 0.1\ndog 0.1 0.2\n", ":1: expected 2 values, got 1"),
        ("\n  \n", "no records"),
        ("3 2\n", "no records"),
    ])
    def test_bad_file_names_path(self, tmp_path, loader, text, match):
        path = tmp_path / "v.txt"
        path.write_text(text)
        with pytest.raises(E.EmbeddingError, match=match) as info:
            self.LOADERS[loader](path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_count_dim_header_skipped(self, tmp_path, loader):
        path = tmp_path / "v.txt"
        path.write_text("1 2\ncat 0.5 0.25\n")
        self.LOADERS[loader](path)

    def test_one_value_records_have_no_header(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("7 3\n8 4\n")
        assert E.load_contextual_file(path, dim=1).table.keys() == {"7", "8"}
