"""Embedding file parsing and phrase encoding."""

import numpy as np
import pytest

from fedsymptoms.embeddings import (
    UnembeddablePhraseError,
    encode_phrase,
    load_embeddings,
    tokenize,
)

from conftest import tiny_table


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_parses_tokens_and_vectors(tmp_path):
    p = tmp_path / "emb.txt"
    write_lines(p, ["fever 1.0 2.0 3.0", "cough -1.0 0.5 0.25"])
    table = load_embeddings(str(p), 3)
    assert len(table) == 2
    assert np.allclose(table["fever"], [1.0, 2.0, 3.0])
    assert "cough" in table and "sneeze" not in table


def test_load_lowercases_tokens(tmp_path):
    p = tmp_path / "emb.txt"
    write_lines(p, ["Fever 1.0 2.0"])
    table = load_embeddings(str(p), 2)
    assert "fever" in table


def test_load_skips_malformed_lines(tmp_path):
    p = tmp_path / "emb.txt"
    write_lines(p, [
        "good 1.0 2.0",
        "short 1.0",
        "bad 1.0 not-a-number",
        "inf 1.0 inf",
        "alsogood 3.0 4.0",
    ])
    table = load_embeddings(str(p), 2)
    assert sorted(table) == ["alsogood", "good"]


def test_load_keeps_first_duplicate(tmp_path):
    p = tmp_path / "emb.txt"
    write_lines(p, ["tok 1.0 1.0", "tok 9.0 9.0"])
    table = load_embeddings(str(p), 2)
    assert np.allclose(table["tok"], [1.0, 1.0])


def test_load_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_embeddings("/nonexistent/emb.txt", 2)


def test_load_empty_table_raises(tmp_path):
    p = tmp_path / "emb.txt"
    write_lines(p, ["onlybad 1.0"])
    with pytest.raises(ValueError):
        load_embeddings(str(p), 2)


def test_load_rejects_nonpositive_dimension(tmp_path):
    p = tmp_path / "emb.txt"
    write_lines(p, ["tok 1.0"])
    with pytest.raises(ValueError):
        load_embeddings(str(p), 0)


def test_vectors_are_read_only(tmp_path):
    p = tmp_path / "emb.txt"
    write_lines(p, ["tok 1.0 2.0"])
    table = load_embeddings(str(p), 2)
    with pytest.raises(ValueError):
        table["tok"][0] = 5.0


def test_tokenize_lowercases_and_splits_slash():
    assert tokenize("Nausea/vomiting") == ["nausea", "vomiting"]
    assert tokenize("Loss of taste or smell") == ["loss", "of", "taste", "or", "smell"]


def test_encode_phrase_is_token_mean():
    table = tiny_table(["runny", "nose"])
    vec = encode_phrase(table, "Runny nose")
    expected = (table["runny"] + table["nose"]) / 2
    assert np.allclose(vec, expected)
    assert vec.shape == (4,)
    assert not vec.flags.writeable


def test_encode_phrase_skips_oov_tokens():
    table = tiny_table(["sore"])
    vec = encode_phrase(table, "sore throat")
    assert np.allclose(vec, table["sore"])
    assert "throat" not in table


def test_encode_phrase_all_oov_raises():
    table = tiny_table(["something"])
    with pytest.raises(UnembeddablePhraseError):
        encode_phrase(table, "entirely unknown words")


def test_encode_phrase_empty_raises():
    table = tiny_table(["tok"])
    with pytest.raises(ValueError):
        encode_phrase(table, "   ")


def test_bundled_fixture_covers_all_assets(table, surveys, corpus):
    assert all(vec.shape == (50,) for vec in table.values())
    phrases = [name for s in surveys for name in s.symptom_counts] + list(corpus)
    for phrase in phrases:
        assert all(token in table for token in tokenize(phrase)), phrase
