"""Tests for the policy language tokenizer."""

import pytest

from repro.policy import LexError, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text) if t.kind != "EOF"]


class TestTokenize:
    def test_keywords_recognised(self):
        tokens = tokenize("service role activate authorize appoint "
                          "appointment where")
        assert all(t.kind == "KEYWORD" for t in tokens[:-1])

    def test_identifiers(self):
        assert kinds("treating_doctor")[:-1] == ["IDENT"]
        assert kinds("a-b_c2")[:-1] == ["IDENT"]

    def test_punctuation(self):
        assert kinds("( ) , : / * <-")[:-1] == [
            "LPAREN", "RPAREN", "COMMA", "COLON", "SLASH", "STAR", "ARROW"]

    def test_numbers(self):
        tokens = tokenize("42 -7 3.5")
        assert [t.kind for t in tokens[:-1]] == ["NUMBER"] * 3
        assert [t.value for t in tokens[:-1]] == ["42", "-7", "3.5"]

    def test_strings(self):
        tokens = tokenize('"hello world" "esc\\"aped"')
        assert [t.kind for t in tokens[:-1]] == ["STRING"] * 2

    def test_comments_skipped(self):
        assert values("a # comment with <- tokens\nb") == ["a", "b"]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n  c")
        assert [(t.value, t.line) for t in tokens[:-1]] == [
            ("a", 1), ("b", 2), ("c", 3)]
        assert tokens[2].column == 3

    def test_eof_always_present(self):
        assert tokenize("")[-1].kind == "EOF"

    def test_bad_character(self):
        with pytest.raises(LexError, match="line 2"):
            tokenize("ok\n  !")
