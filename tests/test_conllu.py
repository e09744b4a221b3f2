import bisect
import itertools
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maibaam_lint import cli, conllu
from maibaam_lint.cli import lint_documents
from maibaam_lint.conllu import (
    Diagnostic,
    Document,
    EmptyNodeLine,
    MwtSpan,
    ParseError,
    Sentence,
    Token,
    column_value,
    iter_sentences,
    parse_document,
    reconstruct_text,
    serialize_document,
)
from maibaam_lint.rules import LintConfig, validate_structure

from conftest import DURCH_DES, GOLDEN

MINIMAL = "1\tMinga\t_\tPROPN\t_\t_\t0\troot\t_\t_\n\n"


def test_parse_minimal_sentence():
    doc = parse_document(MINIMAL, "t.conllu")
    assert len(doc.sentences) == 1
    s = doc.sentences[0]
    assert len(s.tokens) == 1
    t = s.tokens[0]
    assert (t.id, t.form, t.upos, t.head, t.deprel) == (1, "Minga", "PROPN", 0, "root")


def test_parse_mwt_span():
    text = ("1-2\tzum\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tzu\t_\tADP\t_\t_\t3\tcase\t_\tGermanLemma=zu\n"
            "2\tm\t_\tDET\t_\t_\t3\tdet\t_\tGermanLemma=der\n"
            "3\tHaus\t_\tNOUN\t_\t_\t0\troot\t_\tGermanLemma=Haus\n\n")
    doc = parse_document(text, "t.conllu")
    span = doc.sentences[0].mwt_spans[0]
    assert (span.first_id, span.last_id, span.surface_form) == (1, 2, "zum")


def test_parse_metadata_and_comments():
    text = ("# sent_id = x-1\n# text = Minga\n# free comment\n" + MINIMAL)
    s = parse_document(text, "t").sentences[0]
    assert s.metadata_value("sent_id") == "x-1"
    assert s.metadata_value("text") == "Minga"
    assert s.metadata[2] == (None, "# free comment")
    assert s.line == 1


def test_a_record_equals_records_of_its_own_class_only():
    token = Token(1, "a", "X", 0, "root")
    values = tuple(getattr(token, name) for name in Token._fields)
    assert token == Token(*values)
    assert token != values and values != token
    assert token != MwtSpan(1, 1, "a") and MwtSpan(1, 1, "a") != token

    class Config(LintConfig):
        pass

    assert LintConfig() == LintConfig()
    assert LintConfig() != Config() and Config() != LintConfig()
    assert LintConfig() != Document() and Document() != LintConfig()


def test_metadata_is_the_one_record_of_the_comment_block():
    assert Sentence._fields == ("tokens", "mwt_spans", "metadata",
                                "empty_nodes", "file", "line")
    assert not hasattr(Sentence(), "comments")
    doc = parse_document("# sent_id = a\n# free\n" + MINIMAL, "t")
    doc.sentences[0].metadata[0] = ("sent_id", "b")
    assert serialize_document(doc) == "# sent_id = b\n# free\n" + MINIMAL


@pytest.mark.parametrize("entry", [
    ("sent_id", "a\nb"),       # an LF cuts the line in two
    ("text", "Minga\r"),       # a final CR writes a CRLF line end
    ("k\n", "v"),
    (None, "# a\nb"),
    (None, "# free\r"),
    (None, "free comment"),     # not a comment line
    (None, ""),                 # a blank line would end the sentence
    # read back as another entry
    ("my key", "v"),            # as (None, "# my key = v")
    ("1k", "v"),
    ("", "v"),
    ("k = x", "v"),             # as ("k", "x = v")
    (None, "# sent_id = x"),    # as ("sent_id", "x")
], ids=repr)
def test_serializer_rejects_a_metadata_line_that_would_not_parse_back(entry):
    s = parse_document("# sent_id = a\n" + MINIMAL, "t").sentences[0]
    s.metadata.append(entry)
    with pytest.raises(ValueError, match=re.escape(repr(entry))):
        serialize_document(Document([s]))


@pytest.mark.parametrize("line", ["oops", "", "# a\nb", "# end\r"], ids=repr)
def test_serializer_rejects_a_trailing_comment_that_would_not_parse_back(
        line):
    doc = parse_document(MINIMAL, "t")
    doc.trailing_comments = ["# fine", line]
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        serialize_document(doc)


def test_serializer_rejects_a_final_cr_only_before_a_line_end():
    # without a line end after it, a comment's final CR reads back
    for text in ("# c\r", "#\r\r", MINIMAL + "# c\r", MINIMAL + "# b\n# c\r"):
        doc = parse_document(text, "t")
        assert doc.trailing_comments[-1].endswith("\r")
        assert serialize_document(doc) == text
    doc = parse_document(MINIMAL + "# c\r", "t")
    doc.trailing_comments.append("# d")
    with pytest.raises(ValueError, match=re.escape(repr("# c\r"))):
        serialize_document(doc)
    doc.trailing_comments.pop()
    doc.final_newline = True
    with pytest.raises(ValueError, match=re.escape(repr("# c\r"))):
        serialize_document(doc)


@pytest.mark.parametrize("sentence, message", [
    # a range past the last token was dropped, or written and read back as
    # BAD_ID
    (Sentence([Token(1, "ab", "X", 0, "root")], [MwtSpan(2, 3, "ab")]),
     "bad multiword token MwtSpan(first_id=2, last_id=3, "),
    (Sentence([Token(1, "ab", "X", 0, "root")], [MwtSpan(1, 3, "ab")]),
     "bad multiword token MwtSpan(first_id=1, last_id=3, "),
    # read back as ID_SEQUENCE
    (Sentence([Token(2, "ab", "X", 0, "root")]),
     "bad token Token(id=2, .*: its id is not its position 1$"),
    (Sentence([Token(1, "a", "X", 0, "root"), Token(1, "b", "X", 1, "dep")]),
     "bad token Token(id=1, .*: its id is not its position 2$"),
    # read back as EMPTY_SENTENCE, or EXTRA_BLANK_LINE without metadata
    (Sentence([], metadata=[("sent_id", "a")]), "bad sentence: no tokens"),
    (Sentence(), "bad sentence: no tokens"),
], ids=["span-after-last", "span-past-last", "first-id", "repeated-id",
        "no-tokens", "nothing"])
def test_serializer_rejects_a_sentence_that_would_not_parse_back(sentence,
                                                                 message):
    with pytest.raises(ValueError, match="^" + message.replace("(", r"\(")):
        serialize_document(Document([sentence]))


ZUM = ("1-2\tzum\t_\t_\t_\t_\t_\t_\t_\t_\n"
       "1\tzu\t_\tADP\t_\t_\t0\troot\t_\t_\n"
       "2\tm\t_\tDET\t_\t_\t1\tdet\t_\t_\n\n")


@pytest.mark.parametrize("target, field, value", [
    # read back as BAD_HEAD
    ("token", "head", -1), ("token", "head", 1.5),
    # left out, then read back as WRONG_COLUMN_COUNT four times
    ("multiword token", "first_id", 0),
    ("multiword token", "surface_form", "z\tm"),
    ("multiword token", "other_cols", ("_",) * 6),
    ("multiword token", "other_cols", ("_",) * 8),
    ("multiword token", "other_cols", ("_",) * 5 + ("a\nb",)),
    # written as True-2 and 1-2.0, read back as BAD_ID
    ("multiword token", "first_id", True),
    ("multiword token", "last_id", 2.0),
])
def test_serializer_rejects_an_edited_row_that_would_not_parse_back(
        target, field, value):
    s = parse_document(ZUM, "t").sentences[0]
    edited = s.tokens[1] if target == "token" else s.mwt_spans[0]
    setattr(edited, field, value)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"bad {target} {edited!r}: ")):
        serialize_document(Document([s]))


@pytest.mark.parametrize("field, value", [
    ("form", "a b"), ("misc", "x\ry"), ("head", 5), ("misc", "\rx"),
    # an id equal to its position is written as the position
    ("id", 2.0)])
def test_serializer_writes_an_edited_token_that_parses_back(field, value):
    doc = parse_document(ZUM, "t")
    setattr(doc.sentences[0].tokens[1], field, value)
    assert parse_document(serialize_document(doc), "t") == doc


NODE_COLUMNS = "\tx\t_\t_\t_\t_\t_\t_\t_\t_"


@pytest.mark.parametrize("node", [
    EmptyNodeLine(1, "garbage"),
    EmptyNodeLine(5, "5.1" + NODE_COLUMNS),    # no token 5 to follow
    EmptyNodeLine(-1, "0.1" + NODE_COLUMNS),
    EmptyNodeLine(0, "1.1" + NODE_COLUMNS),    # its id names another anchor
    EmptyNodeLine(1, "1.0" + NODE_COLUMNS),
    EmptyNodeLine(1, "01.1" + NODE_COLUMNS),
    EmptyNodeLine(1, "1.1\t\t_\t_\t_\t_\t_\t_\t_\t_"),
    EmptyNodeLine(1, "1.1" + NODE_COLUMNS + "\t_"),
    EmptyNodeLine(1, "1.1" + NODE_COLUMNS + "\r"),
    EmptyNodeLine(1, "1.1" + NODE_COLUMNS + "\n1.2" + NODE_COLUMNS),
    EmptyNodeLine(1, "1.1" + NODE_COLUMNS[:-2] + "\n_"),
], ids=repr)
def test_serializer_rejects_an_empty_node_that_would_not_parse_back(node):
    doc = parse_document(MINIMAL, "t")
    doc.sentences[0].empty_nodes.append(node)
    with pytest.raises(ValueError, match=re.escape(repr(node))):
        serialize_document(doc)


def test_serializer_rejects_a_sentence_last_without_a_final_newline():
    doc = parse_document(MINIMAL + "# end", "t")
    assert serialize_document(doc) == MINIMAL + "# end"
    doc.trailing_comments = []
    with pytest.raises(ValueError, match="final_newline"):
        serialize_document(doc)


def test_serializer_writes_parsed_comment_lines_with_inner_cr_and_tab():
    text = "# text = a\rb\tc\n#\r#\n# k=v\n#\n" + MINIMAL
    doc = parse_document(text, "t")
    assert doc.sentences[0].metadata == [
        ("text", "a\rb\tc"), (None, "#\r#"), (None, "# k=v"), (None, "#")]
    assert serialize_document(doc) == text


@pytest.mark.parametrize("text,code,line", [
    ("1\tMinga\t_\tPROPN\t_\t_\t0\troot\t_\n\n", "WRONG_COLUMN_COUNT", 1),
    ("zwo\tMinga\t_\tPROPN\t_\t_\t0\troot\t_\t_\n\n", "BAD_ID", 1),
    ("2-1\tx\t_\t_\t_\t_\t_\t_\t_\t_\n1\ty\t_\tX\t_\t_\t0\troot\t_\t_\n\n", "BAD_ID", 1),
    ("1\tMinga\t_\tPROPN\t_\t_\t0\troot\t_\t_\n", "UNTERMINATED_SENTENCE", 1),
    ("1\tMinga\t_\tPROPN\t_\t_\tx\troot\t_\t_\n\n", "BAD_HEAD", 1),
    ("1\tMinga\t_\tPROPN\t_\t\t0\troot\t_\t_\n\n", "EMPTY_FIELD", 1),
    ("2\tMinga\t_\tPROPN\t_\t_\t0\troot\t_\t_\n\n", "ID_SEQUENCE", 1),
    ("# only a comment\n\n", "EMPTY_SENTENCE", 2),
    ("\n" + MINIMAL, "EXTRA_BLANK_LINE", 1),
    (MINIMAL[:-1] + "# late comment\n" + MINIMAL, "MISPLACED_COMMENT", 2),
])
def test_parse_errors(text, code, line):
    with pytest.raises(ParseError) as exc:
        parse_document(text, "t.conllu")
    assert exc.value.code == code
    assert exc.value.line == line
    assert "t.conllu" in str(exc.value)
    # streamed, the same error comes once the sentences before it are out
    streamed = iter_sentences(MINIMAL + text, "t.conllu")
    assert [t.form for t in next(streamed).tokens] == ["Minga"]
    with pytest.raises(ParseError) as exc:
        next(streamed)
    assert (exc.value.code, exc.value.line) == (code, line + 2)


def _line(id_field="1", head="0"):
    return f"{id_field}\tMinga\t_\tPROPN\t_\t_\t{head}\troot\t_\t_\n"


NINE = "".join(_line(str(i), "0" if i == 1 else "1") for i in range(1, 10))


@pytest.mark.parametrize("text,code", [
    *(pytest.param(_line(head=head) + "\n", "BAD_HEAD", id=f"head-{head!r}")
      for head in ("00", "+0", " 0", "0 ", "0_0", "\u0660", "\uff10", "01",
                   "-1", "\u00b2", "\uff11")),
    *(pytest.param(NINE + _line(ten, "1") + "\n", "BAD_ID", id=f"id-{ten!r}")
      for ten in ("1\u0660", "010", "+10", " 10", "1_0", "\u00b2",
                  "\uff11")),
    pytest.param("1-1\u0660\tx\t_\t_\t_\t_\t_\t_\t_\t_\n" + NINE
                 + _line("10", "1") + "\n", "BAD_ID", id="mwt-range"),
    pytest.param("\u0660.1\tx\t_\t_\t_\t_\t_\t_\t_\t_\n" + MINIMAL,
                 "BAD_ID", id="empty-node-anchor"),
])
def test_non_canonical_integers_are_rejected(text, code):
    # int() accepts most of these, so they used to parse and then serialize
    # as different characters; superscript two is a digit to str.isdigit()
    # that int() rejects, so it must fail as a ParseError all the same
    with pytest.raises(ParseError) as exc:
        parse_document(text, "t.conllu")
    assert exc.value.code == code


EMPTY_NODE = "1.1\tx\t_\t_\t_\t_\t_\t_\t_\t_\n"


@pytest.mark.parametrize("text,code,line", [
    (MINIMAL[:-1] + "2.1" + EMPTY_NODE[3:] + _line("2", "1") + "\n",
     "ID_SEQUENCE", 2),
    ("0.1" + EMPTY_NODE[3:] + "# late comment\n" + MINIMAL,
     "MISPLACED_COMMENT", 2),
    ("1-2\tx\t_\t_\t_\t_\t_\t_\t_\t_\n# late comment\n" + MINIMAL,
     "MISPLACED_COMMENT", 2),
    (_line() + "2-3\tx\t_\t_\t_\t_\t_\t_\t_\t_\n" + EMPTY_NODE
     + _line("2", "1") + _line("3", "1") + "\n", "ID_SEQUENCE", 3),
    (MINIMAL + "0.1" + EMPTY_NODE[3:], "UNTERMINATED_SENTENCE", 3),
])
def test_lines_the_serializer_would_move_are_rejected(text, code, line):
    with pytest.raises(ParseError) as exc:
        parse_document(text, "t.conllu")
    assert (exc.value.code, exc.value.line) == (code, line)


@pytest.mark.parametrize("text, message", [
    ("1-3\tzum\t_\t_\t_\t_\t_\t_\t_\t_\n" + _line() + _line("2", "1")
     + "\n", "t.conllu:1: BAD_ID: multiword range exceeds sentence length"),
    # the overrunning range is reported, not the last one read
    ("1-5\tabc\t_\t_\t_\t_\t_\t_\t_\t_\n" + _line()
     + "2-3\tbc\t_\t_\t_\t_\t_\t_\t_\t_\n" + _line("2", "1")
     + _line("3", "1") + "\n",
     "t.conllu:1: BAD_ID: multiword range exceeds sentence length"),
    (_line() + "3-4\tzum\t_\t_\t_\t_\t_\t_\t_\t_\n" + _line("2", "1")
     + "\n", "t.conllu:2: ID_SEQUENCE: multiword range must start at token 2"),
])
def test_multiword_range_errors(text, message):
    with pytest.raises(ParseError) as exc:
        parse_document(text, "t.conllu")
    assert str(exc.value) == message


def test_empty_input_is_an_empty_document():
    doc = parse_document("", "t.conllu")
    assert doc.sentences == [] and doc.trailing_comments == []
    assert serialize_document(doc) == ""
    assert serialize_document(parse_document("\ufeff", "t")) == "\ufeff"


def test_crlf_input_is_located_at_its_first_crlf_line():
    text = "# sent_id = c-1\n# text = Minga\r\n" + MINIMAL.replace("\n", "\r\n")
    with pytest.raises(ParseError) as exc:
        parse_document(text, "t.conllu")
    assert (exc.value.code, exc.value.line) == ("CRLF_LINE_ENDING", 2)


def test_misplaced_comment_needs_open_sentence():
    # a comment between sentences belongs to the next sentence
    text = MINIMAL + "# next\n" + MINIMAL
    doc = parse_document(text, "t")
    assert doc.sentences[1].metadata == [(None, "# next")]


def test_bom_stripped_flagged_and_round_tripped():
    text = "﻿" + MINIMAL
    doc = parse_document(text, "t")
    assert doc.bom
    assert doc.sentences[0].tokens[0].id == 1
    assert serialize_document(doc) == text


def test_empty_nodes_and_deps_survive_round_trip():
    text = ("1\tSie\t_\tPRON\t_\t_\t2\tnsubj\t2:nsubj\t_\n"
            "1.1\televen\t_\tVERB\t_\t_\t_\t_\t_\t_\n"
            "2\tkummt\t_\tVERB\t_\t_\t0\troot\t_\t_\n\n")
    doc = parse_document(text, "t")
    s = doc.sentences[0]
    assert len(s.tokens) == 2
    assert len(s.empty_nodes) == 1 and s.empty_nodes[0].anchor == 1
    assert serialize_document(doc) == text


def test_serializer_writes_nested_spans_and_empty_nodes_in_place():
    # two spans open at token 1, longest last as built; empty nodes before
    # token 1 (anchor 0) and after token 2
    before = "0.1\tja\t_\tINTJ\t_\t_\t_\t_\t0:discourse\t_"
    after = "2.1\tgeht\t_\tVERB\t_\t_\t_\t_\t0:root\t_"
    s = Sentence(
        tokens=[Token(1, "gib", "VERB", 0, "root", "SpaceAfter=No"),
                Token(2, "t", "PRON", 1, "obj", lemma_col="es"),
                Token(3, "s", "PRON", 1, "nsubj", "SpaceAfter=No",
                      feats_col="Case=Nom", deps_col="1:nsubj")],
        mwt_spans=[MwtSpan(1, 2, "gibt"),
                   MwtSpan(1, 3, "gibts", "SpaceAfter=No",
                           ("_", "_", "_", "_", "_", "_", "X"))],
        empty_nodes=[EmptyNodeLine(0, before), EmptyNodeLine(2, after)],
        metadata=[("sent_id", "n-1"), ("text", "gibts")])
    text = ("# sent_id = n-1\n# text = gibts\n"
            f"{before}\n"
            "1-2\tgibt\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1-3\tgibts\t_\t_\t_\t_\t_\t_\tX\tSpaceAfter=No\n"
            "1\tgib\t_\tVERB\t_\t_\t0\troot\t_\tSpaceAfter=No\n"
            "2\tt\tes\tPRON\t_\t_\t1\tobj\t_\t_\n"
            f"{after}\n"
            "3\ts\t_\tPRON\t_\tCase=Nom\t1\tnsubj\t1:nsubj\tSpaceAfter=No\n"
            "\n")
    assert serialize_document(Document([s])) == text
    assert serialize_document(parse_document(text, "t")) == text


def test_trailing_comments_preserved():
    text = MINIMAL + "# trailing note\n"
    doc = parse_document(text, "t")
    assert doc.trailing_comments == ["# trailing note"]
    assert serialize_document(doc) == text


def test_round_trip_golden(golden_text):
    doc = parse_document(golden_text, "golden.conllu")
    assert serialize_document(doc) == golden_text


def test_serialize_empty_document():
    assert serialize_document(Document()) == ""
    assert serialize_document(Document(bom=True)) == "﻿"
    # final_newline is not written without a line; it reads back False
    for doc in (Document(), Document(bom=True, final_newline=False)):
        back = parse_document(serialize_document(doc), "t")
        assert (back.bom, back.final_newline, back.sentences,
                back.trailing_comments) == (doc.bom, False, [], [])


def test_misc_round_trip():
    # flag-style entries and stacked "=" survive, because MISC is kept as
    # the raw column
    for raw in ("Flag", "a=b=c", "_|x", "Flag|SpaceAfter=No"):
        text = f"1\tw\t_\tX\t_\t_\t0\troot\t_\t{raw}\n\n"
        doc = parse_document(text, "m")
        assert doc.sentences[0].tokens[0].misc == raw
        assert serialize_document(doc) == text


@pytest.mark.parametrize("col, lookups", [
    ("_", {"_": None, "A": None}),
    ("A", {"A": None}),
    ("A=", {"A": ""}),
    ("=x", {"": "x", "x": None}),
    ("a=b=c", {"a": "b=c", "b": None, "A": None}),
    ("A|A=1", {"A": "1"}),
    ("SpaceAfter=No|GermanLemma=x",
     {"SpaceAfter": "No", "GermanLemma": "x", "Space": None, "x": None}),
])
def test_column_lookup_and_round_trip(col, lookups):
    # the same raw column as FEATS and MISC of a token and MISC of its MWT
    text = (f"1-2\twx\t_\t_\t_\t_\t_\t_\t_\t{col}\n"
            f"1\tw\t_\tX\t_\t{col}\t0\troot\t_\t{col}\n"
            f"2\tx\t_\tX\t_\t{col}\t1\tdep\t_\t{col}\n"
            f"3\ty\t_\tX\t_\t_\t1\tdep\t_\t_\n\n")
    doc = parse_document(text, "c")
    assert serialize_document(doc) == text
    s = doc.sentences[0]
    t, span = s.tokens[0], s.mwt_spans[0]
    assert (t.misc, t.feats_col, span.misc) == (col, col, col)
    for key, value in lookups.items():
        assert column_value(col, key) == value
        assert column_value(t.misc, key) == value
        assert column_value(t.feats_col, key) == value
        assert column_value(span.misc, key) == value
    assert t.german_lemma == lookups.get("GermanLemma")
    glued = lookups.get("SpaceAfter") == "No"
    assert reconstruct_text(s) == ("wxy" if glued else "wx y")


def _column_value_by_split(col, key):
    """The reader column_value replaced, kept as its oracle."""
    prefix = key + "="
    for entry in col.split("|"):
        if entry.startswith(prefix):
            return entry[len(prefix):]
    return None


def test_column_value_equals_split_reader_exhaustively():
    checked = 0
    for size in range(7):
        for chars in itertools.product("AB=|x", repeat=size):
            col = "".join(chars)
            for key in ("A", "AB", "B"):
                assert column_value(col, key) == \
                    _column_value_by_split(col, key), (col, key)
                checked += 1
    assert checked == 3 * sum(5 ** n for n in range(7))


def test_serialize_constructed_sentence():
    tokens = [
        Token(id=1, form="zu", upos="ADP", head=3, deprel="case"),
        Token(id=2, form="m", upos="DET", head=3, deprel="det"),
        Token(id=3, form="Beispiel", upos="NOUN", head=0, deprel="root"),
    ]
    s = Sentence(tokens=tokens, mwt_spans=[MwtSpan(1, 2, "zum")],
                 metadata=[("sent_id", "c-1"), ("text", "zum Beispiel")])
    out = serialize_document(Document(sentences=[s]))
    lines = out.split("\n")
    assert lines[0] == "# sent_id = c-1"
    assert lines[2].startswith("1-2\tzum\t")
    assert lines[3].startswith("1\tzu\t")
    reparsed = parse_document(out, "c")
    assert serialize_document(reparsed) == out


def test_token_invariants():
    with pytest.raises(ValueError):
        Token(id=0, form="x", upos="X", head=0, deprel="root")
    with pytest.raises(ValueError):
        Token(id=1, form="a\tb", upos="X", head=0, deprel="root")
    with pytest.raises(ValueError):
        Token(id=1, form="x", upos="X", head=-1, deprel="dep")
    with pytest.raises(ValueError):
        MwtSpan(2, 1, "xy")


@pytest.mark.parametrize("build, field", [
    (lambda: Token(1, "x", "X", 0, "root", misc=""), "misc"),
    (lambda: Token(1, "x", "X", 0, "root", feats_col="a\tb"), "feats_col"),
    (lambda: Token(1, "x", "X", 0, "root", lemma_col="a\nb"), "lemma_col"),
    (lambda: Token(1, "x", "", 0, "root"), "upos"),
    (lambda: Token(1, "x", "X", 0, "root", misc="a\r"), "misc"),
    (lambda: MwtSpan(1, 2, "xy", misc="a|b\r"), "misc"),
    (lambda: MwtSpan(1, 2, "xy", misc=""), "misc"),
    (lambda: MwtSpan(1, 2, "x\ty"), "surface_form"),
    (lambda: MwtSpan(1, 2, "xy", other_cols=("_",) * 6 + ("",)),
     "other_cols"),
    (lambda: MwtSpan(1, 2, "xy", other_cols=("_",) * 6), "other_cols"),
])
def test_constructed_columns_are_checked(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_slotted_classes_take_no_new_attributes():
    t = Token(1, "x", "X", 0, "root")
    span = MwtSpan(1, 2, "xy")
    d = Diagnostic("VOCAB.UPOS", "error", "f", 1, "s-1", 1, "m")
    for obj in (t, span):
        with pytest.raises(AttributeError):
            obj.note = "extra"
    with pytest.raises((AttributeError, TypeError)):
        d.note = "extra"
    with pytest.raises(AttributeError):
        d.severity = "review"
    assert d._replace(severity="review").severity == "review"


_DIAG_FIELDS = ("rule_id", "severity", "file", "line", "sentence_id",
                "token_id", "message", "guideline_ref")
_DIAG_VALUES = ("VOCAB.UPOS", "error", "f.conllu", 3, "s-1", 2, "bad upos",
                "§2.1")


@pytest.mark.parametrize("name", [*_DIAG_FIELDS, "note"])
def test_diagnostic_is_immutable(name):
    d = Diagnostic(*_DIAG_VALUES)
    with pytest.raises(AttributeError):
        setattr(d, name, "x")
    assert d == Diagnostic(*_DIAG_VALUES)


def test_diagnostic_is_hashable_and_equal_by_value():
    a, b = Diagnostic(*_DIAG_VALUES), Diagnostic(*_DIAG_VALUES)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert {a: "x"}[b] == "x"
    assert a != a._replace(message="other")
    # a named tuple: equal to the plain tuple of the same values
    assert a == _DIAG_VALUES


def test_diagnostic_builds_positionally_with_an_optional_citation():
    d = Diagnostic(*_DIAG_VALUES)
    assert tuple(getattr(d, name) for name in _DIAG_FIELDS) == _DIAG_VALUES
    assert tuple(d._asdict()) == _DIAG_FIELDS
    short = Diagnostic(*_DIAG_VALUES[:-1])
    assert short.guideline_ref is None
    assert short == d._replace(guideline_ref=None)


def test_diagnostics_are_ordered_by_sort_key():
    def diag(file, line, token_id, rule_id, message="m"):
        return Diagnostic(rule_id, "error", file, line, "s", token_id, message)

    expected = [
        diag("a.conllu", 9, 3, "Z.RULE"),
        diag("b.conllu", 1, None, "Z.RULE"),  # no token sorts as token 0
        diag("b.conllu", 1, 1, "A.RULE"),
        diag("b.conllu", 1, 1, "B.RULE", "a"),
        diag("b.conllu", 1, 1, "B.RULE", "b"),
        diag("b.conllu", 2, 0, "A.RULE"),
    ]
    assert expected[1].sort_key == ("b.conllu", 1, 0, "Z.RULE", "m")
    for seed in range(5):
        shuffled = expected[:]
        random.Random(seed).shuffle(shuffled)
        assert sorted(shuffled, key=Diagnostic.sort_key.fget) == expected


def test_diagnostic_repr_names_every_field():
    assert repr(Diagnostic(*_DIAG_VALUES)) == (
        "Diagnostic(rule_id='VOCAB.UPOS', severity='error', file='f.conllu', "
        "line=3, sentence_id='s-1', token_id=2, message='bad upos', "
        "guideline_ref='§2.1')")


def test_parsed_columns_with_inner_cr_survive_replace():
    # a CR inside a field reads back; only a misc ending in CR would not
    text = ("1-2\tz\rm\t_\t_\t_\t_\t_\t_\t_\tA\rB\n"
            "1\tz\ru\tz\ru\tADP\t_\t_\t0\troot\t_\tSpaceAfter=No\rX\n"
            "2\tm\t_\tDET\t_\t_\t1\tdet\t_\t_\n\n")
    doc = parse_document(text, "<cr>")
    s = doc.sentences[0]
    s.tokens[0] = s.tokens[0]._replace(upos="ADP")
    s.mwt_spans[0] = s.mwt_spans[0]._replace(surface_form="z\rm")
    assert serialize_document(doc) == text
    with pytest.raises(ValueError, match="misc"):
        s.tokens[1]._replace(misc="_\r")


def _sentence(heads, deprels=None, upos=None):
    deprels = deprels or ["root" if h == 0 else "dep" for h in heads]
    upos = upos or ["X"] * len(heads)
    return Sentence(tokens=[
        Token(id=i + 1, form="w", upos=u, head=h, deprel=d)
        for i, (h, d, u) in enumerate(zip(heads, deprels, upos))])


def rule_ids(diags):
    return [d.rule_id for d in diags]


def test_validate_structure_valid_two_node_tree():
    assert validate_structure(_sentence([2, 0], ["det", "root"])) == []


def test_validate_structure_cycle():
    assert "STRUCT.CYCLE" in rule_ids(validate_structure(_sentence([2, 1])))


def test_validate_structure_self_loop_is_cycle():
    diags = validate_structure(_sentence([1, 0], ["dep", "root"]))
    assert rule_ids(diags) == ["STRUCT.CYCLE"]


def test_validate_structure_roots():
    assert "STRUCT.NO_ROOT" in rule_ids(validate_structure(_sentence([2, 1])))
    assert "STRUCT.MULTI_ROOT" in rule_ids(
        validate_structure(_sentence([0, 0], ["root", "root"])))


def test_validate_structure_head_range():
    assert "STRUCT.HEAD_RANGE" in rule_ids(
        validate_structure(_sentence([0, 9], ["root", "dep"])))


def test_validate_structure_root_deprel():
    assert "STRUCT.ROOT_DEPREL" in rule_ids(
        validate_structure(_sentence([0, 1], ["dep", "dep"])))


def test_validate_structure_punct_child():
    s = _sentence([0, 1, 2], ["root", "punct", "dep"],
                  ["VERB", "PUNCT", "NOUN"])
    assert "STRUCT.PUNCT_CHILD" in rule_ids(validate_structure(s))


def test_validate_structure_mwt_overlap():
    s = _sentence([0, 1, 1], ["root", "dep", "dep"])
    s.mwt_spans = [MwtSpan(1, 2, "ab"), MwtSpan(2, 3, "bc")]
    assert "STRUCT.MWT_OVERLAP" in rule_ids(validate_structure(s))


def test_non_projective_tree_not_flagged(golden_doc):
    s = next(x for x in golden_doc.sentences
             if x.sent_id == "maibaam-golden-005")
    heads = {t.id: t.head for t in s.tokens}
    # the advmod arc (4,6) crosses the det arc (5,7)
    assert heads[4] == 6 and heads[5] == 7
    assert validate_structure(s) == []


def _oracle_valid(heads):
    n = len(heads)
    if heads.count(0) != 1:
        return False
    for start in range(1, n + 1):
        seen = set()
        node = start
        while node != 0:
            if node in seen or not (1 <= node <= n):
                return False
            seen.add(node)
            node = heads[node - 1]
    return True


def test_structure_agrees_with_enumeration_oracle_small():
    bad = {"STRUCT.NO_ROOT", "STRUCT.MULTI_ROOT", "STRUCT.CYCLE",
           "STRUCT.HEAD_RANGE"}
    for n in range(1, 4):
        for heads in itertools.product(range(n + 1), repeat=n):
            s = _sentence(list(heads))
            accepted = not any(d.rule_id in bad for d in validate_structure(s))
            assert accepted == _oracle_valid(list(heads)), heads


def test_reconstruct_text_space_after_no():
    s = Sentence(tokens=[
        Token(id=1, form="z'", upos="ADP", head=2, deprel="case",
              misc="SpaceAfter=No"),
        Token(id=2, form="Minga", upos="PROPN", head=0, deprel="root"),
    ])
    assert reconstruct_text(s) == "z'Minga"


def test_reconstruct_text_mwt():
    s = Sentence(tokens=[
        Token(id=1, form="zu", upos="ADP", head=3, deprel="case"),
        Token(id=2, form="m", upos="DET", head=3, deprel="det"),
        Token(id=3, form="Beispiel", upos="NOUN", head=0, deprel="root"),
    ], mwt_spans=[MwtSpan(1, 2, "zum")])
    assert reconstruct_text(s) == "zum Beispiel"


@pytest.mark.parametrize("misc, glued", [
    ("_", False),
    ("SpaceAfter=No", True),
    ("SpaceAfter=No|X=1", True),
    ("X=1|SpaceAfter=No", True),
    ("SpaceAfter=Yes", False),
])
@pytest.mark.parametrize("on_span", [False, True])
def test_reconstruct_text_reads_space_after(misc, glued, on_span):
    # the MISC of token 2, or of the MWT line covering tokens 1-2
    s = Sentence(tokens=[
        Token(id=1, form="zu", upos="ADP", head=3, deprel="case"),
        Token(id=2, form="m", upos="DET", head=3, deprel="det",
              misc="_" if on_span else misc),
        Token(id=3, form="Beispiel", upos="NOUN", head=0, deprel="root"),
    ], mwt_spans=[MwtSpan(1, 2, "zum", misc)] if on_span else [])
    first = "zum" if on_span else "zu m"
    assert reconstruct_text(s) == first + ("" if glued else " ") + "Beispiel"


def test_reconstruct_text_single_token():
    s = Sentence(tokens=[Token(id=1, form="Servus", upos="INTJ", head=0,
                               deprel="root")])
    assert reconstruct_text(s) == "Servus"


def test_reconstruct_matches_golden_text(golden_doc):
    for s in golden_doc.sentences:
        assert reconstruct_text(s) == s.metadata_value("text")


def test_diagnostic_ordering_independent_of_discovery_order(golden_doc):
    s = next(x for x in golden_doc.sentences
             if x.sent_id == "maibaam-golden-014")
    s.tokens[0].head = 5  # keep a tree, shift attachment
    s.tokens[3].upos = "ZZZ"
    # a token finding found before a sentence-level one on the same line
    golden_doc.sentences[2].tokens[0].upos = "ZZZ"
    golden_doc.sentences[2].metadata.insert(0, ("genre", "zzz"))
    golden_doc.sentences[5].metadata.insert(
        0, ("sent_id", golden_doc.sentences[3].sent_id))
    # three files, so that findings come from several files and sentences
    parts = [Document(golden_doc.sentences[i::3], file=f"part{i}.conllu")
             for i in range(3)]
    for doc in parts:
        for sentence in doc.sentences:
            sentence.file = doc.file

    diags = lint_documents(parts, LintConfig())
    assert len({d.file for d in diags}) == 3
    assert {"META.DUP_ID", "META.GENRE", "VOCAB.UPOS"} <= \
        {d.rule_id for d in diags}
    assert diags == sorted(diags, key=Diagnostic.sort_key.fget)
    for seed in range(5):
        rng = random.Random(seed)
        shuffled = [Document(rng.sample(doc.sentences, len(doc.sentences)),
                             file=doc.file) for doc in parts]
        rng.shuffle(shuffled)
        assert lint_documents(shuffled, LintConfig()) == diags


_form = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r ",
                           blacklist_categories=("Cs",)),
    min_size=1, max_size=8)


@st.composite
def documents(draw):
    sentences = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 6))
        tokens = []
        for i in range(n):
            misc = []
            if draw(st.booleans()):
                misc.append("SpaceAfter=No")
            if draw(st.booleans()):
                misc.append(f"GermanLemma={draw(_form)}")
            tokens.append(Token(
                id=i + 1, form=draw(_form), upos=draw(st.sampled_from(
                    ["NOUN", "VERB", "X", "PUNCT"])),
                head=draw(st.integers(0, n)), deprel=draw(st.sampled_from(
                    ["root", "dep", "nsubj", "punct"])),
                misc="|".join(misc) or "_"))
        sentences.append(Sentence(
            tokens=tokens, metadata=[("sent_id", f"h-{len(sentences)}")]))
    return Document(sentences=sentences)


@settings(max_examples=60, deadline=None)
@given(documents())
def test_round_trip_property(doc):
    once = serialize_document(doc)
    reparsed = parse_document(once, "<property>")
    assert serialize_document(reparsed) == once
    again = parse_document(serialize_document(reparsed), "<property>")
    assert serialize_document(again) == once


@settings(max_examples=60, deadline=None)
@given(documents())
def test_iter_sentences_yields_the_parsed_sentences(doc):
    text = serialize_document(doc)
    assert list(iter_sentences(text, "<property>")) == \
        parse_document(text, "<property>").sentences


def test_iter_sentences_fills_in_the_document():
    text = "\ufeff" + MINIMAL + "# trailing"
    doc = Document(file="t.conllu")
    streamed = iter_sentences(text, "t.conllu", doc)
    first = next(streamed)
    assert (doc.bom, doc.final_newline, doc.sentences) == (True, False, [])
    assert list(streamed) == []
    assert doc.trailing_comments == ["# trailing"]
    parsed = parse_document(text, "t.conllu")
    assert [first] == parsed.sentences
    doc.sentences = [first]
    assert doc == parsed


def _cut(text: str, size: int) -> list[str]:
    return [text[i:i + size] for i in range(0, len(text), size)]


def test_split_lines_equal_one_split():
    for n in range(9):
        for chars in itertools.product("a\n\r", repeat=n):
            text = "".join(chars)
            lines = text.split("\n") if text else []
            if text.endswith("\n"):
                lines.pop()
            crlf = text.find("\r\n")
            for size in range(1, n + 2):
                pieces = _cut(text, size)
                doc = Document()
                assert sum(conllu._split_lines(pieces, doc=doc), []) == lines
                assert doc.final_newline == text.endswith("\n")
                assert not doc.bom
                # with a file name, a CRLF raises at its line, and only
                # after the lines before it
                out = []
                try:
                    for chunk in conllu._split_lines(pieces, "t"):
                        out += chunk
                except ParseError as exc:
                    assert crlf != -1 and exc.code == "CRLF_LINE_ENDING"
                    assert exc.line == text.count("\n", 0, crlf) + 1
                    assert out == text[:crlf].split("\n")[:-1]
                else:
                    assert crlf == -1 and out == lines


def test_split_lines_drop_one_opening_bom_past_empty_pieces():
    doc = Document()
    pieces = ["", "\ufeff", "", "\ufeffa\n", "b"]
    assert sum(conllu._split_lines(pieces, doc=doc), []) == ["\ufeffa", "b"]
    assert (doc.bom, doc.final_newline) == (True, False)
    # without a doc the BOM is a character like any other
    assert sum(conllu._split_lines(pieces), []) == ["\ufeff\ufeffa", "b"]


def test_split_lines_split_a_short_text_without_copying_it():
    # a piece ending in "\n" is split whole: a slice of all but the "\n"
    # would be a second copy of the text next to its lines
    text = ("x" * 10_000 + "\n") * 5
    tracemalloc.start()
    try:
        chunks = list(conllu._split_lines([text]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunks == [text[:-1].split("\n")]
    assert peak < 1.5 * sys.getsizeof(text)


@pytest.mark.parametrize("path", [GOLDEN, DURCH_DES], ids=lambda p: p.name)
def test_parse_does_not_depend_on_the_chunk_size(path, monkeypatch):
    text = path.read_text(encoding="utf-8")
    whole = parse_document(text, path.name)
    for size in (1, 2, 3, 5, 64, 1000):
        monkeypatch.setattr(conllu, "_CHUNK_CHARS", size)
        assert parse_document(text, path.name) == whole
        assert parse_document(text + "# end", path.name) == \
            whole._replace(final_newline=False, trailing_comments=["# end"])


@settings(max_examples=60, deadline=None)
@given(documents(), st.integers(1, 12))
def test_parse_of_generated_documents_does_not_depend_on_the_chunk_size(
        doc, size):
    text = serialize_document(doc)
    whole = parse_document(text, "<property>")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conllu, "_CHUNK_CHARS", size)
        assert parse_document(text, "<property>") == whole


_TOKEN_LINE = "1\tMinga\t_\tPROPN\t_\t_\t0\troot\t_\t_\n"


@pytest.mark.parametrize("tail,code,line", [
    ("\n" + MINIMAL, "EXTRA_BLANK_LINE", 5),
    ("# sent_id = e\n\n" + MINIMAL, "EMPTY_SENTENCE", 6),
    (_TOKEN_LINE, "UNTERMINATED_SENTENCE", 5),
    (_TOKEN_LINE.rstrip("\n"), "UNTERMINATED_SENTENCE", 5),
    ("1\tMinga\n\n", "WRONG_COLUMN_COUNT", 5),
    ("# c\n" + _TOKEN_LINE[:-1] + "\r\n\n", "CRLF_LINE_ENDING", 6),
    ("1\tMinga\n# c\r\n", "WRONG_COLUMN_COUNT", 5),
], ids=["extra-blank", "empty-sentence", "unterminated",
        "unterminated-no-final-newline", "wrong-column-count", "crlf",
        "parse-error-before-crlf"])
def test_parse_errors_are_the_same_at_any_chunk_boundary(tail, code, line,
                                                         monkeypatch):
    text = MINIMAL * 2 + tail
    first_lines = set()  # first line of each chunk and one past the last
    for size in range(1, len(text) + 2):
        monkeypatch.setattr(conllu, "_CHUNK_CHARS", size)
        with pytest.raises(ParseError) as exc:
            parse_document(text, "t.conllu")
        assert (exc.value.code, exc.value.line) == (code, line), size
        chunks = conllu._split_lines(_cut(text, size))
        first_lines.update(itertools.accumulate(
            (len(chunk) for chunk in chunks), initial=1))
    # some chunk size put a boundary just before, at and just after it
    assert {line - 1, line, line + 1} <= first_lines


def test_iter_sentences_holds_a_chunk_of_lines_not_the_whole_file(
        golden_text):
    # sentences are dropped as they come, so what the parser holds is its
    # lines; a list of all of them would outweigh the text itself
    text = golden_text * (1_000_000 // len(golden_text) + 1)
    tracemalloc.start()
    try:
        for _ in iter_sentences(text, "big.conllu"):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sys.getsizeof(text) / 2


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                            "\u0665\u0666\u0667\u0668\u0669")


def _int_variants(value: int) -> list[str]:
    """Spellings that int() reads as some integer, the canonical one first."""
    s = str(value)
    return [s, "0" + s, "+" + s, " " + s, s + " ", s + "_0",
            s.translate(_ARABIC_INDIC), s[0] + s[1:].translate(_ARABIC_INDIC)]


# comment lines that are, or nearly are, "# key = value" metadata
_NEAR_METADATA = ("# k=v", "#k = v", "# k = ", "# a = b = c", "# 1x = y", "#",
                  "# k.v-1 = x", "#  k = v", "# k  = v", "# k = v ")
_comment_lines = st.one_of(
    st.sampled_from(_NEAR_METADATA),
    st.text(alphabet="#a1_ =\t\r", max_size=6).map("#".__add__))


@st.composite
def conllu_texts(draw):
    """CoNLL-U-shaped text whose ID and HEAD fields may be non-canonical,
    each sentence opened by comment lines, some of them near-miss metadata.

    At most one integer field per text is respelled, so about half the
    texts are well-formed and the rest probe a single variant.
    """
    rows: list[list] = []  # cells of each line; int cells may be respelled
    for k in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 11))
        mwt_first = draw(st.integers(0, n - 1))  # 0: no multiword token
        rows.append([f"# sent_id = p-{k}"])
        rows.extend([line] for line in
                    draw(st.lists(_comment_lines, max_size=3)))
        if draw(st.booleans()):
            rows.append(["0.1\tE\t_\t_\t_\t_\t_\t_\t1:dep\t_"])
        for i in range(1, n + 1):
            if i == mwt_first:
                rows.append([i, "-", i + 1, "\tab\t_\t_\t_\t_\t_\t_\t_\t_"])
            rows.append([i, "\tw\t_\tX\t_\t_\t", draw(st.integers(0, n)),
                         "\tdep\t_\t_"])
        rows.append([""])
    slots = [(r, c) for r, row in enumerate(rows)
             for c, cell in enumerate(row) if isinstance(cell, int)]
    respell = draw(st.integers(-len(slots), len(slots) - 1))
    if respell >= 0:
        r, c = slots[respell]
        rows[r][c] = draw(st.sampled_from(_int_variants(rows[r][c])[1:]))
    return "".join("".join(map(str, row)) + "\n" for row in rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(conllu_texts())
def test_accepted_text_serializes_back_identically(text):
    try:
        doc = parse_document(text, "<property>")
    except ParseError:
        return
    assert serialize_document(doc) == text


_metadata_entries = st.one_of(
    st.tuples(st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,3}", fullmatch=True),
              st.text(alphabet="a =#\t\r", max_size=4)
              .filter(lambda v: not v.endswith("\r"))),
    st.tuples(st.none(), _comment_lines.filter(
        lambda line: not line.endswith("\r")
        and not conllu._METADATA_RE.match(line))))


# entries that would read back as other entries: a key the parser does
# not read as one, or a None-keyed line shaped "# key = value"
_misread_metadata_entries = st.one_of(
    st.tuples(st.text(alphabet="aZ1_.- =#\t", max_size=4)
              .filter(lambda k: not conllu._METADATA_KEY_RE.fullmatch(k)),
              st.text(alphabet="a =", max_size=3)),
    st.tuples(st.none(), st.tuples(
        st.from_regex(conllu._METADATA_KEY_RE, fullmatch=True),
        st.text(alphabet="a =#\t", max_size=3)).map("# {0[0]} = {0[1]}".format)))


def _misread(entry):
    key, line = entry
    if key is None:
        return conllu._METADATA_RE.match(line) is not None
    return not conllu._METADATA_KEY_RE.fullmatch(key)


@st.composite
def metadata_edits(draw, entries=_metadata_entries):
    """A parsed document after random set, insert and delete edits, drawn
    from entries, to its sentences' metadata."""
    text = serialize_document(draw(documents()))
    doc = parse_document(text, "<property>")
    for _ in range(draw(st.integers(1, 6))):
        meta = draw(st.sampled_from(doc.sentences)).metadata
        op = draw(st.sampled_from(("set", "insert", "delete")))
        if op == "insert" or not meta:
            meta.insert(draw(st.integers(0, len(meta))), draw(entries))
        elif op == "set":
            meta[draw(st.integers(0, len(meta) - 1))] = draw(entries)
        else:
            del meta[draw(st.integers(0, len(meta) - 1))]
    return doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(metadata_edits())
def test_edited_metadata_is_what_the_written_text_reads_back(doc):
    reparsed = parse_document(serialize_document(doc), "<property>")
    assert [s.metadata for s in reparsed.sentences] == \
        [s.metadata for s in doc.sentences]


_BAD_TRAILING = ("", "oops", "# a\nb")
# comment lines, some ending in CR, which reads back only without a line
# end after it
_TRAILING = st.one_of(_comment_lines, st.sampled_from(("# end\r", "#\r")),
                      _comment_lines.map(lambda line: line + "\r"))
# empty node lines whose "{}" takes the id's integer part; only the first
# two are well-formed
_EMPTY_NODE_LINES = ("{}.1\tE\t_\t_\t_\t_\t_\t_\t1:dep\t_",
                     "{}.2\tE\t_\tX\t_\t_\t_\t_\t_\tSpaceAfter=No",
                     "garbage {}", "{}.1\tE", "{}.0\tE" + "\t_" * 8,
                     "0{}.1\tE" + "\t_" * 8, "{}.1\t\t_" + "\t_" * 7,
                     "{}.1\tE" + "\t_" * 8 + "\r",
                     "{}.1\tE" + "\t_" * 8 + "\n{}.2\tE" + "\t_" * 8,
                     "{}.1\tE" + "\t_" * 7 + "\n_")


# edits to a token's or a range's fields; only those not in _BAD_* read
# back. A token's column text is not drawn: the serializer writes an
# edited one as it is.
_BAD_TOKEN_EDITS = (("head", -1), ("head", 1.5))
_TOKEN_EDITS = (("form", "a b"), ("misc", "x\ry"), ("head", 1)) + \
    _BAD_TOKEN_EDITS
_BAD_SPAN_EDITS = (("first_id", 0), ("misc", "x\r"), ("surface_form", ""),
                   ("other_cols", ("_",) * 5 + ("a\nb",)), ("last_id", 2.0))
_SPAN_EDITS = (("surface_form", "cd"),) + _BAD_SPAN_EDITS


@st.composite
def document_edits(draw):
    """A document after metadata_edits, some of whose entries read back
    as others, perhaps with its sentences dropped, and random edits to its
    multiword tokens, token ids, token and range fields, empty nodes,
    trailing comments and final line end, or a sentence's tokens dropped,
    with whether any edit left something the parser would not read
    back."""
    doc = draw(metadata_edits(st.one_of(
        _metadata_entries, _metadata_entries, _misread_metadata_entries)))
    bad = any(_misread(entry) for s in doc.sentences for entry in s.metadata)
    if draw(st.integers(0, 4)) == 4:
        doc.sentences = []
        bad = False
    for _ in range(draw(st.integers(0, 2)) if doc.sentences else 0):
        s = draw(st.sampled_from(doc.sentences))
        first = draw(st.integers(1, len(s.tokens) + 1))
        last = draw(st.integers(first, len(s.tokens) + 1))
        bad |= last > len(s.tokens)
        # kept in first_id order, as the parser reads them
        firsts = [span.first_id for span in s.mwt_spans]
        s.mwt_spans.insert(bisect.bisect_right(firsts, first),
                           MwtSpan(first, last, "ab"))
    if doc.sentences and draw(st.integers(0, 3)) == 3:
        tokens = draw(st.sampled_from(doc.sentences)).tokens
        position = draw(st.integers(1, len(tokens)))
        tokens[position - 1].id = draw(st.integers(1, len(tokens) + 1))
        bad |= tokens[position - 1].id != position
    if doc.sentences and draw(st.integers(0, 2)) == 2:
        tokens = draw(st.sampled_from(doc.sentences)).tokens
        field, value = draw(st.sampled_from(_TOKEN_EDITS))
        setattr(draw(st.sampled_from(tokens)), field, value)
        bad |= (field, value) in _BAD_TOKEN_EDITS
    spans = [span for s in doc.sentences for span in s.mwt_spans]
    if spans and draw(st.booleans()):
        field, value = draw(st.sampled_from(_SPAN_EDITS))
        setattr(draw(st.sampled_from(spans)), field, value)
        bad |= (field, value) in _BAD_SPAN_EDITS
    if doc.sentences and draw(st.integers(0, 5)) == 5:
        draw(st.sampled_from(doc.sentences)).tokens = []
        bad = True
    for _ in range(draw(st.integers(0, 2)) if doc.sentences else 0):
        s = draw(st.sampled_from(doc.sentences))
        anchor = draw(st.integers(-1, len(s.tokens) + 1))
        named = draw(st.sampled_from((anchor, anchor, anchor + 1)))
        shape = draw(st.integers(0, len(_EMPTY_NODE_LINES) - 1))
        bad |= not (shape < 2 and named == anchor
                    and 0 <= anchor <= len(s.tokens))
        # kept in anchor order, as the parser reads them
        anchors = [node.anchor for node in s.empty_nodes]
        at = draw(st.integers(bisect.bisect_left(anchors, anchor),
                              bisect.bisect_right(anchors, anchor)))
        s.empty_nodes.insert(at, EmptyNodeLine(
            anchor, _EMPTY_NODE_LINES[shape].format(named, named)))
    if draw(st.booleans()):
        doc.trailing_comments = draw(st.lists(st.one_of(
            _TRAILING, st.sampled_from(_BAD_TRAILING)), max_size=3))
    doc.final_newline = draw(st.sampled_from((True, True, False)))
    trailing = doc.trailing_comments
    bad |= any(line in _BAD_TRAILING for line in trailing)
    bad |= any(line.endswith("\r") and (i < len(trailing) or doc.final_newline)
               for i, line in enumerate(trailing, 1))
    bad |= bool(doc.sentences) and not (doc.final_newline or trailing)
    return doc, bad


def _content(doc):
    """What a document holds, every line number left out; final_newline
    only where a line is written."""
    written = bool(doc.sentences or doc.trailing_comments)
    return (doc.bom, doc.final_newline and written, doc.trailing_comments,
            [(s.metadata, [t._replace(line=0) for t in s.tokens],
              [span._replace(line=0) for span in s.mwt_spans],
              [node._replace(line=0) for node in s.empty_nodes])
             for s in doc.sentences])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(document_edits())
# rarely drawn: a last comment's final CR with no line end after it, and
# a document with no line but final_newline True
@example((Document([], ["# b", "# c\r"], final_newline=False), False))
@example((Document(final_newline=True), False))
def test_edited_document_reads_back_or_is_rejected(edited):
    # the serializer raises exactly when some edit would not read back
    doc, bad = edited
    if bad:
        with pytest.raises(ValueError):
            serialize_document(doc)
    else:
        reparsed = parse_document(serialize_document(doc), "<property>")
        assert _content(reparsed) == _content(doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(conllu_texts())
def test_iter_sentences_fails_where_parse_document_fails(text):
    streamed = []
    try:
        for s in iter_sentences(text, "<property>"):
            streamed.append(s)
    except ParseError as exc:
        with pytest.raises(ParseError) as parsed:
            parse_document(text, "<property>")
        assert (exc.code, exc.line) == (parsed.value.code, parsed.value.line)
        # what came out before the error lies before its line
        assert all(s.line < exc.line for s in streamed)
    else:
        assert streamed == parse_document(text, "<property>").sentences


def _hand_built_document(draw, file: str) -> Document:
    """A document as a library caller builds it: every line 0, so that its
    sentences' findings do not follow one another in sort order."""
    sentences = []
    for k in range(draw(st.integers(0, 3))):
        n = draw(st.integers(1, 3))
        tokens = [Token(id=i, form="w", upos=draw(st.sampled_from(
                        ["NOUN", "ZZZ"])), head=i - 1, deprel="dep")
                  for i in range(1, n + 1)]
        sentences.append(Sentence(
            tokens=tokens, file=file,
            metadata=[("sent_id", draw(st.sampled_from(["p-0", f"h-{k}"])))]))
    return Document(sentences, file=file, bom=draw(st.booleans()))


@st.composite
def lint_runs(draw, hand_built: bool = True):
    """The documents of one run: parsed texts, some with a BOM, some names
    given twice, and, if hand_built, Documents built by hand."""
    docs = []
    for i in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from([f"f{i}.conllu", "same.conllu"]))
        if hand_built and draw(st.booleans()):
            docs.append(_hand_built_document(draw, name))
        else:
            bom = "\ufeff" if draw(st.booleans()) else ""
            docs.append((name, bom + draw(conllu_texts())))
    return docs


def _documents(docs):
    """The Documents of lint_runs' docs, those of texts that parse."""
    for doc in docs:
        if isinstance(doc, Document):
            yield doc
            continue
        try:
            yield parse_document(doc[1], doc[0])
        except ParseError:
            pass


def _lint_run(docs) -> cli._LintRun:
    run = cli._LintRun(LintConfig())
    for doc in docs:
        if isinstance(doc, Document):
            run.add(doc, doc.sentences)
            continue
        name, text = doc
        doc = Document(file=name)
        try:
            run.add(doc, iter_sentences(text, name, doc))
        except ParseError:
            pass
    return run


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lint_runs())
def test_lint_documents_is_one_stable_sort_of_the_found_order(docs):
    # hand-built sentences' findings do not follow one another in order,
    # so lint_documents sorts them all at once
    found = [d for diags in _lint_run(docs).finish() for d in diags]
    assert lint_documents(_documents(docs), LintConfig()) == \
        sorted(found, key=Diagnostic.sort_key.fget)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lint_runs(hand_built=False))
def test_parsed_findings_are_kept_sorted(docs):
    # a parsed sentence's findings lie on its lines, so sorting them
    # sentence by sentence leaves each document's list sorted
    sort_key = Diagnostic.sort_key.fget
    lists = _lint_run(docs).finish()
    assert all(diags == sorted(diags, key=sort_key) for diags in lists)
    found = [d for diags in lists for d in diags]
    assert _lint_run(docs).finish_sorted() == sorted(found, key=sort_key)


def _parse_outcome(text: str):
    """The Document text parses to, or the code, line and message of the
    ParseError it raises."""
    try:
        return parse_document(text, "t.conllu")
    except ParseError as exc:
        return exc.code, exc.line, str(exc)


def _outcome_without_id_table(text: str):
    # every id and head is then checked and converted, none looked up
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conllu, "_DECIMALS", {})
        return _parse_outcome(text)


@pytest.mark.parametrize("path", [GOLDEN, DURCH_DES], ids=lambda p: p.name)
def test_parse_does_not_depend_on_the_id_table(path):
    text = path.read_text(encoding="utf-8")
    whole = _parse_outcome(text)
    assert isinstance(whole, Document)
    assert _outcome_without_id_table(text) == whole
    first = text.index("\n1\t") + 1  # the first token line
    for broken in (text.replace("\t0\troot", "\t00\troot", 1),
                   text.replace("\n2\t", "\n3\t", 1),
                   text[:first] + "0" + text[first:],
                   text + _TOKEN_LINE):
        outcome = _parse_outcome(broken)
        assert isinstance(outcome, tuple), broken
        assert _outcome_without_id_table(broken) == outcome


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(documents().map(serialize_document), conllu_texts()))
def test_parse_of_generated_texts_does_not_depend_on_the_id_table(text):
    assert _outcome_without_id_table(text) == _parse_outcome(text)


def _chain(n: int) -> str:
    """A sentence of n tokens, each headed by the one before it."""
    return "".join(f"{i}\tw{i}\t_\tX\t_\t_\t{i - 1}\t"
                   f"{'root' if i == 1 else 'dep'}\t_\t_\n"
                   for i in range(1, n + 1)) + "\n"


def test_a_sentence_longer_than_the_id_table_parses_as_when_checked():
    assert len(conllu._DECIMALS) < 300
    text = "# sent_id = long\n" + _chain(300)
    doc = parse_document(text, "t.conllu")
    assert serialize_document(doc) == text
    [s] = doc.sentences
    assert [(t.id, t.head, t.line) for t in s.tokens] == \
        [(i, i - 1, i + 1) for i in range(1, 301)]
    checked = _outcome_without_id_table(text)
    assert checked.sentences[0].tokens == s.tokens
    assert checked == doc
    # and it lints token by token: each of the 300 lacks a GermanLemma
    assert sum(d.rule_id == "LEMMA.MISSING"
               for d in lint_documents([doc], LintConfig())) == 300


def test_a_head_past_the_id_table_parses_and_lints_as_out_of_range():
    text = _chain(1)[:-1] + "2\tx\t_\tX\t_\t_\t9999\tdep\t_\t_\n\n"
    doc = parse_document(text, "t.conllu")
    assert serialize_document(doc) == text
    assert [t.head for t in doc.sentences[0].tokens] == [0, 9999]
    assert [(d.token_id, d.message) for d in lint_documents([doc], LintConfig())
            if d.rule_id == "STRUCT.HEAD_RANGE"] == [
        (2, "head 9999 exceeds sentence length 2")]


_safe_column = st.text(alphabet=st.sampled_from("ab_=| \u00fc\u00b2-"),
                       min_size=1, max_size=5)
# text that the parser may not read back: empty, or with a tab or line break
_any_column = st.text(alphabet=st.sampled_from("ab_=| \t\n\r"), max_size=4)


@st.composite
def constructed_sentences(draw):
    """Sentences built through the Token and MwtSpan constructors, or None
    when a constructor rejects a column. In about half of them one column
    is drawn from _any_column."""
    n = draw(st.integers(1, 4))
    with_span = n > 1 and draw(st.booleans())
    columns = [draw(_safe_column)
               for _ in range(8 * n + (9 if with_span else 0))]
    if draw(st.booleans()):
        columns[draw(st.integers(0, len(columns) - 1))] = draw(_any_column)
    cols = iter(columns)
    try:
        tokens = [Token(i, next(cols), next(cols), draw(st.integers(0, n)),
                        *(next(cols) for _ in range(6)))
                  for i in range(1, n + 1)]
        spans = [MwtSpan(1, draw(st.integers(2, n)), next(cols), next(cols),
                         tuple(next(cols) for _ in range(7)))] \
            if with_span else []
    except ValueError:
        return None
    return Sentence(tokens=tokens, mwt_spans=spans,
                    metadata=[("sent_id", "c-1")])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(constructed_sentences())
def test_constructed_sentences_serialize_to_text_that_parses_back(s):
    if s is None:
        return
    text = serialize_document(Document(sentences=[s]))
    assert serialize_document(parse_document(text, "<property>")) == text
