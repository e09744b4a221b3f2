import itertools
import random
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maibaam_lint import conllu
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
    assert "# free comment" in s.comments
    assert s.line == 1


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
    assert doc.sentences[1].comments == ["# next"]


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


def test_parse_accepts_text_stream():
    import io
    doc = parse_document(io.StringIO(MINIMAL), "s.conllu")
    assert len(doc.sentences) == 1
    assert doc.sentences[0].file == "s.conllu"


def test_serialize_empty_document():
    assert serialize_document(Document()) == ""
    assert serialize_document(Document(bom=True)) == "﻿"


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
        assert t.misc_value(key) == value
        assert t.feats_value(key) == value
        assert span.misc_value(key) == value
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
    s.tokens[0] = replace(s.tokens[0], upos="ADP")
    s.mwt_spans[0] = replace(s.mwt_spans[0], surface_form="z\rm")
    assert serialize_document(doc) == text
    with pytest.raises(ValueError, match="misc"):
        replace(s.tokens[1], misc="_\r")


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


def test_line_chunks_equal_one_split(monkeypatch):
    for size in range(1, 5):
        monkeypatch.setattr(conllu, "_CHUNK_CHARS", size)
        for n in range(9):
            for chars in itertools.product("a\n\r", repeat=n):
                text = "".join(chars)
                for stop in range(n + 1):
                    assert sum(conllu._line_chunks(text, stop), []) == \
                        text[:stop].split("\n")


def test_line_chunks_split_a_short_text_without_copying_it():
    # up to two chunks long and ending in "\n": a slice of all but the "\n"
    # would be a second copy of the text next to its lines
    text = ("x" * 10_000 + "\n") * 5
    tracemalloc.start()
    try:
        chunks = list(conllu._line_chunks(text, len(text) - 1))
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
            replace(whole, final_newline=False, trailing_comments=["# end"])


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
], ids=["extra-blank", "empty-sentence", "unterminated",
        "unterminated-no-final-newline", "wrong-column-count"])
def test_parse_errors_are_the_same_at_any_chunk_boundary(tail, code, line,
                                                         monkeypatch):
    text = MINIMAL * 2 + tail
    first_lines = set()  # first line of each chunk and one past the last
    for size in range(1, len(text) + 2):
        monkeypatch.setattr(conllu, "_CHUNK_CHARS", size)
        with pytest.raises(ParseError) as exc:
            parse_document(text, "t.conllu")
        assert (exc.value.code, exc.value.line) == (code, line), size
        chunks = conllu._line_chunks(text, len(text) - text.endswith("\n"))
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


@st.composite
def conllu_texts(draw):
    """CoNLL-U-shaped text whose ID and HEAD fields may be non-canonical.

    At most one integer field per text is respelled, so about half the
    texts are well-formed and the rest probe a single variant.
    """
    rows: list[list] = []  # cells of each line; int cells may be respelled
    for k in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 11))
        mwt_first = draw(st.integers(0, n - 1))  # 0: no multiword token
        rows.append([f"# sent_id = p-{k}"])
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
