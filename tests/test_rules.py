import ast
import copy
import pickle
import re
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maibaam_lint
from maibaam_lint import cli
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
)
from maibaam_lint.metadata import check_unique_sent_ids, validate_metadata
from maibaam_lint.rules import (
    DEPRELS,
    RULES,
    RULE_FAMILIES,
    RULES_BY_ID,
    UPOS_TAGS,
    LintConfig,
    finding,
    lint_sentence,
    load_config,
    rule_lemma_conventions,
    validate_structure,
)

from conftest import FIXTURES
from test_conllu import conllu_texts


def sent(*rows, mwts=()):
    """rows: (form, upos, head, deprel, lemma_or_None) or with extra MISC
    entries ("key=value" strings)."""
    tokens = []
    for i, row in enumerate(rows):
        form, upos, head, deprel, lemma = row[:5]
        misc = list(row[5]) if len(row) > 5 else []
        if lemma is not None:
            misc.append(f"GermanLemma={lemma}")
        tokens.append(Token(id=i + 1, form=form, upos=upos, head=head,
                            deprel=deprel, misc="|".join(misc) or "_"))
    return Sentence(tokens=tokens, mwt_spans=[MwtSpan(*m) for m in mwts])


def ids(diags):
    return [d.rule_id for d in diags]


def test_rule_catalog_ids_unique():
    assert len({r.rule_id for r in RULES}) == len(RULES)
    for r in RULES:
        assert r.default_severity in ("error", "warning", "review")


def test_upos_vocabulary():
    ok = sent(("geht", "VERB", 0, "root", "gehen"))
    assert lint_sentence(ok) == []
    assert "VOCAB.UPOS" in ids(lint_sentence(
        sent(("geht", "VERB ", 0, "root", "gehen"))))
    assert "VOCAB.UPOS" in ids(lint_sentence(
        sent(("greana", "ADJD", 0, "root", "grün"))))
    assert len(UPOS_TAGS) == 17


def test_deprel_vocabulary():
    bad = sent(("Sie", "PRON", 2, "nsubj:outerx", "sie"),
               ("geht", "VERB", 0, "root", "gehen"))
    assert "VOCAB.DEPREL" in ids(lint_sentence(bad))
    flat_name = sent(("Frau", "NOUN", 0, "root", "Frau"),
                     ("Müller", "PROPN", 1, "flat:name", "Müller"))
    assert "VOCAB.DEPREL" in ids(lint_sentence(flat_name))
    assert "obl:arg" in DEPRELS and "nsubj:outer" in DEPRELS


def test_deprel_root_pairing():
    bad = sent(("geht", "VERB", 0, "root", "gehen"),
               ("hoam", "ADV", 1, "root", "heim"))
    assert "VOCAB.DEPREL" in ids(lint_sentence(bad))


def test_copula_closed_class():
    ok = sent(("Du", "PRON", 3, "nsubj", "du"),
              ("bist", "AUX", 3, "cop", "sein"),
              ("groß", "ADJ", 0, "root", "groß"))
    assert lint_sentence(ok) == []
    for lemma in ("werden", "bleiben"):
        bad = sent(("Du", "PRON", 3, "nsubj", "du"),
                   ("wirst", "AUX", 3, "cop", lemma),
                   ("groß", "ADJ", 0, "root", "groß"))
        assert "CLASS.COP" in ids(lint_sentence(bad))


def test_copula_unknown_lemma_not_flagged():
    s = sent(("wead", "AUX", 2, "cop", "<unknown>"),
             ("groß", "ADJ", 0, "root", "groß"))
    assert "CLASS.COP" not in ids(lint_sentence(s))


def test_part_closed_class():
    ok = sent(("z", "PART", 2, "mark", "zu"),
              ("mochn", "VERB", 0, "root", "machen"))
    assert lint_sentence(ok) == []
    bad = sent(("halt", "PART", 2, "advmod", "halt"),
               ("geht", "VERB", 0, "root", "gehen"))
    assert "CLASS.PART" in ids(lint_sentence(bad))


def test_aux_closed_class():
    bad = sent(("gangan", "AUX", 2, "aux", "gehen"),
               ("is", "VERB", 0, "root", "sein"))
    assert "CLASS.AUX" in ids(lint_sentence(bad))
    ok = sent(("tarat", "AUX", 2, "aux", "tun"),
              ("frogn", "VERB", 0, "root", "fragen"))
    assert "CLASS.AUX" not in ids(lint_sentence(ok))


def test_fixed_whitelist_accepts_listed_spans():
    s = sent(("a", "DET", 4, "det", "ein"),
             ("boa", "ADJ", 1, "fixed", "paar"),
             ("guade", "ADJ", 4, "amod", "gut"),
             ("Leid", "NOUN", 0, "root", "Leute"))
    assert "REL.FIXED" not in ids(lint_sentence(s))


def test_fixed_whitelist_rejects_unlisted_spans():
    s = sent(("noch", "ADP", 0, "root", "nach"),
             ("wia", "SCONJ", 1, "fixed", "wie"),
             ("vor", "ADP", 1, "fixed", "vor"))
    assert "REL.FIXED" in ids(lint_sentence(s))


def test_fixed_leftward_arc_rejected():
    s = sent(("paar", "ADJ", 2, "fixed", "paar"),
             ("a", "DET", 3, "det", "ein"),
             ("Leid", "NOUN", 0, "root", "Leute"))
    assert "REL.FIXED" in ids(lint_sentence(s))


def test_fixed_gap_rejected():
    s = sent(("a", "DET", 4, "det", "ein"),
             ("ganz", "ADV", 4, "advmod", "ganz"),
             ("boa", "ADJ", 1, "fixed", "paar"),
             ("Leid", "NOUN", 0, "root", "Leute"))
    assert "REL.FIXED" in ids(lint_sentence(s))


@pytest.mark.parametrize("head, dep", [
    (("EIN", None), ("BISSCHEN", None)),
    (("ein", None), ("bißchen", None)),  # "ß" casefolds to "ss"
    (("a", "Ein"), ("bissl", "Bisschen")),
], ids=["upper case form", "sharp s", "capitalized lemma"])
def test_fixed_spans_match_casefolded_forms_or_lemmas(head, dep):
    s = sent((head[0], "DET", 4, "det", head[1]),
             (dep[0], "NOUN", 1, "fixed", dep[1]),
             ("guad", "ADJ", 4, "amod", "gut"),
             ("Leid", "NOUN", 0, "root", "Leute"))
    assert "REL.FIXED" not in ids(lint_sentence(s))


def test_a_versioned_span_matched_by_its_lemmas_is_gated():
    # neither form is listed; the lemmas spell "durch das"
    s = sent(("dua", "ADP", 3, "obl", "durch"),
             ("de", "PRON", 1, "fixed", "das"),
             ("arwat", "VERB", 0, "root", "arbeiten"))
    assert "REL.FIXED" not in ids(
        lint_sentence(s, LintConfig(guideline_version="2.16")))
    found = [d.message for d in lint_sentence(s) if d.rule_id == "REL.FIXED"]
    assert found == ['"dua de" is no longer annotated as a fixed expression']


def durch_des_sentence():
    return sent(("duach", "ADP", 3, "obl", "durch"),
                ("des", "PRON", 1, "fixed", "das"),
                ("arwat", "VERB", 0, "root", "arbeiten"))


def test_fixed_version_gating():
    old = LintConfig(guideline_version="1.1")
    new = LintConfig(guideline_version="2.17")
    assert "REL.FIXED" not in ids(lint_sentence(durch_des_sentence(), old))
    found = [d for d in lint_sentence(durch_des_sentence(), new)
             if d.rule_id == "REL.FIXED"]
    assert len(found) == 1
    assert "no longer" in found[0].message


def test_fixed_version_gating_later_versions_still_ban():
    cfg = LintConfig(guideline_version="2.18")
    assert "REL.FIXED" in ids(lint_sentence(durch_des_sentence(), cfg))


@pytest.mark.parametrize("head, structural", [
    (0, "STRUCT.ROOT_DEPREL"), (3, "STRUCT.HEAD_RANGE")])
def test_fixed_dependent_without_a_head_token_is_left_to_the_tree_check(
        head, structural):
    # no head token to match a span from: the structural check reports it
    s = sent(("Leid", "NOUN", 0, "root", "Leute"),
             ("boa", "ADJ", head, "fixed", "paar"))
    found = ids(lint_sentence(s))
    assert "REL.FIXED" not in found
    assert structural in found


def test_an_omitted_config_is_the_default_built_once(golden_doc,
                                                     monkeypatch):
    cfg = LintConfig()
    built = []
    init = LintConfig.__init__

    def counting(self, **values):
        built.append(values)
        init(self, **values)

    monkeypatch.setattr(LintConfig, "__init__", counting)
    for s in golden_doc.sentences:
        assert lint_sentence(s) == lint_sentence(s, cfg)
        assert validate_structure(s) == validate_structure(s, cfg)
        assert validate_metadata(s) == validate_metadata(s, cfg)
    duplicates = {"a-1": [("a.conllu", 1), ("b.conllu", 4)]}
    assert check_unique_sent_ids(duplicates) == \
        check_unique_sent_ids(duplicates, cfg) != []
    assert built == []


def goeswith_sentence(**tweaks):
    rows = {
        "head_feats": "Typo=Yes",
        "head_lemma": "werden",
        "dep_lemma": None,
        "dep_head": 2,
    }
    rows.update(tweaks)
    tokens = [
        Token(id=1, form="Sie", upos="PRON", head=4, deprel="nsubj",
              misc="GermanLemma=sie"),
        Token(id=2, form="wer", upos="AUX", head=4, deprel="aux",
              feats_col=rows["head_feats"],
              misc=f"GermanLemma={rows['head_lemma']}"
              if rows["head_lemma"] else "_"),
        Token(id=3, form="den", upos="X", head=rows["dep_head"],
              deprel="goeswith",
              misc=f"GermanLemma={rows['dep_lemma']}"
              if rows["dep_lemma"] else "_"),
        Token(id=4, form="kumma", upos="VERB", head=0, deprel="root",
              misc="GermanLemma=kommen"),
    ]
    return Sentence(tokens=tokens)


def test_goeswith_clean_shape():
    assert lint_sentence(goeswith_sentence()) == []


def test_goeswith_dependent_with_lemma():
    diags = lint_sentence(goeswith_sentence(dep_lemma="den"))
    assert ids(diags) == ["REL.GOESWITH"]


def test_goeswith_head_needs_typo_flag():
    assert "REL.GOESWITH" in ids(lint_sentence(goeswith_sentence(head_feats="_")))


def test_goeswith_head_needs_lemma():
    diags = lint_sentence(goeswith_sentence(head_lemma=None))
    assert set(ids(diags)) == {"REL.GOESWITH", "LEMMA.MISSING"}


def test_goeswith_must_follow_head():
    s = sent(("den", "X", 3, "goeswith", None),
             ("gor", "ADV", 3, "advmod", "gar"),
             ("wer", "AUX", 0, "root", "werden", ["Typo=Yes"]))
    assert "REL.GOESWITH" in ids(lint_sentence(s))


def test_typo_flag_column_choice():
    in_misc = sent(("wer", "AUX", 3, "aux", "werden", ["Typo=Yes"]),
                   ("den", "X", 1, "goeswith", None),
                   ("kumma", "VERB", 0, "root", "kommen"))
    assert "REL.GOESWITH" not in ids(lint_sentence(in_misc))
    feats_only = LintConfig(typo_column="feats")
    assert "REL.GOESWITH" in ids(lint_sentence(in_misc, feats_only))


def test_lemma_missing_and_unknown():
    missing = sent(("Haus", "NOUN", 0, "root", None))
    assert ids(lint_sentence(missing)) == ["LEMMA.MISSING"]
    unknown = sent(("Zemank", "NOUN", 0, "root", "<unknown>"))
    assert lint_sentence(unknown) == []


def test_lemma_punct_exempt_configurable():
    s = sent(("Servus", "INTJ", 0, "root", "servus"),
             ("!", "PUNCT", 1, "punct", None))
    assert lint_sentence(s) == []
    strict = LintConfig(punct_lemma_exempt=False)
    assert "LEMMA.MISSING" in ids(lint_sentence(s, strict))


def test_lemma_on_mwt():
    s = sent(("zu", "ADP", 3, "case", "zu"),
             ("m", "DET", 3, "det", "der"),
             ("Haus", "NOUN", 0, "root", "Haus"),
             mwts=[(1, 2, "zum")])
    s.mwt_spans[0].misc = "GermanLemma=zum"
    assert "LEMMA.ON_MWT" in ids(lint_sentence(s))


def test_lemma_nimma():
    ok = sent(("nimma", "ADV", 2, "advmod", "nicht mehr"),
              ("geht", "VERB", 0, "root", "gehen"))
    assert lint_sentence(ok) == []
    bad = sent(("nimma", "ADV", 2, "advmod", "nimmer"),
               ("geht", "VERB", 0, "root", "gehen"))
    assert ids(lint_sentence(bad)) == ["LEMMA.NIMMA"]


def test_typo_correct_space_pairing():
    ok = sent(("des", "PRON", 2, "nsubj", "das",
               ["CorrectSpaceAfter=Yes", "SpaceAfter=No"]),
              ("is", "VERB", 0, "root", "sein"))
    assert lint_sentence(ok) == []
    bad = sent(("des", "PRON", 2, "nsubj", "das",
                ["CorrectSpaceAfter=Yes"]),
               ("is", "VERB", 0, "root", "sein"))
    assert ids(lint_sentence(bad)) == ["TYPO.CORRECT_SPACE"]


@pytest.mark.parametrize("misc, glued, lemma, correct_space", [
    ("XGermanLemma=a", False, None, None),
    ("GermanLemma=SpaceAfter=No", False, "SpaceAfter=No", None),
    ("CorrectSpaceAfter=No", False, None, "No"),
    ("SpaceAfter=Nope", False, None, None),
    ("A=1|SpaceAfter=No|GermanLemma=x", True, "x", None),
    ("CorrectSpaceAfter=Yes", False, None, "Yes"),
    ("CorrectSpaceAfter=Yes|SpaceAfter=No", True, None, "Yes"),
    ("A=1|CorrectSpaceAfter=Yes", False, None, "Yes"),
    ("a|XGermanLemma=b", False, None, None),
    ("A=GermanLemma=b", False, None, None),
    ("GermanLemma", False, None, None),
    ("A=1|GermanLemma=nimmer", False, "nimmer", None),
])
def test_misc_keys_are_read_at_entry_boundaries(misc, glued, lemma,
                                                correct_space):
    # a key's text inside another entry, or a longer value, is no entry
    assert (column_value(misc, "SpaceAfter") == "No") == glued
    assert column_value(misc, "GermanLemma") == lemma
    assert column_value(misc, "CorrectSpaceAfter") == correct_space
    s = Sentence(tokens=[
        Token(id=1, form="a", upos="X", head=0, deprel="root", misc=misc),
        Token(id=2, form="b", upos="X", head=1, deprel="dep",
              misc="GermanLemma=b")])
    assert reconstruct_text(s) == ("ab" if glued else "a b")
    found = [(d.rule_id, d.token_id) for d in lint_sentence(s)]
    assert (("LEMMA.MISSING", 1) in found) == (lemma is None)
    assert (("TYPO.CORRECT_SPACE", 1) in found) == \
        (correct_space == "Yes" and not glued)
    # on a "nimma" token, LEMMA.NIMMA quotes the entry's value
    nimma = Sentence(tokens=[Token(id=1, form="nimma", upos="ADV", head=0,
                                   deprel="root", misc=misc)])
    assert [d.message for d in lint_sentence(nimma)
            if d.rule_id == "LEMMA.NIMMA"] == (
        [] if lemma is None else
        [f'"nimma" must be lemmatized "nicht mehr", got {lemma!r}'])


def _lemma_conventions_reference(s, cfg):
    """rule_lemma_conventions as a loop over column_value on every token."""
    diags = []
    for t in s.tokens:
        lemma = column_value(t.misc, "GermanLemma")
        if lemma is None:
            if t.deprel == "goeswith":
                continue
            if t.upos == "PUNCT" and cfg.punct_lemma_exempt:
                continue
            finding(diags, cfg, s, "LEMMA.MISSING",
                    "token has no GermanLemma", t)
        elif t.form.casefold() == "nimma" and lemma != "nicht mehr":
            finding(diags, cfg, s, "LEMMA.NIMMA",
                    f'"nimma" must be lemmatized "nicht mehr", '
                    f"got {lemma!r}", t)
    return diags


MISC_FRAGMENTS = ("GermanLemma=", "|", "=", "x", "nicht mehr",
                  "SpaceAfter=No", "_")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(
    st.sampled_from(("nimma", "NIMMA", "Nimma", "a")),
    st.sampled_from(("ADV", "PUNCT")),
    st.sampled_from(("root", "goeswith")),
    st.lists(st.sampled_from(MISC_FRAGMENTS), min_size=1,
             max_size=6).map("".join)), min_size=1, max_size=4))
def test_lemma_conventions_finds_what_column_value_finds(rows):
    s = Sentence(tokens=[
        Token(id=i, form=form, upos=upos, head=0, deprel=deprel, misc=misc)
        for i, (form, upos, deprel, misc) in enumerate(rows, 1)])
    cfg = LintConfig()
    assert rule_lemma_conventions(s, cfg) == \
        _lemma_conventions_reference(s, cfg)


def test_typo_without_goeswith_is_review():
    s = sent(("Wrot", "NOUN", 0, "root", "Wort", ["Typo=Yes"]))
    diags = lint_sentence(s)
    assert ids(diags) == ["TYPO.REVIEW"]
    assert diags[0].severity == "review"


def test_typo_review_skips_a_flagged_goeswith_head_only():
    # token 2 heads goeswith parts, token 4 stands alone: both carry Typo=Yes
    s = goeswith_sentence()
    s.tokens[3].misc += "|Typo=Yes"
    assert [(d.rule_id, d.token_id) for d in lint_sentence(s)] == [
        ("TYPO.REVIEW", 4)]


def test_mwt_surface_substring():
    ok = sent(("zu", "ADP", 3, "case", "zu"),
              ("m", "DET", 3, "det", "der"),
              ("Haus", "NOUN", 0, "root", "Haus"),
              mwts=[(1, 2, "zum")])
    assert lint_sentence(ok) == []
    normalized = sent(("in", "ADP", 3, "case", "in"),
                      ("m", "DET", 3, "det", "der"),
                      ("Haus", "NOUN", 0, "root", "Haus"),
                      mwts=[(1, 2, "im")])
    assert ids(lint_sentence(normalized)) == ["MWT.SURFACE"]


def test_mwt_arity():
    s = sent(("zum", "ADP", 2, "case", "zu"),
             ("Haus", "NOUN", 0, "root", "Haus"),
             mwts=[(1, 1, "zum")])
    assert "MWT.SURFACE" in ids(lint_sentence(s))


def test_placeholder_username():
    ok = sent(("USERNAME", "PROPN", 0, "root", "USERNAME"))
    assert lint_sentence(ok) == []
    bad = sent(("USERNAME", "NOUN", 0, "root", "USERNAME"))
    assert ids(lint_sentence(bad)) == ["CLASS.USERNAME"]


def test_placeholder_dummy_letters():
    ok = sent(("Film", "NOUN", 0, "root", "Film"),
              ("A", "X", 1, "appos", "<unknown>"))
    assert lint_sentence(ok) == []
    bad = sent(("Film", "NOUN", 0, "root", "Film"),
               ("A", "NOUN", 1, "appos", "<unknown>"))
    diags = lint_sentence(bad)
    assert ids(diags) == ["CLASS.PLACEHOLDER"]
    assert diags[0].severity == "review"


def test_placeholder_ellipsis():
    as_sym = sent(("Buch", "NOUN", 0, "root", "Buch"),
                  ("...", "SYM", 1, "appos", "<unknown>"))
    assert lint_sentence(as_sym) == []
    as_punct = sent(("Jo", "INTJ", 0, "root", "ja"),
                    ("...", "PUNCT", 1, "punct", None))
    assert lint_sentence(as_punct) == []
    as_x = sent(("Buch", "NOUN", 0, "root", "Buch"),
                ("...", "X", 1, "appos", "<unknown>"))
    assert ids(lint_sentence(as_x)) == ["CLASS.PLACEHOLDER"]


def test_relative_marker():
    ok = sent(("wo", "SCONJ", 2, "mark", "wo"),
              ("vastenga", "VERB", 0, "root", "verstehen"))
    assert lint_sentence(ok) == []
    bad = sent(("wo", "PRON", 2, "mark", "wo"),
               ("vastenga", "VERB", 0, "root", "verstehen"))
    assert ids(lint_sentence(bad)) == ["REL.RELMARK"]
    wrong_tag = sent(("wej", "ADV", 2, "mark", "wie"),
                     ("vastenga", "VERB", 0, "root", "verstehen"))
    assert ids(lint_sentence(wrong_tag)) == ["REL.RELMARK"]


def test_review_iobj():
    s = sent(("kost", "VERB", 0, "root", "kosten"),
             ("mi", "PRON", 1, "iobj", "ich"))
    diags = lint_sentence(s)
    assert ids(diags) == ["REVIEW.IOBJ"]
    assert diags[0].severity == "review"


def test_review_appos_order():
    s = sent(("bleda", "ADJ", 2, "appos", "blöd"),
             ("Depp", "NOUN", 0, "root", "Depp"))
    assert ids(lint_sentence(s)) == ["REVIEW.APPOS_ORDER"]


def test_negative_concord_not_flagged():
    s = sent(("Se", "PRON", 2, "nsubj", "sie"),
             ("hom", "VERB", 0, "root", "haben"),
             ("koane", "DET", 4, "det", "keine"),
             ("Haxn", "NOUN", 2, "obj", "Haxe"),
             ("ned", "ADV", 2, "advmod", "nicht"))
    assert lint_sentence(s) == []


def test_core_columns_warning():
    s = sent(("Haus", "NOUN", 0, "root", "Haus"))
    s.tokens[0].lemma_col = "Haus"
    diags = lint_sentence(s)
    assert ids(diags) == ["CORE.COLUMNS"]
    assert diags[0].severity == "warning"


def test_core_columns_allows_typo_feats():
    s = sent(("wer", "AUX", 3, "aux", "werden"),
             ("den", "X", 1, "goeswith", None),
             ("kumma", "VERB", 0, "root", "kommen"))
    s.tokens[0].feats_col = "Typo=Yes"
    assert lint_sentence(s) == []


def test_core_enhanced_unsupported():
    s = sent(("Haus", "NOUN", 0, "root", "Haus"))
    s.tokens[0].deps_col = "0:root"
    diags = lint_sentence(s)
    assert ids(diags) == ["CORE.ENHANCED_UNSUPPORTED"]
    assert diags[0].severity == "warning"


def test_golden_sentences_all_clean(golden_doc, cfg):
    for s in golden_doc.sentences:
        assert lint_sentence(s, cfg) == [], s.sent_id
        assert validate_metadata(s, cfg=cfg) == [], s.sent_id


def test_empty_sentence_list_is_clean(cfg):
    assert [d for s in [] for d in lint_sentence(s, cfg)] == []


def test_monotonicity_disabling_removes_exactly_that_rule(golden_doc):
    s = next(x for x in golden_doc.sentences
             if x.sent_id == "maibaam-golden-014")
    s.tokens[3].upos = "ADJD"
    s.tokens[0].misc = "_"  # drop the lemma as well
    base = lint_sentence(s)
    assert sorted(set(ids(base))) == ["LEMMA.MISSING", "VOCAB.UPOS"]
    without = lint_sentence(s, LintConfig(
        enabled_overrides={"VOCAB.UPOS": False}))
    assert ids(without) == ["LEMMA.MISSING"]
    assert [d for d in base if d.rule_id != "VOCAB.UPOS"] == without


def test_family_wildcard_disable(golden_doc):
    s = next(x for x in golden_doc.sentences
             if x.sent_id == "maibaam-golden-014")
    s.tokens[0].misc = "_"
    cfg = LintConfig(enabled_overrides={"LEMMA.*": False})
    assert lint_sentence(s, cfg) == []


def test_severity_override_changes_labels_not_findings(golden_doc):
    s = next(x for x in golden_doc.sentences
             if x.sent_id == "maibaam-golden-014")
    s.tokens[3].upos = "ADJD"
    base = lint_sentence(s)
    overridden = lint_sentence(s, LintConfig(
        severity_overrides={"VOCAB.UPOS": "review"}))
    assert ids(base) == ids(overridden)
    assert [d.severity for d in overridden] == ["review"]
    assert [d._replace(severity="x") for d in base] == \
        [d._replace(severity="x") for d in overridden]


def test_lint_is_pure_function_of_inputs(golden_text, cfg):
    doc_a = parse_document(golden_text, "golden.conllu")
    doc_b = parse_document(golden_text, "golden.conllu")
    for sa, sb in zip(doc_a.sentences, doc_b.sentences):
        assert lint_sentence(sa, cfg) == lint_sentence(sb, cfg)


def test_load_config_file(tmp_path):
    aux = tmp_path / "aux.txt"
    aux.write_text("sein\nhaben\n# comment\nhelfen\n", encoding="utf-8")
    conf = tmp_path / "lint.conf"
    conf.write_text(
        "# test config\n"
        "guideline_version=1.1\n"
        "typo_column=misc\n"
        "rule.LEMMA.MISSING.severity=review\n"
        "rule.CLASS.PLACEHOLDER.enabled=false\n"
        "rule.STRUCT.*.enabled=false\n"
        "lexicon.aux.path=aux.txt\n",
        encoding="utf-8")
    cfg = load_config(str(conf))
    assert cfg.guideline_version == "1.1"
    assert cfg.typo_column == "misc"
    assert cfg.severity("LEMMA.MISSING") == "review"
    assert "CLASS.PLACEHOLDER" not in cfg.enabled_ids
    assert "STRUCT.CYCLE" not in cfg.enabled_ids
    assert cfg.aux_lemmas == {"sein", "haben", "helfen"}


def test_load_config_drops_a_leading_byte_order_mark(tmp_path):
    conf = tmp_path / "bom.conf"
    conf.write_text("\ufeffguideline_version=1.1\n", encoding="utf-8")
    assert load_config(str(conf)).guideline_version == "1.1"


def test_a_word_list_drops_a_leading_byte_order_mark(tmp_path):
    (tmp_path / "genres.txt").write_text("\ufefffiction\nwiki\n",
                                         encoding="utf-8")
    conf = tmp_path / "lint.conf"
    conf.write_text("lexicon.genres.path = genres.txt\n", encoding="utf-8")
    assert load_config(str(conf)).genre_vocab == {"fiction", "wiki"}


def test_load_config_rejects_unknown_key(tmp_path):
    (tmp_path / "words.txt").write_text("gell\n", encoding="utf-8")
    conf = tmp_path / "lint.conf"
    for line in ("no_such_option=1",
                 "rule.LEMMA.MISING.severity=review",
                 "rule.NOPE.enabled=false",
                 "rule.NOPE.*.enabled=false",
                 "lexicon.interjections.path=words.txt"):
        conf.write_text("# typo below\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{conf}:2: unknown")):
            load_config(str(conf))


def test_load_config_fixed_sequences(tmp_path):
    fixed = tmp_path / "fixed.txt"
    fixed.write_text("ein paar\nund zwar\n", encoding="utf-8")
    conf = tmp_path / "lint.conf"
    conf.write_text("lexicon.fixed.path=fixed.txt\n", encoding="utf-8")
    cfg = load_config(str(conf))
    assert cfg.fixed_whitelist == (("ein", "paar"), ("und", "zwar"))


def test_every_shipped_rule_has_ref_or_is_structural():
    for rule in RULES:
        assert rule.guideline_ref or rule.rule_id.startswith(("STRUCT.", "CORE."))
    assert RULES_BY_ID["CLASS.COP"].guideline_ref == "§6.6"


def test_family_severity_override_and_exact_beats_family():
    cfg = LintConfig(severity_overrides={"META.*": "review",
                                         "META.GENRE": "warning"})
    assert cfg.severity("META.DUP_ID") == "review"
    assert cfg.severity("META.GENRE") == "warning"
    assert cfg.severity("CLASS.COP") == "error"


def _faulty_golden(golden_text):
    """The golden corpus with faults for several rule families."""
    doc = parse_document("\ufeff" + golden_text, "golden.conllu")
    for s in doc.sentences:
        s.tokens[0].misc = "Typo=Yes"        # TYPO.REVIEW, LEMMA.MISSING
        s.tokens[-1].upos = "ADJD"           # VOCAB.UPOS
        s.metadata = s.metadata[:1]          # META.MISSING
    doc.sentences[1].metadata = doc.sentences[0].metadata  # META.DUP_ID
    return doc


def test_findings_take_the_severity_their_config_resolves(golden_text,
                                                          tmp_path):
    # the per-config rule table must agree with cfg.severity for configs
    # built every way: defaults, a config file, and _replace
    conf = tmp_path / "lint.conf"
    conf.write_text("rule.META.*.severity=review\n"
                    "rule.META.DUP_ID.severity=warning\n"
                    "rule.LEMMA.MISSING.severity=review\n"
                    "rule.TYPO.*.severity=error\n", encoding="utf-8")
    loaded = load_config(str(conf))
    configs = [
        LintConfig(),
        loaded,
        loaded._replace(severity_overrides={"LEMMA.*": "warning",
                                            "VOCAB.UPOS": "review",
                                            "CORE.BOM": "error"}),
        LintConfig(guideline_version="2.16")._replace(
            severity_overrides={"META.MISSING": "error"}),
    ]
    doc = _faulty_golden(golden_text)
    labels = set()
    for cfg in configs:
        diags = lint_documents([doc], cfg)
        assert {d.rule_id.split(".")[0] for d in diags} >= {
            "CORE", "LEMMA", "META", "TYPO", "VOCAB"}
        for d in diags:
            assert d.severity == cfg.severity(d.rule_id), d
            assert d.guideline_ref == RULES_BY_ID[d.rule_id].guideline_ref
        labels.add(frozenset((d.rule_id, d.severity) for d in diags))
    assert len(labels) == len(configs)


def test_severity_overrides_are_read_only():
    overrides = {"META.*": "review"}
    cfg = LintConfig(severity_overrides=overrides)
    overrides["META.*"] = "error"  # the caller's dict is copied
    with pytest.raises(TypeError):
        cfg.severity_overrides["META.*"] = "error"
    assert cfg.severity("META.GENRE") == "review"
    assert cfg.rule_table["META.GENRE"][0] == "review"
    assert cfg._replace(guideline_version="2.16").severity_overrides == \
        {"META.*": "review"}


def test_rule_table_is_not_compared_or_shown():
    cfg = LintConfig(severity_overrides={"META.*": "review"})
    stale = cfg._replace()
    object.__setattr__(stale, "rule_table", {})
    assert stale == cfg
    assert repr(stale) == repr(cfg)
    assert stale._replace().rule_table == cfg.rule_table


@pytest.mark.parametrize("duplicate", [
    lambda cfg: pickle.loads(pickle.dumps(cfg)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_lint_config_pickles_and_copies(duplicate):
    cfg = LintConfig(severity_overrides={"META.*": "review"},
                     enabled_overrides={"LEMMA.*": False, "LEMMA.NIMMA": True},
                     guideline_version="2.16")
    twin = duplicate(cfg)
    assert twin == cfg and twin is not cfg
    assert twin.rule_table == cfg.rule_table
    assert twin.enabled_ids == cfg.enabled_ids
    with pytest.raises(TypeError):
        twin.severity_overrides["META.*"] = "error"
    with pytest.raises(TypeError):
        twin.enabled_overrides["META.*"] = False


@pytest.mark.parametrize("cls, first", [
    (LintConfig, "severity_overrides"),
    (maibaam_lint.TokenizerLexicon, "fused_adp_det"),
])
def test_config_records_take_their_fields_by_name_only(cls, first):
    assert cls._fields[0] == first
    assert cls(**{first: {}}) == cls()
    with pytest.raises(TypeError):
        cls({})
    with pytest.raises(TypeError, match=f"{cls.__name__} got an unexpected "
                                        "argument 'colour'"):
        cls(colour={})
    with pytest.raises(TypeError, match="unexpected argument 'colour'"):
        cls()._replace(colour={})


def test_rule_enabled_resolution_order():
    for family, exact in ((False, True), (True, False)):
        cfg = LintConfig(enabled_overrides={"LEMMA.*": family,
                                            "LEMMA.NIMMA": exact})
        assert ("LEMMA.NIMMA" in cfg.enabled_ids) is exact
        assert ("LEMMA.MISSING" in cfg.enabled_ids) is family
        assert "CLASS.COP" in cfg.enabled_ids


@pytest.mark.parametrize("lines, field, value", [
    (("enabled=false", "enabled=true"), "enabled_overrides", True),
    (("enabled=true", "enabled=false"), "enabled_overrides", False),
    (("severity=error", "severity=review"), "severity_overrides", "review"),
    (("severity=review", "severity=error"), "severity_overrides", "error"),
])
def test_load_config_takes_the_later_value_of_a_key_given_twice(
        tmp_path, lines, field, value):
    conf = tmp_path / "lint.conf"
    conf.write_text("".join(f"rule.LEMMA.NIMMA.{line}\n" for line in lines),
                    encoding="utf-8")
    cfg = load_config(str(conf))
    assert getattr(cfg, field) == {"LEMMA.NIMMA": value}
    assert cfg.severity("LEMMA.NIMMA") == (
        value if field == "severity_overrides" else "warning")
    assert ("LEMMA.NIMMA" in cfg.enabled_ids) is (value is not False)


@pytest.mark.parametrize("value, expected", [
    ("1", True), ("TRUE", True), ("Yes", True),
    ("0", False), ("false", False), ("NO", False),
])
def test_load_config_boolean_spellings(tmp_path, value, expected):
    conf = tmp_path / "lint.conf"
    conf.write_text(f"rule.LEMMA.MISSING.enabled={value}\n"
                    f"punct_lemma_exempt={value}\n", encoding="utf-8")
    cfg = load_config(str(conf))
    assert ("LEMMA.MISSING" in cfg.enabled_ids) is expected
    assert cfg.punct_lemma_exempt is expected


def test_load_config_rejects_bad_values(tmp_path):
    conf = tmp_path / "lint.conf"
    for line in ("rule.LEMMA.MISSING.enabled=ture",
                 "rule.LEMMA.*.enabled=",
                 "punct_lemma_exempt=maybe",
                 "guideline_version=two",
                 "guideline_version=2.",
                 "guideline_version=v2.17",
                 "guideline_version=2_17",
                 "guideline_version=\u0662.17"):
        conf.write_text("# typo below\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{conf}:2: bad")):
            load_config(str(conf))


@pytest.mark.parametrize("line, message", [
    ("guideline_version", "expected key=value"),
    ("rule.LEMMA.MISSING.severity=fatal", "bad severity 'fatal'"),
    ("rule.META.*.severity=Error", "bad severity 'Error'"),
    ("typo_column=feat", "bad typo_column 'feat'"),
    ("guideline_version=2.17a", "bad guideline_version '2.17a'"),
    ("rule.LEMMA.MISSING.enabled=ture", "bad boolean 'ture'"),
    ("punct_lemma_exempt=maybe", "bad boolean 'maybe'"),
    ("rule.LEMMA.MISING.severity=review", "unknown rule 'LEMMA.MISING'"),
    ("rule.NOPE.*.enabled=false", "unknown rule 'NOPE.*'"),
    # the rule id is checked before the value
    ("rule.NOPE.enabled=maybe", "unknown rule 'NOPE'"),
    ("rule.NOPE.severity=fatal", "unknown rule 'NOPE'"),
    ("lexicon.interjections.path=words.txt", "unknown lexicon 'interjections'"),
    ("no_such_option=1", "unknown key 'no_such_option'"),
])
def test_load_config_error_messages(tmp_path, line, message):
    (tmp_path / "words.txt").write_text("gell\n", encoding="utf-8")
    conf = tmp_path / "lint.conf"
    conf.write_text("# typo below\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_config(str(conf))
    assert str(exc.value) == f"{conf}:2: {message}"


@pytest.mark.parametrize("settings, message", [
    ({"guideline_version": "2.17a"}, "bad guideline_version '2.17a'"),
    ({"enabled_overrides": {"REL.FIXD": False}}, "unknown rule 'REL.FIXD'"),
    ({"enabled_overrides": {"REL": True}}, "unknown rule 'REL'"),
    ({"severity_overrides": {"META.*": "fatal"}}, "bad severity 'fatal'"),
    ({"severity_overrides": {"META": "review"}}, "unknown rule 'META'"),
    ({"typo_column": "feat"}, "bad typo_column 'feat'"),
])
def test_lint_config_checks_what_it_is_given(settings, message):
    # the same checks, and messages, as a config file gets, without the
    # file and line
    with pytest.raises(ValueError) as exc:
        LintConfig(**settings)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        LintConfig()._replace(**settings)
    assert str(exc.value) == message


# the fields that take a collection of words
COLLECTION_FIELDS = (
    "copula_lemmas", "part_lemmas", "aux_lemmas", "placeholder_x_forms",
    "placeholder_sym_forms", "relative_markers", "genre_vocab", "dialect_order", "fixed_whitelist",
    "fixed_versioned")


TYPE_CASES = [
    *(({name: "sein"}, f"{name} got the str 'sein' where it takes a "
       f"collection") for name in COLLECTION_FIELDS),
    *(({name: ("ein paar",)}, f"{name} got the str 'ein paar' where it "
       f"takes a collection")
      for name in ("fixed_whitelist", "fixed_versioned")),
    ({"punct_lemma_exempt": "no"},
     "punct_lemma_exempt must be True or False, not 'no'"),
    ({"punct_lemma_exempt": 1},
     "punct_lemma_exempt must be True or False, not 1"),
    # dict() would read a str or a set of ids as a sequence of pairs
    ({"severity_overrides": "x"}, "severity_overrides must be a mapping, "
                                  "not 'x'"),
    ({"enabled_overrides": 5}, "enabled_overrides must be a mapping, not 5"),
    ({"enabled_overrides": frozenset({"REL.FIXED"})},
     "enabled_overrides must be a mapping, not frozenset({'REL.FIXED'})"),
    ({"enabled_overrides": {"LEMMA.*": "no"}},
     "enabled_overrides['LEMMA.*'] must be True or False, not 'no'"),
    ({"enabled_overrides": {"LEMMA.MISSING": 0}},
     "enabled_overrides['LEMMA.MISSING'] must be True or False, not 0"),
]


@pytest.mark.parametrize("settings, message", TYPE_CASES,
                         ids=[repr(settings) for settings, _ in TYPE_CASES])
def test_lint_config_checks_the_types_it_is_given(settings, message):
    # a str passes for the collection of its letters: "se" would be in
    # copula_lemmas="sein"
    for build in (LintConfig, LintConfig()._replace):
        with pytest.raises(TypeError) as exc:
            build(**settings)
        assert str(exc.value) == message


def test_load_config_locates_a_rule_setting_without_an_id(tmp_path):
    conf = tmp_path / "lint.conf"
    for line in ("rule.severity=review", "rule.enabled=false"):
        conf.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_config(str(conf))
        assert str(exc.value) == f"{conf}:1: unknown rule ''"


def _setting_by_loops(cfg, rule_id):
    """severity and enabling as separate lookups: exact id, then family."""
    keys = (rule_id, rule_id.split(".")[0] + ".*")
    enabled = next((cfg.enabled_overrides[key] for key in keys
                    if key in cfg.enabled_overrides), True)
    severity = next((cfg.severity_overrides[key] for key in keys
                     if key in cfg.severity_overrides),
                    RULES_BY_ID[rule_id].default_severity)
    return severity, enabled


SETTING_KEYS = sorted(RULES_BY_ID) + sorted(RULE_FAMILIES)


@given(st.dictionaries(st.sampled_from(SETTING_KEYS),
                       st.sampled_from(("error", "warning", "review"))),
       st.dictionaries(st.sampled_from(SETTING_KEYS), st.booleans()))
def test_rule_settings_resolve_as_exact_id_then_family(overrides, enabling):
    cfg = LintConfig(severity_overrides=overrides, enabled_overrides=enabling)
    for rule_id in RULES_BY_ID:
        assert (cfg.severity(rule_id), rule_id in cfg.enabled_ids) == \
            _setting_by_loops(cfg, rule_id)
    assert cfg.enabled_ids <= RULES_BY_ID.keys()


def test_load_config_resolves_lexicon_paths_against_its_directory(tmp_path):
    (tmp_path / "lists").mkdir()
    (tmp_path / "lists" / "groups.txt").write_text(
        "# north to south\nnorth\nsouth\n", encoding="utf-8")
    conf = tmp_path / "lint.conf"
    conf.write_text("lexicon.tokenizer.path = lists/seg.tsv\n"
                    "lexicon.dialect_groups.path = lists/groups.txt\n",
                    encoding="utf-8")
    cfg = load_config(str(conf))
    # the tokenizer lexicon is only named here; tokenize reads it
    assert cfg.tokenizer_lexicon_path == str(tmp_path / "lists" / "seg.tsv")
    assert cfg.dialect_order == ("north", "south")


def test_typo_column_misc_reads_only_misc():
    in_feats = goeswith_sentence()
    in_misc = sent(("wer", "AUX", 3, "aux", "werden", ["Typo=Yes"]),
                   ("den", "X", 1, "goeswith", None),
                   ("kumma", "VERB", 0, "root", "kommen"))
    misc_only = LintConfig(typo_column="misc")
    assert lint_sentence(in_misc, misc_only) == []
    assert [d.message for d in lint_sentence(in_feats, misc_only)] == [
        "goeswith head must carry Typo=Yes"]


def test_lint_config_is_immutable():
    cfg = LintConfig()
    with pytest.raises(AttributeError) as exc:
        cfg.guideline_version = "2.16"
    assert str(exc.value) == ("LintConfig is immutable: cannot set or "
                              "delete 'guideline_version'")
    with pytest.raises(AttributeError) as exc:
        del cfg.typo_column
    assert str(exc.value) == ("LintConfig is immutable: cannot set or "
                              "delete 'typo_column'")
    assert cfg == LintConfig()


def test_core_columns_names_xpos_and_feats():
    s = sent(("Haus", "NOUN", 0, "root", "Haus"))
    s.tokens[0].xpos_col = "NN"
    s.tokens[0].feats_col = "Case=Nom"
    assert [d.message for d in lint_sentence(s)] == [
        "unexpected content in XPOS/FEATS; annotations live in UPOS, HEAD, "
        "DEPREL and MISC"]


def test_core_enhanced_unsupported_on_an_empty_node():
    s = parse_document("1\tHaus\t_\tNOUN\t_\t_\t0\troot\t_\t"
                       "GermanLemma=Haus\n"
                       "1.1\tis\t_\tAUX\t_\t_\t_\t_\t0:root\t_\n\n",
                       "t.conllu").sentences[0]
    diags = lint_sentence(s)
    assert [(d.rule_id, d.line, d.message) for d in diags] == [
        ("CORE.ENHANCED_UNSUPPORTED", 2, "empty nodes are not annotated")]


def test_goeswith_dependent_without_a_head_token():
    s = goeswith_sentence(dep_head=9)
    assert [(d.token_id, d.message) for d in lint_sentence(s)
            if d.rule_id == "REL.GOESWITH"] == [
        (3, "goeswith dependent without a head token")]


SOURCES = sorted(Path(maibaam_lint.__file__).parent.glob("*.py"))


def _name(node: ast.AST) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


class _Calls(ast.NodeVisitor):
    """Collect every call of ``callee``, and every call passing the name
    ``callee`` as an argument (as in ``tuple.__new__(Diagnostic, ...)``),
    with its enclosing class and function names, as in
    ``cli._LintRun.add``."""

    def __init__(self, module: str, callee: str):
        self.scope = [module]
        self.callee = callee
        self.found: list[tuple[str, ast.Call]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        passed = [*node.args, *(k.value for k in node.keywords)]
        if self.callee in map(_name, [node.func, *passed]):
            self.found.append((".".join(self.scope), node))
        self.generic_visit(node)


def _calls(callee: str) -> list[tuple[str, ast.Call]]:
    found = []
    for path in SOURCES:
        visitor = _Calls(path.stem, callee)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    return found


def _finding_ids() -> tuple[dict[str, set[str]], list[str]]:
    """Rule id -> the functions whose finding(...) calls name it literally,
    and the calls whose id is not a string literal."""
    emitters: dict[str, set[str]] = {}
    computed = []
    for scope, node in _calls("finding"):
        args = node.args[3:4] + [k.value for k in node.keywords
                                 if k.arg == "rule_id"]
        if len(args) == 1 and isinstance(args[0], ast.Constant) \
                and isinstance(args[0].value, str):
            emitters.setdefault(args[0].value, set()).add(scope)
        else:
            computed.append(f"{scope}:{node.lineno}")
    return emitters, computed


def test_diagnostic_is_built_only_by_finding():
    # one constructor keeps severity and citation lookup in one place
    assert [scope for scope, _ in _calls("Diagnostic")] == ["rules.finding"]


@pytest.mark.parametrize("rule_id, located", [
    ("STRUCT.HEAD_RANGE", True), ("STRUCT.NO_ROOT", False),
    ("CLASS.COP", True), ("META.MISSING", False)])
def test_finding_builds_what_the_keyword_constructor_builds(rule_id, located):
    token = Token(id=2, form="is", upos="AUX", head=0, deprel="root", line=7)
    s = Sentence(tokens=[token], metadata=[("sent_id", "s-1")],
                 file="f.conllu", line=5)
    cfg = LintConfig()
    out = []
    finding(out, cfg, s, rule_id, "a message", token if located else None)
    severity, ref = cfg.rule_table[rule_id]
    fields = dict(rule_id=rule_id, severity=severity, file="f.conllu",
                  line=7 if located else 5, sentence_id="s-1",
                  token_id=2 if located else None, message="a message")
    # STRUCT.* rules have no citation: guideline_ref is left at its default
    expected = (Diagnostic(**fields) if ref is None
                else Diagnostic(**fields, guideline_ref=ref))
    [built] = out
    assert type(built) is Diagnostic
    assert built == expected
    assert built._asdict() == expected._asdict()
    assert built.sort_key == expected.sort_key
    assert built.guideline_ref == ref


def test_findings_of_ranges_and_empty_nodes_built_in_code_lie_on_the_sentence():
    # ranges and empty nodes built in code lie on line 0; each finding of
    # theirs falls back to the sentence's line, and lies on their own line
    # once they have one
    tokens = [Token(i, form, "X", 0 if i == 1 else 1,
                    "root" if i == 1 else "dep", misc=f"GermanLemma={form}")
              for i, form in enumerate("abc", 1)]
    s = Sentence(tokens, [MwtSpan(1, 2, "xy", misc="GermanLemma=xy"),
                          MwtSpan(2, 3, "bc"), MwtSpan(3, 3, "c")],
                 empty_nodes=[EmptyNodeLine(1, "1.1\te" + "\t_" * 8)],
                 file="f.conllu", line=7)
    for line in (7, 9):
        assert sorted((d.rule_id, d.line) for d in lint_sentence(s)) == [
            ("CORE.ENHANCED_UNSUPPORTED", line), ("LEMMA.ON_MWT", line),
            ("MWT.SURFACE", line), ("MWT.SURFACE", line),
            ("STRUCT.MWT_OVERLAP", line), ("STRUCT.MWT_OVERLAP", line)]
        for span in s.mwt_spans:
            span.line = 9
        s.empty_nodes = [node._replace(line=9) for node in s.empty_nodes]


def test_finding_ids_are_literal_and_match_the_catalog():
    # a literal id makes every id the program can emit visible to this scan,
    # so a catalogued rule that nothing emits is caught as well
    emitters, computed = _finding_ids()
    assert computed == []
    assert set(emitters) == {r.rule_id for r in RULES}


# each check and the rule ids it alone emits
CHECK_RULE_IDS = {
    "cli._LintRun.add": {"CORE.BOM"},
    "metadata.check_unique_sent_ids": {"META.DUP_ID"},
    "metadata.validate_metadata": {
        "META.DIALECT", "META.DIALECT_ORDER", "META.GENRE", "META.MISSING",
        "META.SOURCE", "META.TEXT_MISMATCH"},
    "rules.validate_structure": {
        "STRUCT.CYCLE", "STRUCT.HEAD_RANGE", "STRUCT.MULTI_ROOT",
        "STRUCT.MWT_OVERLAP", "STRUCT.NO_ROOT", "STRUCT.PUNCT_CHILD",
        "STRUCT.ROOT_DEPREL"},
    "rules.rule_upos_vocabulary": {"VOCAB.UPOS"},
    "rules.rule_deprel_vocabulary": {"VOCAB.DEPREL"},
    "rules.rule_copula": {"CLASS.COP"},
    "rules.rule_part_closed_class": {"CLASS.PART"},
    "rules.rule_aux_closed_class": {"CLASS.AUX"},
    "rules.rule_fixed_whitelist": {"REL.FIXED"},
    "rules.rule_goeswith_shape": {"REL.GOESWITH"},
    "rules.rule_lemma_conventions": {
        "LEMMA.MISSING", "LEMMA.NIMMA", "LEMMA.ON_MWT"},
    "rules.rule_typo_features": {"TYPO.CORRECT_SPACE", "TYPO.REVIEW"},
    "rules.rule_mwt_shape": {"MWT.SURFACE"},
    "rules.rule_placeholder_tags": {"CLASS.PLACEHOLDER", "CLASS.USERNAME"},
    "rules.rule_relative_marker": {"REL.RELMARK"},
    "rules.rule_review_hints": {"REVIEW.APPOS_ORDER", "REVIEW.IOBJ"},
    "rules.rule_core_columns": {"CORE.COLUMNS", "CORE.ENHANCED_UNSUPPORTED"},
}


def test_each_rule_id_is_emitted_by_one_check():
    # a rule stated in one place: no id is shared between checks, and an
    # id that moves to another function shows here
    emitters, _ = _finding_ids()
    assert {rule_id: scopes for rule_id, scopes in emitters.items()
            if len(scopes) != 1} == {}
    by_check: dict[str, set[str]] = {}
    for rule_id, (scope,) in emitters.items():
        by_check.setdefault(scope, set()).add(rule_id)
    assert by_check == CHECK_RULE_IDS


def test_source_has_no_invisible_characters():
    # a format character such as U+FEFF or U+200B is written as an escape,
    # so that a reader sees it
    found = [f"{path.name}:{no}"
             for path in SOURCES
             for no, line in enumerate(
                 path.read_text(encoding="utf-8").splitlines(), start=1)
             if any(unicodedata.category(c) == "Cf" for c in line)]
    assert found == []


# three sentences on which each sentence check emits every one of its ids
FAULTY = """\
# sent_id = f1
# text = nicht passend
# genre = blog
# dialect_group = unk (south/north)
# source = x
1-3\tzum\t_\t_\t_\t_\t_\t_\t_\tGermanLemma=zu dem
1\tz\t_\tNOUN\t_\t_\t2\tnsubj\t_\tGermanLemma=z
2-3\tmer\t_\t_\t_\t_\t_\t_\t_\t_
2\tx\t_\tVERB\t_\t_\t1\tobj\t_\tGermanLemma=x
3\t.\t_\tPUNCT\t_\t_\t9\tpunct\t_\t_
4\tb\t_\tADV\t_\t_\t3\tdep\t_\tGermanLemma=b
5\tnimma\t_\tADV\t_\t_\t0\tadvmod\t_\tGermanLemma=nie

# sent_id = f2
# text = x
# genre = wiki
# dialect_group = nowhere
# location = Minga
# source = no-url
1\tis\tsein\tAUX\tVAFIN\tCase=Nom\t0\troot\t2:dep\tGermanLemma=sein
2\twird\t_\tVERB\t_\t_\t0\troot\t_\tGermanLemma=werden
3\twird\t_\tAUX\t_\t_\t2\tcop\t_\tGermanLemma=werden
4\tja\t_\tPART\t_\t_\t2\tadvmod\t_\tGermanLemma=ja
5\tsoin\t_\tAUX\t_\t_\t2\taux\t_\tGermanLemma=sollten
6\tUSERNAME\t_\tNOUN\t_\t_\t2\tnsubj\t_\tGermanLemma=USERNAME
7\tXYZ\t_\tNOUN\t_\t_\t2\tobj\t_\tGermanLemma=XYZ
8\t…\t_\tNOUN\t_\t_\t2\tobj\t_\tGermanLemma=…
9\tdea\t_\tPRON\t_\t_\t2\tmark\t_\tGermanLemma=der
10\two\t_\tADV\t_\t_\t2\tmark\t_\tGermanLemma=wo
11\tihm\t_\tPRON\t_\t_\t2\tiobj\t_\tGermanLemma=er
12\tHans\t_\tPROPN\t_\t_\t13\tappos\t_\tGermanLemma=Hans
13\tMo\t_\tNOUN\t_\t_\t2\tobj\t_\tGermanLemma=Mann
14\tgroß\t_\tADJD\t_\t_\t2\tfoo\t_\tGermanLemma=groß
15\tda\t_\tADV\t_\t_\t2\troot\t_\tGermanLemma=da
16\tund\t_\tCCONJ\t_\t_\t2\tcc\t_\tGermanLemma=und
17\tzwoa\t_\tADV\t_\t_\t19\tfixed\t_\tGermanLemma=zwar
18\tgeht\t_\tVERB\t_\t_\t2\tconj\t_\tGermanLemma=gehen|CorrectSpaceAfter=Yes
19\tfoi\t_\tADV\t_\t_\t2\tadvmod\t_\tGermanLemma=voll|Typo=Yes
20\tge\t_\tX\t_\t_\t2\tgoeswith\t_\tGermanLemma=ge
20.1\tis\t_\tAUX\t_\t_\t_\t_\t0:root\t_

# sent_id = f3
1\ta\t_\tNOUN\t_\t_\t1\tdep\t_\t_

"""

# each check a caller can run directly: all but the document-level CORE.BOM
DIRECT_CHECKS = sorted(set(CHECK_RULE_IDS) - {"cli._LintRun.add"})


def _direct_findings(check: str, cfg: LintConfig) -> list:
    """The findings of check, a CHECK_RULE_IDS key, called directly: on
    FAULTY's sentences, or on a sent_id found twice."""
    module, name = check.split(".")
    fn = getattr(getattr(maibaam_lint, module), name)
    if name == "check_unique_sent_ids":
        return fn({"f1": [("a.conllu", 1), ("b.conllu", 1)]}, cfg)
    return [d for s in parse_document(FAULTY, "faulty.conllu").sentences
            for d in fn(s, cfg)]


@pytest.mark.parametrize("check", DIRECT_CHECKS)
def test_a_check_called_directly_emits_no_disabled_rule(check):
    own = CHECK_RULE_IDS[check]
    assert {d.rule_id for d in _direct_findings(check, LintConfig())} == own
    off = dict.fromkeys(own, False)
    assert _direct_findings(check, LintConfig(enabled_overrides=off)) == []
    families = dict.fromkeys((rule_id.split(".")[0] + ".*" for rule_id in own),
                             False)
    assert _direct_findings(check, LintConfig(
        enabled_overrides=families)) == []
    for rule_id in own:
        cfg = LintConfig(enabled_overrides={rule_id: False})
        assert {d.rule_id for d in _direct_findings(check, cfg)} == \
            own - {rule_id}


def test_an_id_enabled_in_a_disabled_family_is_emitted():
    cfg = LintConfig(enabled_overrides={"LEMMA.*": False,
                                        "LEMMA.NIMMA": True})
    found = _direct_findings("rules.rule_lemma_conventions", cfg)
    assert {d.rule_id for d in found} == {"LEMMA.NIMMA"}


def _off_their_lines(text: str, name: str) -> tuple[int, list]:
    """How many findings the per-sentence checks of a lint run emit on the
    sentences of text, and those that lie off their sentence's lines: from
    its first line to its last token, multiword or empty-node line."""
    cfg = LintConfig()
    count, off = 0, []
    for s in parse_document(text, name).sentences:
        last = max(x.line for x in (*s.tokens, *s.mwt_spans, *s.empty_nodes))
        found = cli.lint_sentence(s, cfg) + cli.validate_metadata(s, cfg)
        count += len(found)
        off += [d for d in found if not s.line <= d.line <= last]
    return count, off


# a lint run sorts findings sentence by sentence, which leaves an input's
# findings sorted only while each lies on the lines of its sentence
@pytest.mark.parametrize("path", [*sorted(FIXTURES.glob("*.conllu")), None],
                         ids=lambda p: "FAULTY" if p is None else p.name)
def test_findings_lie_on_their_sentences_lines(path):
    if path is None:
        count, off = _off_their_lines(FAULTY, "faulty.conllu")
        assert count > 40
    else:
        count, off = _off_their_lines(path.read_text(encoding="utf-8"),
                                      path.name)
    assert off == []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(conllu_texts())
def test_findings_of_generated_sentences_lie_on_their_lines(text):
    try:
        _, off = _off_their_lines(text, "p.conllu")
    except ParseError:
        return
    assert off == []


def test_bom_finding_lies_on_the_first_sentences_first_line(golden_text):
    doc = Document(file="g.conllu")
    run = cli._LintRun(LintConfig())
    run.add(doc, iter_sentences("\ufeff" + golden_text, "g.conllu", doc))
    [diags] = run.finish()
    [bom] = [d for d in diags if d.rule_id == "CORE.BOM"]
    first = parse_document(golden_text, "g.conllu").sentences[0]
    assert (bom.line, bom.sentence_id) == (first.line, first.sent_id) == \
        (1, "maibaam-golden-001")
    assert diags == sorted(diags, key=Diagnostic.sort_key.fget)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(SETTING_KEYS), st.booleans()),
       st.dictionaries(st.sampled_from(SETTING_KEYS),
                       st.sampled_from(("error", "warning", "review"))))
def test_enabling_keeps_the_default_findings_of_enabled_ids(golden_text,
                                                            enabling,
                                                            overrides):
    # what a filter over the default findings would give: those of enabled
    # ids, each with the severity the config gives its rule
    cfg = LintConfig(severity_overrides=overrides, enabled_overrides=enabling)
    everything = lint_documents([_faulty_golden(golden_text)], LintConfig())
    assert lint_documents([_faulty_golden(golden_text)], cfg) == [
        d._replace(severity=cfg.severity(d.rule_id)) for d in everything
        if d.rule_id in cfg.enabled_ids]
