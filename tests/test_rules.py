import ast
import re
import unicodedata
from dataclasses import replace
from pathlib import Path

import pytest

import maibaam_lint
from maibaam_lint.cli import lint_documents
from maibaam_lint.conllu import MwtSpan, Sentence, Token, parse_document
from maibaam_lint.metadata import validate_metadata
from maibaam_lint.rules import (
    DEPRELS,
    RULES,
    RULES_BY_ID,
    UPOS_TAGS,
    LintConfig,
    lint_sentence,
    load_config,
)


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


def test_typo_without_goeswith_is_review():
    s = sent(("Wrot", "NOUN", 0, "root", "Wort", ["Typo=Yes"]))
    diags = lint_sentence(s)
    assert ids(diags) == ["TYPO.REVIEW"]
    assert diags[0].severity == "review"


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
    without = lint_sentence(s, LintConfig(disabled_rules=frozenset({"VOCAB.UPOS"})))
    assert ids(without) == ["LEMMA.MISSING"]
    assert [d for d in base if d.rule_id != "VOCAB.UPOS"] == without


def test_family_wildcard_disable(golden_doc):
    s = next(x for x in golden_doc.sentences
             if x.sent_id == "maibaam-golden-014")
    s.tokens[0].misc = "_"
    cfg = LintConfig(disabled_rules=frozenset({"LEMMA.*"}))
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
    assert not cfg.rule_enabled("CLASS.PLACEHOLDER")
    assert not cfg.rule_enabled("STRUCT.CYCLE")
    assert cfg.aux_lemmas == {"sein", "haben", "helfen"}


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
    # built every way: defaults, a config file, and dataclasses.replace
    conf = tmp_path / "lint.conf"
    conf.write_text("rule.META.*.severity=review\n"
                    "rule.META.DUP_ID.severity=warning\n"
                    "rule.LEMMA.MISSING.severity=review\n"
                    "rule.TYPO.*.severity=error\n", encoding="utf-8")
    loaded = load_config(str(conf))
    configs = [
        LintConfig(),
        loaded,
        replace(loaded, severity_overrides={"LEMMA.*": "warning",
                                            "VOCAB.UPOS": "review",
                                            "CORE.BOM": "error"}),
        replace(LintConfig(guideline_version="2.16"),
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
    assert replace(cfg, guideline_version="2.16").severity_overrides == \
        {"META.*": "review"}


def test_rule_table_is_not_compared_or_shown():
    cfg = LintConfig(severity_overrides={"META.*": "review"})
    stale = replace(cfg)
    object.__setattr__(stale, "rule_table", {})
    assert stale == cfg
    assert repr(stale) == repr(cfg)
    assert replace(stale).rule_table == cfg.rule_table


def test_rule_enabled_resolution_order():
    both = frozenset({"LEMMA.MISSING"})
    # an explicit enable beats a disable at the same level
    assert LintConfig(enabled_rules=both, disabled_rules=both) \
        .rule_enabled("LEMMA.MISSING")
    cfg = LintConfig(enabled_rules=frozenset({"LEMMA.NIMMA"}),
                     disabled_rules=frozenset({"LEMMA.*"}))
    assert cfg.rule_enabled("LEMMA.NIMMA")
    assert not cfg.rule_enabled("LEMMA.MISSING")
    assert cfg.rule_enabled("CLASS.COP")


@pytest.mark.parametrize("value, expected", [
    ("1", True), ("TRUE", True), ("Yes", True),
    ("0", False), ("false", False), ("NO", False),
])
def test_load_config_boolean_spellings(tmp_path, value, expected):
    conf = tmp_path / "lint.conf"
    conf.write_text(f"rule.LEMMA.MISSING.enabled={value}\n"
                    f"punct_lemma_exempt={value}\n", encoding="utf-8")
    cfg = load_config(str(conf))
    assert cfg.rule_enabled("LEMMA.MISSING") is expected
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


SOURCES = sorted(Path(maibaam_lint.__file__).parent.glob("*.py"))


class _Calls(ast.NodeVisitor):
    """Collect every call of ``callee`` with its enclosing class and
    function names, as in ``cli._LintRun.add``."""

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
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == self.callee:
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
        args = node.args[2:3] + [k.value for k in node.keywords
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
