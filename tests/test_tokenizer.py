import os
import random
import re
import string
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maibaam_lint.conllu import (MwtSpan, Token, column_value,
                                 reconstruct_text)
from maibaam_lint.rules import validate_structure
from maibaam_lint import tokenizer
from maibaam_lint.tokenizer import (
    AGREEMENT_SUFFIXES,
    APOSTROPHES,
    KIND_INTACT,
    KIND_MWT,
    KIND_SPACE_AFTER_NO,
    LEADING_PUNCT,
    TRAILING_PUNCT,
    EmptyInputError,
    TokenizerLexicon,
    attach_skeleton_heads,
    default_lexicon,
    fold_apostrophes,
    load_lexicon,
    match_agreement_suffix,
    segment_token,
    tokenize_sentence,
)

from conftest import distinct_words


@pytest.fixture(scope="module")
def lex():
    return default_lexicon()


SPLIT_CASES = [
    ("zum", KIND_MWT, ("zu", "m")),
    ("aus'n", KIND_MWT, ("aus", "'n")),
    ("im", KIND_MWT, ("i", "m")),
    ("z'Minga", KIND_SPACE_AFTER_NO, ("z'", "Minga")),
    ("d'neie", KIND_SPACE_AFTER_NO, ("d'", "neie")),
    ("s´Haus", KIND_SPACE_AFTER_NO, ("s´", "Haus")),
    ("gibts", KIND_SPACE_AFTER_NO, ("gibt", "s")),
    ("håmas", KIND_SPACE_AFTER_NO, ("hå", "ma", "s")),
    ("wiera", KIND_SPACE_AFTER_NO, ("wier", "a")),
    ("dassd", KIND_INTACT, ("dassd",)),
    ("weilds", KIND_INTACT, ("weilds",)),
]


@pytest.mark.parametrize("surface,kind,forms", SPLIT_CASES)
def test_segmentation_examples(lex, surface, kind, forms):
    result = segment_token(surface, lex)
    assert result.kind == kind
    assert result.forms() == forms


def test_unknown_form_is_intact(lex):
    assert segment_token("Haus", lex).kind == KIND_INTACT


def test_upos_hints(lex):
    assert [h for _, h in segment_token("zum", lex).parts] == ["ADP", "DET"]
    assert [h for _, h in segment_token("gibts", lex).parts] == ["VERB", "PRON"]
    assert segment_token("z'Minga", lex).parts[0] == ("z'", "ADP")


def test_infinitival_zum_needs_context(lex):
    default = segment_token("zum", lex)
    assert [h for _, h in default.parts] == ["ADP", "DET"]
    by_neighbor = segment_token("zum", lex, next_surface="oozöön")
    assert [h for _, h in by_neighbor.parts] == ["PART", "DET"]
    assert by_neighbor.forms() == ("zu", "m")


def test_case_folded_retry_preserves_surface(lex):
    result = segment_token("Zum", lex)
    assert result.kind == KIND_MWT
    assert result.forms() == ("Zu", "m")


def test_apostrophe_variants_match_and_survive(lex):
    for apo in "'’´`":
        surface = f"aus{apo}n"
        result = segment_token(surface, lex)
        assert result.kind == KIND_MWT
        assert result.forms() == ("aus", f"{apo}n")
        assert "".join(result.forms()) == surface


def test_surface_preservation_on_lexicon_keys(lex):
    for surface in lex.split_surfaces():
        result = segment_token(surface, lex)
        assert "".join(result.forms()) == surface


def test_priority_unique_and_deterministic(lex):
    for surface in lex.split_surfaces():
        first = segment_token(surface, lex)
        again = segment_token(surface, lex)
        assert first == again
        assert first.kind in (KIND_MWT, KIND_SPACE_AFTER_NO)


def test_parts_are_terminal(lex):
    for surface in lex.split_surfaces():
        for form, _ in segment_token(surface, lex).parts:
            assert segment_token(form, lex).kind == KIND_INTACT, (surface, form)


@settings(max_examples=120, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_characters="\t\n\r ",
                                      blacklist_categories=("Cs",)),
               min_size=1, max_size=12))
def test_surface_preservation_property(word):
    lexicon = default_lexicon()
    result = segment_token(word, lexicon)
    assert "".join(result.forms()) == word


def test_complementizer_agreement(lex):
    assert match_agreement_suffix("dassd", lex) is not None
    assert match_agreement_suffix("weilds", lex) is not None
    assert match_agreement_suffix("wennsd", lex) is not None
    assert match_agreement_suffix("das'st", lex) is not None
    assert match_agreement_suffix("wemma", lex) is not None
    assert match_agreement_suffix("dass", lex) is None
    assert match_agreement_suffix("Haus", lex) is None
    assert match_agreement_suffix("gibts", lex) is None


def test_doubly_marked_1pl_stays_intact(lex):
    doubled = segment_token("wemma", lex, next_surface="mia")
    assert doubled.kind == KIND_INTACT
    single = segment_token("wemma", lex)
    assert single.kind == KIND_SPACE_AFTER_NO
    assert single.forms() == ("wem", "ma")


def test_review_forms_stay_intact_with_note(lex):
    result = segment_token("weasd", lex)
    assert result.kind == KIND_INTACT
    assert result.note == "review"


def forms(sentence):
    return [t.form for t in sentence.tokens]


def test_tokenize_range(lex):
    assert forms(tokenize_sentence("400–500", lex)) == ["400", "–", "500"]
    assert forms(tokenize_sentence("400--500", lex)) == ["400", "--", "500"]


def test_tokenize_abbreviation_keeps_period(lex):
    assert forms(tokenize_sentence("z.B.", lex)) == ["z.B."]
    s = tokenize_sentence("Des sogt ma z.B. heid.", lex)
    assert "z.B." in forms(s)


def test_tokenize_compound_stays_whole(lex):
    assert forms(tokenize_sentence("Silben-Trennung", lex)) == ["Silben-Trennung"]


def test_tokenize_truncated_word_keeps_hyphen(lex):
    assert forms(tokenize_sentence("Sonn- und Feiertage", lex)) == [
        "Sonn-", "und", "Feiertage"]


def test_tokenize_number_unit(lex):
    assert forms(tokenize_sentence("8 kg", lex)) == ["8", "kg"]
    assert forms(tokenize_sentence("8kg", lex)) == ["8", "kg"]
    # "80er" is an ordinary token, not a number+unit sequence
    assert forms(tokenize_sentence("80er", lex)) == ["80er"]


def test_tokenize_empty_input(lex):
    with pytest.raises(EmptyInputError):
        tokenize_sentence("   ", lex)
    with pytest.raises(EmptyInputError):
        tokenize_sentence("", lex)


def test_tokenize_phonetic_transcription_brackets(lex):
    s = tokenize_sentence("[ mɪŋ(ː)ɐ ]", lex)
    assert forms(s) == ["[", "mɪŋ(ː)ɐ", "]"]
    fused = tokenize_sentence("[mɪŋ(ː)ɐ]", lex)
    assert forms(fused) == ["[", "mɪŋ(ː)ɐ", "]"]


def test_tokenize_detaches_punctuation_and_glues(lex):
    s = tokenize_sentence("Servus, Minga!", lex)
    assert forms(s) == ["Servus", ",", "Minga", "!"]
    assert column_value(s.tokens[0].misc, "SpaceAfter") == "No"
    assert column_value(s.tokens[1].misc, "SpaceAfter") is None
    assert column_value(s.tokens[2].misc, "SpaceAfter") == "No"


def test_tokenize_produces_mwt_span(lex):
    s = tokenize_sentence("zum Beispiel", lex)
    assert forms(s) == ["zu", "m", "Beispiel"]
    assert len(s.mwt_spans) == 1
    span = s.mwt_spans[0]
    assert (span.first_id, span.last_id, span.surface_form) == (1, 2, "zum")
    assert reconstruct_text(s) == "zum Beispiel"


def test_tokenize_reconstruct_identity(lex):
    for raw in [
        "Servus, wia gehts da heid z'Minga?",
        "Des is a ganz a bläds Buidl.",
        "gibts im Haus aus'n Keller wiera dassd",
        "( Klammern ) und „Test“!",
    ]:
        s = tokenize_sentence(raw, lex)
        assert reconstruct_text(s) == " ".join(raw.split())


# a tokenize line: runs of spaces around units, each one or two lexicon
# surfaces or runs of digits, dashes, apostrophes and letters, with
# punctuation the tokenizer may detach on either side
_LEXICON = default_lexicon()
_PIECES = st.sampled_from(sorted({surface for name in TokenizerLexicon._fields
                                  for surface in getattr(_LEXICON, name)})) | \
    st.text(alphabet="0123456789-–ab" + APOSTROPHES, min_size=1, max_size=4)
_UNITS = st.tuples(
    st.text(alphabet=sorted(LEADING_PUNCT), max_size=2),
    st.lists(_PIECES, min_size=1, max_size=2).map("".join),
    st.text(alphabet=sorted(TRAILING_PUNCT), max_size=2)).map("".join)
_SPACES = st.text(alphabet=" ", min_size=1, max_size=3)
_LINES = st.lists(st.tuples(_SPACES, _UNITS).map("".join), min_size=1,
                  max_size=8).map("".join)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_LINES)
def test_tokenize_text_is_the_line_with_its_spaces_collapsed(line):
    # tokenize writes reconstruct_text as a sentence's # text
    assert reconstruct_text(tokenize_sentence(line, _LEXICON)) == \
        " ".join(line.split())


def test_tokenize_username_hint(lex):
    s = tokenize_sentence("Servus USERNAME!", lex)
    assert [t.upos for t in s.tokens] == ["X", "PROPN", "PUNCT"]


@pytest.mark.parametrize("unit", sorted(
    [c + "Haus" for c in tokenizer.LEADING_PUNCT]
    + ["Haus" + c for c in tokenizer.TRAILING_PUNCT]))
def test_tokenize_detached_punctuation_hint(lex, unit):
    ch = unit.replace("Haus", "")
    rows = {(t.form, t.upos) for t in tokenize_sentence(unit, lex).tokens}
    assert rows == {(ch, "SYM" if ch == "%" else "PUNCT"), ("Haus", "X")}


def test_attach_skeleton_heads_yields_valid_tree(lex):
    for raw in ["Servus, Minga!", "( nur Klammern )", "zum Beispiel ned",
                "Oans zwoa drei.", "z'Minga gibts 400–500 Leid!"]:
        s = attach_skeleton_heads(tokenize_sentence(raw, lex))
        diags = validate_structure(s)
        assert diags == [], (raw, [d.rule_id for d in diags])


def test_attach_skeleton_heads_degenerate_all_punct(lex):
    # with nothing but punctuation there is no valid head candidate; the
    # chain is still a single-rooted tree
    s = attach_skeleton_heads(tokenize_sentence("!!", lex))
    diags = validate_structure(s)
    assert {d.rule_id for d in diags} <= {"STRUCT.PUNCT_CHILD"}


def test_load_lexicon_rejects_bad_parts(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("zum\tmwt\tzu n\tADP DET\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}:1: parts do "
                       "not concatenate to surface 'zum'$"):
        load_lexicon(str(bad))


@pytest.mark.parametrize("parts", ["zu  m", " zu m", "zu m "])
def test_load_lexicon_rejects_empty_part_forms(tmp_path, parts):
    # "".join still equals the surface, so only an explicit check sees
    # the empty part before tokenize emits an empty token
    bad = tmp_path / "bad.tsv"
    bad.write_text(f"# fused forms\nzum\tmwt\t{parts}\t_\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(bad))}:2: empty part form"):
        load_lexicon(bad)


def test_load_lexicon_rejects_an_empty_surface(tmp_path):
    # as an onset an empty surface would match every unit
    bad = tmp_path / "bad.tsv"
    bad.write_text("# onsets\n\tonset\t_\tADP\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(bad))}:2: empty surface$"):
        load_lexicon(bad)


@pytest.mark.parametrize("line, message", [
    ("zum\tmwt\tzu m", "expected 4 tab-separated columns, got 3"),
    ("zum\tfused\tzu m\t_", "unknown kind 'fused'"),
    ("zum\tmwt\tzu m\tADP", "2 parts but 1 hints"),
], ids=["columns", "kind", "hints"])
def test_load_lexicon_errors_name_the_file_and_line(tmp_path, line, message):
    bad = tmp_path / "bad.tsv"
    bad.write_text(f"beim\tmwt\tbei m\tADP DET\n\n{line}\n",
                   encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_lexicon(str(bad))
    assert str(exc.value) == f"{bad}:3: {message}"


def test_load_lexicon_takes_a_path_object(tmp_path):
    lex = tmp_path / "x.tsv"
    lex.write_text("beim\tmwt\tbei m\tADP DET\n", encoding="utf-8")
    assert segment_token("beim", load_lexicon(lex)).forms() == ("bei", "m")


def test_lexicon_kinds_fill_every_table_once():
    # the tables are the kinds' tables, so two kinds naming one table
    # fail here
    assert len(set(TokenizerLexicon._fields)) == len(tokenizer._LEXICON_KINDS)


@pytest.mark.parametrize("kind", ["intact", "onset"])
@pytest.mark.parametrize("hints, upos", [
    ("NOUN", "NOUN"), ("NOUN ADJ", "NOUN"), ("_", None), ("_ NOUN", None)])
def test_load_lexicon_takes_the_first_hint(tmp_path, kind, hints, upos):
    lex = tmp_path / "lex.tsv"
    lex.write_text(f"z'\t{kind}\t_\t{hints}\n", encoding="utf-8")
    table = "intact_forms" if kind == "intact" else "clitic_onsets"
    assert getattr(load_lexicon(lex), table) == {"z'": upos}


def test_intact_line_with_a_leading_none_hint_gets_the_default_hint(tmp_path):
    # "_" is no hint in any position, so the unit is tagged as if the line
    # had none, never with the UPOS "_"
    lex = tmp_path / "lex.tsv"
    lex.write_text("Servus\tintact\t_\t_ INTJ\n", encoding="utf-8")
    s = tokenize_sentence("Servus", load_lexicon(lex))
    assert [t.upos for t in s.tokens] == ["X"]


def test_hand_built_lexicon_rejects_an_empty_onset():
    with pytest.raises(ValueError) as exc:
        TokenizerLexicon(clitic_onsets={"": "ADP"})
    assert str(exc.value) == "empty surface"


@pytest.mark.parametrize("tables, message", [
    ({"units": {5}}, "surface 5 in table units is not a str"),
    # a None among str surfaces cannot be sorted with them
    ({"clitic_onsets": {None: "X", "a": "Y"}},
     "surface None in table clitic_onsets is not a str"),
    ({"abbreviations": {"usw.", b"z.B."}},
     "surface b'z.B.' in table abbreviations is not a str"),
], ids=["int", "none-beside-str", "bytes"])
def test_hand_built_lexicon_rejects_a_surface_that_is_not_a_str(tables,
                                                                message):
    with pytest.raises(TypeError) as exc:
        TokenizerLexicon(**tables)
    assert str(exc.value) == message


@pytest.mark.parametrize("name", TokenizerLexicon._fields)
def test_hand_built_lexicon_rejects_a_table_given_as_a_str(name):
    # iterated, units="MB" would be the table {"m", "b"}
    with pytest.raises(TypeError) as exc:
        TokenizerLexicon(**{name: "zum"})
    assert str(exc.value) == \
        f"{name} got the str 'zum' where it takes a collection"


def test_load_lexicon_drops_a_leading_byte_order_mark(tmp_path):
    lex = tmp_path / "lex.tsv"
    lex.write_text("\ufeffzum\tmwt\tzu m\tADP DET\n", encoding="utf-8")
    assert load_lexicon(lex).fused_adp_det == \
        {"zum": (("zu", "ADP"), ("m", "DET"))}


def test_hand_built_lexicon_clash_message_does_not_depend_on_hashing():
    # set order changes with PYTHONHASHSEED; under seeds 1 and 4 the two
    # surfaces come out of this set in opposite orders
    code = ("from maibaam_lint.tokenizer import TokenizerLexicon\n"
            "try:\n    TokenizerLexicon(units={'MB', 'mb'})\n"
            "except ValueError as exc:\n    print(exc)\n")
    package = str(Path(tokenizer.__file__).parents[1])
    messages = {subprocess.run(
        [sys.executable, "-c", code], capture_output=True, encoding="utf-8",
        check=True, env={**os.environ, "PYTHONPATH": package,
                         "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "4")}
    assert messages == {"unit surface 'mb' is also listed as unit\n"}


@pytest.mark.parametrize("table, key, parts, message", [
    ("fused_adp_det", "zum", (("zum", "ADP"), ("", "DET")),
     "empty part form in 'zum '"),
    # parts that outrun the key would carve an empty form from the surface
    ("pronoun_clitics", "ab", (("abx", None), ("c", None)),
     "parts do not concatenate to surface 'ab'"),
    ("fused_inf", "zum", (("zu", "ADP"),),
     "parts do not concatenate to surface 'zum'"),
    ("sandhi_splits", "wiera", (("wier", None), ("ra", "PRON")),
     "parts do not concatenate to surface 'wiera'"),
    ("ma_forms", "wemma", (), "parts do not concatenate to surface 'wemma'"),
], ids=["empty-part", "longer-parts", "shorter-parts", "other-parts",
        "no-parts"])
def test_hand_built_lexicon_rejects_a_bad_split_entry(table, key, parts,
                                                      message):
    with pytest.raises(ValueError) as exc:
        TokenizerLexicon(**{table: {key: parts}})
    assert str(exc.value) == message


def test_hand_built_split_entry_parts_join_with_apostrophes_folded():
    lexicon = TokenizerLexicon(
        pronoun_clitics={"hob'i": (("hob’", None), ("i", "PRON"))})
    assert segment_token("hob'i", lexicon).forms() == ("hob'", "i")


def test_hand_built_lexicon_keys_its_tables_as_the_loader_does(tmp_path):
    # every table is stored under the keys its lookups read, so an entry
    # built in code matches wherever the same line in a file would
    hand = TokenizerLexicon(
        fused_adp_det={"aus’n": (("aus", "ADP"), ("’n", "DET")),
                       "zum": (("zu", "ADP"), ("m", "DET"))},
        fused_inf={"zum": (("zu", "PART"), ("m", "DET"))},
        nominalized_infinitives={"Essn"}, units={"MB"},
        abbreviations={"Z.B."})
    lex = tmp_path / "lex.tsv"
    lex.write_text("aus’n\tmwt\taus ’n\tADP DET\nzum\tmwt\tzu m\tADP DET\n"
                   "zum\tmwt-inf\tzu m\tPART DET\nEssn\tnominf\t_\t_\n"
                   "MB\tunit\t_\t_\nZ.B.\tabbrev\t_\t_\n", encoding="utf-8")
    assert hand == load_lexicon(lex)
    for surface in ("aus’n", "aus'n", "Aus`n"):
        assert segment_token(surface, hand).kind == KIND_MWT, surface
    assert segment_token("zum", hand, next_surface="essn").parts == (
        ("zu", "PART"), ("m", "DET"))
    assert forms(tokenize_sentence("8MB 8mb z.B. da", hand)) == \
        ["8", "MB", "8", "mb", "z.B.", "da"]


@pytest.mark.parametrize("tables", [
    {"units": {"MB", "mb"}},
    {"fused_adp_det": {"aus’n": (("aus", "ADP"), ("’n", "DET")),
                       "aus'n": (("aus", "ADP"), ("'n", "DET"))}},
    {"intact_forms": {"d'Leit": None, "d`Leit": "NOUN"}},
], ids=["case", "apostrophe", "hint-table"])
def test_hand_built_lexicon_rejects_two_entries_on_one_key(tables):
    with pytest.raises(ValueError, match="is also listed as"):
        TokenizerLexicon(**tables)


def test_load_lexicon_rejects_key_part_clash(tmp_path):
    # each line loads alone; together, the clitic surface "ab" is also a
    # part of the sandhi entry
    lines = ["ab\tclitic\ta b\t_ _", "abc\tsandhi\tab c\t_ _"]
    for i, line in enumerate(lines):
        alone = tmp_path / f"alone{i}.tsv"
        alone.write_text(line + "\n", encoding="utf-8")
        load_lexicon(alone)
    bad = tmp_path / "bad.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.tsv:1: split surface 'ab' "
                                         r"is also a part on line 2$"):
        load_lexicon(str(bad))


REPEATED_SURFACES = [
    (["zum\tmwt\tzu m\tADP DET", "zum\tintact\t_\tADP"],
     "2: intact surface 'zum' is also listed as mwt on line 1"),
    (["gibts\tclitic\tgibt s\tVERB PRON", "gibts\treview\t_\t_"],
     "2: review surface 'gibts' is also listed as clitic on line 1"),
    (["wemma\tma-form\twem ma\t_", "wemma\tsandhi\twem ma\t_"],
     "2: sandhi surface 'wemma' is also listed as ma-form on line 1"),
    (["zum\tmwt-inf\tzu m\tPART DET", "zum\tmwt\tzu m\tADP DET",
      "zum\tclitic\tzu m\t_"],
     "3: clitic surface 'zum' is also listed as mwt-inf on line 1"),
    (["z'm\tmwt\tz' m\t_", "z’m\tmwt\tz’ m\t_"],
     "2: mwt surface 'z’m' is also listed as mwt on line 1"),
    (["Bsp.\tabbrev\t_\t_", "bsp.\tabbrev\t_\t_"],
     "2: abbrev surface 'bsp.' is also listed as abbrev on line 1"),
    (["dass\thost\t_\t_", "dass\thost\t_\t_"],
     "2: host surface 'dass' is also listed as host on line 1"),
    (["MB\tunit\t_\t_", "mb\tunit\t_\t_"],
     "2: unit surface 'mb' is also listed as unit on line 1"),
]
REPEATED_SURFACE_IDS = ["mwt-intact", "clitic-review", "ma-form-sandhi",
                        "third-kind", "apostrophe", "abbrev-case", "host",
                        "unit-case"]


@pytest.mark.parametrize("lines, message", REPEATED_SURFACES,
                         ids=REPEATED_SURFACE_IDS)
def test_load_lexicon_rejects_a_repeated_surface(tmp_path, lines, message):
    # a later line would replace the earlier entry, or be shadowed by the
    # rule segment_token tries first
    bad = tmp_path / "bad.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_lexicon(bad)
    assert str(exc.value) == f"{bad}:{message}"


def test_load_lexicon_keeps_both_readings_of_a_fused_form(tmp_path):
    # mwt with mwt-inf, and a kind that does not split the surface itself
    # (host, nominf) next to one that does, are not repeats
    lex = tmp_path / "lex.tsv"
    lex.write_text("zum\tmwt\tzu m\tADP DET\nzum\tmwt-inf\tzu m\tPART DET\n"
                   "dass\thost\t_\t_\ndass\tintact\t_\tSCONJ\n"
                   "essn\tnominf\t_\t_\nessn\tintact\t_\tNOUN\n",
                   encoding="utf-8")
    lexicon = load_lexicon(lex)
    assert segment_token("zum", lexicon).parts == (("zu", "ADP"), ("m", "DET"))
    assert segment_token("zum", lexicon, next_surface="Essn").parts == \
        (("zu", "PART"), ("m", "DET"))


def test_load_lexicon_lower_cases_nominf_surfaces(tmp_path):
    # the word after a fused form is looked up lower-cased
    lex = tmp_path / "lex.tsv"
    lex.write_text("zum\tmwt\tzu m\tADP DET\nzum\tmwt-inf\tzu m\tPART DET\n"
                   "Essn\tnominf\t_\t_\n", encoding="utf-8")
    lexicon = load_lexicon(lex)
    assert lexicon.nominalized_infinitives == {"essn"}
    s = tokenize_sentence("zum Essn", lexicon)
    assert [(t.form, t.upos) for t in s.tokens[:2]] == [("zu", "PART"),
                                                        ("m", "DET")]


def test_load_lexicon_lower_cases_unit_surfaces(tmp_path):
    # the unit after a number is looked up lower-cased
    lex = tmp_path / "lex.tsv"
    lex.write_text("MB\tunit\t_\t_\n", encoding="utf-8")
    lexicon = load_lexicon(lex)
    assert lexicon.units == {"mb"}
    s = tokenize_sentence("8MB", lexicon)
    assert [(t.form, t.upos) for t in s.tokens] == [("8", "NUM"),
                                                    ("MB", "NOUN")]


SPLIT_SURFACE_PARTS = [
    (["ab\tclitic\ta b\t_", "abc\tclitic\tab c\t_"],
     "1: split surface 'ab' is also a part on line 2"),
    (["abc\tclitic\tab c\t_", "ab\tclitic\ta b\t_"],
     "2: split surface 'ab' is also a part on line 1"),
    (["zum\tmwt\tzu m\t_", "gibt’s\tclitic\tgibt ’s\t_", "'s\tsandhi\t' s\t_"],
     "3: split surface \"'s\" is also a part on line 2"),
    (["z'\tonset\t_\tADP", "z'\tmwt\tz '\t_"],
     "2: split surface \"z'\" is also an onset on line 1"),
]
SPLIT_SURFACE_PART_IDS = ["part-later", "part-earlier", "apostrophe", "onset"]


@pytest.mark.parametrize("lines, message", SPLIT_SURFACE_PARTS,
                         ids=SPLIT_SURFACE_PART_IDS)
def test_load_lexicon_locates_a_split_surface_that_is_a_part(tmp_path, lines,
                                                             message):
    bad = tmp_path / "clash.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_lexicon(bad)
    assert str(exc.value) == f"{bad}:{message}"


def _tables_of(lines):
    """The tables a caller would build in code for lexicon lines, surfaces
    as written: a dict for a split or hint kind, a list for a surface kind
    (so a repeated surface stays repeated)."""
    tables = {}
    for line in lines:
        surface, kind, parts, hints = line.split("\t")
        name, adds = tokenizer._LEXICON_KINDS[kind]
        if adds == "surface":
            tables.setdefault(name, []).append(surface)
            continue
        table = tables.setdefault(name, {})
        assert surface not in table
        hints = [None if h == "_" else h for h in hints.split(" ")]
        if adds == "hint":
            table[surface] = hints[0]
            continue
        forms = parts.split(" ")
        if len(hints) != len(forms):
            hints = [None] * len(forms)
        table[surface] = tuple(zip(forms, hints))
    return tables


@pytest.mark.parametrize("lines", [lines for lines, _ in REPEATED_SURFACES]
                         + [lines for lines, _ in SPLIT_SURFACE_PARTS] + [
    ["ab\tclitic\ta b\t_ _", "abc\tsandhi\tab c\t_ _"],
    ["zum\tmwt\tzu n\tADP DET"],
    ["zum\tmwt\tzu  m\t_"],
    ["\tonset\t_\tADP"],
    # a surface under two kinds that split it, and empty surfaces in
    # tables other than the onsets
    ["gibts\tclitic\tgibt s\tVERB PRON", "gibts\tintact\t_\tVERB"],
    ["zum\tmwt\tzu m\tADP DET", "zum\treview\t_\t_"],
    ["\thost\t_\t_"],
    ["\tintact\t_\tNOUN"],
    ["\tmwt\t\t_"],
    # accepted by both
    ["zum\tmwt\tzu m\tADP DET", "zum\tmwt-inf\tzu m\tPART DET",
     "dass\thost\t_\t_", "dass\tintact\t_\tSCONJ"],
    ["aus’n\tmwt\taus 'n\tADP DET"],
], ids=[f"repeated-{i}" for i in REPEATED_SURFACE_IDS]
    + [f"split-part-{i}" for i in SPLIT_SURFACE_PART_IDS]
    + ["key-part-clash", "bad-parts", "empty-part", "empty-onset",
       "clitic-intact", "mwt-review", "empty-host", "empty-intact",
       "empty-mwt", "good", "apostrophe-join"])
def test_hand_built_lexicon_keeps_the_file_rules(tmp_path, lines):
    # the same tables load from a file exactly when they construct, and the
    # constructor raises the file's message without 'PATH:LINE: ' and
    # ' on line N'. Tables built in code keep no order across tables, so
    # the file lists its lines in table order.
    order = list(tokenizer._LEXICON_KINDS)
    lines = sorted(lines, key=lambda line: order.index(line.split("\t")[1]))
    lex = tmp_path / "lex.tsv"
    lex.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        loaded = load_lexicon(lex)
    except ValueError as exc:
        message = re.fullmatch(rf"{re.escape(str(lex))}:\d+: (.*?)"
                               r"(?: on line \d+)?", str(exc)).group(1)
        with pytest.raises(ValueError) as built:
            TokenizerLexicon(**_tables_of(lines))
        assert str(built.value) == message
    else:
        assert TokenizerLexicon(**_tables_of(lines)) == loaded


def test_load_lexicon_joins_parts_with_apostrophes_folded(tmp_path):
    # the parts are measured on the entry and carved from the unit, so the
    # output keeps the unit's apostrophe
    lex = tmp_path / "lex.tsv"
    lex.write_text("aus’n\tmwt\taus 'n\tADP DET\n", encoding="utf-8")
    lexicon = load_lexicon(lex)
    assert segment_token("aus’n", lexicon).forms() == ("aus", "’n")
    assert segment_token("aus'n", lexicon).forms() == ("aus", "'n")


def test_user_extension_lexicon(tmp_path):
    extra = tmp_path / "extra.tsv"
    extra.write_text("beim\tmwt\tbei m\tADP DET\n", encoding="utf-8")
    lexicon = load_lexicon(str(extra))
    result = segment_token("beim", lexicon)
    assert result.kind == KIND_MWT
    assert result.forms() == ("bei", "m")


def test_fold_apostrophes():
    assert fold_apostrophes("s´Haus") == "s'Haus"
    assert fold_apostrophes("d’neie") == "d'neie"


_FOLD_BY_TRANSLATE = str.maketrans({c: "'" for c in tokenizer.APOSTROPHES})


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(
    st.characters(max_codepoint=127),
    st.sampled_from(tokenizer.APOSTROPHES),
    st.characters(min_codepoint=128, categories=("Lu", "Ll", "Lo")))))
def test_fold_apostrophes_equals_translate(text):
    assert fold_apostrophes(text) == text.translate(_FOLD_BY_TRANSLATE)


@pytest.mark.parametrize("raw, heads", [
    ("(zum) Beispiel", [2, 0, 2, 3, 3]),
    ("„Servus“ sogt er.", [2, 0, 2, 2, 4, 5]),
    ("!!", [0, 1]),
])
def test_attach_skeleton_heads_exact(lex, raw, heads):
    # punctuation hangs on the previous content token, else on the first;
    # without content tokens, token 1 is the root
    s = attach_skeleton_heads(tokenize_sentence(raw, lex))
    assert [t.head for t in s.tokens] == heads


def test_tokenize_mwt_glue_moves_to_span(lex):
    s = tokenize_sentence("(zum) Beispiel", lex)
    assert forms(s) == ["(", "zu", "m", ")", "Beispiel"]
    [span] = s.mwt_spans
    assert (span.first_id, span.last_id) == (2, 3)
    assert span.misc == "SpaceAfter=No"
    assert [t.misc for t in s.tokens[1:4]] == ["_", "_", "_"]
    assert s.tokens[0].misc == "SpaceAfter=No"


# -- compiled lexicon and per-unit memo --------------------------------------

def _cold(lexicon):
    """A copy of lexicon with its own, empty unit memo."""
    return lexicon._replace()


def _skeleton(s):
    return ([(t.id, t.form, t.upos, t.misc) for t in s.tokens],
            [(m.first_id, m.last_id, m.surface_form, m.misc)
             for m in s.mwt_spans])


def _lexicon_forms(lex):
    """Every surface the lexicon names, its parts, and agreement-shaped
    host + ending forms, in plain, apostrophe-variant and case variants."""
    base = set(lex.split_surfaces()) | lex.terminal_parts
    base |= lex.compagr_hosts | lex.review_forms | set(lex.intact_forms)
    base |= lex.abbreviations | lex.nominalized_infinitives | lex.units
    for host in lex.compagr_hosts:
        for ending in AGREEMENT_SUFFIXES + ("ma", "d", "t"):
            base |= {host + ending, host + "'" + ending}
    out = set()
    for form in base:
        out |= {form, form.capitalize(), form.upper(), form.replace("'", "’")}
    return sorted(out)


NEXT_WORDS = (None, "mia", "mir", "oozöön", "Haus")
PUNCT_AND_NUMBERS = ["(", ")", "„", "“", ",", ".", "!", "?", "…", "%", "31.",
                     "8kg", "3,5km", "400–500", "10--12", "2024"]


def _random_sentences(forms, n, seed=6):
    rng = random.Random(seed)
    pool = forms + PUNCT_AND_NUMBERS + ["mia", "Mir", "oozöön"]
    out = []
    for _ in range(n):
        units = []
        for _ in range(rng.randint(1, 12)):
            unit = rng.choice(pool)
            roll = rng.random()
            if roll < 0.2:
                unit += rng.choice(PUNCT_AND_NUMBERS[:10])
            elif roll < 0.3:
                unit = rng.choice(PUNCT_AND_NUMBERS[:4]) + unit
            elif roll < 0.35:
                unit += rng.choice(forms)   # unknown concatenation
            units.append(unit)
        out.append(" ".join(units))
    return out


def test_memoised_tokenize_equals_cold_lexicon(lex):
    # every lexicon form x next word, tokenized on one warm lexicon, equals
    # the same sentence on a lexicon that has memoised nothing, and so does
    # segment_token on each form and next word
    warm = _cold(lex)
    forms_ = _lexicon_forms(lex)
    sentences = [form if nxt is None else f"{form} {nxt}"
                 for form in forms_ for nxt in NEXT_WORDS]
    sentences += _random_sentences(forms_, 600)
    for raw in sentences:      # fill the memo first, so later calls hit it
        tokenize_sentence(raw, warm)
    cases = 0
    for raw in sentences:
        assert _skeleton(tokenize_sentence(raw, warm)) == \
            _skeleton(tokenize_sentence(raw, _cold(lex))), raw
        cases += 1
    for form in forms_:
        for nxt in NEXT_WORDS:
            assert segment_token(form, warm, nxt) == \
                segment_token(form, _cold(lex), nxt), (form, nxt)
            cases += 1
    assert cases > 3000


def test_memoised_unit_matches_segment_token_in_context(lex):
    # a memo hit made with one next word serves another next word with the
    # same two bits; both must equal segment_token given the real next word
    for form in _lexicon_forms(lex):
        if not form.isalpha() and "'" not in form and "’" not in form:
            continue
        for first, second in (("mia", "Mir"), ("oozöön", "Oozöön"),
                              ("Haus", "Dog")):
            warm = _cold(lex)
            tokenize_sentence(f"{form} {first}", warm)
            s = tokenize_sentence(f"{form} {second}", warm)
            seg = segment_token(form, lex, next_surface=second)
            assert tuple(t.form for t in s.tokens[:-1]) == seg.forms(), form


def test_unit_memo_is_bounded(lex, monkeypatch):
    monkeypatch.setattr(tokenizer, "UNIT_MEMO_LIMIT", 8)
    small = _cold(lex)
    sentences = _random_sentences(_lexicon_forms(lex), 40, seed=7)
    for raw in sentences:
        assert _skeleton(tokenize_sentence(raw, small)) == \
            _skeleton(tokenize_sentence(raw, _cold(lex)))
        assert len(small._unit_memo) <= 8


def test_unit_memo_entry_is_small(lex):
    # an entry holds the unit's columns in one flat tuple, under the unit
    # itself when the next unit sets no bit; the figure counts the unit
    # string, the entry and its share of the dict
    words = distinct_words(random.Random(27), 3000, [8])
    lines = [" ".join(words[i:i + 12]) for i in range(0, len(words), 12)]
    cold = _cold(lex)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for raw in lines:
            tokenize_sentence(raw, cold)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cold._unit_memo) == len(words)
    assert grown / len(words) < 260


def test_unit_memo_empties_at_its_real_limit(lex):
    # more distinct units than UNIT_MEMO_LIMIT, with lexicon forms and the
    # words that set the bits mixed in: the memo empties, and what is
    # tokenized after that equals a lexicon that never emptied
    rng = random.Random(28)
    words = distinct_words(rng, tokenizer.UNIT_MEMO_LIMIT + 4000,
                            range(3, 11))
    lines = [" ".join(words[i:i + 12]) for i in range(0, len(words), 12)]
    forms_ = _random_sentences(_lexicon_forms(lex), 600, seed=28)
    for i, raw in enumerate(forms_):
        lines.insert(i * 10, raw)
    warm = _cold(lex)
    emptied = None
    for n, raw in enumerate(lines):
        size = len(warm._unit_memo)
        tokenize_sentence(raw, warm)
        assert len(warm._unit_memo) <= tokenizer.UNIT_MEMO_LIMIT
        if emptied is None and len(warm._unit_memo) < size:
            emptied = n
    assert emptied is not None and len(warm._unit_memo) < len(words)
    # across the emptying, then units memoised before it (misses now),
    # twice, so that the second round hits what the first round added
    after = lines[emptied - 50:] + lines[:300] * 2
    fresh = _cold(lex)
    for raw in after:
        assert _skeleton(tokenize_sentence(raw, warm)) == \
            _skeleton(tokenize_sentence(raw, fresh)), raw


def test_unit_gets_segment_token_result_in_every_context(lex):
    # before a full 1pl pronoun, a nominalised infinitive or an ordinary
    # word, and at the end of a sentence: four memo keys for one unit, none
    # of which may serve another
    contexts = ("mia", "oozöön", "Haus", None)
    assert segment_token("wemma", lex, "mia") != \
        segment_token("wemma", lex, "Haus")
    assert segment_token("zum", lex, "oozöön") != \
        segment_token("zum", lex, "Haus")
    for form in _lexicon_forms(lex):
        if not form.isalpha() and "'" not in form and "’" not in form:
            continue
        warm = _cold(lex)
        for _ in range(2):              # misses first, then memo hits
            for nxt in contexts:
                s = tokenize_sentence(form if nxt is None else
                                      f"{form} {nxt}", warm)
                seg = segment_token(form, lex, next_surface=nxt)
                unit = s.tokens if nxt is None else s.tokens[:-1]
                mwt = seg.kind == KIND_MWT
                assert tuple(t.form for t in unit) == seg.forms(), \
                    (form, nxt)
                assert [t.upos for t in unit] == [
                    hint or (None if mwt else tokenizer._default_hint(f))
                    or "X" for f, hint in seg.parts], (form, nxt)
                assert bool(s.mwt_spans) == mwt, (form, nxt)
    # a next word may set both bits, here where mir is also an infinitive
    both = lex._replace(nominalized_infinitives={"mir"})
    for nxt in ("mia", "mir") * 2:
        s = tokenize_sentence(f"zum {nxt}", both)
        assert [t.upos for t in s.tokens[:2]] == \
            [hint for _, hint in segment_token("zum", both, nxt).parts]
    assert s.tokens[0].upos == "PART"
    # an ordinal's period stays on it inside a sentence only
    warm = _cold(lex)
    for _ in range(2):
        assert forms(tokenize_sentence("am 31. Mai", warm)) == \
            ["am", "31.", "Mai"]
        assert forms(tokenize_sentence("am 31.", warm)) == ["am", "31", "."]


def _agreement_oracle(surface, lexicon):
    """The search match_agreement_suffix made before the lexicon compiled
    its surface -> ending table; kept as the reference."""
    key = fold_apostrophes(surface)
    keys = [key] if key.lower() == key else [key, key.lower()]
    for key in keys:
        if key in lexicon.ma_forms:
            return "ma"
        for suffix in AGREEMENT_SUFFIXES + ("ma",):
            stems = [key[:-len(suffix)]] if key.endswith(suffix) else []
            if key.endswith("'" + suffix):
                stems.append(key[:-len(suffix) - 1])
            if suffix.startswith("s") and key.endswith(suffix[1:]):
                shared = key[:-len(suffix) + 1]
                if shared.endswith("s"):
                    stems.append(shared)
            for stem in stems:
                if stem and stem in lexicon.compagr_hosts:
                    return suffix
    return None


def _agreement_surfaces(lexicon):
    out = set(lexicon.ma_forms) | {"", "s", "sd", "ma", "'ma", "Haus"}
    for host in lexicon.compagr_hosts | {"x", "Dass"}:
        for ending in AGREEMENT_SUFFIXES + ("ma", "d", "t", "s", "m"):
            for apo in ("", "'", "’", "´"):
                for form in (host + apo + ending, host[:-1] + apo + ending):
                    out |= {form, form.capitalize(), form.upper()}
    return sorted(out)


WEMMA = {"wemma": (("wem", "SCONJ"), ("ma", "PRON"))}


@pytest.mark.parametrize("hosts, ma_forms", [
    (None, None),                                  # the default lexicon
    ({"dass", "das", "s", "as", "wo"}, WEMMA),      # shared s
    ({"das'", "Wenn", "ob"}, WEMMA),               # apostrophe, capitals
    # an ma-form entry wins over the host + ending it also spells
    ({"wo", "ob"}, {**WEMMA, "wost": (("wo", "SCONJ"), ("st", "PRON"))}),
])
def test_agreement_table_matches_search(lex, hosts, ma_forms):
    lexicon = lex if hosts is None else TokenizerLexicon(
        compagr_hosts=hosts, ma_forms=ma_forms)
    surfaces = _agreement_surfaces(lexicon)
    assert len(surfaces) > 100
    for surface in surfaces:
        assert match_agreement_suffix(surface, lexicon) == \
            _agreement_oracle(surface, lexicon), surface


def test_hand_built_lexicon_is_compiled(lex):
    hand = TokenizerLexicon(compagr_hosts={"dass", "das", "wenn"},
                            ma_forms=WEMMA)
    for surface in ("dassd", "wennsd", "das'st", "wemma"):
        for nxt in (None, "mia"):
            assert segment_token(surface, hand, next_surface=nxt) == \
                segment_token(surface, lex, next_surface=nxt), (surface, nxt)
    assert segment_token("wemma", hand).forms() == ("wem", "ma")
    assert segment_token("das'st", hand).kind == KIND_INTACT
    # onsets are tried longest first
    onsets = TokenizerLexicon(clitic_onsets={"d": None, "d'": "DET"})
    assert segment_token("d'neie", onsets).parts == (("d'", "DET"),
                                                     ("neie", None))


def test_hand_built_lexicon_derives_terminal_parts(lex):
    # the tables a caller passes; terminal_parts is derived from them
    tables = {name: getattr(lex, name) for name in TokenizerLexicon._fields}
    hand = TokenizerLexicon(**tables)
    assert hand.terminal_parts == lex.terminal_parts
    assert segment_token("zu", hand) == segment_token("zu", lex)
    with pytest.raises(ValueError, match="split surface 'zu' is also a part$"):
        TokenizerLexicon(fused_adp_det={"zum": (("zu", "ADP"), ("m", "DET")),
                                        "zu": (("z", "ADP"), ("u", "DET"))})


def test_load_lexicon_keys_and_checks_its_entries_once(monkeypatch):
    calls = []

    def counting(entries, path=None):
        calls.append(path)
        return real(entries, path)

    real = tokenizer._keyed_tables
    monkeypatch.setattr(tokenizer, "_keyed_tables", counting)
    loaded = default_lexicon()
    assert len(calls) == 1
    monkeypatch.undo()
    # what the loader holds and derives equals a lexicon built from its tables
    built = TokenizerLexicon(**{name: getattr(loaded, name)
                                for name in TokenizerLexicon._fields})
    assert loaded == built
    for name in ("terminal_parts", "_agreement", "_rule_keys", "_unit_memo"):
        assert getattr(loaded, name) == getattr(built, name), name
    # onsets of one length never prefix one key, so their order is free
    assert sorted(loaded._onsets) == sorted(built._onsets)
    assert [len(o) for o in loaded._onsets] == \
        sorted(map(len, loaded._onsets), reverse=True)


# -- rule-key gate and checked-once skeleton rows ----------------------------

def _segment_oracle(surface, lexicon, next_surface=None):
    """The rule cascade of segment_token before it skipped units whose keys
    no rule reads; kept as the reference for that gate."""
    key = fold_apostrophes(surface)
    folded = key.lower()
    keys = [key, folded] if folded != key and len(folded) == len(key) \
        else [key]

    for key in keys:
        if key in lexicon.terminal_parts and key not in lexicon.clitic_onsets:
            return tokenizer._intact(surface)
        if key in lexicon.intact_forms:
            return tokenizer._intact(surface, lexicon.intact_forms[key])
        if key in lexicon.review_forms:
            return tokenizer._intact(surface, note="review")

    suffix = match_agreement_suffix(surface, lexicon)
    if suffix is not None:
        if suffix != "ma":
            return tokenizer._intact(surface, "SCONJ")
        next_key = (fold_apostrophes(next_surface).lower()
                    if next_surface else None)
        if next_key in tokenizer.FULL_1PL_PRONOUNS:
            return tokenizer._intact(surface, "SCONJ")
        for key in keys:
            if key in lexicon.ma_forms:
                return tokenizer.SegmentationResult(
                    KIND_SPACE_AFTER_NO,
                    tokenizer._carve(surface, lexicon.ma_forms[key]))
        return tokenizer.SegmentationResult(
            KIND_SPACE_AFTER_NO,
            ((surface[:-2], "SCONJ"), (surface[-2:], "PRON")))

    infinitive = False
    if next_surface:
        next_key = fold_apostrophes(next_surface).lower()
        infinitive = next_key in lexicon.nominalized_infinitives

    fused = (lexicon.fused_adp_det, lexicon.fused_inf)
    if infinitive:
        fused = (lexicon.fused_inf,) + fused
    for key in keys:
        for table in fused:
            if key in table:
                return tokenizer.SegmentationResult(
                    KIND_MWT, tokenizer._carve(surface, table[key]))

    for key in keys:
        for onset in sorted(lexicon.clitic_onsets, key=len, reverse=True):
            if key.startswith(onset) and len(key) > len(onset):
                return tokenizer.SegmentationResult(
                    KIND_SPACE_AFTER_NO,
                    ((surface[:len(onset)], lexicon.clitic_onsets[onset]),
                     (surface[len(onset):], None)))

    for table in (lexicon.pronoun_clitics, lexicon.sandhi_splits):
        for key in keys:
            if key in table:
                return tokenizer.SegmentationResult(
                    KIND_SPACE_AFTER_NO, tokenizer._carve(surface, table[key]))

    return tokenizer._intact(surface)


def _segment_unit_oracle(unit, nxt, lexicon):
    """_segment_unit before letters-only units skipped _strip_punct and each
    row had its own column check; kept as the reference for that path."""
    leading, core, trailing = tokenizer._strip_punct(unit, lexicon,
                                                     nxt is None)
    pieces = [(ch, tokenizer._default_hint(ch)) for ch in leading]
    mwt = range(0)
    numeric = unit_match = None
    if core[0].isdecimal():
        numeric = tokenizer._RANGE_RE.match(core)
        unit_match = tokenizer._NUMBER_UNIT_RE.match(core)
    if numeric:
        pieces.extend(zip(numeric.groups(), ("NUM", "ADP", "NUM")))
    elif unit_match and \
            fold_apostrophes(unit_match.group(2)).lower() in lexicon.units:
        pieces.append((unit_match.group(1), "NUM"))
        pieces.append((unit_match.group(2), "NOUN"))
    else:
        seg = segment_token(core, lexicon, nxt)
        if seg.kind == KIND_MWT:
            mwt = range(len(pieces), len(pieces) + len(seg.parts))
            pieces.extend(seg.parts)
        else:
            for form, hint in seg.parts:
                pieces.append((form, hint or tokenizer._default_hint(form)))
    for ch in trailing:
        pieces.append((ch, tokenizer._default_hint(ch)))

    last = len(pieces) - 1
    columns = []
    for i, (form, hint) in enumerate(pieces):
        row = (form, hint or "X",
               "_" if i == last or i in mwt else "SpaceAfter=No")
        tokenizer._check_columns(tokenizer._ROW_COLUMNS, row)
        columns.extend(row)
    span = None
    if mwt:
        span = (mwt.start + 1, mwt.stop, core,
                "SpaceAfter=No" if mwt.stop <= last else "_")
    columns.append(span)
    return tuple(columns)


PLAIN_WORDS = ("Haus", "Minga", "kummst", "Beispiel", "a", "s", "ma", "Oa",
               "Dogs", "ÄPFE", "Wuidsau", "İx", "8kg", "x'", "'", "–")


def _gate_surfaces(lexicon):
    out = set()
    for form in _lexicon_forms(lexicon):
        out |= {form, form.title()}
        out |= {form.replace("'", apo) for apo in tokenizer.APOSTROPHES}
    for onset in lexicon.clitic_onsets:
        for word in PLAIN_WORDS[:4]:
            for apo in tokenizer.APOSTROPHES:
                joined = onset.replace("'", apo) + word
                out |= {joined, joined.capitalize(), joined.upper()}
    return sorted(out | set(PLAIN_WORDS))


@pytest.mark.parametrize("hand_built", [False, True],
                         ids=["default", "hand-built"])
def test_gate_keeps_every_rule_outcome(lex, hand_built):
    lexicon = TokenizerLexicon(
        clitic_onsets={"d": None, "d'": "DET", "i̇": "PRON"},
        compagr_hosts={"dass", "ob"}, ma_forms=WEMMA,
        intact_forms={"Oa": "NUM"}, review_forms={"Dogs"},
        sandhi_splits={"wiera": (("wier", None), ("a", "PRON"))},
    ) if hand_built else lex
    surfaces = sorted(set(_gate_surfaces(lexicon)) | set(_gate_surfaces(lex)))
    cases = 0
    for surface in surfaces:
        # the next word alone selects the infinitival reading, so its
        # spellings stand in for the removed explicit hint
        for nxt in NEXT_WORDS + ("OOZÖÖN", "oozöön."):
            assert segment_token(surface, lexicon, nxt) == \
                _segment_oracle(surface, lexicon, nxt), (surface, nxt)
            cases += 1
    assert cases > 10000


def test_lookup_keys_never_change_length():
    # every rule slices the surface by lengths measured on a key
    assert tokenizer._lookup_keys("İx") == ["İx"]
    assert tokenizer._lookup_keys("Zum") == ["Zum", "zum"]
    for c in ("İ", "ẞ", "Σ", "ǅ", "ﬀ"):
        assert all(len(k) == 1 for k in tokenizer._lookup_keys(c)), c


def _token_columns(t):
    return (t.id, t.form, t.upos, t.head, t.deprel, t.misc, t.lemma_col,
            t.xpos_col, t.feats_col, t.deps_col, t.line)


def test_skeleton_tokens_equal_constructed_tokens(lex):
    # every token tokenize_sentence builds, on a miss and on a hit, equals
    # the Token the checked constructor builds from its columns, and from
    # the rows of _segment_unit_oracle
    warm = _cold(lex)
    sentences = _random_sentences(_lexicon_forms(lex), 300, seed=8)
    sentences += ["håmas nimma gemma wiera Haus", "zum Beispiel İx ʼs"]
    for raw in sentences * 2:         # cold entries first, then memo hits
        s = tokenize_sentence(raw, warm)
        for t in s.tokens:
            assert t == Token(*_token_columns(t)), raw
        units = raw.split()
        tokens, spans = [], []
        for unit, nxt in zip(units, units[1:] + [None]):
            entry = _segment_unit_oracle(unit, nxt, lex)
            base = len(tokens)
            for i in range(0, len(entry) - 1, 3):
                tokens.append(Token(len(tokens) + 1, entry[i], entry[i + 1],
                                    0, "dep", entry[i + 2]))
            if entry[-1]:
                first, last, core, misc = entry[-1]
                spans.append(MwtSpan(base + first, base + last, core, misc))
        assert s.tokens == tokens, raw
        assert s.mwt_spans == spans, raw


@pytest.mark.parametrize("lexicon, message", [
    (TokenizerLexicon(intact_forms={"Haus": "NO\tUN"}),
     "bad upos column: 'NO\\tUN'"),
])
def test_bad_skeleton_row_raises_on_every_use(lexicon, message):
    # Token's column check runs once per memo entry; an entry that fails it
    # fails again when the same unit comes back
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            tokenize_sentence("Haus ab Haus ab", lexicon)
        assert str(exc.value) == message
    assert len(tokenize_sentence("Hof", lexicon).tokens) == 1


def test_fold_and_lower_keep_whitespace_in_place():
    # tokenize_sentence splits the raw line and its folded, lower-cased copy
    # on whitespace and pairs the units by position
    for cp in range(0x110000):
        c = chr(cp)
        key = fold_apostrophes(c).lower()
        if c.isspace():
            assert key.isspace(), hex(cp)
        else:
            assert not any(k.isspace() for k in key), hex(cp)


def test_numeric_patterns_start_only_at_isdecimal():
    # _segment_unit tries the number patterns only when isdecimal holds for
    # the first character; \d matches exactly those characters
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\d", every) == [c for c in every if c.isdecimal()]


def test_segment_token_runs_once_per_memo_miss(lex, monkeypatch):
    # the module-level segment_token is the seam the benchmark traces;
    # every miss on a non-numeric core must go through it
    calls = []

    def counting(surface, lexicon, next_surface=None):
        calls.append(surface)
        return real(surface, lexicon, next_surface)

    real = tokenizer.segment_token
    monkeypatch.setattr(tokenizer, "segment_token", counting)
    cold = _cold(lex)
    raw = "zum Beispiel, zum Beispiel gibts 8kg Haus Haus 400–500 wemma mia"
    tokenize_sentence(raw, cold)
    numeric = 2     # 8kg and 400–500 never reach segment_token
    assert len(calls) == len(cold._unit_memo) - numeric == 7
    tokenize_sentence(raw, cold)
    assert len(calls) == 7
    # letters-only units that a rule splits (a clitic and a sandhi form),
    # tags (an intact form with a hint) or flags (a review form), beside a
    # plain word: each miss still goes through segment_token once
    calls.clear()
    raw = "håmas nimma gemma wiera Minga nimma"
    tokenize_sentence(raw, cold)
    assert calls == ["håmas", "nimma", "gemma", "wiera", "Minga", "nimma"]
    tokenize_sentence(raw, cold)
    assert len(calls) == 6


def test_letters_hold_no_punctuation_or_digits():
    # _segment_unit gives a unit for which isalpha holds no _strip_punct and
    # no number match, and reads the row of an intact one without a hint
    # as (unit, "X", "_")
    for cp in range(0x110000):
        c = chr(cp)
        if c.isalpha():
            assert c not in LEADING_PUNCT and c not in TRAILING_PUNCT, hex(cp)
            assert not c.isdecimal() and not c.isdigit(), hex(cp)
            assert c.isprintable(), hex(cp)


_UNIT_CHARS = (string.ascii_letters + "äöüÄÖÜß" + "İ" + APOSTROPHES
               + string.digits + "-–"
               + "".join(sorted(LEADING_PUNCT | TRAILING_PUNCT)))


@pytest.fixture(scope="module")
def unit_forms(lex):
    forms = sorted(_lexicon_forms(lex))
    return forms + sorted({form.title() for form in forms})


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(data=st.data())
def test_segment_unit_matches_the_oracle(lex, unit_forms, data):
    punct = st.text(alphabet=sorted(LEADING_PUNCT | TRAILING_PUNCT),
                    max_size=2)
    core = st.text(alphabet=_UNIT_CHARS, min_size=1, max_size=8) | \
        st.sampled_from(unit_forms)
    unit = data.draw(st.builds(lambda a, b, c: a + b + c, punct, core, punct))
    nxt = data.draw(st.sampled_from(NEXT_WORDS))
    assert tokenizer._segment_unit(unit, nxt, lex) == \
        _segment_unit_oracle(unit, nxt, lex)

