import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maibaam_lint.conllu import reconstruct_text
from maibaam_lint.rules import validate_structure
from maibaam_lint.tokenizer import (
    KIND_INTACT,
    KIND_MWT,
    KIND_SPACE_AFTER_NO,
    EmptyInputError,
    SegmentationContext,
    attach_skeleton_heads,
    default_lexicon,
    fold_apostrophes,
    is_complementizer_agreement,
    load_lexicon,
    segment_token,
    tokenize_sentence,
)


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
    by_neighbor = segment_token("zum", lex,
                                SegmentationContext(next_surface="oozöön"))
    assert [h for _, h in by_neighbor.parts] == ["PART", "DET"]
    by_hint = segment_token("zum", lex, SegmentationContext(infinitive=True))
    assert [h for _, h in by_hint.parts] == ["PART", "DET"]
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
    assert is_complementizer_agreement("dassd", lex)
    assert is_complementizer_agreement("weilds", lex)
    assert is_complementizer_agreement("wennsd", lex)
    assert is_complementizer_agreement("das'st", lex)
    assert is_complementizer_agreement("wemma", lex)
    assert not is_complementizer_agreement("dass", lex)
    assert not is_complementizer_agreement("Haus", lex)
    assert not is_complementizer_agreement("gibts", lex)


def test_doubly_marked_1pl_stays_intact(lex):
    doubled = segment_token("wemma", lex, SegmentationContext(next_surface="mia"))
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
    assert s.tokens[0].misc_value("SpaceAfter") == "No"
    assert s.tokens[1].misc_value("SpaceAfter") is None
    assert s.tokens[2].misc_value("SpaceAfter") == "No"


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


def test_tokenize_username_hint(lex):
    s = tokenize_sentence("Servus USERNAME!", lex)
    assert [t.upos for t in s.tokens] == ["X", "PROPN", "PUNCT"]


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
    with pytest.raises(ValueError):
        load_lexicon(str(bad))


def test_load_lexicon_rejects_key_part_clash(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("ab\tclitic\ta b\t_ _\na\tsandhi\t_ a\t_ _\n",
                   encoding="utf-8")
    with pytest.raises(ValueError):
        load_lexicon(str(bad))


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
