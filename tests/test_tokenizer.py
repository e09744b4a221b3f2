import random
import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maibaam_lint.conllu import Token, reconstruct_text
from maibaam_lint.rules import validate_structure
from maibaam_lint import tokenizer
from maibaam_lint.tokenizer import (
    AGREEMENT_SUFFIXES,
    KIND_INTACT,
    KIND_MWT,
    KIND_SPACE_AFTER_NO,
    EmptyInputError,
    SegmentationContext,
    TokenizerLexicon,
    attach_skeleton_heads,
    default_lexicon,
    fold_apostrophes,
    is_complementizer_agreement,
    load_lexicon,
    match_agreement_suffix,
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
    # a table no kind fills, or a kind naming no table, fails here
    tables = [name for name, _ in tokenizer._LEXICON_KINDS.values()]
    assert sorted(tables) == sorted(f.name for f in fields(TokenizerLexicon)
                                    if f.init)


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
    assert str(exc.value) == "lexicon clitic_onsets: empty onset"


@pytest.mark.parametrize("table, key, parts, forms", [
    ("fused_adp_det", "zum", (("zum", "ADP"), ("", "DET")), "['zum', '']"),
    # parts that outrun the key would carve an empty form from the surface
    ("pronoun_clitics", "ab", (("abx", None), ("c", None)), "['abx', 'c']"),
    ("fused_inf", "zum", (("zu", "ADP"),), "['zu']"),
    ("sandhi_splits", "wiera", (("wier", None), ("ra", "PRON")),
     "['wier', 'ra']"),
    ("ma_forms", "wemma", (), "[]"),
], ids=["empty-part", "longer-parts", "shorter-parts", "other-parts",
        "no-parts"])
def test_hand_built_lexicon_rejects_a_bad_split_entry(table, key, parts,
                                                      forms):
    with pytest.raises(ValueError) as exc:
        TokenizerLexicon(**{table: {key: parts}})
    assert str(exc.value) == (f"lexicon {table} entry {key!r}: part forms "
                              f"{forms} are empty or do not join to it")


def test_hand_built_split_entry_parts_join_with_apostrophes_folded():
    lexicon = TokenizerLexicon(
        pronoun_clitics={"hob'i": (("hob’", None), ("i", "PRON"))})
    assert segment_token("hob'i", lexicon).forms() == ("hob'", "i")


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
    return replace(lexicon)


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
    # the same sentence on a lexicon that has memoised nothing; the explicit
    # infinitive hint, which only segment_token takes, is crossed in too
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
            for hint in (None, True, False):
                ctx = SegmentationContext(next_surface=nxt, infinitive=hint)
                assert segment_token(form, warm, ctx) == \
                    segment_token(form, _cold(lex), ctx), (form, nxt, hint)
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
            seg = segment_token(form, lex,
                                SegmentationContext(next_surface=second))
            assert tuple(t.form for t in s.tokens[:-1]) == seg.forms(), form


def test_unit_memo_is_bounded(lex, monkeypatch):
    monkeypatch.setattr(tokenizer, "UNIT_MEMO_LIMIT", 8)
    small = _cold(lex)
    sentences = _random_sentences(_lexicon_forms(lex), 40, seed=7)
    for raw in sentences:
        assert _skeleton(tokenize_sentence(raw, small)) == \
            _skeleton(tokenize_sentence(raw, _cold(lex)))
        assert len(small._unit_memo) <= 8


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
    ({"dass", "das", "s", "as", "", "wo"}, WEMMA),  # shared s, empty host
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
            ctx = SegmentationContext(next_surface=nxt)
            assert segment_token(surface, hand, ctx) == \
                segment_token(surface, lex, ctx), (surface, nxt)
    assert segment_token("wemma", hand).forms() == ("wem", "ma")
    assert segment_token("das'st", hand).kind == KIND_INTACT
    # onsets are tried longest first
    onsets = TokenizerLexicon(clitic_onsets={"d": None, "d'": "DET"})
    assert segment_token("d'neie", onsets).parts == (("d'", "DET"),
                                                     ("neie", None))


def test_hand_built_lexicon_derives_terminal_parts(lex):
    # the tables a caller passes; terminal_parts is derived from them
    tables = {f.name: getattr(lex, f.name) for f in fields(TokenizerLexicon)
              if f.init and f.name != "terminal_parts"}
    hand = TokenizerLexicon(**tables)
    assert hand.terminal_parts == lex.terminal_parts
    assert segment_token("zu", hand) == segment_token("zu", lex)
    with pytest.raises(ValueError, match="entries are also split parts"):
        TokenizerLexicon(fused_adp_det={"zum": (("zu", "ADP"), ("m", "DET")),
                                        "zu": (("z", "ADP"), ("u", "DET"))})


# -- rule-key gate and checked-once skeleton rows ----------------------------

def _segment_oracle(surface, lexicon, context=None):
    """The rule cascade of segment_token before it skipped units whose keys
    no rule reads; kept as the reference for that gate."""
    ctx = context or SegmentationContext()
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
        next_key = (fold_apostrophes(ctx.next_surface).lower()
                    if ctx.next_surface else None)
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

    infinitive_context = ctx.infinitive
    if infinitive_context is None and ctx.next_surface:
        next_key = fold_apostrophes(ctx.next_surface).lower()
        infinitive_context = next_key in lexicon.nominalized_infinitives

    fused = (lexicon.fused_adp_det, lexicon.fused_inf)
    if infinitive_context:
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
        for nxt in NEXT_WORDS:
            for hint in (None, True, False):
                ctx = SegmentationContext(next_surface=nxt, infinitive=hint)
                assert segment_token(surface, lexicon, ctx) == \
                    _segment_oracle(surface, lexicon, ctx), (surface, nxt, hint)
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
    warm = _cold(lex)
    sentences = _random_sentences(_lexicon_forms(lex), 300, seed=8)
    for raw in sentences * 2:         # cold entries first, then memo hits
        for t in tokenize_sentence(raw, warm).tokens:
            assert t == Token(*_token_columns(t)), raw


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

    def counting(surface, lexicon, context=None):
        assert isinstance(context, SegmentationContext)
        calls.append(surface)
        return real(surface, lexicon, context)

    real = tokenizer.segment_token
    monkeypatch.setattr(tokenizer, "segment_token", counting)
    cold = _cold(lex)
    raw = "zum Beispiel, zum Beispiel gibts 8kg Haus Haus 400–500 wemma mia"
    tokenize_sentence(raw, cold)
    numeric = 2     # 8kg and 400–500 never reach segment_token
    assert len(calls) == len(cold._unit_memo) - numeric == 7
    tokenize_sentence(raw, cold)
    assert len(calls) == 7
