import pytest

from maibaam_lint.conllu import Diagnostic, Document, Sentence, Token
from maibaam_lint.metadata import (
    REQUIRED_KEYS,
    check_unique_sent_ids,
    validate_metadata,
)
from maibaam_lint.rules import LintConfig


def complete_metadata(**overrides):
    meta = {
        "sent_id": "m-1",
        "text": "Servus",
        "genre": "wiki",
        "dialect_group": "central",
        "location": "Munich",
        "source": "https://bar.wikipedia.org/wiki/Minga",
    }
    meta.update(overrides)
    return [(k, v) for k, v in meta.items() if v is not None]


def one_token_sentence(**overrides):
    tokens = [Token(id=1, form="Servus", upos="INTJ", head=0, deprel="root",
                    misc="GermanLemma=servus")]
    return Sentence(tokens=tokens, metadata=complete_metadata(**overrides))


def ids(diags):
    return [d.rule_id for d in diags]


def test_complete_metadata_is_clean():
    assert validate_metadata(one_token_sentence()) == []


@pytest.mark.parametrize("key", REQUIRED_KEYS)
def test_removing_each_required_key_yields_one_missing(key):
    s = one_token_sentence(**{key: None})
    diags = validate_metadata(s)
    assert ids(diags) == ["META.MISSING"]
    assert key in diags[0].message


def test_optional_keys_allowed_absent_or_present():
    s = one_token_sentence()
    assert validate_metadata(s) == []
    s2 = one_token_sentence()
    s2.metadata.append(("text_en", "Hello"))
    s2.metadata.append(("author", "someone"))
    assert validate_metadata(s2) == []


def test_genre_vocabulary():
    assert ids(validate_metadata(one_token_sentence(
        genre="poetry", source="somewhere"))) == ["META.GENRE"]
    for genre in ("wiki", "social", "fiction", "grammar examples",
                  "non-fiction"):
        source = ("https://example.org/x" if genre in ("wiki", "social")
                  else "free text source")
        assert validate_metadata(one_token_sentence(
            genre=genre, source=source)) == []


def test_dialect_vocabulary_and_elaboration():
    ok = ["north", "northcentral", "central", "southcentral", "south", "unk",
          "unk (southcentral/south)", "unk (north/central/south)"]
    for value in ok:
        assert validate_metadata(one_token_sentence(dialect_group=value)) == [], value
    assert ids(validate_metadata(one_token_sentence(
        dialect_group="bavaria"))) == ["META.DIALECT"]
    assert ids(validate_metadata(one_token_sentence(
        dialect_group="unk (south/central)"))) == ["META.DIALECT_ORDER"]
    assert ids(validate_metadata(one_token_sentence(
        dialect_group="unk (south/south)"))) == ["META.DIALECT_ORDER"]
    assert ids(validate_metadata(one_token_sentence(
        dialect_group="unk (somewhere/south)"))) == ["META.DIALECT"]


def test_source_url_for_wiki_and_social_only():
    assert ids(validate_metadata(one_token_sentence(
        source="just a note"))) == ["META.SOURCE"]
    assert validate_metadata(one_token_sentence(
        genre="fiction", source="just a note")) == []
    assert validate_metadata(one_token_sentence(
        genre="social", source="https://bar.wikipedia.org/wiki/Diskussion:Minga")) == []


@pytest.mark.parametrize("source", ["http://[oops", "https://[::1/x"])
def test_unparseable_source_is_not_an_absolute_url(source):
    # urlparse raises ValueError for an unclosed IPv6 host
    diags = validate_metadata(one_token_sentence(source=source))
    assert ids(diags) == ["META.SOURCE"]
    assert repr(source) in diags[0].message


def test_text_mismatch():
    s = one_token_sentence(text="Servas")
    assert ids(validate_metadata(s)) == ["META.TEXT_MISMATCH"]


def test_policy_from_config():
    cfg = LintConfig(genre_vocab=frozenset({"wiki"}))
    s = one_token_sentence(genre="fiction", source="x")
    assert ids(validate_metadata(s, cfg)) == ["META.GENRE"]


def duplicates(*docs):
    """The sent_ids that occur more than once in docs, each with the
    (file, line) of every occurrence in document order."""
    located = {}
    for doc in docs:
        for s in doc.sentences:
            located.setdefault(s.sent_id, []).append((s.file, s.line))
    return {sid: where for sid, where in located.items() if len(where) > 1}


def test_duplicate_sent_ids_across_files_order_independent():
    def doc(name, *sent_ids):
        d = Document(file=name)
        for sid in sent_ids:
            d.sentences.append(one_token_sentence(sent_id=sid))
            d.sentences[-1].file = name
        return d

    a = doc("a.conllu", "dup-1", "uniq-1")
    b = doc("b.conllu", "dup-1", "uniq-2")
    forward = check_unique_sent_ids(duplicates(a, b))
    backward = check_unique_sent_ids(duplicates(b, a))
    assert ids(forward) == ["META.DUP_ID", "META.DUP_ID"]
    assert sorted(d.file for d in forward) == ["a.conllu", "b.conllu"]
    # the check returns findings unsorted; a report sorts them by sort_key
    in_report_order = Diagnostic.sort_key.fget
    assert sorted(forward, key=in_report_order) == \
        sorted(backward, key=in_report_order)
    assert {d.message for d in forward} == {
        "sent_id 'dup-1' occurs 2 times in this run"}


def test_duplicate_check_respects_disable():
    d = Document(file="a")
    d.sentences = [one_token_sentence(), one_token_sentence()]
    cfg = LintConfig(enabled_overrides={"META.DUP_ID": False})
    assert check_unique_sent_ids(duplicates(d), cfg) == []
    assert len(check_unique_sent_ids(duplicates(d))) == 2


def test_missing_key_findings_share_one_message():
    bare = Sentence(tokens=one_token_sentence().tokens)
    first, second = validate_metadata(bare), validate_metadata(bare)
    assert sorted(d.message for d in first) == sorted(
        f"missing required metadata key {key!r}" for key in REQUIRED_KEYS)
    for a, b in zip(first, second):
        assert a.rule_id == b.rule_id == "META.MISSING"
        assert a.message is b.message
