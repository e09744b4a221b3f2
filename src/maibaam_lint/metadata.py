"""Sentence-level metadata checks: required keys, genre and dialect-group
vocabularies, sent_id uniqueness and text/token consistency."""

from __future__ import annotations

import re
from collections.abc import Mapping
from urllib.parse import urlparse

from .conllu import Diagnostic, Sentence, reconstruct_text
from .rules import URL_GENRES, LintConfig, finding

REQUIRED_KEYS = ("sent_id", "text", "genre", "dialect_group", "location",
                 "source")
# one message object per key, shared by all its findings
_MISSING_MESSAGES = tuple((key, f"missing required metadata key {key!r}")
                          for key in REQUIRED_KEYS)

_UNK_ELABORATION_RE = re.compile(r"^unk \((.+)\)$")


def _is_absolute_url(value: str) -> bool:
    """Whether value has a scheme and a host. A value urlparse cannot
    parse, such as "http://[oops", is not one."""
    try:
        parsed = urlparse(value)
    except ValueError:
        return False
    return bool(parsed.scheme) and bool(parsed.netloc)


def validate_metadata(s: Sentence,
                      cfg: LintConfig | None = None) -> list[Diagnostic]:
    """Check one sentence's metadata against the config's vocabularies.

    Emits META.MISSING per absent required key, META.GENRE / META.DIALECT /
    META.DIALECT_ORDER for bad values, META.SOURCE for non-URL sources of
    wiki/social sentences, and META.TEXT_MISMATCH when the text metadata
    does not equal the reconstructed token surface, in that order.
    sent_id uniqueness is a cross-file concern, see check_unique_sent_ids.
    """
    cfg = cfg or LintConfig()
    diags = []
    meta = dict(reversed(s.metadata))  # the first value of a key wins

    for key, message in _MISSING_MESSAGES:
        if key not in meta:
            diags.append(finding(cfg, s, "META.MISSING", message))

    genre = meta.get("genre")
    if genre is not None and genre not in cfg.genre_vocab:
        allowed = ", ".join(sorted(cfg.genre_vocab))
        diags.append(finding(cfg, s, "META.GENRE",
                             f"genre {genre!r} not in {{{allowed}}}"))

    dialect = meta.get("dialect_group")
    order = cfg.dialect_order
    if dialect is not None and dialect != "unk" and dialect not in order:
        # an "unk (a/b)" elaboration names known groups, north to south
        m = _UNK_ELABORATION_RE.match(dialect)
        members = m.group(1).split("/") if m else []
        indices = [order.index(g) for g in members if g in order]
        if not members or len(indices) < len(members):
            diags.append(finding(cfg, s, "META.DIALECT",
                                 f"unknown dialect_group {dialect!r}"))
        elif indices != sorted(set(indices)):
            diags.append(finding(cfg, s, "META.DIALECT_ORDER",
                                 f"dialect groups in {dialect!r} must be listed "
                                 f"north to south"))

    source = meta.get("source")
    if genre in URL_GENRES and source is not None and \
            not _is_absolute_url(source):
        diags.append(finding(cfg, s, "META.SOURCE",
                             f"source for genre {genre!r} should be an absolute "
                             f"URL, got {source!r}"))

    text = meta.get("text")
    if text is not None and s.tokens:
        rebuilt = reconstruct_text(s)
        if rebuilt != text:
            diags.append(finding(cfg, s, "META.TEXT_MISMATCH",
                                 f"text metadata {text!r} differs from token "
                                 f"surface {rebuilt!r}"))

    if cfg.disabled_rules:
        diags = [d for d in diags if cfg.rule_enabled(d.rule_id)]
    return diags


def check_unique_sent_ids(duplicates: Mapping[str, list[tuple[str, int]]],
                          cfg: LintConfig | None = None) -> list[Diagnostic]:
    """Flag every sentence whose sent_id occurs more than once in the run.

    duplicates maps each such sent_id to the (file, line) of every sentence
    that carries it. Flagging all occurrences keeps the findings, in the
    mapping's order, the same set whatever the file order.
    """
    cfg = cfg or LintConfig()
    if not cfg.rule_enabled("META.DUP_ID"):
        return []
    return [finding(cfg, Sentence(file=file, line=line,
                                  metadata=[("sent_id", sid)]),
                    "META.DUP_ID",
                    f"sent_id {sid!r} occurs {len(located)} times in this run")
            for sid, located in duplicates.items() for file, line in located]
