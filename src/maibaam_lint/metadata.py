"""Sentence-level metadata checks: required keys, genre and dialect-group
vocabularies, sent_id uniqueness and text/token consistency."""

from __future__ import annotations

import re
from collections import Counter
from urllib.parse import urlparse

from .conllu import Diagnostic, Document, Sentence, reconstruct_text
from .rules import URL_GENRES, LintConfig, finding

REQUIRED_KEYS = ("sent_id", "text", "genre", "dialect_group", "location",
                 "source")

_UNK_ELABORATION_RE = re.compile(r"^unk \((.+)\)$")


def _check_dialect_group(value: str,
                         dialect_order: tuple[str, ...]) -> str | None:
    """Return the violated rule id for a dialect_group value, if any."""
    if value in dialect_order or value == "unk":
        return None
    m = _UNK_ELABORATION_RE.match(value)
    if not m:
        return "META.DIALECT"
    members = m.group(1).split("/")
    indices = []
    for member in members:
        if member not in dialect_order:
            return "META.DIALECT"
        indices.append(dialect_order.index(member))
    if indices != sorted(indices) or len(set(indices)) != len(indices):
        return "META.DIALECT_ORDER"
    return None


def _is_absolute_url(value: str) -> bool:
    parsed = urlparse(value)
    return bool(parsed.scheme) and bool(parsed.netloc)


def validate_metadata(s: Sentence,
                      cfg: LintConfig | None = None) -> list[Diagnostic]:
    """Check one sentence's metadata against the config's vocabularies.

    Emits META.MISSING per absent required key, META.GENRE / META.DIALECT /
    META.DIALECT_ORDER for bad values, META.SOURCE for non-URL sources of
    wiki/social sentences, and META.TEXT_MISMATCH when the text metadata
    does not equal the reconstructed token surface. sent_id uniqueness is a
    cross-file concern, see check_unique_sent_ids.
    """
    cfg = cfg or LintConfig()
    diags = []
    meta = dict(reversed(s.metadata))  # the first value of a key wins

    for key in REQUIRED_KEYS:
        if key not in meta:
            diags.append(finding(cfg, s, "META.MISSING",
                                 f"missing required metadata key {key!r}"))

    genre = meta.get("genre")
    if genre is not None and genre not in cfg.genre_vocab:
        allowed = ", ".join(sorted(cfg.genre_vocab))
        diags.append(finding(cfg, s, "META.GENRE",
                             f"genre {genre!r} not in {{{allowed}}}"))

    dialect = meta.get("dialect_group")
    if dialect is not None:
        violated = _check_dialect_group(dialect, cfg.dialect_order)
        if violated == "META.DIALECT":
            diags.append(finding(cfg, s, "META.DIALECT",
                                 f"unknown dialect_group {dialect!r}"))
        elif violated == "META.DIALECT_ORDER":
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
    diags.sort(key=lambda d: d.sort_key)
    return diags


def check_unique_sent_ids(docs: list[Document],
                          cfg: LintConfig | None = None) -> list[Diagnostic]:
    """Flag every sentence whose sent_id occurs more than once in the run.

    Flagging all occurrences keeps the result independent of file order.
    """
    cfg = cfg or LintConfig()
    if not cfg.rule_enabled("META.DUP_ID"):
        return []
    located = [(s, s.sent_id) for doc in docs for s in doc.sentences]
    counts = Counter(sid for _, sid in located if sid)
    diags = [finding(cfg, s, "META.DUP_ID",
                     f"sent_id {sid!r} occurs {counts[sid]} times in this run")
             for s, sid in located if counts[sid] > 1]
    diags.sort(key=lambda d: d.sort_key)
    return diags
