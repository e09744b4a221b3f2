"""Bavarian segmentation: decide per whitespace unit whether it stays one
token, splits into a multi-word token, or splits into adjacent tokens
joined with SpaceAfter=No.

All splitting knowledge lives in a lexicon data file; Bavarian spelling is
unstandardized, so users extend the data rather than the code. Splits are
substring splits: part forms always concatenate back to the input.
"""

from __future__ import annotations

import os
import re
import unicodedata
from dataclasses import dataclass, field
from importlib import resources

from .conllu import (MwtSpan, Sentence, Token, _check_columns,
                     _unchecked_token, read_text)

KIND_INTACT = "intact"
KIND_MWT = "mwt"
KIND_SPACE_AFTER_NO = "space_after_no"

APOSTROPHES = "'’´`ʼ"
_APOSTROPHE_MAP = str.maketrans({c: "'" for c in APOSTROPHES})

LEADING_PUNCT = set("\"„“”«»‹›¿¡([{/")
TRAILING_PUNCT = set(".,;:!?…\"“”«»‹›)]}/%")
_SENT_END_PUNCT = set(".!?…")

_RANGE_RE = re.compile(r"^(\d+)(-{1,2}|[‒–—―]+)(\d+)$")
_NUMBER_UNIT_RE = re.compile(r"^(\d+(?:[.,]\d+)?)([^\W\d_]+)$")

AGREEMENT_SUFFIXES = ("sd", "st", "ds")
FULL_1PL_PRONOUNS = frozenset({"mia", "mir"})

# the Token columns a tokenizer row sets; the others are constants
_ROW_COLUMNS = ("form", "upos", "misc")

# each lexicon kind -> (the TokenizerLexicon table it fills, what a line
# adds there: split parts, the first UPOS hint ("_" = none) or the surface)
_LEXICON_KINDS = {
    "mwt": ("fused_adp_det", "parts"),
    "mwt-inf": ("fused_inf", "parts"),
    "onset": ("clitic_onsets", "hint"),
    "clitic": ("pronoun_clitics", "parts"),
    "sandhi": ("sandhi_splits", "parts"),
    "host": ("compagr_hosts", "surface"),
    "ma-form": ("ma_forms", "parts"),
    "review": ("review_forms", "surface"),
    "abbrev": ("abbreviations", "surface"),
    "intact": ("intact_forms", "hint"),
    "nominf": ("nominalized_infinitives", "surface"),
    "unit": ("units", "surface"),
}

# the tables whose entries split a surface into parts
_SPLIT_TABLES = tuple(name for name, adds in _LEXICON_KINDS.values()
                      if adds == "parts")

# tokenize_sentence's per-lexicon unit memo is emptied when it reaches this
# many entries, which bounds its memory on high-diversity text
UNIT_MEMO_LIMIT = 2 ** 16


class EmptyInputError(ValueError):
    """Raised by tokenize_sentence for whitespace-only input."""


def fold_apostrophes(s: str) -> str:
    return s.translate(_APOSTROPHE_MAP)


Part = tuple[str, str | None]


@dataclass(frozen=True)
class SegmentationResult:
    """Outcome of applying the splitting rules to one surface unit."""

    kind: str
    parts: tuple[Part, ...]
    note: str | None = None

    def forms(self) -> tuple[str, ...]:
        return tuple(form for form, _ in self.parts)


def _intact(surface: str, hint: str | None = None,
            note: str | None = None) -> SegmentationResult:
    return SegmentationResult(KIND_INTACT, ((surface, hint),), note)


@dataclass
class TokenizerLexicon:
    """Lookup tables driving segment_token.

    Read-only after construction: __post_init__ rejects an empty onset and a
    split entry whose parts are empty or do not join to its key, derives
    terminal_parts, rejects an entry that is also a split part, and compiles
    the onset order, the agreement-ending table and the set of keys any rule
    reads from the tables given; tokenize_sentence memoises its per-unit work on the
    lexicon, so later edits to a table are not seen.
    """

    fused_adp_det: dict[str, tuple[Part, ...]] = field(default_factory=dict)
    fused_inf: dict[str, tuple[Part, ...]] = field(default_factory=dict)
    clitic_onsets: dict[str, str | None] = field(default_factory=dict)
    pronoun_clitics: dict[str, tuple[Part, ...]] = field(default_factory=dict)
    sandhi_splits: dict[str, tuple[Part, ...]] = field(default_factory=dict)
    compagr_hosts: set[str] = field(default_factory=set)
    ma_forms: dict[str, tuple[Part, ...]] = field(default_factory=dict)
    review_forms: set[str] = field(default_factory=set)
    abbreviations: set[str] = field(default_factory=set)  # lower-cased
    intact_forms: dict[str, str | None] = field(default_factory=dict)
    nominalized_infinitives: set[str] = field(default_factory=set)
    units: set[str] = field(default_factory=set)
    terminal_parts: set[str] = field(init=False)
    _onsets: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _agreement: dict[str, str] = field(init=False, repr=False, compare=False)
    _rule_keys: frozenset[str] = field(init=False, repr=False, compare=False)
    _unit_memo: dict = field(init=False, default_factory=dict, repr=False,
                             compare=False)

    def __post_init__(self):
        if "" in self.clitic_onsets:
            raise ValueError("lexicon clitic_onsets: empty onset")
        self.terminal_parts = set(self.clitic_onsets)
        for name in _SPLIT_TABLES:
            for key, parts in getattr(self, name).items():
                forms = [fold_apostrophes(f) for f, _ in parts]
                if "" in forms or "".join(forms) != fold_apostrophes(key):
                    raise ValueError(f"lexicon {name} entry {key!r}: part forms "
                                     f"{forms} are empty or do not join to it")
                self.terminal_parts.update(forms)
        clash = set(self.split_surfaces()) & self.terminal_parts
        if clash:
            raise ValueError(
                f"lexicon entries are also split parts: {sorted(clash)}")
        self._onsets = tuple(sorted(self.clitic_onsets, key=len, reverse=True))
        # surface -> ending; setdefault keeps the first ending in this order
        agreement = dict.fromkeys(self.ma_forms, "ma")
        for suffix in AGREEMENT_SUFFIXES + ("ma",):
            for host in filter(None, self.compagr_hosts):
                agreement.setdefault(host + suffix, suffix)
                agreement.setdefault(host + "'" + suffix, suffix)
                if suffix.startswith("s") and host.endswith("s"):
                    # the host's final "s" is shared: dass + sd -> dassd
                    agreement.setdefault(host + suffix[1:], suffix)
        self._agreement = agreement
        self._rule_keys = frozenset().union(
            self.terminal_parts, self.intact_forms, self.review_forms,
            agreement, self.fused_adp_det, self.fused_inf,
            self.pronoun_clitics, self.sandhi_splits)

    def split_surfaces(self) -> list[str]:
        """All surfaces for which some splitting rule fires."""
        return sorted(set().union(*(getattr(self, name)
                                    for name in _SPLIT_TABLES)))


def _parse_parts(parts_field: str, hints_field: str, surface: str,
                 where: str) -> tuple[Part, ...]:
    forms = parts_field.split(" ")
    if "" in forms:
        raise ValueError(f"{where}: empty part form in {parts_field!r}")
    hints = hints_field.split(" ") if hints_field != "_" else ["_"] * len(forms)
    if len(hints) != len(forms):
        raise ValueError(f"{where}: {len(forms)} parts but {len(hints)} hints")
    if "".join(forms) != surface:
        raise ValueError(f"{where}: parts do not concatenate to surface "
                         f"{surface!r}")
    return tuple((f, None if h == "_" else h) for f, h in zip(forms, hints))


def load_lexicon(path: str | os.PathLike) -> TokenizerLexicon:
    """Load a lexicon from the file at path. A malformed line raises
    ValueError('PATH:LINE: message'). For lexicon text in memory, write a
    file or build TokenizerLexicon from its tables."""
    tables = {name: set() if adds == "surface" else {}
              for name, adds in _LEXICON_KINDS.values()}
    for line_no, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{line_no}"
        cols = line.split("\t")
        if len(cols) != 4:
            raise ValueError(f"{where}: expected 4 tab-separated columns, "
                             f"got {len(cols)}")
        surface, kind, parts_field, hints_field = cols
        if not surface:
            raise ValueError(f"{where}: empty surface")
        if kind not in _LEXICON_KINDS:
            raise ValueError(f"{where}: unknown kind {kind!r}")
        name, adds = _LEXICON_KINDS[kind]
        key = fold_apostrophes(surface)
        if adds == "parts":
            tables[name][key] = _parse_parts(parts_field, hints_field,
                                             surface, where)
        elif adds == "hint":
            hint = hints_field.split(" ")[0]
            tables[name][key] = None if hint == "_" else hint
        else:
            tables[name].add(key.lower() if kind == "abbrev" else key)
    return TokenizerLexicon(**tables)


def default_lexicon() -> TokenizerLexicon:
    data = resources.files("maibaam_lint.data").joinpath("lexicon.tsv")
    with resources.as_file(data) as path:
        return load_lexicon(path)


def _lookup_keys(surface: str) -> list[str]:
    """Exact match first, then one case-folded retry. The retry is left out
    when folding changes the length (U+0130 lower-cases to two code points):
    rules slice the surface by lengths measured on the key."""
    key = fold_apostrophes(surface)
    folded = key.lower()
    if folded == key or len(folded) != len(key):
        return [key]
    return [key, folded]


def _carve(surface: str, parts: tuple[Part, ...]) -> tuple[Part, ...]:
    """Slice the original surface by entry part lengths, keeping original
    casing and apostrophe glyphs."""
    out = []
    pos = 0
    for form, hint in parts:
        out.append((surface[pos:pos + len(form)], hint))
        pos += len(form)
    return tuple(out)


def match_agreement_suffix(surface: str,
                           lexicon: TokenizerLexicon) -> str | None:
    """Return the agreement suffix if surface is complementizer + ending.

    Covers -sd/-st (2sg), -ds (2pl) and -ma (1pl), an optional apostrophe
    before the ending (das'st), and hosts ending in "s" sharing it with an
    s-initial ending (dass + sd -> dassd).
    """
    for key in _lookup_keys(surface):
        suffix = lexicon._agreement.get(key)
        if suffix is not None:
            return suffix
    return None


def is_complementizer_agreement(surface: str,
                                lexicon: TokenizerLexicon) -> bool:
    """True iff surface is a complementizer carrying an agreement ending;
    such forms must not be split."""
    return match_agreement_suffix(surface, lexicon) is not None


@dataclass(frozen=True)
class SegmentationContext:
    """The next surface plus an optional explicit infinitive hint."""

    next_surface: str | None = None
    infinitive: bool | None = None


def segment_token(surface: str, lexicon: TokenizerLexicon,
                  context: SegmentationContext | None = None) -> SegmentationResult:
    """Apply the highest-priority applicable splitting rule to one unit.

    Priority: complementizer-agreement exception (keep intact) > fused
    adposition+determiner MWT > infinitival particle+determiner MWT >
    apostrophe clitic onset > verb/complementizer+pronoun > sandhi > intact.
    Unknown forms stay intact. Deterministic for a fixed lexicon.
    """
    keys = _lookup_keys(surface)
    for key in keys:
        if key in lexicon._rule_keys or key.startswith(lexicon._onsets):
            break
    else:
        return _intact(surface)  # no rule reads any of its keys

    ctx = context or SegmentationContext()

    for key in keys:
        if key in lexicon.terminal_parts and key not in lexicon.clitic_onsets:
            return _intact(surface)
        if key in lexicon.intact_forms:
            return _intact(surface, lexicon.intact_forms[key])
        if key in lexicon.review_forms:
            return _intact(surface, note="review")

    next_key = (fold_apostrophes(ctx.next_surface).lower()
                if ctx.next_surface else None)
    suffix = match_agreement_suffix(surface, lexicon)
    if suffix is not None:
        if suffix != "ma":
            return _intact(surface, "SCONJ")
        if next_key in FULL_1PL_PRONOUNS:
            # doubly marked 1pl: the ending is inflection, keep it
            return _intact(surface, "SCONJ")
        # single-marked 1pl -ma splits off as a pronoun
        for key in keys:
            if key in lexicon.ma_forms:
                return SegmentationResult(
                    KIND_SPACE_AFTER_NO, _carve(surface, lexicon.ma_forms[key]))
        return SegmentationResult(
            KIND_SPACE_AFTER_NO,
            ((surface[:-2], "SCONJ"), (surface[-2:], "PRON")))

    infinitive_context = ctx.infinitive
    if infinitive_context is None:
        infinitive_context = next_key in lexicon.nominalized_infinitives

    fused = (lexicon.fused_adp_det, lexicon.fused_inf)
    if infinitive_context:
        fused = (lexicon.fused_inf,) + fused
    for key in keys:
        for table in fused:
            if key in table:
                return SegmentationResult(KIND_MWT, _carve(surface, table[key]))

    for key in keys:
        for onset in lexicon._onsets:
            if key.startswith(onset) and len(key) > len(onset):
                head = surface[:len(onset)]
                rest = surface[len(onset):]
                return SegmentationResult(
                    KIND_SPACE_AFTER_NO,
                    ((head, lexicon.clitic_onsets[onset]), (rest, None)))

    for table in (lexicon.pronoun_clitics, lexicon.sandhi_splits):
        for key in keys:
            if key in table:
                return SegmentationResult(KIND_SPACE_AFTER_NO,
                                          _carve(surface, table[key]))

    return _intact(surface)


def _strip_punct(unit: str, lexicon: TokenizerLexicon, last_unit: bool):
    """Split outer punctuation off one whitespace unit.

    Returns (leading, core, trailing) piece lists. Abbreviation periods and
    ordinal-number periods (mid-sentence "31.") stay attached; apostrophes
    and hyphens are never treated as punctuation.
    """
    leading: list[str] = []
    trailing: list[str] = []
    while len(unit) > 1 and unit[0] in LEADING_PUNCT:
        leading.append(unit[0])
        unit = unit[1:]
    while len(unit) > 1 and unit[-1] in TRAILING_PUNCT:
        if unit[-1] in _SENT_END_PUNCT and \
                fold_apostrophes(unit).lower() in lexicon.abbreviations:
            break
        if unit[-1] == "." and unit[:-1].isdigit() and not last_unit:
            break  # ordinal number, e.g. "31." in a date
        trailing.append(unit[-1])
        unit = unit[:-1]
    trailing.reverse()
    return leading, unit, trailing


def _default_hint(form: str) -> str | None:
    """Fallback UPOS hint for segments the lexicon says nothing about."""
    if form.isdigit():
        return "NUM"
    if form.isalpha():
        return None
    categories = {unicodedata.category(c)[0] for c in form}
    if form == "%" or categories == {"S"}:
        return "SYM"
    if categories == {"P"}:
        return "PUNCT"
    return None


def _segment_unit(unit: str, nxt: str | None, lexicon: TokenizerLexicon):
    """Segment one whitespace unit given the unit after it (None at the end
    of the sentence).

    Returns (rows, span): one (form, UPOS, MISC) row per token in order,
    whose columns pass Token's checks, and the unit's multi-word token as
    (first, last, surface, MISC) with token positions counted from 1 within
    the unit, or None.
    """
    leading, core, trailing = _strip_punct(unit, lexicon, nxt is None)
    pieces: list[Part] = [(ch, _default_hint(ch)) for ch in leading]
    mwt = range(0)
    # both patterns start with \d, which matches exactly what isdecimal does
    numeric = unit_match = None
    if core[0].isdecimal():
        numeric = _RANGE_RE.match(core)
        unit_match = _NUMBER_UNIT_RE.match(core)
    if numeric:
        pieces.extend(zip(numeric.groups(), ("NUM", "ADP", "NUM")))
    elif unit_match and \
            fold_apostrophes(unit_match.group(2)).lower() in lexicon.units:
        pieces.append((unit_match.group(1), "NUM"))
        pieces.append((unit_match.group(2), "NOUN"))
    else:
        seg = segment_token(core, lexicon,
                            SegmentationContext(next_surface=nxt))
        if seg.kind == KIND_MWT:
            mwt = range(len(pieces), len(pieces) + len(seg.parts))
            pieces.extend(seg.parts)
        else:
            pieces.extend((form, hint or _default_hint(form))
                          for form, hint in seg.parts)
    pieces.extend((ch, _default_hint(ch)) for ch in trailing)

    # pieces of one unit are glued together, whitespace follows the
    # last; an MWT carries its SpaceAfter=No on the span line
    last = len(pieces) - 1
    rows = tuple((form, hint or "X",
                  "_" if i == last or i in mwt else "SpaceAfter=No")
                 for i, (form, hint) in enumerate(pieces))
    for row in rows:
        _check_columns(_ROW_COLUMNS, row)
    span = None
    if mwt:
        span = (mwt.start + 1, mwt.stop, core,
                "SpaceAfter=No" if mwt.stop <= last else "_")
    return rows, span


def tokenize_sentence(raw: str, lexicon: TokenizerLexicon) -> Sentence:
    """Tokenize one plain-text sentence into a CoNLL-U skeleton.

    Splits on whitespace, detaches outer punctuation (except abbreviation
    periods), separates numeric ranges and number+unit sequences, then runs
    segment_token on each remaining unit. The skeleton has forms, UPOS
    hints (X when unknown), MWT spans and SpaceAfter=No; heads and deprels
    are placeholders until attach_skeleton_heads is applied.

    A unit depends on the next unit only through two bits (is it a full 1pl
    pronoun, is it a nominalised infinitive) and on whether there is one, so
    each distinct (unit, bits) is segmented once per lexicon, and its token
    columns are checked once.
    """
    if not raw.strip():
        raise EmptyInputError("input is empty or whitespace-only")

    memo = lexicon._unit_memo
    nominalized = lexicon.nominalized_infinitives
    tokens: list[Token] = []
    spans: list[MwtSpan] = []
    units = raw.split()
    # no code point gains or loses whitespace when folded and lower-cased,
    # so next_keys[i] is the lookup form of units[i]
    next_keys = fold_apostrophes(raw).lower().split()
    for unit, nxt, next_key in zip(units, units[1:] + [None],
                                   next_keys[1:] + [None]):
        bits = None if nxt is None else (next_key in FULL_1PL_PRONOUNS,
                                         next_key in nominalized)
        entry = memo.get((unit, bits))
        if entry is None:
            if len(memo) >= UNIT_MEMO_LIMIT:
                memo.clear()
            entry = memo[unit, bits] = _segment_unit(unit, nxt, lexicon)
        rows, span = entry

        base = len(tokens)
        for token_id, (form, upos, misc) in enumerate(rows, base + 1):
            tokens.append(_unchecked_token(token_id, form, "_", upos, "_", "_",
                                           0, "dep", "_", misc, 0))
        if span:
            first, last, core, misc = span
            spans.append(MwtSpan(base + first, base + last, core, misc))

    return Sentence(tokens=tokens, mwt_spans=spans)


def attach_skeleton_heads(s: Sentence) -> Sentence:
    """Give a tokenizer skeleton a valid placeholder tree: the first
    non-punctuation token is the root, later content tokens chain to the
    previous content token with deprel "dep", punctuation attaches to the
    previous content token (the first one if none precedes) with deprel
    "punct". Without content tokens, token 1 is the root."""
    first_content = next((t.id for t in s.tokens if t.upos != "PUNCT"), 0)
    prev_content = 0
    for t in s.tokens:
        if t.upos != "PUNCT":
            t.head = prev_content
            t.deprel = "root" if prev_content == 0 else "dep"
            prev_content = t.id
        elif first_content:
            t.head, t.deprel = prev_content or first_content, "punct"
        elif t.id == 1:
            t.head, t.deprel = 0, "root"
        else:
            t.head, t.deprel = 1, "punct"
    return s
