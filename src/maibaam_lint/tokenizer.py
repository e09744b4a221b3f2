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
from collections import namedtuple

from .conllu import (MwtSpan, Sentence, Token, _check_columns, _Record,
                     _shown, _unchecked_token, read_text)

KIND_INTACT = "intact"
KIND_MWT = "mwt"
KIND_SPACE_AFTER_NO = "space_after_no"

APOSTROPHES = "'’´`ʼ"
# the apostrophes fold_apostrophes replaces: the ASCII ones, which are all
# an ASCII string can hold, then all of them
_ASCII_FOLDS = tuple(c for c in APOSTROPHES if c != "'" and c.isascii())
_ALL_FOLDS = _ASCII_FOLDS + tuple(c for c in APOSTROPHES if not c.isascii())

LEADING_PUNCT = set("\"„“”«»‹›¿¡([{/")
TRAILING_PUNCT = set(".,;:!?…\"“”«»‹›)]}/%")
_SENT_END_PUNCT = set(".!?…")

_RANGE_RE = re.compile(r"^(\d+)(-{1,2}|[‒–—―]+)(\d+)$")
_NUMBER_UNIT_RE = re.compile(r"^(\d+(?:[.,]\d+)?)([^\W\d_]+)$")

AGREEMENT_SUFFIXES = ("sd", "st", "ds")
FULL_1PL_PRONOUNS = frozenset({"mia", "mir"})

# the Token columns a tokenizer row sets; the others are constants
_ROW_COLUMNS = ("form", "upos", "misc")

# each lexicon kind -> (the TokenizerLexicon table it fills, what an entry
# adds there: split parts, a tuple of (form, UPOS hint) pairs; a UPOS hint
# or None; or the surface alone). The order is TokenizerLexicon._fields.
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

# the kinds that decide how a surface itself splits: a surface may be
# listed under one of them only, or under both readings of a fused form
_FUSED = {"mwt", "mwt-inf"}
_SELF_KINDS = _FUSED | {"clitic", "sandhi", "ma-form", "intact", "review"}

# the tables the tokenizer looks up lower-cased
_LOWER_CASED = {"abbreviations", "nominalized_infinitives", "units"}

# the tables whose entries split a surface into parts
_SPLIT_TABLES = tuple(name for name, adds in _LEXICON_KINDS.values()
                      if adds == "parts")

# tokenize_sentence's per-lexicon unit memo is emptied when it reaches this
# many entries, which bounds its memory on high-diversity text: an entry and
# its key take about 240 bytes on the benchmark's text, a full memo 16 MB
UNIT_MEMO_LIMIT = 2 ** 16


class EmptyInputError(ValueError):
    """Raised by tokenize_sentence for whitespace-only input."""


def fold_apostrophes(s: str) -> str:
    """s with every character of APOSTROPHES written as "'"."""
    for c in _ASCII_FOLDS if s.isascii() else _ALL_FOLDS:
        s = s.replace(c, "'")
    return s


def _table_key(name: str, surface: str) -> str:
    """The key under which TokenizerLexicon table name stores surface: the
    form its lookups read, apostrophes folded and, in _LOWER_CASED tables,
    lower-cased."""
    return fold_apostrophes(surface.lower() if name in _LOWER_CASED
                            else surface)


Part = tuple[str, str | None]


class SegmentationResult(namedtuple(
        "SegmentationResult", ("kind", "parts", "note"), defaults=(None,))):
    """Outcome of applying the splitting rules to one surface unit."""

    __slots__ = ()

    def forms(self) -> tuple[str, ...]:
        return tuple(form for form, _ in self.parts)


def _intact(surface: str, hint: str | None = None,
            note: str | None = None) -> SegmentationResult:
    return SegmentationResult(KIND_INTACT, ((surface, hint),), note)


def _keyed_tables(entries, path=None) -> dict:
    """The TokenizerLexicon tables of entries (kind, surface, value, line),
    taken in order, each stored under its _table_key. These are the rules
    of every lexicon, however it is made:
    - a surface is not empty;
    - a surface is listed once per kind, and under at most one of
      _SELF_KINDS, mwt with mwt-inf aside;
    - the part forms of a split entry are not empty and, apostrophes
      folded, join to its surface;
    - a split surface is not also a part form or an onset.
    The first entry that breaks one raises ValueError; with a path, as
    'PATH:LINE: message on line N', N naming the other entry's line."""
    def fail(line, message, other_line=None):
        if path is not None:
            message = f"{_shown(path)}:{line}: {message}"
            if other_line is not None:
                message += f" on line {other_line}"
        raise ValueError(message)

    tables = {name: set() if adds == "surface" else {}
              for name, adds in _LEXICON_KINDS.values()}
    kinds: dict[str, dict] = {}  # key -> {kind: first line}
    part_of: dict[str, tuple] = {}  # folded part or onset -> (what, line)
    for kind, surface, value, line in entries:
        if not surface:
            fail(line, "empty surface")
        name, adds = _LEXICON_KINDS[kind]
        key = _table_key(name, surface)
        lines = kinds.setdefault(key, {})
        for other, at in lines.items():
            pair = {kind, other}
            if other == kind or (pair <= _SELF_KINDS and pair != _FUSED):
                fail(line, f"{kind} surface {surface!r} is also listed as "
                     f"{other}", at)
        lines[kind] = line
        if adds == "parts":
            forms = [form for form, _ in value]
            if "" in forms:
                fail(line, f"empty part form in {' '.join(forms)!r}")
            if fold_apostrophes("".join(forms)) != key:
                fail(line, f"parts do not concatenate to surface {surface!r}")
            for form in forms:
                part_of.setdefault(fold_apostrophes(form), ("a part", line))
        elif kind == "onset":
            part_of.setdefault(key, ("an onset", line))
        if adds == "surface":
            tables[name].add(key)
        else:
            tables[name][key] = value
    for key, lines in kinds.items():
        split = [at for kind, at in lines.items()
                 if _LEXICON_KINDS[kind][1] == "parts"]
        if split and key in part_of:
            what, at = part_of[key]
            fail(split[0], f"split surface {key!r} is also {what}", at)
    return tables


class TokenizerLexicon(_Record):
    """Lookup tables driving segment_token.

    The constructor takes the tables of _LEXICON_KINDS by name only; a
    table left out is empty. A split table maps surfaces to (form, UPOS
    hint) pairs, clitic_onsets and intact_forms map them to a UPOS hint or
    None, and the other tables are sets of surfaces. The constructor keys
    and checks them as _keyed_tables does, so it raises load_lexicon's
    message without the file and lines. A table given as a str, or a
    surface that is not a str, raises TypeError naming the table. It
    derives terminal_parts (the onsets and every folded part form) and
    compiles the onset order, the agreement-ending table and the set of
    keys any rule reads.
    Read-only after construction: tokenize_sentence memoises its per-unit
    work on the lexicon, so later edits to a table are not seen.
    """

    _fields = tuple(name for name, _ in _LEXICON_KINDS.values())

    def __init__(self, **tables):
        self._check_names(tables)
        for name, given in tables.items():
            if isinstance(given, str):
                raise TypeError(f"{name} got the str {given!r} where it "
                                "takes a collection")
            # before the sort below, which cannot order mixed types; the
            # least repr, so that the message does not depend on hashing
            wrong = sorted(repr(s) for s in given if not isinstance(s, str))
            if wrong:
                raise TypeError(f"surface {wrong[0]} in table {name} is not "
                                "a str")
        self._compile(_keyed_tables(
            (kind, surface, None if adds == "surface" else given[surface], None)
            for kind, (name, adds) in _LEXICON_KINDS.items()
            # sorted, so that a clash names the same surface on every run
            for given in [tables.get(name, ())] for surface in sorted(given)))

    def _compile(self, tables: dict) -> None:
        """Hold tables as _keyed_tables returns them, keyed and checked,
        and derive the rest from them."""
        vars(self).update(tables)
        self._unit_memo = {}
        self.terminal_parts = set(self.clitic_onsets).union(
            fold_apostrophes(form) for name in _SPLIT_TABLES
            for parts in getattr(self, name).values() for form, _ in parts)
        self._onsets = tuple(sorted(self.clitic_onsets, key=len, reverse=True))
        # surface -> ending; setdefault keeps the first ending in this order
        agreement = dict.fromkeys(self.ma_forms, "ma")
        for suffix in AGREEMENT_SUFFIXES + ("ma",):
            for host in self.compagr_hosts:
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


def _file_entries(path):
    """The entries of the lexicon file at path for _keyed_tables, read one
    line at a time; a line that is not an entry raises
    ValueError('PATH:LINE: message')."""
    name = _shown(path)
    for line_no, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        where = f"{name}:{line_no}"
        cols = line.split("\t")
        if len(cols) != 4:
            raise ValueError(f"{where}: expected 4 tab-separated columns, "
                             f"got {len(cols)}")
        surface, kind, parts_field, hints_field = cols
        if kind not in _LEXICON_KINDS:
            raise ValueError(f"{where}: unknown kind {kind!r}")
        adds = _LEXICON_KINDS[kind][1]
        hints = [None if h == "_" else h for h in hints_field.split(" ")]
        value = hints[0] if adds == "hint" else None
        if adds == "parts":
            forms = parts_field.split(" ")
            if hints_field == "_":
                hints *= len(forms)
            if len(hints) != len(forms):
                raise ValueError(f"{where}: {len(forms)} parts but "
                                 f"{len(hints)} hints")
            value = tuple(zip(forms, hints))
        yield kind, surface, value, line_no


def load_lexicon(path: str | os.PathLike) -> TokenizerLexicon:
    """Load a lexicon from the file at path. A malformed line, or the first
    line that breaks a rule of _keyed_tables, raises
    ValueError('PATH:LINE: message'). For lexicon text in memory, write a
    file or build TokenizerLexicon from its tables."""
    lexicon = TokenizerLexicon.__new__(TokenizerLexicon)
    lexicon._compile(_keyed_tables(_file_entries(path), path))
    return lexicon


def default_lexicon() -> TokenizerLexicon:
    """The packaged lexicon, data/lexicon.tsv beside this module."""
    return load_lexicon(os.path.join(os.path.dirname(__file__), "data",
                                     "lexicon.tsv"))


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


def segment_token(surface: str, lexicon: TokenizerLexicon,
                  next_surface: str | None = None) -> SegmentationResult:
    """Apply the highest-priority applicable splitting rule to one unit.
    next_surface is the unit after it; a nominalized infinitive there
    selects the infinitival MWT reading.

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

    for key in keys:
        if key in lexicon.terminal_parts and key not in lexicon.clitic_onsets:
            return _intact(surface)
        if key in lexicon.intact_forms:
            return _intact(surface, lexicon.intact_forms[key])
        if key in lexicon.review_forms:
            return _intact(surface, note="review")

    next_key = fold_apostrophes(next_surface).lower() if next_surface else None
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

    fused = (lexicon.fused_adp_det, lexicon.fused_inf)
    if next_key in lexicon.nominalized_infinitives:
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

    Returns one flat tuple, the smallest thing to keep in the memo: the
    form, UPOS and MISC of each token in order, columns that pass Token's
    checks, then the unit's multi-word token as (first, last, surface,
    MISC) with token positions counted from 1 within the unit, or None.
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
        seg = segment_token(core, lexicon, nxt)
        if seg.kind == KIND_MWT:
            mwt = range(len(pieces), len(pieces) + len(seg.parts))
            pieces.extend(seg.parts)
        else:
            for form, hint in seg.parts:
                pieces.append((form, hint or _default_hint(form)))
    for ch in trailing:
        pieces.append((ch, _default_hint(ch)))

    # pieces of one unit are glued together, whitespace follows the
    # last; an MWT carries its SpaceAfter=No on the span line
    last = len(pieces) - 1
    columns = []
    for i, (form, hint) in enumerate(pieces):
        row = (form, hint or "X",
               "_" if i == last or i in mwt else "SpaceAfter=No")
        _check_columns(_ROW_COLUMNS, row)
        columns.extend(row)
    span = None
    if mwt:
        span = (mwt.start + 1, mwt.stop, core,
                "SpaceAfter=No" if mwt.stop <= last else "_")
    columns.append(span)
    return tuple(columns)


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
    columns are checked once. The memo keys the common case, a next unit
    with neither bit, by the unit string alone, and the others by a tuple,
    so most lookups build no key.
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
        if nxt is None:
            key = (unit,)
        elif next_key in FULL_1PL_PRONOUNS or next_key in nominalized:
            key = (unit, next_key in FULL_1PL_PRONOUNS,
                   next_key in nominalized)
        else:
            key = unit
        entry = memo.get(key)
        if entry is None:
            if len(memo) >= UNIT_MEMO_LIMIT:
                memo.clear()
            entry = memo[key] = _segment_unit(unit, nxt, lexicon)

        base = len(tokens)
        # zip stops at the span, which is left after the last whole row
        columns = iter(entry)
        for token_id, (form, upos, misc) in enumerate(
                zip(columns, columns, columns), base + 1):
            tokens.append(_unchecked_token(token_id, form, "_", upos, "_", "_",
                                           0, "dep", "_", misc, 0))
        span = entry[-1]
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
