"""Bavarian segmentation: decide per whitespace unit whether it stays one
token, splits into a multi-word token, or splits into adjacent tokens
joined with SpaceAfter=No.

All splitting knowledge lives in a lexicon data file; Bavarian spelling is
unstandardized, so users extend the data rather than the code. Splits are
substring splits: part forms always concatenate back to the input.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from importlib import resources

from .conllu import MwtSpan, Sentence, Token, make_sentence

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
    surface: str
    note: str | None = None

    def forms(self) -> tuple[str, ...]:
        return tuple(form for form, _ in self.parts)


def _intact(surface: str, hint: str | None = None,
            note: str | None = None) -> SegmentationResult:
    return SegmentationResult(KIND_INTACT, ((surface, hint),), surface, note)


@dataclass
class TokenizerLexicon:
    """Lookup tables driving segment_token; read-only after load."""

    fused_adp_det: dict[str, tuple[Part, ...]] = field(default_factory=dict)
    fused_inf: dict[str, tuple[Part, ...]] = field(default_factory=dict)
    clitic_onsets: dict[str, str | None] = field(default_factory=dict)
    pronoun_clitics: dict[str, tuple[Part, ...]] = field(default_factory=dict)
    sandhi_splits: dict[str, tuple[Part, ...]] = field(default_factory=dict)
    compagr_hosts: set[str] = field(default_factory=set)
    ma_forms: dict[str, tuple[Part, ...]] = field(default_factory=dict)
    review_forms: set[str] = field(default_factory=set)
    abbreviations: set[str] = field(default_factory=set)
    abbreviations_folded: set[str] = field(default_factory=set)
    intact_forms: dict[str, str | None] = field(default_factory=dict)
    nominalized_infinitives: set[str] = field(default_factory=set)
    units: set[str] = field(default_factory=set)
    terminal_parts: set[str] = field(default_factory=set)

    def split_surfaces(self) -> list[str]:
        """All surfaces for which some splitting rule fires."""
        keys = set(self.fused_adp_det) | set(self.fused_inf)
        keys |= set(self.pronoun_clitics) | set(self.sandhi_splits)
        keys |= set(self.ma_forms)
        return sorted(keys)


def _parse_parts(parts_field: str, hints_field: str, surface: str,
                 line_no: int) -> tuple[Part, ...]:
    forms = parts_field.split(" ")
    hints = hints_field.split(" ") if hints_field != "_" else ["_"] * len(forms)
    if len(hints) != len(forms):
        raise ValueError(f"lexicon line {line_no}: {len(forms)} parts but "
                         f"{len(hints)} hints")
    if "".join(forms) != surface:
        raise ValueError(f"lexicon line {line_no}: parts do not concatenate "
                         f"to surface {surface!r}")
    return tuple((f, None if h == "_" else h) for f, h in zip(forms, hints))


def load_lexicon(source) -> TokenizerLexicon:
    """Load a lexicon from tab-separated text (a string, stream, or path)."""
    if hasattr(source, "read"):
        text = source.read()
    elif "\n" in source or "\t" in source:
        text = source
    else:
        with open(source, encoding="utf-8") as f:
            text = f.read()

    lex = TokenizerLexicon()
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 4:
            raise ValueError(f"lexicon line {line_no}: expected 4 tab-separated "
                             f"columns, got {len(cols)}")
        surface, kind, parts_field, hints_field = cols
        key = fold_apostrophes(surface)
        if kind == "mwt":
            lex.fused_adp_det[key] = _parse_parts(parts_field, hints_field,
                                                  surface, line_no)
        elif kind == "mwt-inf":
            lex.fused_inf[key] = _parse_parts(parts_field, hints_field,
                                              surface, line_no)
        elif kind == "onset":
            hint = hints_field.split(" ")[0]
            lex.clitic_onsets[key] = None if hint == "_" else hint
        elif kind == "clitic":
            lex.pronoun_clitics[key] = _parse_parts(parts_field, hints_field,
                                                    surface, line_no)
        elif kind == "sandhi":
            lex.sandhi_splits[key] = _parse_parts(parts_field, hints_field,
                                                  surface, line_no)
        elif kind == "host":
            lex.compagr_hosts.add(key)
        elif kind == "ma-form":
            lex.ma_forms[key] = _parse_parts(parts_field, hints_field,
                                             surface, line_no)
        elif kind == "review":
            lex.review_forms.add(key)
        elif kind == "abbrev":
            lex.abbreviations.add(key)
        elif kind == "intact":
            lex.intact_forms[key] = (None if hints_field == "_"
                                     else hints_field.split(" ")[0])
        elif kind == "nominf":
            lex.nominalized_infinitives.add(key)
        elif kind == "unit":
            lex.units.add(key)
        else:
            raise ValueError(f"lexicon line {line_no}: unknown kind {kind!r}")

    for table in (lex.fused_adp_det, lex.fused_inf, lex.pronoun_clitics,
                  lex.sandhi_splits, lex.ma_forms):
        for parts in table.values():
            lex.terminal_parts.update(fold_apostrophes(f) for f, _ in parts)
    lex.terminal_parts.update(lex.clitic_onsets)
    lex.abbreviations_folded = {a.lower() for a in lex.abbreviations}

    split_keys = set(lex.split_surfaces())
    clash = split_keys & lex.terminal_parts
    if clash:
        raise ValueError(f"lexicon entries are also split parts: {sorted(clash)}")
    return lex


def default_lexicon() -> TokenizerLexicon:
    data = resources.files("maibaam_lint.data").joinpath("lexicon.tsv")
    return load_lexicon(data.read_text(encoding="utf-8"))


def _lookup_keys(surface: str) -> list[str]:
    """Exact match first, then one case-folded retry."""
    key = fold_apostrophes(surface)
    folded = key.lower()
    return [key] if folded == key else [key, folded]


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
    ctx = context or SegmentationContext()
    keys = _lookup_keys(surface)

    for key in keys:
        if key in lexicon.terminal_parts and key not in lexicon.clitic_onsets:
            return _intact(surface)
        if key in lexicon.intact_forms:
            return _intact(surface, lexicon.intact_forms[key])
        if key in lexicon.review_forms:
            return _intact(surface, note="review")

    suffix = match_agreement_suffix(surface, lexicon)
    if suffix is not None:
        if suffix != "ma":
            return _intact(surface, "SCONJ")
        next_key = (fold_apostrophes(ctx.next_surface).lower()
                    if ctx.next_surface else None)
        if next_key in FULL_1PL_PRONOUNS:
            # doubly marked 1pl: the ending is inflection, keep it
            return _intact(surface, "SCONJ")
        # single-marked 1pl -ma splits off as a pronoun
        for key in keys:
            if key in lexicon.ma_forms:
                return SegmentationResult(
                    KIND_SPACE_AFTER_NO,
                    _carve(surface, lexicon.ma_forms[key]), surface)
        return SegmentationResult(
            KIND_SPACE_AFTER_NO,
            ((surface[:-2], "SCONJ"), (surface[-2:], "PRON")), surface)

    infinitive_context = ctx.infinitive
    if infinitive_context is None and ctx.next_surface:
        next_key = fold_apostrophes(ctx.next_surface).lower()
        infinitive_context = next_key in lexicon.nominalized_infinitives

    for key in keys:
        if infinitive_context and key in lexicon.fused_inf:
            return SegmentationResult(
                KIND_MWT, _carve(surface, lexicon.fused_inf[key]), surface)
        if key in lexicon.fused_adp_det:
            return SegmentationResult(
                KIND_MWT, _carve(surface, lexicon.fused_adp_det[key]), surface)
        if key in lexicon.fused_inf:
            return SegmentationResult(
                KIND_MWT, _carve(surface, lexicon.fused_inf[key]), surface)

    for key in keys:
        for onset in sorted(lexicon.clitic_onsets, key=len, reverse=True):
            if key.startswith(onset) and len(key) > len(onset):
                head = surface[:len(onset)]
                rest = surface[len(onset):]
                return SegmentationResult(
                    KIND_SPACE_AFTER_NO,
                    ((head, lexicon.clitic_onsets[onset]), (rest, None)),
                    surface)

    for key in keys:
        if key in lexicon.pronoun_clitics:
            return SegmentationResult(
                KIND_SPACE_AFTER_NO,
                _carve(surface, lexicon.pronoun_clitics[key]), surface)

    for key in keys:
        if key in lexicon.sandhi_splits:
            return SegmentationResult(
                KIND_SPACE_AFTER_NO,
                _carve(surface, lexicon.sandhi_splits[key]), surface)

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
                fold_apostrophes(unit).lower() in lexicon.abbreviations_folded:
            break
        if unit[-1] == "." and unit[:-1].isdigit() and not last_unit:
            break  # ordinal number, e.g. "31." in a date
        trailing.append(unit[-1])
        unit = unit[:-1]
    trailing.reverse()
    return leading, unit, trailing


def _split_numeric(core: str) -> list[tuple[str, str | None]] | None:
    m = _RANGE_RE.match(core)
    if m:
        return [(m.group(1), "NUM"), (m.group(2), "ADP"), (m.group(3), "NUM")]
    return None


def _punct_hint(ch: str) -> str:
    return "SYM" if ch == "%" else "PUNCT"


def _default_hint(form: str) -> str | None:
    """Fallback UPOS hint for segments the lexicon says nothing about."""
    if form.isdigit():
        return "NUM"
    categories = {unicodedata.category(c)[0] for c in form}
    if form == "%" or categories == {"S"}:
        return "SYM"
    if categories == {"P"}:
        return "PUNCT"
    return None


def tokenize_sentence(raw: str, lexicon: TokenizerLexicon) -> Sentence:
    """Tokenize one plain-text sentence into a CoNLL-U skeleton.

    Splits on whitespace, detaches outer punctuation (except abbreviation
    periods), separates numeric ranges and number+unit sequences, then runs
    segment_token on each remaining unit. The skeleton has forms, UPOS
    hints (X when unknown), MWT spans and SpaceAfter=No; heads and deprels
    are placeholders until attach_skeleton_heads is applied.
    """
    if not raw.strip():
        raise EmptyInputError("input is empty or whitespace-only")

    # (form, hint, glue_to_next, mwt_group) with mwt_group identifying
    # parts that share one multi-word surface token
    pieces: list[tuple[str, str | None, bool, tuple[str, int] | None]] = []
    mwt_counter = 0

    units = raw.split()
    for u_idx, unit in enumerate(units):
        leading, core, trailing = _strip_punct(unit, lexicon,
                                               u_idx == len(units) - 1)
        unit_pieces: list[tuple[str, str | None, tuple[str, int] | None]] = []
        for ch in leading:
            unit_pieces.append((ch, _punct_hint(ch), None))

        numeric = _split_numeric(core)
        unit_match = _NUMBER_UNIT_RE.match(core)
        if numeric:
            unit_pieces.extend((form, hint, None) for form, hint in numeric)
        elif unit_match and \
                fold_apostrophes(unit_match.group(2)).lower() in lexicon.units:
            unit_pieces.append((unit_match.group(1), "NUM", None))
            unit_pieces.append((unit_match.group(2), "NOUN", None))
        elif core:
            nxt = units[u_idx + 1] if u_idx + 1 < len(units) else None
            seg = segment_token(core, lexicon,
                                SegmentationContext(next_surface=nxt))
            if seg.kind == KIND_MWT:
                mwt_counter += 1
                group = (seg.surface, mwt_counter)
                unit_pieces.extend((form, hint, group)
                                   for form, hint in seg.parts)
            else:
                unit_pieces.extend((form, hint or _default_hint(form), None)
                                   for form, hint in seg.parts)

        for ch in trailing:
            unit_pieces.append((ch, _punct_hint(ch), None))

        # pieces of one unit are glued together; whitespace follows the last
        for p_idx, (form, hint, group) in enumerate(unit_pieces):
            pieces.append((form, hint, p_idx != len(unit_pieces) - 1, group))

    tokens: list[Token] = []
    spans: list[MwtSpan] = []
    open_group: tuple[str, int] | None = None
    group_first = 0
    for form, hint, glue, group in pieces:
        token_id = len(tokens) + 1
        if group != open_group:
            if open_group is not None:
                spans.append(MwtSpan(group_first, token_id - 1, open_group[0]))
            open_group, group_first = group, token_id
        misc: list[tuple[str, str | None]] = []
        if glue and group is None:
            misc.append(("SpaceAfter", "No"))
        tokens.append(Token(
            id=token_id, form=form, upos=hint or "X", head=0, deprel="dep",
            misc=misc,
        ))
    if open_group is not None:
        spans.append(MwtSpan(group_first, len(tokens), open_group[0]))

    # SpaceAfter=No belongs on the MWT line when the whole surface is glued
    piece_glue = {i + 1: glue for i, (_, _, glue, _) in enumerate(pieces)}
    for span in spans:
        if piece_glue.get(span.last_id) and span.last_id != len(tokens):
            span.misc.append(("SpaceAfter", "No"))

    return make_sentence(metadata=[], tokens=tokens, mwt_spans=spans)


def attach_skeleton_heads(s: Sentence) -> Sentence:
    """Give a tokenizer skeleton a valid placeholder tree: the first
    non-punctuation token is the root, later content tokens chain to the
    previous content token with deprel "dep", punctuation attaches to the
    nearest content token with deprel "punct"."""
    content = [t for t in s.tokens if t.upos != "PUNCT"]
    anchor_ids = [t.id for t in content] or [1]
    prev_content = 0
    for t in s.tokens:
        if t.upos != "PUNCT":
            t.head = prev_content
            t.deprel = "root" if prev_content == 0 else "dep"
            prev_content = t.id
        else:
            before = [i for i in anchor_ids if i < t.id]
            after = [i for i in anchor_ids if i > t.id]
            if before or after:
                t.head = before[-1] if before else after[0]
                t.deprel = "punct"
            elif t.id == 1:
                t.head, t.deprel = 0, "root"
            else:
                t.head, t.deprel = 1, "punct"
    return s
