"""CoNLL-U data model, parser and serializer.

The parser is strict about the line format (so that everything it accepts
round-trips byte-for-byte) and lenient about annotation content: anything
that is merely against the annotation guidelines is reported later as a
diagnostic, never as a parse failure.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from dataclasses import dataclass, field

COLUMN_COUNT = 10

# characters per chunk of lines the parser holds at a time (a chunk runs on
# to the end of its last line)
_CHUNK_CHARS = 1 << 16

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_REVIEW = "review"
SEVERITY_RANK = {SEVERITY_REVIEW: 0, SEVERITY_WARNING: 1, SEVERITY_ERROR: 2}

# canonical ASCII integers only, so that every accepted id or head
# serializes back to the same characters
_MWT_ID_RE = re.compile(r"^([1-9][0-9]*)-([1-9][0-9]*)$")
_EMPTY_NODE_ID_RE = re.compile(r"^(0|[1-9][0-9]*)\.[1-9][0-9]*$")
_METADATA_RE = re.compile(r"^# ([A-Za-z_][A-Za-z0-9_.-]*) = (.*)$")


class ParseError(Exception):
    """Raised for input that is not well-formed CoNLL-U."""

    def __init__(self, code: str, message: str, file: str, line: int):
        super().__init__(f"{file}:{line}: {code}: {message}")
        self.code = code
        self.file = file
        self.line = line


def not_utf8(name: str, exc: UnicodeDecodeError) -> str:
    """The one message for input that is not UTF-8, naming the input and
    the line of the first bad byte: 'NAME:LINE: not UTF-8: REASON 0xNN'.
    exc comes from decoding the whole input at once."""
    line = exc.object.count(b"\n", 0, exc.start) + 1
    return (f"{name}:{line}: not UTF-8: {exc.reason} "
            f"0x{exc.object[exc.start]:02x}")


def read_text(path: str | os.PathLike) -> str:
    """A UTF-8 text file read whole, with universal newlines. A file that is
    not UTF-8 raises ValueError with not_utf8's message."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise ValueError(not_utf8(path, exc)) from None


def column_value(col: str, key: str) -> str | None:
    """Value of the first ``key=value`` entry of a FEATS or MISC column.

    Entries without "=" are skipped; "_" has no entries. ``key`` holds no
    "|". Finds ``key=`` at an entry boundary instead of splitting the column.
    """
    prefix = key + "="
    at = col.find(prefix)
    while at > 0 and col[at - 1] != "|":
        at = col.find(prefix, at + 1)
    if at == -1:
        return None
    start = at + len(prefix)
    end = col.find("|", start)
    return col[start:] if end == -1 else col[start:end]


def _line_chunks(text: str, stop: int):
    """Yield text[:stop].split("\n") as consecutive lists, each holding the
    lines of about _CHUNK_CHARS characters and ending at a line break.

    Only a chunk's own characters are copied, and a "\n" at stop is split
    off, not sliced off. A text of up to two chunks is split whole: cutting
    it would copy about a chunk to shorten the list by about as much.
    """
    start = 0
    while stop > 2 * _CHUNK_CHARS and stop - start > _CHUNK_CHARS:
        end = text.find("\n", start + _CHUNK_CHARS, stop)
        if end == -1:
            break
        yield text[start:end].split("\n")
        start = end + 1
    if stop < len(text) and text[stop] == "\n":
        lines = text[start:stop + 1].split("\n")
        lines.pop()
        yield lines
    else:
        yield text[start:stop].split("\n")


_TOKEN_COLUMNS = ("form", "upos", "deprel", "misc", "lemma_col", "xpos_col",
                  "feats_col", "deps_col")
_MWT_COLUMNS = ("surface_form", "misc") + ("other_cols",) * 7


def _check_columns(names: tuple[str, ...], cols: tuple[str, ...]) -> None:
    """Reject a raw column the parser would not read back: an empty one, one
    holding a tab or LF, or a misc (the last column) ending in CR, which
    would write a CRLF line end. Printable text passes at once; other text
    is checked column by column."""
    if "" in cols or not "".join(cols).isprintable():
        for name, col in zip(names, cols):
            if (not col or "\t" in col or "\n" in col
                    or (name == "misc" and col.endswith("\r"))):
                raise ValueError(f"bad {name} column: {col!r}")


@dataclass(slots=True)
class Token:
    """One syntactic word (a regular CoNLL-U node line)."""

    id: int
    form: str
    upos: str
    head: int
    deprel: str
    misc: str = "_"
    lemma_col: str = "_"
    xpos_col: str = "_"
    feats_col: str = "_"
    deps_col: str = "_"
    line: int = 0

    def __post_init__(self):
        if self.id < 1:
            raise ValueError(f"token id must be >= 1, got {self.id}")
        if self.head < 0:
            raise ValueError(f"token head must be >= 0, got {self.head}")
        _check_columns(_TOKEN_COLUMNS, (
            self.form, self.upos, self.deprel, self.misc, self.lemma_col,
            self.xpos_col, self.feats_col, self.deps_col))

    def misc_value(self, key: str) -> str | None:
        return column_value(self.misc, key)

    @property
    def german_lemma(self) -> str | None:
        return column_value(self.misc, "GermanLemma")

    def feats_value(self, key: str) -> str | None:
        return column_value(self.feats_col, key)


@dataclass(slots=True)
class MwtSpan:
    """A multi-word token: one surface range covering consecutive token ids."""

    first_id: int
    last_id: int
    surface_form: str
    misc: str = "_"
    other_cols: tuple[str, ...] = ("_",) * 7
    line: int = 0

    def __post_init__(self):
        if self.first_id < 1 or self.last_id < self.first_id:
            raise ValueError(f"bad mwt range {self.first_id}-{self.last_id}")
        if len(self.other_cols) != 7:
            raise ValueError(f"other_cols must hold 7 columns, got "
                             f"{len(self.other_cols)}")
        _check_columns(_MWT_COLUMNS,
                       (self.surface_form, self.misc, *self.other_cols))

    def misc_value(self, key: str) -> str | None:
        return column_value(self.misc, key)


@dataclass
class EmptyNodeLine:
    """An enhanced-dependency empty node, kept verbatim for round-tripping."""

    anchor: int  # integer part of the decimal id; 0 sorts before token 1
    raw: str
    line: int = 0


@dataclass
class Sentence:
    """Ordered tokens plus MWT spans and sentence-level metadata."""

    tokens: list[Token] = field(default_factory=list)
    mwt_spans: list[MwtSpan] = field(default_factory=list)
    metadata: list[tuple[str, str]] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)
    empty_nodes: list[EmptyNodeLine] = field(default_factory=list)
    file: str = "<string>"
    line: int = 0

    def metadata_value(self, key: str) -> str | None:
        for k, v in self.metadata:
            if k == key:
                return v
        return None

    @property
    def sent_id(self) -> str:
        return self.metadata_value("sent_id") or ""

    def token_by_id(self, token_id: int) -> Token | None:
        if 1 <= token_id <= len(self.tokens):
            return self.tokens[token_id - 1]
        return None


@dataclass
class Document:
    """A parsed CoNLL-U file; serialization reproduces the input exactly."""

    sentences: list[Sentence] = field(default_factory=list)
    trailing_comments: list[str] = field(default_factory=list)
    file: str = "<string>"
    bom: bool = False
    final_newline: bool = True


class Diagnostic(namedtuple("Diagnostic", (
        "rule_id", "severity", "file", "line", "sentence_id", "token_id",
        "message", "guideline_ref"), defaults=(None,))):
    """One finding, an immutable named tuple; token_id and guideline_ref
    may be None. Checks return findings unsorted; a report sorts them once
    by sort_key, (file, line, token_id, rule_id, message), not by the
    tuple's field order. A tuple rather than
    a frozen dataclass because one is built per finding, and a frozen
    dataclass's __init__ sets each field through object.__setattr__."""

    __slots__ = ()

    @property
    def sort_key(self) -> tuple:
        return (self.file, self.line, self.token_id or 0, self.rule_id,
                self.message)


_new = object.__new__


def _unchecked_token(token_id: int, form: str, lemma_col: str, upos: str,
                     xpos_col: str, feats_col: str, head: int, deprel: str,
                     deps_col: str, misc: str, line: int) -> Token:
    """A Token from columns in CoNLL-U order that its caller has checked,
    built without re-running the constructor's checks."""
    t = _new(Token)
    t.id = token_id
    t.form = form
    t.lemma_col = lemma_col
    t.upos = upos
    t.xpos_col = xpos_col
    t.feats_col = feats_col
    t.head = head
    t.deprel = deprel
    t.deps_col = deps_col
    t.misc = misc
    t.line = line
    return t


def _parsed_span(cols: list[str], first: int, last: int,
                 line_no: int) -> MwtSpan:
    """An MwtSpan from a range line the parser has checked, built like
    _unchecked_token."""
    span = _new(MwtSpan)
    span.first_id = first
    span.last_id = last
    span.surface_form = cols[1]
    span.misc = cols[9]
    span.other_cols = tuple(cols[2:9])
    span.line = line_no
    return span


def parse_document(source, file_name: str = "<string>") -> Document:
    """Parse CoNLL-U text (a string or a text stream) into a Document.

    Raises ParseError on malformed input: WRONG_COLUMN_COUNT, BAD_ID,
    UNTERMINATED_SENTENCE and a few stricter shape errors (EMPTY_FIELD,
    BAD_HEAD, ID_SEQUENCE, EMPTY_SENTENCE, EXTRA_BLANK_LINE,
    MISPLACED_COMMENT, CRLF_LINE_ENDING), each carrying file and line
    number. Empty input yields an empty Document. Content that is
    merely non-conformant (enhanced dependencies, empty nodes) is kept and
    reported later as lint diagnostics.
    """
    doc = Document(file=file_name)
    doc.sentences = list(iter_sentences(source, file_name, doc))
    return doc


def iter_sentences(source, file_name: str = "<string>",
                   doc: Document | None = None):
    """Yield the sentences of CoNLL-U text (a string or a text stream), each
    as soon as its closing blank line is read.

    The text is checked as parse_document checks it: a ParseError is raised
    when the malformed line is reached, after the sentences before it have
    been yielded. doc, if given, gets bom and final_newline before the
    first sentence and trailing_comments once the input has ended; its
    sentences are left alone. Besides the text it holds one chunk of lines
    (_line_chunks) and the sentence being read.
    """
    text = source.read() if hasattr(source, "read") else source
    if doc is None:
        doc = Document(file=file_name)
    doc.bom = text.startswith("\ufeff")
    if doc.bom:
        text = text[1:]

    crlf = text.find("\r\n")
    if crlf != -1:
        raise ParseError("CRLF_LINE_ENDING", "CRLF line ending (use LF)",
                         file_name, text.count("\n", 0, crlf) + 1)

    doc.final_newline = text.endswith("\n")
    chunks = _line_chunks(text, len(text) - doc.final_newline) if text else ()

    comments: list[str] = []
    tokens: list[Token] = []
    spans: list[MwtSpan] = []
    empties: list[EmptyNodeLine] = []
    start_line = 0
    pending_last = 0  # highest token id promised by an open MWT span
    line_no = 0

    for lines in chunks:
        for line in lines:
            line_no += 1
            if line == "":
                if tokens:
                    if pending_last > len(tokens):
                        raise ParseError("BAD_ID",
                                         "multiword range exceeds sentence length",
                                         file_name, spans[-1].line)
                    metadata = []
                    for c in comments:
                        m = _METADATA_RE.match(c)
                        if m:
                            metadata.append((m.group(1), m.group(2)))
                    yield Sentence(tokens=tokens, mwt_spans=spans,
                                   metadata=metadata, comments=comments,
                                   empty_nodes=empties, file=file_name,
                                   line=start_line)
                    comments, tokens, spans, empties = [], [], [], []
                    start_line = 0
                    pending_last = 0
                elif comments:
                    raise ParseError("EMPTY_SENTENCE",
                                     "comment block without token lines",
                                     file_name, line_no)
                else:
                    raise ParseError("EXTRA_BLANK_LINE", "stray blank line",
                                     file_name, line_no)
                continue

            if start_line == 0:
                start_line = line_no

            if line.startswith("#"):
                if tokens or spans or empties:
                    raise ParseError("MISPLACED_COMMENT",
                                     "comment after token lines", file_name, line_no)
                comments.append(line)
                continue

            cols = line.split("\t")
            if len(cols) != COLUMN_COUNT:
                raise ParseError("WRONG_COLUMN_COUNT",
                                 f"expected {COLUMN_COUNT} tab-separated fields, "
                                 f"got {len(cols)}",
                                 file_name, line_no)
            if "" in cols:
                raise ParseError("EMPTY_FIELD",
                                 f"field {cols.index('') + 1} is empty (use '_')",
                                 file_name, line_no)

            id_field = cols[0]
            if id_field.isdigit() and id_field.isascii() and id_field[0] != "0":
                token_id = int(id_field)
                if token_id != len(tokens) + 1:
                    raise ParseError("ID_SEQUENCE",
                                     f"expected token id {len(tokens) + 1}, "
                                     f"got {token_id}",
                                     file_name, line_no)
                head = cols[6]
                if not (head.isdigit() and head.isascii()
                        and (head[0] != "0" or head == "0")):
                    raise ParseError("BAD_HEAD", f"bad HEAD value {head!r}",
                                     file_name, line_no)
                tokens.append(_unchecked_token(
                    token_id, cols[1], cols[2], cols[3], cols[4], cols[5],
                    int(head), cols[7], cols[8], cols[9], line_no))
            elif m := _MWT_ID_RE.match(id_field):
                first, last = int(m.group(1)), int(m.group(2))
                if last < first:
                    raise ParseError("BAD_ID", f"reversed multiword range {id_field}",
                                     file_name, line_no)
                if first != len(tokens) + 1:
                    raise ParseError("ID_SEQUENCE",
                                     "multiword range must start at token "
                                     f"{len(tokens) + 1}",
                                     file_name, line_no)
                spans.append(_parsed_span(cols, first, last, line_no))
                pending_last = max(pending_last, last)
            elif m := _EMPTY_NODE_ID_RE.match(id_field):
                # the serializer writes empty node N.k right after token N
                anchor = int(m.group(1))
                if anchor != len(tokens) or (spans and spans[-1].first_id > anchor):
                    raise ParseError("ID_SEQUENCE",
                                     f"empty node {id_field} after token {len(tokens)}",
                                     file_name, line_no)
                empties.append(EmptyNodeLine(anchor=anchor, raw=line, line=line_no))
            else:
                raise ParseError("BAD_ID", f"bad ID field {id_field!r}",
                                 file_name, line_no)

    if tokens or spans or empties:
        raise ParseError("UNTERMINATED_SENTENCE",
                         "end of input without sentence-final blank line",
                         file_name, line_no)
    if comments:
        doc.trailing_comments = comments


def _sentence_lines(s: Sentence) -> list[str]:
    lines: list[str] = []
    if s.comments:
        lines.extend(s.comments)
    else:
        lines.extend(f"# {k} = {v}" for k, v in s.metadata)

    spans_by_first: dict[int, list[MwtSpan]] = {}
    for span in s.mwt_spans:
        spans_by_first.setdefault(span.first_id, []).append(span)
    empties_by_anchor: dict[int, list[EmptyNodeLine]] = {}
    for node in s.empty_nodes:
        empties_by_anchor.setdefault(node.anchor, []).append(node)

    if 0 in empties_by_anchor:
        lines.extend(node.raw for node in empties_by_anchor[0])
    for t in s.tokens:
        if t.id in spans_by_first:
            for span in spans_by_first[t.id]:
                lines.append("\t".join([f"{span.first_id}-{span.last_id}",
                                        span.surface_form, *span.other_cols,
                                        span.misc]))
        lines.append(f"{t.id}\t{t.form}\t{t.lemma_col}\t{t.upos}\t{t.xpos_col}"
                     f"\t{t.feats_col}\t{t.head}\t{t.deprel}\t{t.deps_col}"
                     f"\t{t.misc}")
        if t.id in empties_by_anchor:
            lines.extend(node.raw for node in empties_by_anchor[t.id])
    return lines


def serialize_document(doc: Document) -> str:
    """Render a Document back to CoNLL-U text.

    For documents produced by parse_document the output is byte-identical
    to the original input.
    """
    lines: list[str] = []
    for s in doc.sentences:
        lines.extend(_sentence_lines(s))
        lines.append("")
    lines.extend(doc.trailing_comments)
    if not lines:
        return "\ufeff" if doc.bom else ""
    body = "\n".join(lines) + ("\n" if doc.final_newline else "")
    return ("\ufeff" + body) if doc.bom else body


def reconstruct_text(s: Sentence) -> str:
    """Rebuild the sentence surface from token forms and SpaceAfter=No.

    MWT spans contribute their surface form once in place of the covered
    tokens; every other unit contributes its form. A single space follows
    each unit unless its MISC carries SpaceAfter=No; the last unit never
    takes a trailing space.
    """
    pieces: list[str] = []  # each unit's text, then " " or "" after it
    spans_by_first = {span.first_id: span for span in s.mwt_spans}
    tokens = s.tokens
    i = 1
    while i <= len(tokens):
        unit = spans_by_first.get(i)
        if unit is not None and unit.last_id <= len(tokens):
            pieces.append(unit.surface_form)
            i = unit.last_id + 1
        else:
            unit = tokens[i - 1]
            pieces.append(unit.form)
            i += 1
        misc = unit.misc
        pieces.append(" " if misc == "_"
                      or column_value(misc, "SpaceAfter") != "No" else "")
    return "".join(pieces[:-1])
