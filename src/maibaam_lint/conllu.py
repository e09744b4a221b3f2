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
from collections.abc import Iterable

COLUMN_COUNT = 10

# characters per piece of text the parser splits into lines at a time, and
# bytes per read of a command-line input
_CHUNK_CHARS = 1 << 16

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_REVIEW = "review"
SEVERITY_RANK = {SEVERITY_REVIEW: 0, SEVERITY_WARNING: 1, SEVERITY_ERROR: 2}

# canonical ASCII integers only, so that every accepted id or head
# serializes back to the same characters
_MWT_ID_RE = re.compile(r"^([1-9][0-9]*)-([1-9][0-9]*)$")
_EMPTY_NODE_ID_RE = re.compile(r"^(0|[1-9][0-9]*)\.[1-9][0-9]*$")
_METADATA_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")
_METADATA_RE = re.compile(rf"^# ({_METADATA_KEY_RE.pattern}) = (.*)$")
# canonical spellings of the ids and heads of sentences of up to 255 tokens:
# the parser looks an id or a head up here, and checks and converts only
# one it does not find; the lookup costs less than the checks and int()
_DECIMALS = {str(i): i for i in range(256)}


class ParseError(Exception):
    """Raised for input that is not well-formed CoNLL-U."""

    def __init__(self, code: str, message: str, file: str, line: int):
        super().__init__(f"{file}:{line}: {code}: {message}")
        self.code = code
        self.file = file
        self.line = line


def not_utf8(name: str, exc: UnicodeDecodeError, lines_before: int = 0) -> str:
    """The one message for input that is not UTF-8, naming the input and
    the line of the first bad byte: 'NAME:LINE: not UTF-8: REASON 0xNN'.
    exc comes from decoding the input whole, or from decoding the rest of
    it after lines_before lines."""
    line = lines_before + exc.object.count(b"\n", 0, exc.start) + 1
    return (f"{name}:{line}: not UTF-8: {exc.reason} "
            f"0x{exc.object[exc.start]:02x}")


# the C0 controls but TAB, DEL, and the other characters str.splitlines
# ends a line at, as _shown writes them
_LINE_BREAKING = {code: f"\\x{code:02x}" if code < 0x100 else f"\\u{code:04x}"
                  for code in (*range(0x09), *range(0x0a, 0x20), 0x7f, 0x85,
                               0x2028, 0x2029)}


def _shown(name: str | os.PathLike) -> str:
    """A file name as reports and error lines show it: each byte of it that
    is not UTF-8 (a surrogate escape in a name from argv) written as \\xNN,
    so that the name is UTF-8 text, and each character of _LINE_BREAKING as
    \\xNN or \\uNNNN, so that it is one line."""
    return os.fsdecode(name).encode("utf-8", "surrogateescape").decode(
        "utf-8", "backslashreplace").translate(_LINE_BREAKING)


def cannot_read(name: str, exc: OSError) -> str:
    """The one message for a file that cannot be opened or read:
    'cannot read NAME: REASON'."""
    return f"cannot read {name}: {exc.strerror or exc}"


def read_text(path: str | os.PathLike) -> str:
    """A UTF-8 text file read whole, with universal newlines and without
    the one byte-order mark it may start with. A file that cannot be read
    raises ValueError with cannot_read's message, and one that is not
    UTF-8 with not_utf8's, each naming the file as _shown shows it."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ValueError(not_utf8(_shown(path), exc)) from None
    except OSError as exc:
        raise ValueError(cannot_read(_shown(path), exc)) from None


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


def _split_lines(pieces: Iterable[str], file_name: str | None = None,
                 doc: Document | None = None):
    """Yield the lines of the text that pieces make up, as consecutive lists:
    text.split("\n") without the "" after a final "\n", a list for each
    piece that ends a line.

    Each piece is split on its own, and only its first line is glued to the
    line the pieces before left open. With a file_name, a CRLF line end
    raises ParseError at its line once the lines before it are out. With a
    doc, a byte-order mark opening the text is dropped and sets doc.bom,
    and doc.final_newline reads False until the pieces run out and then
    whether the text ends in "\n".
    """
    carry = [""]  # the line the pieces so far leave open, in parts
    line_no = 0  # lines yielded so far
    opening = doc is not None  # whether a BOM may come next
    if opening:
        doc.bom = doc.final_newline = False
    for piece in pieces:
        if opening and piece:
            opening = False
            if piece[0] == "\ufeff":
                doc.bom = True
                piece = piece[1:]
        if not piece:
            continue
        if file_name is not None:
            if piece[0] == "\n" and carry[-1].endswith("\r"):
                crlf = 0  # the open line ends in CR, this piece opens with LF
            else:
                crlf = piece.find("\r\n")
            if crlf != -1:
                lines = piece[:crlf].split("\n")
                lines[0] = "".join(carry) + lines[0]
                lines.pop()  # the start of the line the CRLF ends
                if lines:
                    yield lines
                raise ParseError("CRLF_LINE_ENDING", "CRLF line ending (use LF)",
                                 file_name, line_no + len(lines) + 1)
        lines = piece.split("\n")
        del piece  # a piece, and then its lines, are freed as soon as done
        carry.append(lines[0])
        if len(lines) == 1:
            continue  # the open line goes on; it is joined once, when it ends
        lines[0] = "".join(carry)
        carry = [lines.pop()]
        line_no += len(lines)
        yield lines
        del lines
    last = "".join(carry)
    if doc is not None:
        doc.final_newline = line_no > 0 and not last
    if last:
        yield [last]


_TOKEN_COLUMNS = ("form", "upos", "deprel", "misc", "lemma_col", "xpos_col",
                  "feats_col", "deps_col")
_MWT_COLUMNS = ("surface_form", "misc") + ("other_cols",) * 7


def _check_columns(names: tuple[str, ...],
                   cols: tuple[str, ...] | list[str]) -> None:
    """Reject a raw column the parser would not read back: an empty one, one
    holding a tab or LF, or a misc (the last column of a row) ending in CR,
    which would write a CRLF line end. names holds the name of each column
    in cols, so that one call can check several rows. Printable text
    passes at once; other text is checked column by column."""
    if "" in cols or not "".join(cols).isprintable():
        for name, col in zip(names, cols):
            if (not col or "\t" in col or "\n" in col
                    or (name == "misc" and col.endswith("\r"))):
                raise ValueError(f"bad {name} column: {col!r}")


class _Record:
    """Equality, repr and _replace over _fields, the constructor's
    arguments in order. == holds between records of one class only, and a
    record is unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in
                          zip(self._fields, self._values()))
        return f"{type(self).__name__}({shown})"

    def _replace(self, **changes):
        """A new record with changes applied to this one's fields, built
        through the constructor and so through its checks."""
        return type(self)(**{**{name: getattr(self, name)
                                for name in self._fields}, **changes})

    def _check_names(self, fields: dict) -> None:
        """Reject a keyword that names none of _fields; for constructors
        that take their fields by name only."""
        for name in fields:
            if name not in self._fields:
                raise TypeError(f"{type(self).__name__} got an unexpected "
                                f"argument {name!r}")


class Token(_Record):
    """One syntactic word (a regular CoNLL-U node line)."""

    __slots__ = _fields = ("id", "form", "upos", "head", "deprel", "misc",
                           "lemma_col", "xpos_col", "feats_col", "deps_col",
                           "line")

    def __init__(self, id: int, form: str, upos: str, head: int, deprel: str,
                 misc: str = "_", lemma_col: str = "_", xpos_col: str = "_",
                 feats_col: str = "_", deps_col: str = "_", line: int = 0):
        if id < 1:
            raise ValueError(f"token id must be >= 1, got {id}")
        if head < 0:
            raise ValueError(f"token head must be >= 0, got {head}")
        _check_columns(_TOKEN_COLUMNS, (form, upos, deprel, misc, lemma_col,
                                        xpos_col, feats_col, deps_col))
        self.id = id
        self.form = form
        self.upos = upos
        self.head = head
        self.deprel = deprel
        self.misc = misc
        self.lemma_col = lemma_col
        self.xpos_col = xpos_col
        self.feats_col = feats_col
        self.deps_col = deps_col
        self.line = line

    @property
    def german_lemma(self) -> str | None:
        return column_value(self.misc, "GermanLemma")


class MwtSpan(_Record):
    """A multi-word token: one surface range covering consecutive token ids."""

    __slots__ = _fields = ("first_id", "last_id", "surface_form", "misc",
                           "other_cols", "line")

    def __init__(self, first_id: int, last_id: int, surface_form: str,
                 misc: str = "_", other_cols: tuple[str, ...] = ("_",) * 7,
                 line: int = 0):
        if first_id < 1 or last_id < first_id:
            raise ValueError(f"bad mwt range {first_id}-{last_id}")
        if len(other_cols) != 7:
            raise ValueError(f"other_cols must hold 7 columns, got "
                             f"{len(other_cols)}")
        _check_columns(_MWT_COLUMNS, (surface_form, misc, *other_cols))
        self.first_id = first_id
        self.last_id = last_id
        self.surface_form = surface_form
        self.misc = misc
        self.other_cols = other_cols
        self.line = line


class EmptyNodeLine(namedtuple("EmptyNodeLine", ("anchor", "raw", "line"),
                               defaults=(0,))):
    """An enhanced-dependency empty node, kept verbatim for round-tripping.
    anchor is the integer part of the decimal id; 0 sorts before token 1."""

    __slots__ = ()


class Sentence(_Record):
    """Ordered tokens plus MWT spans and the sentence's comment block.

    metadata holds every comment line of the block, in order: a
    "# key = value" line as (key, value), any other as (None, line). The
    serializer writes it back line for line. A list left out is a new empty
    list."""

    _fields = ("tokens", "mwt_spans", "metadata", "empty_nodes", "file",
               "line")
    __slots__ = _fields + ("__weakref__",)

    def __init__(self, tokens: list[Token] | None = None,
                 mwt_spans: list[MwtSpan] | None = None,
                 metadata: list[tuple[str | None, str]] | None = None,
                 empty_nodes: list[EmptyNodeLine] | None = None,
                 file: str = "<string>", line: int = 0):
        self.tokens = [] if tokens is None else tokens
        self.mwt_spans = [] if mwt_spans is None else mwt_spans
        self.metadata = [] if metadata is None else metadata
        self.empty_nodes = [] if empty_nodes is None else empty_nodes
        self.file = file
        self.line = line

    def metadata_value(self, key: str) -> str | None:
        for k, v in self.metadata:
            if k == key:
                return v
        return None

    @property
    def sent_id(self) -> str:
        # read once per finding, so it scans without metadata_value's call
        for k, v in self.metadata:
            if k == "sent_id":
                return v or ""
        return ""

    def token_by_id(self, token_id: int) -> Token | None:
        if 1 <= token_id <= len(self.tokens):
            return self.tokens[token_id - 1]
        return None


class Document(_Record):
    """A parsed CoNLL-U file; serialization reproduces the input exactly."""

    __slots__ = _fields = ("sentences", "trailing_comments", "file", "bom",
                           "final_newline")

    def __init__(self, sentences: list[Sentence] | None = None,
                 trailing_comments: list[str] | None = None,
                 file: str = "<string>", bom: bool = False,
                 final_newline: bool = True):
        self.sentences = [] if sentences is None else sentences
        self.trailing_comments = ([] if trailing_comments is None
                                  else trailing_comments)
        self.file = file
        self.bom = bom
        self.final_newline = final_newline


class Diagnostic(namedtuple("Diagnostic", (
        "rule_id", "severity", "file", "line", "sentence_id", "token_id",
        "message", "guideline_ref"), defaults=(None,))):
    """One finding, an immutable named tuple; token_id and guideline_ref
    may be None. Checks return findings unsorted; a report sorts them once
    by sort_key, (file, line, token_id, rule_id, message), not by the
    tuple's field order. A tuple rather than a _Record because one is built
    per finding: a tuple is built in one call and is immutable for free."""

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


def parse_document(text: str | Iterable[str],
                   file_name: str = "<string>") -> Document:
    """Parse CoNLL-U text, a str or an iterable of str pieces, into a
    Document.

    Raises ParseError on malformed input: WRONG_COLUMN_COUNT, BAD_ID,
    UNTERMINATED_SENTENCE and a few stricter shape errors (EMPTY_FIELD,
    BAD_HEAD, ID_SEQUENCE, EMPTY_SENTENCE, EXTRA_BLANK_LINE,
    MISPLACED_COMMENT, CRLF_LINE_ENDING), each carrying file and line
    number; of several, the first the parser reaches. Empty input yields an
    empty Document. Content that is merely non-conformant (enhanced
    dependencies, empty nodes) is kept and reported later as lint
    diagnostics.
    """
    doc = Document(file=file_name)
    doc.sentences = list(iter_sentences(text, file_name, doc))
    return doc


def iter_sentences(text: str | Iterable[str], file_name: str = "<string>",
                   doc: Document | None = None):
    """Yield the sentences of CoNLL-U text, a str or an iterable of str
    pieces, each as soon as its closing blank line is read.

    The text is checked as parse_document checks it: a ParseError is raised
    when the malformed line is reached, after the sentences before it have
    been yielded. doc, if given, gets bom before the first sentence, and
    final_newline and trailing_comments once the input has ended; its
    sentences are left alone. Besides a str text it holds one piece (a str
    is cut into pieces of _CHUNK_CHARS characters), that piece's lines
    (_split_lines) and the sentence being read.
    """
    if doc is None:
        doc = Document(file=file_name)
    pieces = text
    if isinstance(text, str):
        pieces = (text[i:i + _CHUNK_CHARS]
                  for i in range(0, len(text), _CHUNK_CHARS))
    chunks = _split_lines(pieces, file_name, doc)

    decimal = _DECIMALS.get
    comments: list[str] = []
    tokens: list[Token] = []
    spans: list[MwtSpan] = []
    empties: list[EmptyNodeLine] = []
    start_line = 0
    line_no = 0

    for lines in chunks:
        for line in lines:
            line_no += 1
            if line == "":
                if tokens:
                    # the first range, in input order, that overruns
                    for span in spans:
                        if span.last_id > len(tokens):
                            raise ParseError(
                                "BAD_ID",
                                "multiword range exceeds sentence length",
                                file_name, span.line)
                    metadata = [m.groups() if (m := _METADATA_RE.match(c))
                                else (None, c) for c in comments]
                    yield Sentence(tokens=tokens, mwt_spans=spans,
                                   metadata=metadata, empty_nodes=empties,
                                   file=file_name, line=start_line)
                    comments, tokens, spans, empties = [], [], [], []
                    start_line = 0
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
            token_id = decimal(id_field)
            if token_id is None and id_field.isdigit() and \
                    id_field.isascii() and id_field[0] != "0":
                token_id = int(id_field)
            if token_id:  # "0" is no token id
                if token_id != len(tokens) + 1:
                    raise ParseError("ID_SEQUENCE",
                                     f"expected token id {len(tokens) + 1}, "
                                     f"got {token_id}",
                                     file_name, line_no)
                head = decimal(cols[6])
                if head is None:
                    head = cols[6]
                    if not (head.isdigit() and head.isascii()
                            and (head[0] != "0" or head == "0")):
                        raise ParseError("BAD_HEAD", f"bad HEAD value {head!r}",
                                         file_name, line_no)
                    head = int(head)
                tokens.append(_unchecked_token(
                    token_id, cols[1], cols[2], cols[3], cols[4], cols[5],
                    head, cols[7], cols[8], cols[9], line_no))
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
        del lines  # not held while the next piece is read and split

    if tokens or spans or empties:
        raise ParseError("UNTERMINATED_SENTENCE",
                         "end of input without sentence-final blank line",
                         file_name, line_no)
    if comments:
        doc.trailing_comments = comments


def _comment_line(line: str, line_end: bool = True) -> bool:
    """Whether the parser reads line back as one comment line: it starts
    with "#", holds no LF and, if a line end follows it, does not end in
    CR (which would write a CRLF line end)."""
    return line.startswith("#") and "\n" not in line and \
        not (line_end and line.endswith("\r"))


def _row(text: str) -> bool:
    """Whether the parser reads text back as one line of COLUMN_COUNT
    non-empty columns: it holds COLUMN_COUNT - 1 tabs and no LF, no column
    is empty, and it does not end in CR (which would write a CRLF line
    end)."""
    return (text.count("\t") == COLUMN_COUNT - 1 and "\n" not in text
            and "\t\t" not in text and not text.startswith("\t")
            and not text.endswith(("\t", "\r")))


def _sentence_lines(s: Sentence) -> list[str]:
    if not s.tokens:
        raise ValueError("bad sentence: no tokens to write as token lines")
    lines = [line if key is None else f"# {key} = {line}"
             for key, line in s.metadata]
    for entry, line in zip(s.metadata, lines):
        if not _comment_line(line):
            raise ValueError(f"bad metadata entry {entry!r}: not written "
                             "as one comment line")
        key = entry[0]
        # every ASCII identifier, sent_id and text among them, matches
        # _METADATA_KEY_RE; testing for one first is cheaper than the match
        if (_METADATA_RE.match(line) if key is None
                else not (key.isidentifier() and key.isascii()
                          or _METADATA_KEY_RE.fullmatch(key))):
            m = _METADATA_RE.match(line)
            raise ValueError(f"bad metadata entry {entry!r}: read back as "
                             f"{m.groups() if m else (None, line)!r}")

    # the rows written after each token (0 for before the first): its
    # empty nodes, then the ranges that start with the next token
    rows_after: dict[int, list[str]] = {}
    for node in s.empty_nodes:
        # the parser reads the line back after token anchor only if it is
        # a row with an id anchor.k
        m = _EMPTY_NODE_ID_RE.match(node.raw.partition("\t")[0])
        if (not _row(node.raw) or m is None
                or not (int(m.group(1)) == node.anchor <= len(s.tokens))):
            raise ValueError(f"bad empty node {node!r}: not written as a "
                             f"line read back after token {node.anchor} of "
                             f"{len(s.tokens)}")
        rows_after.setdefault(node.anchor, []).append(node.raw)
    for span in s.mwt_spans:
        if (type(span.first_id) is not int or type(span.last_id) is not int
                or not 1 <= span.first_id <= span.last_id <= len(s.tokens)):
            raise ValueError(f"bad multiword token {span!r}: its range is "
                             f"not one of the sentence's {len(s.tokens)} "
                             "tokens")
        row = "\t".join([f"{span.first_id}-{span.last_id}",
                         span.surface_form, *span.other_cols, span.misc])
        if not _row(row):
            raise ValueError(f"bad multiword token {span!r}: not written as "
                             f"one line of {COLUMN_COUNT} columns")
        rows_after.setdefault(span.first_id - 1, []).append(row)

    lines.extend(rows_after.get(0, ()))
    for position, t in enumerate(s.tokens, 1):
        if t.id != position:
            raise ValueError(f"bad token {t!r}: its id is not its position "
                             f"{position}")
        if type(t.head) is not int or t.head < 0:
            raise ValueError(f"bad token {t!r}: its head is not an int >= 0")
        # the columns as they are: a check of each row here cost
        # tokenize-text about 5% of its throughput (ROADMAP item 15)
        lines.append(f"{position}\t{t.form}\t{t.lemma_col}\t{t.upos}"
                     f"\t{t.xpos_col}\t{t.feats_col}\t{t.head}\t{t.deprel}"
                     f"\t{t.deps_col}\t{t.misc}")
        if position in rows_after:
            lines.extend(rows_after[position])
    return lines


def serialize_document(doc: Document) -> str:
    """Render a Document back to CoNLL-U text.

    For documents produced by parse_document the output is byte-identical
    to the original input. Raises ValueError naming what would not parse
    back: a sentence without tokens; a metadata entry or trailing comment
    whose line holds an LF, does not start with "#", or ends in CR with a
    line end after it; a metadata entry whose key would read back
    otherwise (a key that is not a metadata key, or a None-keyed line
    shaped "# key = value"); a multiword token whose first_id and
    last_id are not ints naming its sentence's tokens in order, or whose
    row is not one line of COLUMN_COUNT non-empty columns without a
    final CR; a token whose id is not its position, or whose head is not
    an int >= 0; an empty node whose line is not such a row with its
    anchor's id, or whose anchor exceeds its sentence's token count; and
    final_newline False with a sentence last, whose closing blank line
    needs a line end. A token's other columns are written as they are:
    Token() checks them, but an edit after that is not checked here.
    A document with no sentences and no trailing comments is written as
    "" (or the BOM alone) whatever its final_newline, and reads back with
    final_newline False.
    """
    lines: list[str] = []
    for s in doc.sentences:
        lines.extend(_sentence_lines(s))
        lines.append("")
    trailing = doc.trailing_comments
    for i, line in enumerate(trailing, 1):
        if not _comment_line(line, i < len(trailing) or doc.final_newline):
            raise ValueError(f"bad trailing comment {line!r}: not written "
                             "as one comment line")
    if doc.sentences and not trailing and not doc.final_newline:
        raise ValueError("final_newline is False but a sentence comes last: "
                         "its closing blank line needs a line end")
    lines.extend(trailing)
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
        # a MISC without the text "SpaceAfter=No" holds no such entry; the
        # tokenizer's glue is read as is
        glued = "SpaceAfter=No" in misc and (
            misc == "SpaceAfter=No" or column_value(misc, "SpaceAfter") == "No")
        pieces.append("" if glued else " ")
    return "".join(pieces[:-1])
