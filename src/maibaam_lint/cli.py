"""Command-line frontend: lint, tokenize, stats and list-rules.

Exit codes: 0 clean, 1 findings at or above --fail-level, 2 I/O or parse
failure, 141 a write to standard output or error that failed because the
stream was closed, early or at start-up (as for a writer killed by
SIGPIPE); a run that writes nothing to a closed stream keeps its code.
Reports are byte-deterministic for fixed inputs and config, independent
of file order.

A command line that names a subcommand, gives each option by its full
flag with its value as the next argument, and its files in one run, such
as `lint --format json a.conllu b.conllu`, is read without argparse, so
the run never imports it. Every other command line, such as one with an
abbreviation, --opt=value, --help, --version or a usage error, is read
by argparse (build_parser), with the same output and exit codes.
"""

from __future__ import annotations

import codecs
import errno
import os
import sys
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import islice

from . import __version__, conllu
from .conllu import (
    Diagnostic,
    Document,
    ParseError,
    SEVERITY_RANK,
    Sentence,
    _shown,
    _split_lines,
    cannot_read,
    iter_sentences,
    not_utf8,
    reconstruct_text,
    serialize_document,
)
from .metadata import check_unique_sent_ids, validate_metadata
from .rules import (
    _DEFAULT_CONFIG,
    RULES,
    VERSION_RE,
    LintConfig,
    finding,
    lint_sentence,
    load_config,
)
from .tokenizer import (
    attach_skeleton_heads,
    default_lexicon,
    load_lexicon,
    tokenize_sentence,
)

CONFIG_ENV_VAR = "MAIBAAM_LINT_CONFIG"
REPORT_VERSION = 1
STDIN_NAME = "<stdin>"


# what a write to a closed standard stream raises: EPIPE once a pipe's
# reader has gone, EBADF for a descriptor closed at start-up
_CLOSED_ERRNOS = (errno.EPIPE, errno.EBADF)


class _ClosedStream:
    """Stands for a standard stream closed at start-up, which Python sets
    to None: writing any text to it fails as writing to a closed
    descriptor does."""

    def write(self, text: str) -> int:
        if text:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        return 0

    def flush(self) -> None:
        pass


_CLOSED_STREAM = _ClosedStream()


class RunOptions:
    """A subcommand's options, as run() reads them from the command line,
    holding the one set of defaults for options left off it. output and
    errout default to sys.stdout and sys.stderr in run(), or to a
    _ClosedStream where that is None."""

    def __init__(self, subcommand: str | None = None, **options):
        vars(self).update({
            "subcommand": subcommand, "inputs": (), "report_format": "human",
            "config_path": None, "fail_level": "error",
            "guideline_version": None, "lexicon_path": None, "output": None,
            "errout": None, **options})


def _version_fault(value: str) -> str | None:
    """What is wrong with a --guideline-version value, or None."""
    if VERSION_RE.fullmatch(value):
        return None
    return (f"bad guideline version {value!r} (expected digits and dots, "
            "such as 2.17)")


class _Option(namedtuple("_Option", ("dest", "help", "metavar", "choices",
                                     "fault"), defaults=(None,) * 4)):
    """A subcommand's long option, which takes one value: one of choices,
    if there are choices, and one in which fault, if there is one, finds
    nothing wrong (fault returns the reason, or None)."""

    __slots__ = ()

    def takes(self, value: str) -> bool:
        return ((self.choices is None or value in self.choices)
                and (self.fault is None or self.fault(value) is None))


class _Subcommand(namedtuple("_Subcommand",
                             ("help", "takes_files", "options"))):
    """A subcommand: its line in --help, whether it takes one or more FILE
    operands (or none), and its options by flag, in the order its --help
    lists them."""

    __slots__ = ()


_CONFIG_OPTIONS = {
    "--config": _Option("config_path", metavar="CONFIG",
                        help="path to a key=value config file "
                             f"(falls back to ${CONFIG_ENV_VAR})"),
    "--guideline-version": _Option(
        "guideline_version", fault=_version_fault,
        help="guideline version for version-gated rules (default 2.17)"),
}
_FORMAT_OPTION = {
    "--format": _Option("report_format", choices=("human", "json", "tsv")),
}

# The command-line grammar, subcommands in the order --help lists them.
# build_parser() builds argparse's parsers from it, and _read_command_line
# reads the command lines argparse would read to the same options.
_SUBCOMMANDS = {
    "lint": _Subcommand("lint CoNLL-U files", True, {
        **_CONFIG_OPTIONS, **_FORMAT_OPTION,
        "--fail-level": _Option(
            "fail_level", choices=tuple(reversed(SEVERITY_RANK)),
            help="lowest severity that causes exit code 1"),
    }),
    "tokenize": _Subcommand(
        "segment plain text into CoNLL-U skeletons", True, {
            **_CONFIG_OPTIONS,
            "--lexicon": _Option("lexicon_path",
                                 help="path to a segmentation lexicon file"),
        }),
    "stats": _Subcommand("corpus statistics report", True,
                         {**_CONFIG_OPTIONS, **_FORMAT_OPTION}),
    "list-rules": _Subcommand("print the rule catalog", False,
                              _CONFIG_OPTIONS),
}


def _read_command_line(argv: Sequence[str]) -> RunOptions | None:
    """argv read against _SUBCOMMANDS without argparse, or None if argv is
    not such a command line: a subcommand's name; each option's exact flag
    followed by a value that does not start with "-" and that the option
    takes; and, for a subcommand that takes FILE operands, one unbroken run
    of them, none starting with "-" except "-" itself. Of a repeated
    option the last wins. argparse reads every such argv to the same
    options; any other argv, such as an abbreviation, --opt=value, --help,
    --version, "--" or a usage error, is left to build_parser()."""
    sub = _SUBCOMMANDS.get(argv[0]) if argv else None
    if sub is None:
        return None
    values: dict[str, object] = {}
    files: list[str] = []
    files_ended = False
    args = iter(argv[1:])
    for arg in args:
        if arg == "-" or not arg.startswith("-"):
            if files_ended or not sub.takes_files:
                return None
            files.append(arg)
            continue
        option = sub.options.get(arg)
        value = next(args, None)
        if (option is None or value is None or value.startswith("-")
                or not option.takes(value)):
            return None
        values[option.dest] = value
        files_ended = bool(files)
    if sub.takes_files:
        if not files:
            return None
        values["inputs"] = files
    return RunOptions(argv[0], **values)


def _new_stats() -> dict:
    """Empty report sections in order: ints first, then Counters."""
    return {"sentences": 0, "tokens": 0, "mwt_spans": 0, "upos": Counter(),
            "deprel": Counter(), "genre": Counter(),
            "dialect_group": Counter(), "diagnostics": Counter()}


def _count_sentence(stats: dict, s: Sentence) -> None:
    stats["sentences"] += 1
    stats["tokens"] += len(s.tokens)
    stats["mwt_spans"] += len(s.mwt_spans)
    for t in s.tokens:
        stats["upos"][t.upos] += 1
        stats["deprel"][t.deprel] += 1
    for key in ("genre", "dialect_group"):
        value = s.metadata_value(key)
        if value is not None:
            stats[key][value] += 1


class _ReadError(Exception):
    """An input that fails while it is read; the message names it."""


def _read_input(path: str) -> tuple[Iterator[str], str]:
    """Return one input's text ("-" for standard input) as UTF-8 pieces,
    with their line endings untouched, and its name as _shown shows it.
    Nothing is opened until the first piece is asked for; the pieces raise
    _ReadError for an input that cannot be opened or read, and at its first
    byte that is not UTF-8, once its complete lines before that byte are
    out."""
    name = STDIN_NAME if path == "-" else _shown(path)
    return _decoded(path, name), name


def _decoded(path: str, name: str) -> Iterator[str]:
    """Open path unbuffered in binary mode (standard input's buffer for
    "-", which is left open), read it up to conllu._CHUNK_CHARS bytes at a
    time and decode each read, holding back a character the read cuts in
    two; the decoder is the only buffer the reads need. Neither a read's
    bytes nor its piece are kept while the next read is made."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    lines = 0  # line breaks yielded so far
    f = None
    try:
        if path != "-":
            f = open(path, "rb", 0)
        elif sys.stdin is None:  # standard input was closed at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            f = sys.stdin.buffer
        while True:
            data = f.read(conllu._CHUNK_CHARS)
            try:
                piece = decode(data, not data)
            except UnicodeDecodeError as exc:
                good = exc.object[:exc.start].decode("utf-8")
                yield good[:good.rfind("\n") + 1]
                raise _ReadError(not_utf8(name, exc, lines)) from None
            if not data:
                return
            del data
            lines += piece.count("\n")
            yield piece
            del piece
    except OSError as exc:
        raise _ReadError(cannot_read(name, exc)) from None
    finally:
        if f is not None and path != "-":
            f.close()


class _LintRun:
    """Lints documents one after another. Between documents it holds only
    the findings, the file names, the (file, line) where each sent_id was
    first seen and where it was seen again and, for stats, the counts. A
    document's share is committed once all its sentences have been read,
    so a ParseError midway adds nothing.

    The findings are kept as one list per document, in the order they were
    found, each sentence's findings sorted by Diagnostic.sort_key; a
    CORE.BOM finding goes with the first sentence's. A parsed sentence's
    findings lie on its own lines, so a parsed document's list is sorted."""

    def __init__(self, cfg: LintConfig, count: bool = False):
        self.cfg = cfg
        self.lists: list[list[Diagnostic]] = []
        self.files: list[str] = []
        self.first_seen: dict[str, tuple[str, int]] = {}
        self.seen_again: dict[str, list[tuple[str, int]]] = {}  # all places
        self.stats = _new_stats() if count else None

    def add(self, doc: Document, sentences: Iterable[Sentence]) -> None:
        """Lint doc's sentences, which may come from iter_sentences still
        filling in doc: its bom is read once the first one is out."""
        cfg = self.cfg
        sort_key = Diagnostic.sort_key.fget
        diags: list[Diagnostic] = []
        located: list[tuple[str, str, int]] = []
        counts = None if self.stats is None else _new_stats()
        bom = None  # doc.bom, read at the first sentence
        for s in sentences:
            found = lint_sentence(s, cfg)
            found.extend(validate_metadata(s, cfg))
            if bom is None:
                bom = doc.bom
                if bom:
                    finding(found, cfg, s, "CORE.BOM",
                            "byte-order mark stripped from input", line=1)
            if found:
                found.sort(key=sort_key)
                diags += found
            sid = s.sent_id
            if sid:
                located.append((sid, s.file, s.line))
            if counts is not None:
                _count_sentence(counts, s)
        if bom is None and doc.bom:  # a document without sentences
            finding(diags, cfg, Sentence(file=doc.file), "CORE.BOM",
                    "byte-order mark stripped from input", line=1)
        if diags:
            self.lists.append(diags)
        self.files.append(doc.file)
        for sid, file, line in located:
            where = (file, line)
            seen = self.first_seen.setdefault(sid, where)
            if seen is not where:
                self.seen_again.setdefault(sid, [seen]).append(where)
        if counts is not None:
            for key, value in counts.items():
                self.stats[key] += value

    def finish(self) -> list[list[Diagnostic]]:
        """All findings as lists: a document's as add kept it, and last
        the cross-file sent_id check's, sorted. Called once, after the
        last add."""
        dup = check_unique_sent_ids(self.seen_again, self.cfg)
        if dup:
            dup.sort(key=Diagnostic.sort_key.fget)
            self.lists.append(dup)
        return self.lists

    def finish_sorted(self) -> list[Diagnostic]:
        """finish's lists, each sorted as those of parsed documents are,
        merged into one by Diagnostic.sort_key; of equal keys, the one
        found first comes first. A single list is returned as it is."""
        lists = self.finish()
        if len(lists) < 2:
            return lists[0] if lists else []
        import heapq  # only a run with several lists loads it

        return list(heapq.merge(*lists, key=Diagnostic.sort_key.fget))


def lint_documents(docs: Iterable[Document],
                   cfg: LintConfig) -> list[Diagnostic]:
    """Lint documents, parsed or built by hand: per-sentence rules,
    metadata checks, document-level flags, and the cross-file sent_id
    check. The findings come out in one stable sort by
    Diagnostic.sort_key, so of equal keys the one found first comes
    first."""
    run = _LintRun(cfg)
    for doc in docs:
        run.add(doc, doc.sentences)
    return sorted([d for diags in run.finish() for d in diags],
                  key=Diagnostic.sort_key.fget)


def _lint_inputs(opts: RunOptions,
                 count: bool = False) -> tuple[_LintRun, bool]:
    """Read, parse and lint the inputs one sentence at a time; returns the
    run and whether an input could not be read or parsed (such an input
    adds nothing to the run)."""
    run = _LintRun(_resolve_config(opts), count)
    failed = False
    for path in opts.inputs:
        pieces, name = _read_input(path)
        doc = Document(file=name)
        try:
            run.add(doc, iter_sentences(pieces, name, doc))
        except (ParseError, _ReadError) as exc:
            print(f"error: {exc}", file=opts.errout)
            failed = True
    return run, failed


# lines per write: a TextIOWrapper.write per finding, and on an
# unbuffered stream (PYTHONUNBUFFERED) a system call per finding, cost
# about as much as rendering it; from 128 to 1,024 lines a write the time
# is flat, and 256 human lines are about 25 KB
_BATCH_LINES = 256


def _write_batched(out, lines: Iterable[str]) -> None:
    """Write lines, none of them empty, _BATCH_LINES of them a write."""
    lines = iter(lines)
    while batch := "".join(islice(lines, _BATCH_LINES)):
        out.write(batch)


def render_human(diags: list[Diagnostic], out) -> None:
    _write_batched(out, (
        f"{file}:{line}: [{severity}] {rule_id} {message} ({ref})\n" if ref
        else f"{file}:{line}: [{severity}] {rule_id} {message}\n"
        for rule_id, severity, file, line, _, _, message, ref in diags))


# a backslash, tab, LF or CR in a file name, sent_id or message is written
# as \\, \t, \n or \r, so that each row keeps its 8 fields and a reader can
# undo the escapes; the backslash goes first
_TSV_ESCAPES = (("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"), ("\r", "\\r"))


def _tsv_field(s: str) -> str:
    if s.isprintable() and "\\" not in s:
        return s  # tab, LF and CR are not printable
    for raw, escaped in _TSV_ESCAPES:
        s = s.replace(raw, escaped)
    return s


def render_tsv(diags: list[Diagnostic], out) -> None:
    out.write("file\tline\tsentence_id\ttoken_id\tseverity\trule_id\tmessage"
              "\tguideline_ref\n")
    _write_batched(out, (
        f"{_tsv_field(d.file)}\t{d.line}\t{_tsv_field(d.sentence_id)}\t"
        f"{'' if d.token_id is None else d.token_id}\t{d.severity}\t"
        f"{d.rule_id}\t{_tsv_field(d.message)}\t{d.guideline_ref or ''}\n"
        for d in diags))


# json.dumps(ensure_ascii=False) writes " and \ as \" and \\, five
# controls as \b, \f, \n, \r and \t and every other code point below U+0020
# as \u00xx in lower-case hex; it leaves every other character as it is
_JSON_ESCAPES = {i: f"\\u{i:04x}" for i in range(0x20)}
_JSON_ESCAPES.update({ord('"'): '\\"', ord("\\"): "\\\\", ord("\b"): "\\b",
                      ord("\f"): "\\f", ord("\n"): "\\n", ord("\r"): "\\r",
                      ord("\t"): "\\t"})


def _json_str(s: str) -> str:
    """s as a JSON string, as json.dumps(s, ensure_ascii=False) writes it."""
    if s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'  # no control character is printable
    return f'"{s.translate(_JSON_ESCAPES)}"'


def _json_value(obj, indent: str = "\n") -> str:
    """obj as json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True)
    writes it, nested as deep as indent says: a line break and the spaces
    before obj's closing bracket. obj is a dict with str keys, a list, a
    str, an int or None, and so is each value inside it; any other type,
    bool and float included, raises TypeError."""
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    if type(obj) is int:
        return str(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + ",".join(
            f"{inner}{_json_str(key)}: {_json_value(obj[key], inner)}"
            for key in sorted(obj)) + indent + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        return "[" + ",".join(inner + _json_value(item, inner)
                              for item in obj) + indent + "]"
    raise TypeError(f"a JSON report holds no {type(obj).__name__}")


def render_json(diags: list[Diagnostic], files: list[str], out) -> None:
    """The report as json.dumps(report, ensure_ascii=False, indent=2,
    sort_keys=True) writes it, plus a line break, in batches of findings
    (_write_batched)."""
    _write_batched(out, _json_report(diags, files))


def _json_report(diags: list[Diagnostic], files: list[str]) -> Iterator[str]:
    """render_json's report in pieces: the opening, one per finding, and
    last the summary and version."""
    yield '{\n  "findings": ['
    sep = "\n"
    for rule_id, severity, file, line, sid, token_id, message, ref in diags:
        # the keys in sorted order; line and token_id are ints
        yield (f'{sep}    {{\n'
               f'      "file": {_json_str(file)},\n'
               f'      "guideline_ref": '
               f'{"null" if ref is None else _json_str(ref)},\n'
               f'      "line": {line},\n'
               f'      "message": {_json_str(message)},\n'
               f'      "rule_id": {_json_str(rule_id)},\n'
               f'      "sentence_id": {_json_str(sid)},\n'
               f'      "severity": {_json_str(severity)},\n'
               f'      "token_id": {"null" if token_id is None else token_id}\n'
               f'    }}')
        sep = ",\n"
    summary = _json_value({
        "files": sorted(set(files)),
        "counts": {**dict.fromkeys(SEVERITY_RANK, 0),
                   **Counter(d.severity for d in diags)},
        "total": len(diags),
    }, "\n  ")
    yield (("\n  ]," if diags else "],")
           + f'\n  "summary": {summary},\n  "version": {REPORT_VERSION}\n}}\n')


def _exit_code(diags: list[Diagnostic], fail_level: str) -> int:
    threshold = SEVERITY_RANK[fail_level]
    return int(any(SEVERITY_RANK[d.severity] >= threshold for d in diags))


def _resolve_config(opts: RunOptions) -> LintConfig:
    path = opts.config_path or os.environ.get(CONFIG_ENV_VAR)
    cfg = load_config(path) if path else _DEFAULT_CONFIG
    if opts.guideline_version:
        cfg = cfg._replace(guideline_version=opts.guideline_version)
    return cfg


def cmd_lint(opts: RunOptions) -> int:
    run, failed = _lint_inputs(opts)
    diags = run.finish_sorted()
    if opts.report_format == "json":
        render_json(diags, run.files, opts.output)
    elif opts.report_format == "tsv":
        render_tsv(diags, opts.output)
    else:
        render_human(diags, opts.output)
    return 2 if failed else _exit_code(diags, opts.fail_level)


def _stems(paths: list[str]) -> dict[str, str]:
    """The sent_id stem of each path: its file name without extension
    ("stdin" for "-"), escaped like a TSV field and shown as names are, so
    that it is one line of UTF-8. A path whose stem an earlier, different
    path has taken gets the first "~N" (N >= 2) that no path's stem takes,
    so that every path has a stem of its own."""
    own = {path: _shown(_tsv_field(
        "stdin" if path == "-"
        else os.path.splitext(os.path.basename(path))[0])) for path in paths}
    taken = set(own.values())
    stems: dict[str, str] = {}
    used: set[str] = set()
    for path, stem in own.items():
        if stem in used:
            n = 2
            while f"{stem}~{n}" in taken:
                n += 1
            stem = f"{stem}~{n}"
            taken.add(stem)
        used.add(stem)
        stems[path] = stem
    return stems


def cmd_tokenize(opts: RunOptions) -> int:
    cfg = _resolve_config(opts)
    lexicon_path = opts.lexicon_path or cfg.tokenizer_lexicon_path
    lexicon = load_lexicon(lexicon_path) if lexicon_path else default_lexicon()
    exit_code = 0
    stems = _stems(opts.inputs)
    for path in opts.inputs:
        pieces, _ = _read_input(path)
        stem = stems[path]
        counter = 0
        try:
            for lines in _split_lines(pieces):
                for raw_line in lines:
                    # a BOM opens each input, or each file of a concatenation
                    raw_line = raw_line.lstrip("\ufeff")
                    if not raw_line.strip():
                        continue
                    counter += 1
                    s = attach_skeleton_heads(tokenize_sentence(raw_line,
                                                                lexicon))
                    s.metadata = [("sent_id", f"{stem}-{counter}"),
                                  ("text", reconstruct_text(s))]
                    # written per sentence, so output does not build up in
                    # memory
                    opts.output.write(serialize_document(Document([s])))
        except _ReadError as exc:
            print(f"error: {exc}", file=opts.errout)
            exit_code = 2
    return exit_code


def cmd_stats(opts: RunOptions) -> int:
    run, failed = _lint_inputs(opts, count=True)
    stats = run.stats
    stats["diagnostics"].update(d.rule_id for diags in run.finish()
                                for d in diags)
    out = opts.output
    if opts.report_format == "json":
        out.write(_json_value(stats) + "\n")
    else:
        for section, value in stats.items():
            if isinstance(value, Counter):
                for key in sorted(value):
                    print(f"{section}.{_tsv_field(key)}\t{value[key]}",
                          file=out)
            else:
                print(f"{section}\t{value}", file=out)
    return 2 if failed else 0


def cmd_list_rules(opts: RunOptions) -> int:
    cfg = _resolve_config(opts)
    for rule in RULES:
        print("\t".join([
            rule.rule_id,
            cfg.severity(rule.rule_id),
            rule.guideline_ref or "structural",
            rule.description,
            "on" if rule.rule_id in cfg.enabled_ids else "off",
        ]), file=opts.output)
    return 0


def build_parser():
    """The argparse parser of every command line, built from _SUBCOMMANDS.
    It alone reads abbreviations, --opt=value, --help, --version and
    --list-rules, and writes every usage message, help text and usage
    error. This is the only code that imports argparse."""
    import argparse

    class TopParser(argparse.ArgumentParser):
        """Lets a shown option win a prefix that a hidden one also matches,
        so that --l abbreviates --list-rules rather than being ambiguous
        with the hidden --lexicon; prefixes of hidden options alone still
        match them."""

        def _get_option_tuples(self, option_string):
            matches = super()._get_option_tuples(option_string)
            shown = [m for m in matches if m[0].help != argparse.SUPPRESS]
            return shown or matches

    class AfterSubcommand(argparse.Action):
        """Reject a subcommand option given before the subcommand; const
        names a subcommand that takes it."""

        def __call__(self, parser, namespace, values, option_string=None):
            parser.error(f"{option_string} goes after the subcommand, as in "
                         f"'maibaam-lint {self.const} {option_string} ... "
                         "FILE'")

    def checked(fault: Callable[[str], str | None]):
        def check(value: str) -> str:
            reason = fault(value)
            if reason is not None:
                raise argparse.ArgumentTypeError(reason)
            return value
        return check

    parser = TopParser(
        prog="maibaam-lint",
        description="Parse, tokenize and lint Bavarian CoNLL-U treebank "
                    "files against the MaiBaam annotation guidelines.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--list-rules", action="store_const", dest="subcommand",
                        const="list-rules",
                        help="print the rule catalog and exit")
    example: dict[str, str] = {}  # each option's first subcommand
    for name, sub in _SUBCOMMANDS.items():
        for flag in sub.options:
            example.setdefault(flag, name)
    for flag, name in example.items():
        parser.add_argument(flag, action=AfterSubcommand, const=name,
                            default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    subparsers = parser.add_subparsers(dest="subcommand")
    for name, sub in _SUBCOMMANDS.items():
        # options left out of the command line are left out of the
        # namespace, so the RunOptions that run() parses into keeps its
        # defaults
        p = subparsers.add_parser(name, help=sub.help,
                                  argument_default=argparse.SUPPRESS)
        for flag, option in sub.options.items():
            p.add_argument(flag, dest=option.dest, help=option.help,
                           metavar=option.metavar, choices=option.choices,
                           type=None if option.fault is None
                           else checked(option.fault))
        if sub.takes_files:
            p.add_argument("inputs", nargs="+", metavar="FILE",
                           help='input files ("-" for standard input)')
    return parser


def run(argv: Sequence[str] | None = None, output=None, errout=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None) and return
    its exit code. A command line _read_command_line reads is run without
    argparse; build_parser() reads any other, and raises SystemExit for a
    usage error, --help or --version."""
    if argv is None:
        argv = sys.argv[1:]
    errout = errout if errout is not None else sys.stderr or _CLOSED_STREAM
    opts = _read_command_line(argv)
    if opts is None:
        parser = build_parser()
        opts = parser.parse_args(argv, RunOptions())
        if not opts.subcommand:
            parser.print_usage(file=errout)
            return 2
    opts.output = output if output is not None else sys.stdout or _CLOSED_STREAM
    opts.errout = errout

    handlers = {"lint": cmd_lint, "tokenize": cmd_tokenize, "stats": cmd_stats,
                "list-rules": cmd_list_rules}
    try:
        return handlers[opts.subcommand](opts)
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError) and exc.errno in _CLOSED_ERRNOS:
            raise  # an output stream is closed; the inputs are not at fault
        print(f"error: {exc}", file=opts.errout)
        return 2


def main() -> None:
    """The console script: run() on sys.argv, then flush standard output
    and error and end the process with os._exit and run()'s exit code (141
    if a write to either failed because it was closed, early or at
    start-up). os._exit skips the interpreter's teardown, about 9 ms, which
    nothing here needs: the run keeps no file open and has no atexit
    handler, thread or child process. Any other exception leaves main as
    usual, with its traceback. An embedding program calls run(argv,
    output=..., errout=...), which returns, or raises the OSError of a
    closed output stream."""
    try:
        code = run()
        # a closed pipe shows here, not at exit; nothing flushes after _exit
        (sys.stdout or _CLOSED_STREAM).flush()
        (sys.stderr or _CLOSED_STREAM).flush()
    except OSError as exc:
        if exc.errno not in _CLOSED_ERRNOS:
            raise
        code = 141  # 128 + SIGPIPE, what a shell reports for such a writer
    os._exit(code)


if __name__ == "__main__":
    main()
