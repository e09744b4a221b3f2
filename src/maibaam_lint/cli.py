"""Command-line frontend: lint, tokenize, stats and list-rules.

Exit codes: 0 clean, 1 findings at or above --fail-level, 2 I/O or parse
failure, 141 standard output closed early (as for a writer killed by
SIGPIPE). Reports are byte-deterministic for fixed inputs and config,
independent of file order.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from collections.abc import Iterable

from . import __version__
from .conllu import (
    Diagnostic,
    Document,
    ParseError,
    SEVERITY_RANK,
    Sentence,
    _line_chunks,
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


class RunOptions(argparse.Namespace):
    """A subcommand's options: the namespace the parser fills in, holding
    the one set of defaults for options left off the command line. output
    and errout default to sys.stdout and sys.stderr in run()."""

    def __init__(self, subcommand: str | None = None, **options):
        super().__init__(subcommand=subcommand, **{
            "inputs": (), "report_format": "human", "config_path": None,
            "fail_level": "error", "guideline_version": None,
            "lexicon_path": None, "output": None, "errout": None,
            **options})


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


def _read_input(path: str) -> tuple[str, str]:
    """Read one input as UTF-8 with its line endings untouched."""
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8"), STDIN_NAME
    with open(path, encoding="utf-8", newline="") as f:
        return f.read(), path


def _read_reported(path: str, errout) -> tuple[str, str] | None:
    """_read_input, or None after one error line naming an input that cannot
    be read or is not UTF-8 (with the line of its first bad byte)."""
    try:
        return _read_input(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror or exc}", file=errout)
    except UnicodeDecodeError as exc:
        name = STDIN_NAME if path == "-" else path
        print(f"error: {not_utf8(name, exc)}", file=errout)
    return None


class _LintRun:
    """Lints documents one after another. Between documents it holds only
    the findings, the file names, the (file, line) of each sent_id and, for
    stats, the counts. A document's share is committed once all its
    sentences have been read, so a ParseError midway adds nothing."""

    def __init__(self, cfg: LintConfig, count: bool = False):
        self.cfg = cfg
        self.diags: list[Diagnostic] = []
        self.files: list[str] = []
        self.sent_ids: dict[str, list[tuple[str, int]]] = {}
        self.stats = _new_stats() if count else None

    def add(self, doc: Document, sentences: Iterable[Sentence]) -> None:
        """Lint doc's sentences, which may come from iter_sentences still
        filling in doc: its bom is read after the last one."""
        cfg = self.cfg
        diags: list[Diagnostic] = []
        located: list[tuple[str, str, int]] = []
        counts = None if self.stats is None else _new_stats()
        first = None  # where a CORE.BOM finding goes
        for s in sentences:
            diags.extend(lint_sentence(s, cfg))
            diags.extend(validate_metadata(s, cfg))
            sid = s.sent_id
            if first is None:
                first = Sentence(file=s.file, metadata=[("sent_id", sid)])
            if sid:
                located.append((sid, s.file, s.line))
            if counts is not None:
                _count_sentence(counts, s)
        if doc.bom:
            finding(diags, cfg, first or Sentence(file=doc.file), "CORE.BOM",
                    "byte-order mark stripped from input", line=1)
        self.diags.extend(diags)
        self.files.append(doc.file)
        for sid, file, line in located:
            self.sent_ids.setdefault(sid, []).append((file, line))
        if counts is not None:
            for key, value in counts.items():
                self.stats[key] += value

    def finish(self) -> list[Diagnostic]:
        """All findings, the cross-file sent_id check's included, in no set
        order. Called once, after the last add."""
        duplicates = {sid: located for sid, located in self.sent_ids.items()
                      if len(located) > 1}
        self.diags.extend(check_unique_sent_ids(duplicates, self.cfg))
        return self.diags

    def finish_sorted(self) -> list[Diagnostic]:
        """finish's findings by Diagnostic.sort_key: the run's only sort."""
        diags = self.finish()
        diags.sort(key=Diagnostic.sort_key.fget)
        return diags


def lint_documents(docs: Iterable[Document],
                   cfg: LintConfig) -> list[Diagnostic]:
    """Lint parsed documents: per-sentence rules, metadata checks,
    document-level flags, and the cross-file sent_id check; output sorted
    by Diagnostic.sort_key."""
    run = _LintRun(cfg)
    for doc in docs:
        run.add(doc, doc.sentences)
    return run.finish_sorted()


def _lint_inputs(opts: RunOptions,
                 count: bool = False) -> tuple[_LintRun, bool]:
    """Read, parse and lint the inputs one sentence at a time; returns the
    run and whether an input could not be read or parsed (such an input
    adds nothing to the run)."""
    run = _LintRun(_resolve_config(opts), count)
    failed = False
    for path in opts.inputs:
        read = _read_reported(path, opts.errout)
        if read is None:
            failed = True
            continue
        text, name = read
        doc = Document(file=name)
        try:
            run.add(doc, iter_sentences(text, name, doc))
        except ParseError as exc:
            print(f"error: {exc}", file=opts.errout)
            failed = True
    return run, failed


def render_human(diags: list[Diagnostic], out) -> None:
    out.writelines(
        f"{file}:{line}: [{severity}] {rule_id} {message} ({ref})\n" if ref
        else f"{file}:{line}: [{severity}] {rule_id} {message}\n"
        for rule_id, severity, file, line, _, _, message, ref in diags)


# a backslash, tab, LF or CR in a file name, sent_id or message is written
# as \\, \t, \n or \r, so that each row keeps its 8 fields and a reader can
# undo the escapes; the backslash goes first
_TSV_ESCAPES = (("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"), ("\r", "\\r"))


def _tsv_field(s: str) -> str:
    for raw, escaped in _TSV_ESCAPES:
        s = s.replace(raw, escaped)
    return s


def render_tsv(diags: list[Diagnostic], out) -> None:
    out.write("file\tline\tsentence_id\ttoken_id\tseverity\trule_id\tmessage"
              "\tguideline_ref\n")
    out.writelines(
        f"{_tsv_field(d.file)}\t{d.line}\t{_tsv_field(d.sentence_id)}\t"
        f"{'' if d.token_id is None else d.token_id}\t{d.severity}\t"
        f"{d.rule_id}\t{_tsv_field(d.message)}\t{d.guideline_ref or ''}\n"
        for d in diags)


def render_json(diags: list[Diagnostic], files: list[str], out) -> None:
    import json  # only JSON reports load it

    report = {
        "version": REPORT_VERSION,
        "findings": [d._asdict() for d in diags],
        "summary": {
            "files": sorted(set(files)),
            "counts": {**dict.fromkeys(SEVERITY_RANK, 0),
                       **Counter(d.severity for d in diags)},
            "total": len(diags),
        },
    }
    json.dump(report, out, ensure_ascii=False, indent=2, sort_keys=True)
    out.write("\n")


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


def cmd_tokenize(opts: RunOptions) -> int:
    cfg = _resolve_config(opts)
    lexicon_path = opts.lexicon_path or cfg.tokenizer_lexicon_path
    lexicon = load_lexicon(lexicon_path) if lexicon_path else default_lexicon()
    exit_code = 0
    for path in opts.inputs:
        read = _read_reported(path, opts.errout)
        if read is None:
            exit_code = 2
            continue
        text, name = read
        stem = os.path.splitext(os.path.basename(name))[0].strip("<>") or "stdin"
        # escaped like a TSV field: the sent_id stays one line, and stems
        # that differ stay distinct
        stem = _tsv_field(stem)
        counter = 0
        for lines in _line_chunks(text, len(text)):
            for raw_line in lines:
                # a BOM opens each input, or each file of a concatenation
                raw_line = raw_line.lstrip("\ufeff")
                if not raw_line.strip():
                    continue
                counter += 1
                s = attach_skeleton_heads(tokenize_sentence(raw_line, lexicon))
                s.metadata = [("sent_id", f"{stem}-{counter}"),
                              ("text", reconstruct_text(s))]
                s.file = name
                # written per sentence, so memory does not grow with the input
                opts.output.write(serialize_document(Document([s], file=name)))
    return exit_code


def cmd_stats(opts: RunOptions) -> int:
    run, failed = _lint_inputs(opts, count=True)
    stats = run.stats
    stats["diagnostics"].update(d.rule_id for d in run.finish())
    out = opts.output
    if opts.report_format == "json":
        import json  # only JSON reports load it
        json.dump(stats, out, ensure_ascii=False, indent=2, sort_keys=True)
        out.write("\n")
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
        ]), file=opts.output)
    return 0


def _guideline_version(value: str) -> str:
    if not VERSION_RE.fullmatch(value):
        raise argparse.ArgumentTypeError(
            f"bad guideline version {value!r} (expected digits and dots, "
            "such as 2.17)")
    return value


class _AfterSubcommand(argparse.Action):
    """Reject a subcommand option given before the subcommand; const names
    a subcommand that takes it."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} goes after the subcommand, as in "
                     f"'maibaam-lint {self.const} {option_string} ... FILE'")


class _TopParser(argparse.ArgumentParser):
    """Lets a shown option win a prefix that a hidden one also matches, so
    that --l abbreviates --list-rules rather than being ambiguous with the
    hidden --lexicon; prefixes of hidden options alone still match them."""

    def _get_option_tuples(self, option_string):
        matches = super()._get_option_tuples(option_string)
        shown = [m for m in matches if m[0].help != argparse.SUPPRESS]
        return shown or matches


def build_parser() -> argparse.ArgumentParser:
    parser = _TopParser(
        prog="maibaam-lint",
        description="Parse, tokenize and lint Bavarian CoNLL-U treebank "
                    "files against the MaiBaam annotation guidelines.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--list-rules", action="store_const", dest="subcommand",
                        const="list-rules",
                        help="print the rule catalog and exit")
    for flag, example in (("--config", "lint"), ("--guideline-version", "lint"),
                          ("--format", "lint"), ("--fail-level", "lint"),
                          ("--lexicon", "tokenize")):
        parser.add_argument(flag, action=_AfterSubcommand, const=example,
                            default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="subcommand")

    # options left out of the command line are left out of the namespace,
    # so the RunOptions that run() parses into keeps its defaults
    quiet = {"add_help": False, "argument_default": argparse.SUPPRESS}
    options = argparse.ArgumentParser(**quiet)
    options.add_argument("--config", dest="config_path", metavar="CONFIG",
                         help="path to a key=value config file "
                              f"(falls back to ${CONFIG_ENV_VAR})")
    options.add_argument("--guideline-version", type=_guideline_version,
                         help="guideline version for version-gated rules "
                              "(default 2.17)")
    common = argparse.ArgumentParser(**quiet, parents=[options])
    common.add_argument("inputs", nargs="+", metavar="FILE",
                        help='input files ("-" for standard input)')
    report = argparse.ArgumentParser(**quiet, parents=[common])
    report.add_argument("--format", dest="report_format",
                        choices=("human", "json", "tsv"))

    lint = sub.add_parser("lint", parents=[report],
                          argument_default=argparse.SUPPRESS,
                          help="lint CoNLL-U files")
    lint.add_argument("--fail-level",
                      choices=tuple(reversed(SEVERITY_RANK)),
                      help="lowest severity that causes exit code 1")

    tok = sub.add_parser("tokenize", parents=[common],
                         argument_default=argparse.SUPPRESS,
                         help="segment plain text into CoNLL-U skeletons")
    tok.add_argument("--lexicon", dest="lexicon_path",
                     help="path to a segmentation lexicon file")

    sub.add_parser("stats", parents=[report],
                   help="corpus statistics report")
    sub.add_parser("list-rules", parents=[options],
                   help="print the rule catalog")
    return parser


def run(argv: list[str] | None = None, output=None, errout=None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv, RunOptions(
        output=output if output is not None else sys.stdout,
        errout=errout if errout is not None else sys.stderr))
    if not opts.subcommand:
        parser.print_usage(file=opts.errout)
        return 2

    handlers = {"lint": cmd_lint, "tokenize": cmd_tokenize, "stats": cmd_stats,
                "list-rules": cmd_list_rules}
    try:
        return handlers[opts.subcommand](opts)
    except BrokenPipeError:
        raise  # the reader stopped early; the inputs are not at fault
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=opts.errout)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the exit flush writes to devnull instead and so cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, what a shell reports for such a writer
    sys.exit(code)


if __name__ == "__main__":
    main()
