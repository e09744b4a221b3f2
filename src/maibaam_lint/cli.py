"""Command-line frontend: lint, tokenize, stats and list-rules.

Exit codes: 0 clean, 1 findings at or above --fail-level, 2 I/O or parse
failure. Reports are byte-deterministic for fixed inputs and config,
independent of file order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, replace

from . import __version__
from .conllu import (
    Diagnostic,
    Document,
    ParseError,
    SEVERITY_RANK,
    Sentence,
    parse_document,
    reconstruct_text,
    serialize_document,
)
from .metadata import check_unique_sent_ids, validate_metadata
from .rules import (
    RULES,
    VERSION_RE,
    LintConfig,
    finding,
    lint_sentence,
    load_config,
)
from .tokenizer import (
    EmptyInputError,
    attach_skeleton_heads,
    default_lexicon,
    load_lexicon,
    tokenize_sentence,
)

CONFIG_ENV_VAR = "MAIBAAM_LINT_CONFIG"
REPORT_VERSION = 1
STDIN_NAME = "<stdin>"


@dataclass
class RunOptions:
    subcommand: str
    inputs: list[str] = field(default_factory=list)
    report_format: str = "human"
    config_path: str | None = None
    fail_level: str = "error"
    guideline_version: str | None = None
    lexicon_path: str | None = None
    output: object = None   # defaults to sys.stdout in run()
    errout: object = None   # defaults to sys.stderr in run()


def compute_stats(docs: list[Document],
                  diagnostics: list[Diagnostic] | None = None) -> dict:
    """Count tokens, relations, metadata values and findings per rule id,
    as report sections in order: ints first, then Counters. Totals equal
    their breakdowns."""
    stats = {"sentences": 0, "tokens": 0, "mwt_spans": 0, "upos": Counter(),
             "deprel": Counter(), "genre": Counter(),
             "dialect_group": Counter()}
    for doc in docs:
        for s in doc.sentences:
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
    stats["diagnostics"] = Counter(d.rule_id for d in diagnostics or [])
    return stats


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
        line = exc.object.count(b"\n", 0, exc.start) + 1
        print(f"error: {name}:{line}: not UTF-8: {exc.reason} "
              f"0x{exc.object[exc.start]:02x}", file=errout)
    return None


def _load_documents(paths: list[str], errout) -> tuple[list[Document], bool]:
    """Parse every input; returns (documents, had_failures)."""
    docs: list[Document] = []
    failed = False
    for path in paths:
        read = _read_reported(path, errout)
        if read is None:
            failed = True
            continue
        try:
            docs.append(parse_document(*read))
        except ParseError as exc:
            print(f"error: {exc}", file=errout)
            failed = True
    return docs, failed


def lint_documents(docs: list[Document], cfg: LintConfig) -> list[Diagnostic]:
    """Lint parsed documents: per-sentence rules, metadata checks,
    document-level flags, and the cross-file sent_id check; output sorted
    by (file, line, token id, rule id)."""
    diags: list[Diagnostic] = []
    for doc in docs:
        if doc.bom and cfg.rule_enabled("CORE.BOM"):
            first = doc.sentences[0] if doc.sentences else Sentence(file=doc.file)
            diags.append(finding(cfg, first, "CORE.BOM",
                                 "byte-order mark stripped from input", line=1))
        for s in doc.sentences:
            diags.extend(lint_sentence(s, cfg))
            diags.extend(validate_metadata(s, cfg))
    diags.extend(check_unique_sent_ids(docs, cfg))
    diags.sort(key=lambda d: d.sort_key)
    return diags


def _severity_counts(diags: list[Diagnostic]) -> dict[str, int]:
    counts = {"error": 0, "warning": 0, "review": 0}
    for d in diags:
        counts[d.severity] = counts.get(d.severity, 0) + 1
    return counts


def render_human(diags: list[Diagnostic], out) -> None:
    for d in diags:
        ref = f" ({d.guideline_ref})" if d.guideline_ref else ""
        print(f"{d.file}:{d.line}: [{d.severity}] {d.rule_id} {d.message}{ref}",
              file=out)


def render_tsv(diags: list[Diagnostic], out) -> None:
    print("file\tline\tsentence_id\ttoken_id\tseverity\trule_id\tmessage"
          "\tguideline_ref", file=out)
    for d in diags:
        token_id = "" if d.token_id is None else str(d.token_id)
        print("\t".join([d.file, str(d.line), d.sentence_id, token_id,
                         d.severity, d.rule_id, d.message,
                         d.guideline_ref or ""]), file=out)


def render_json(diags: list[Diagnostic], files: list[str], out) -> None:
    findings = [{
        "rule_id": d.rule_id,
        "severity": d.severity,
        "file": d.file,
        "line": d.line,
        "sentence_id": d.sentence_id,
        "token_id": d.token_id,
        "message": d.message,
        "guideline_ref": d.guideline_ref,
    } for d in diags]
    report = {
        "version": REPORT_VERSION,
        "findings": findings,
        "summary": {
            "files": sorted(set(files)),
            "counts": _severity_counts(diags),
            "total": len(diags),
        },
    }
    json.dump(report, out, ensure_ascii=False, indent=2, sort_keys=True)
    out.write("\n")


def _exit_code(diags: list[Diagnostic], fail_level: str) -> int:
    threshold = SEVERITY_RANK[fail_level]
    if any(SEVERITY_RANK[d.severity] >= threshold for d in diags):
        return 1
    return 0


def _resolve_config(opts: RunOptions) -> LintConfig:
    path = opts.config_path or os.environ.get(CONFIG_ENV_VAR)
    cfg = load_config(path) if path else LintConfig()
    if opts.guideline_version:
        cfg = replace(cfg, guideline_version=opts.guideline_version)
    return cfg


def cmd_lint(opts: RunOptions) -> int:
    cfg = _resolve_config(opts)
    docs, failed = _load_documents(opts.inputs, opts.errout)
    diags = lint_documents(docs, cfg)
    files = [d.file for d in docs]
    if opts.report_format == "json":
        render_json(diags, files, opts.output)
    elif opts.report_format == "tsv":
        render_tsv(diags, opts.output)
    else:
        render_human(diags, opts.output)
    if failed:
        return 2
    return _exit_code(diags, opts.fail_level)


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
        counter = 0
        for raw_line in text.split("\n"):
            if not raw_line.strip():
                continue
            counter += 1
            try:
                s = tokenize_sentence(raw_line, lexicon)
            except EmptyInputError:
                continue
            attach_skeleton_heads(s)
            s.metadata = [("sent_id", f"{stem}-{counter}"),
                          ("text", reconstruct_text(s))]
            s.file = name
            # written per sentence, so memory does not grow with the input
            opts.output.write(serialize_document(Document([s], file=name)))
    return exit_code


def cmd_stats(opts: RunOptions) -> int:
    cfg = _resolve_config(opts)
    docs, failed = _load_documents(opts.inputs, opts.errout)
    diags = lint_documents(docs, cfg)
    stats = compute_stats(docs, diags)
    out = opts.output
    if opts.report_format == "json":
        json.dump(stats, out, ensure_ascii=False, indent=2, sort_keys=True)
        out.write("\n")
    else:
        for section, value in stats.items():
            if isinstance(value, Counter):
                for key in sorted(value):
                    print(f"{section}.{key}\t{value[key]}", file=out)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    # so RunOptions holds the only defaults
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
    lint.add_argument("--fail-level", choices=("error", "warning", "review"),
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
    args = parser.parse_args(argv)
    if not args.subcommand:
        parser.print_usage(file=errout or sys.stderr)
        return 2

    opts = RunOptions(
        **vars(args),
        output=output if output is not None else sys.stdout,
        errout=errout if errout is not None else sys.stderr,
    )

    handlers = {"lint": cmd_lint, "tokenize": cmd_tokenize, "stats": cmd_stats,
                "list-rules": cmd_list_rules}
    try:
        return handlers[opts.subcommand](opts)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=opts.errout)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
