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
    parse_document,
    reconstruct_text,
    serialize_document,
)
from .metadata import check_unique_sent_ids, validate_metadata
from .rules import RULES, LintConfig, lint_sentence, load_config
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


@dataclass
class CorpusStats:
    """Exact counts over a parsed corpus; totals equal their breakdowns."""

    sentences: int = 0
    tokens: int = 0
    mwt_spans: int = 0
    upos: Counter = field(default_factory=Counter)
    deprel: Counter = field(default_factory=Counter)
    genre: Counter = field(default_factory=Counter)
    dialect_group: Counter = field(default_factory=Counter)
    rule_counts: Counter = field(default_factory=Counter)


def compute_stats(docs: list[Document],
                  diagnostics: list[Diagnostic] | None = None) -> CorpusStats:
    """Count tokens, relations and metadata values across documents."""
    stats = CorpusStats()
    for doc in docs:
        for s in doc.sentences:
            stats.sentences += 1
            stats.mwt_spans += len(s.mwt_spans)
            for t in s.tokens:
                stats.tokens += 1
                stats.upos[t.upos] += 1
                stats.deprel[t.deprel] += 1
            genre = s.metadata_value("genre")
            if genre is not None:
                stats.genre[genre] += 1
            dialect = s.metadata_value("dialect_group")
            if dialect is not None:
                stats.dialect_group[dialect] += 1
    for d in diagnostics or []:
        stats.rule_counts[d.rule_id] += 1
    return stats


def _read_input(path: str) -> tuple[str, str]:
    """Read one input as UTF-8 with its line endings untouched."""
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8"), STDIN_NAME
    with open(path, encoding="utf-8", newline="") as f:
        return f.read(), path


def _load_documents(paths: list[str], errout) -> tuple[list[Document], bool]:
    """Parse every input; returns (documents, had_failures)."""
    docs: list[Document] = []
    failed = False
    for path in paths:
        try:
            text, name = _read_input(path)
            docs.append(parse_document(text, name))
        except OSError as exc:
            print(f"error: cannot read {path}: {exc.strerror or exc}",
                  file=errout)
            failed = True
        except (ParseError, UnicodeDecodeError) as exc:
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
            diags.append(Diagnostic(
                rule_id="CORE.BOM", severity=cfg.severity("CORE.BOM"),
                file=doc.file, line=1,
                sentence_id=doc.sentences[0].sent_id if doc.sentences else "",
                token_id=None, message="byte-order mark stripped from input",
                guideline_ref=None))
        for s in doc.sentences:
            diags.extend(lint_sentence(s, cfg))
            diags.extend(validate_metadata(s, cfg))
    diags.extend(check_unique_sent_ids(docs, cfg))
    diags.sort(key=lambda d: d.file_sort_key)
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
    out_docs: list[Document] = []
    for path in opts.inputs:
        try:
            text, name = _read_input(path)
        except OSError as exc:
            print(f"error: cannot read {path}: {exc.strerror or exc}",
                  file=opts.errout)
            exit_code = 2
            continue
        doc = Document(file=name)
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
            s.comments = [f"# {k} = {v}" for k, v in s.metadata]
            s.file = name
            doc.sentences.append(s)
        out_docs.append(doc)
    for doc in out_docs:
        opts.output.write(serialize_document(doc))
    return exit_code


def cmd_stats(opts: RunOptions) -> int:
    cfg = _resolve_config(opts)
    docs, failed = _load_documents(opts.inputs, opts.errout)
    diags = lint_documents(docs, cfg)
    stats = compute_stats(docs, diags)
    out = opts.output
    if opts.report_format == "json":
        payload = {
            "sentences": stats.sentences,
            "tokens": stats.tokens,
            "mwt_spans": stats.mwt_spans,
            "upos": dict(sorted(stats.upos.items())),
            "deprel": dict(sorted(stats.deprel.items())),
            "genre": dict(sorted(stats.genre.items())),
            "dialect_group": dict(sorted(stats.dialect_group.items())),
            "diagnostics": dict(sorted(stats.rule_counts.items())),
        }
        json.dump(payload, out, ensure_ascii=False, indent=2, sort_keys=True)
        out.write("\n")
    else:
        print(f"sentences\t{stats.sentences}", file=out)
        print(f"tokens\t{stats.tokens}", file=out)
        print(f"mwt_spans\t{stats.mwt_spans}", file=out)
        for section, counter in (("upos", stats.upos),
                                 ("deprel", stats.deprel),
                                 ("genre", stats.genre),
                                 ("dialect_group", stats.dialect_group),
                                 ("diagnostics", stats.rule_counts)):
            for key in sorted(counter):
                print(f"{section}.{key}\t{counter[key]}", file=out)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maibaam-lint",
        description="Parse, tokenize and lint Bavarian CoNLL-U treebank "
                    "files against the MaiBaam annotation guidelines.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--config", help="path to a key=value config file "
                        f"(falls back to ${CONFIG_ENV_VAR})")
    parser.add_argument("--guideline-version",
                        help="guideline version for version-gated rules "
                             "(default 2.17)")

    sub = parser.add_subparsers(dest="subcommand")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("inputs", nargs="+", metavar="FILE",
                        help='input files ("-" for standard input)')
    common.add_argument("--format", dest="report_format", default="human",
                        choices=("human", "json", "tsv"))
    common.add_argument("--config")
    common.add_argument("--guideline-version")

    lint = sub.add_parser("lint", parents=[common],
                          help="lint CoNLL-U files")
    lint.add_argument("--fail-level", default="error",
                      choices=("error", "warning", "review"),
                      help="lowest severity that causes exit code 1")

    tok = sub.add_parser("tokenize", parents=[common],
                         help="segment plain text into CoNLL-U skeletons")
    tok.add_argument("--lexicon", dest="lexicon_path",
                     help="path to a segmentation lexicon file")

    sub.add_parser("stats", parents=[common],
                   help="corpus statistics report")
    sub.add_parser("list-rules", help="print the rule catalog")
    return parser


def run(argv: list[str] | None = None, output=None, errout=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if getattr(args, "list_rules", False) and not args.subcommand:
        args.subcommand = "list-rules"
    if not args.subcommand:
        parser.print_usage(file=errout or sys.stderr)
        return 2

    opts = RunOptions(
        subcommand=args.subcommand,
        inputs=getattr(args, "inputs", []),
        report_format=getattr(args, "report_format", "human"),
        config_path=getattr(args, "config", None),
        fail_level=getattr(args, "fail_level", "error"),
        guideline_version=getattr(args, "guideline_version", None),
        lexicon_path=getattr(args, "lexicon_path", None),
        output=output if output is not None else sys.stdout,
        errout=errout if errout is not None else sys.stderr,
    )

    handlers = {
        "lint": cmd_lint,
        "tokenize": cmd_tokenize,
        "stats": cmd_stats,
        "list-rules": cmd_list_rules,
    }
    try:
        return handlers[opts.subcommand](opts)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=opts.errout)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
