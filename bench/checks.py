"""Output checks: each compares one CLI output against the generator's
ground truth and returns None when it holds, else the first discrepancy."""

from __future__ import annotations

import json
import re
from collections import Counter

_HUMAN_LINE_RE = re.compile(r"^.*:\d+: \[(?:error|warning|review)\] (\S+) ")


def check_lint_json(stdout: bytes, exit_code: int, truth: dict) -> str | None:
    """Findings equal the injected set by (file, rule id, sent_id, token id),
    and the exit code matches."""
    try:
        report = json.loads(stdout.decode("utf-8"))
        findings = report["findings"]
        got = Counter((f["file"], f["rule_id"], f["sentence_id"], f["token_id"])
                      for f in findings)
        total = report["summary"]["total"]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable JSON report: {exc}"
    if got != truth["findings"]:
        missing = sorted(map(str, truth["findings"] - got))[:3]
        extra = sorted(map(str, got - truth["findings"]))[:3]
        return f"findings differ: missing {missing}, unexpected {extra}"
    if total != len(findings):
        return f"summary total {total} != {len(findings)} findings"
    if exit_code != truth["exit_code"]:
        return f"exit code {exit_code}, expected {truth['exit_code']}"
    return None


def check_lint_human(stdout: bytes, exit_code: int, truth: dict) -> str | None:
    """Finding counts per rule equal the generator's counts; exit code 0."""
    counts: Counter = Counter()
    try:
        lines = stdout.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        return f"report is not UTF-8: {exc}"
    for line in lines:
        m = _HUMAN_LINE_RE.match(line)
        if m is None:
            return f"unparsable report line {line[:80]!r}"
        counts[m.group(1)] += 1
    if counts != Counter(truth["counts"]):
        return f"rule counts {dict(counts)} != {truth['counts']}"
    if exit_code != truth["exit_code"]:
        return f"exit code {exit_code}, expected {truth['exit_code']}"
    return None


def check_tokenize(stdout: bytes, exit_code: int, truth: dict) -> str | None:
    """The skeletons parse and round-trip byte-exactly, each `# text` equals
    its input line, and each sentence's token forms, UPOS hints and MWT
    surfaces match the lexicon's splits."""
    from maibaam_lint.conllu import ParseError, parse_document, serialize_document

    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    try:
        text = stdout.decode("utf-8")
        doc = parse_document(text, "<stdout>")
    except (UnicodeDecodeError, ParseError) as exc:
        return f"output does not parse: {exc}"
    if serialize_document(doc).encode("utf-8") != stdout:
        return "output does not round-trip byte-exactly"
    lines, expected = truth["lines"], truth["tokens"]
    if len(doc.sentences) != len(lines):
        return f"{len(doc.sentences)} sentences for {len(lines)} lines"
    for i, (s, line, (tokens, mwts)) in enumerate(zip(doc.sentences, lines,
                                                     expected)):
        if s.metadata_value("text") != line:
            return f"sentence {i + 1}: text {s.metadata_value('text')!r} " \
                   f"!= input {line!r}"
        got = [(t.form, t.upos) for t in s.tokens]
        got_mwts = [span.surface_form for span in s.mwt_spans]
        if got != tokens or got_mwts != mwts:
            return f"sentence {i + 1} ({line!r}): tokens {got}, MWTs " \
                   f"{got_mwts}; expected {tokens}, {mwts}"
    return None


CHECKS = {
    "lint-corpus": check_lint_json,
    "lint-skeleton": check_lint_human,
    "tokenize-text": check_tokenize,
}
