import errno
import gc
import io
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
import unittest.mock
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maibaam_lint
from maibaam_lint import cli, conllu, tokenizer
from maibaam_lint.cli import build_parser, lint_documents, run
from maibaam_lint.conllu import Diagnostic, parse_document
from maibaam_lint.rules import RULES, LintConfig
from maibaam_lint.tokenizer import APOSTROPHES, default_lexicon

from conftest import DURCH_DES, FIXTURES, GOLDEN, distinct_words

# child processes import the package this process imported, installed or not
CHILD_ENV = {**os.environ,
             "PYTHONPATH": str(Path(maibaam_lint.__file__).parents[1])}
# PYTHONUNBUFFERED would have every write reach the file at once; without
# it, output that main() failed to flush before os._exit would be lost
BUFFERED_ENV = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, output=out, errout=err)
    return code, out.getvalue(), err.getvalue()


def test_lint_golden_exit_zero_empty_findings():
    code, out, err = run_cli(["lint", "--format", "json", str(GOLDEN)])
    assert code == 0
    report = json.loads(out)
    assert report["findings"] == []
    assert report["version"] == 1
    assert report["summary"]["counts"] == {"error": 0, "warning": 0,
                                           "review": 0}


def test_lint_bad_copula_exit_one(tmp_path):
    bad = tmp_path / "bad.conllu"
    bad.write_text(
        "# sent_id = b-1\n# text = Du wirst groß.\n"
        "# genre = grammar examples\n# dialect_group = unk\n"
        "# location = unk\n# source = constructed\n"
        "1\tDu\t_\tPRON\t_\t_\t3\tnsubj\t_\tGermanLemma=du\n"
        "2\twirst\t_\tAUX\t_\t_\t3\tcop\t_\tGermanLemma=werden\n"
        "3\tgroß\t_\tADJ\t_\t_\t0\troot\t_\tSpaceAfter=No|GermanLemma=groß\n"
        "4\t.\t_\tPUNCT\t_\t_\t3\tpunct\t_\t_\n\n",
        encoding="utf-8")
    code, out, _ = run_cli(["lint", "--format", "json", str(bad)])
    assert code == 1
    report = json.loads(out)
    assert [f["rule_id"] for f in report["findings"]] == ["CLASS.COP"]


def test_lint_missing_file_exit_two():
    code, out, err = run_cli(["lint", "/no/such/file.conllu"])
    assert code == 2
    assert "/no/such/file.conllu" in err


def test_lint_parse_error_exit_two(tmp_path):
    bad = tmp_path / "broken.conllu"
    bad.write_text("1\tMinga\tPROPN\n\n", encoding="utf-8")
    code, _, err = run_cli(["lint", str(bad)])
    assert code == 2
    assert "WRONG_COLUMN_COUNT" in err


def test_report_determinism_under_shuffled_inputs(tmp_path):
    a = tmp_path / "a.conllu"
    b = tmp_path / "b.conllu"
    a.write_text("# sent_id = a-1\n# text = Haus\n"
                 "1\tHaus\t_\tNOUN\t_\t_\t0\troot\t_\t_\n\n",
                 encoding="utf-8")
    b.write_text("# sent_id = b-1\n# text = Hund\n"
                 "1\tHund\t_\tNOUX\t_\t_\t0\troot\t_\t_\n\n",
                 encoding="utf-8")
    _, out1, _ = run_cli(["lint", "--format", "json", str(a), str(b)])
    _, out2, _ = run_cli(["lint", "--format", "json", str(b), str(a)])
    assert out1 == out2


BAD_UPOS_FILE = (
    "# sent_id = x-1\n# text = Haus\n# genre = fiction\n"
    "# dialect_group = unk\n# location = unk\n# source = constructed\n"
    "1\tHaus\t_\tADJD\t_\t_\t0\troot\t_\tGermanLemma=Haus\n\n")


def test_human_report_format(tmp_path):
    f = tmp_path / "x.conllu"
    f.write_text(BAD_UPOS_FILE, encoding="utf-8")
    code, out, _ = run_cli(["lint", str(f)])
    assert code == 1
    line = out.splitlines()[0]
    assert line.startswith(f"{f}:7: [error] VOCAB.UPOS ")
    assert "(§2)" in line


def test_tsv_report_format(tmp_path):
    f = tmp_path / "x.conllu"
    f.write_text(BAD_UPOS_FILE, encoding="utf-8")
    _, out, _ = run_cli(["lint", "--format", "tsv", str(f)])
    lines = out.splitlines()
    assert lines[0].split("\t")[0] == "file"
    assert lines[1].split("\t")[5] == "VOCAB.UPOS"
    assert lines[1].split("\t")[3] == "1"  # token id column


def test_tsv_rows_keep_eight_fields(tmp_path):
    # a tab, LF or CR in a file name or sent_id would add fields or rows
    f = tmp_path / "x\ty\nz.conllu"
    f.write_text("# sent_id = a\tb\rc\n"
                 "1\tHaus\t_\tADJD\t_\t_\t0\troot\t_\tGermanLemma=Haus\n\n",
                 encoding="utf-8")
    code, out, err = run_cli(["lint", "--format", "tsv", str(f)])
    assert (code, err) == (1, "")
    rows = out.split("\n")
    assert rows.pop() == ""
    assert [len(row.split("\t")) for row in rows] == [8] * 7
    # the name shows its LF as \x0a, and TSV escapes that backslash
    name = str(tmp_path / "x\\ty\\\\x0az.conllu")
    assert {tuple(row.split("\t")[:3:2]) for row in rows[1:]} == {
        (name, "a\\tb\\rc")}


def test_tsv_message_keeps_eight_fields(tmp_path):
    # a config word list may hold a tab inside an entry, and META.GENRE
    # quotes the genre list in its message
    (tmp_path / "genres.txt").write_text("fan\tfiction\n", encoding="utf-8")
    conf = tmp_path / "lint.conf"
    conf.write_text("lexicon.genres.path = genres.txt\n", encoding="utf-8")
    f = tmp_path / "g.conllu"
    f.write_text("# sent_id = g-1\n# text = Haus\n# genre = blog\n"
                 "1\tHaus\t_\tNOUN\t_\t_\t0\troot\t_\tGermanLemma=Haus\n\n",
                 encoding="utf-8")
    _, out, err = run_cli(["lint", "--format", "tsv", "--config",
                           str(conf), str(f)])
    assert err == ""
    rows = [row.split("\t") for row in out.splitlines()]
    assert [len(row) for row in rows] == [8] * len(rows)
    genre = [row[6] for row in rows if row[5] == "META.GENRE"]
    assert genre == ["genre 'blog' not in {fan\\tfiction}"]


def _tsv_unescape(field):
    return re.sub(r"\\(.)", lambda m: {"t": "\t", "n": "\n", "r": "\r",
                                       "\\": "\\"}[m.group(1)], field)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.sampled_from("ab\\\t\n\rtnr")))
def test_tsv_fields_round_trip(text):
    # each escaped field reads back as it was, so a sent_id typed as
    # backslash-t and one holding a real tab are written apart
    out = io.StringIO()
    cli.render_tsv([Diagnostic("X.Y", "error", text, 1, text, None, text)],
                   out)
    header, row, end = out.getvalue().split("\n")
    assert end == ""
    fields = row.split("\t")
    assert len(fields) == 8
    assert [_tsv_unescape(fields[i]) for i in (0, 2, 6)] == [text] * 3


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet=st.sampled_from(
    "a\u00e9\\\t\n\r\x0b\x85\u2028")))
def test_tsv_field_equals_the_four_replaces(text):
    # printable text without a backslash is returned at once
    assert cli._tsv_field(text) == text.replace("\\", "\\\\").replace(
        "\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")


def test_fail_level_warning(tmp_path):
    f = tmp_path / "w.conllu"
    f.write_text("# sent_id = w-1\n# text = Haus\n"
                 "1\tHaus\t_\tNOUN\t_\t_\t0\troot\t_\t_\n\n",
                 encoding="utf-8")
    code_default, _, _ = run_cli(["lint", str(f)])
    assert code_default == 0  # LEMMA.MISSING and META.MISSING are warnings
    code_strict, _, _ = run_cli(["lint", "--fail-level", "warning", str(f)])
    assert code_strict == 1


def test_guideline_version_gate_via_flag():
    code_old, out_old, _ = run_cli(["lint", "--guideline-version", "1.1",
                                    "--format", "json", str(DURCH_DES)])
    code_new, out_new, _ = run_cli(["lint", "--guideline-version", "2.17",
                                    "--format", "json", str(DURCH_DES)])
    assert code_old == 0 and json.loads(out_old)["findings"] == []
    assert code_new == 1
    assert [f["rule_id"] for f in json.loads(out_new)["findings"]] == ["REL.FIXED"]


def test_config_file_and_env_fallback(tmp_path, monkeypatch):
    conf = tmp_path / "lint.conf"
    conf.write_text("rule.LEMMA.MISSING.enabled=false\n"
                    "rule.META.MISSING.enabled=false\n", encoding="utf-8")
    f = tmp_path / "w.conllu"
    f.write_text("# sent_id = w-1\n# text = Haus\n"
                 "1\tHaus\t_\tNOUN\t_\t_\t0\troot\t_\t_\n\n",
                 encoding="utf-8")
    code, out, _ = run_cli(["lint", "--fail-level", "warning",
                            "--config", str(conf), str(f)])
    assert code == 0
    monkeypatch.setenv("MAIBAAM_LINT_CONFIG", str(conf))
    code_env, _, _ = run_cli(["lint", "--fail-level", "warning", str(f)])
    assert code_env == 0
    monkeypatch.delenv("MAIBAAM_LINT_CONFIG")
    code_plain, _, _ = run_cli(["lint", "--fail-level", "warning", str(f)])
    assert code_plain == 1


def test_list_rules_subcommand_and_flag():
    code, out, _ = run_cli(["list-rules"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(RULES)
    assert {len(line.split("\t")) for line in lines} == {5}
    assert {line.split("\t")[4] for line in lines} == {"on"}
    assert any(line.split("\t")[0] == "CLASS.COP" and "§6.6" in line
               for line in lines)
    for flag in ("--list-rules", "--l"):
        # --l abbreviates --list-rules, though the hidden --lexicon also
        # starts with it
        code2, out2, _ = run_cli([flag])
        assert code2 == 0 and out2 == out


def test_no_subcommand_is_usage_error():
    code, _, err = run_cli([])
    assert code == 2
    assert "usage" in err.lower()


def test_tokenize_pipe_parses_and_lints_warning_only(tmp_path):
    src = tmp_path / "raw.txt"
    src.write_text("Servus, wia gehts da heid z'Minga?\n\n"
                   "I geh zum Beispiel ham.\n", encoding="utf-8")
    code, out, _ = run_cli(["tokenize", str(src)])
    assert code == 0
    doc = parse_document(out, "skeleton")
    assert len(doc.sentences) == 2
    diags = lint_documents([doc], LintConfig())
    assert diags  # skeletons lack lemmas and full metadata
    assert all(d.severity == "warning" for d in diags)
    assert {d.rule_id for d in diags} <= {"LEMMA.MISSING", "META.MISSING"}


_LEX = default_lexicon()
_WORD_PIECES = st.one_of(
    st.sampled_from(sorted(
        set(_LEX.split_surfaces()) | set(_LEX.intact_forms)
        | set(_LEX.clitic_onsets) | _LEX.abbreviations | _LEX.review_forms
        | _LEX.compagr_hosts | _LEX.nominalized_infinitives)),
    st.sampled_from(".,;:!?…\"„“”«»‹›¿¡()[]{}/%-"),
    st.sampled_from(APOSTROPHES),
    st.builds("{}{}".format, st.integers(0, 999),
              st.sampled_from(sorted(_LEX.units))),
    st.builds("{}{}{}".format, st.integers(0, 99),
              st.sampled_from(["-", "--", "–", "—"]), st.integers(0, 99)),
    st.text(st.characters(categories=("Lu", "Ll")), min_size=1, max_size=6))
_RAW_LINES = st.lists(
    st.tuples(st.sampled_from([" ", "  ", "\t"]),
              st.lists(_WORD_PIECES, min_size=1, max_size=3).map("".join)),
    min_size=1, max_size=8).map(
        lambda words: "".join(sep + word for sep, word in words) + " ")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raw=_RAW_LINES)
def test_tokenize_output_lints_with_only_the_expected_findings(
        tmp_path_factory, raw):
    # README "Tokenizer output": a skeleton reads back as written and lints
    # with missing lemmas and metadata only, except that a line of two or
    # more punctuation tokens has a punctuation head
    src = tmp_path_factory.mktemp("raw") / "raw.txt"
    src.write_text(raw + "\n", encoding="utf-8")
    code, out, err = run_cli(["tokenize", str(src)])
    assert (code, err) == (0, "")
    doc = parse_document(out, "raw.conllu")
    [s] = doc.sentences
    assert dict(s.metadata)["text"] == " ".join(raw.split())
    assert conllu.serialize_document(doc) == out
    all_punct = len(s.tokens) >= 2 and all(t.upos == "PUNCT"
                                           for t in s.tokens)
    for d in lint_documents([doc], LintConfig()):
        assert d.rule_id in {"LEMMA.MISSING", "META.MISSING"} or (
            d.rule_id == "STRUCT.PUNCT_CHILD" and all_punct), d


def test_tokenize_output_shape(tmp_path):
    src = tmp_path / "raw.txt"
    src.write_text("zum Beispiel\n", encoding="utf-8")
    _, out, _ = run_cli(["tokenize", str(src)])
    lines = out.splitlines()
    assert lines[0] == "# sent_id = raw-1"
    assert lines[1] == "# text = zum Beispiel"
    assert lines[2].startswith("1-2\tzum")
    assert lines[3].split("\t")[7] == "root"


def test_tokenize_writes_a_line_break_in_the_file_name_as_backslash_n(
        tmp_path):
    src = tmp_path / "a\nb.txt"
    src.write_text("zum Beispiel\n", encoding="utf-8")
    code, out, err = run_cli(["tokenize", str(src)])
    assert (code, err) == (0, "")
    [s] = parse_document(out, "skeleton").sentences
    assert s.sent_id == "a\\nb-1"
    skeleton = tmp_path / "skeleton.conllu"
    skeleton.write_text(out, encoding="utf-8")
    code, _, err = run_cli(["lint", str(skeleton)])
    assert code <= 1 and err == ""


def test_tokenize_gives_distinct_names_distinct_sent_ids(tmp_path,
                                                        monkeypatch):
    # a line break and a backslash followed by n, a tab and a backslash
    # followed by t, and a CR: each pair would share a sent_id unescaped;
    # angle brackets are part of a name, so "<x>.txt", "x.txt", "<>.txt"
    # and standard input differ; a byte that is not UTF-8 (0xff) is written
    # as \xff, apart from a name that holds a backslash followed by xff
    names = ["a\nb.txt", "a\\nb.txt", "c\td.txt", "c\\td.txt", "e\r.txt",
             "<x>.txt", "x.txt", "<>.txt", os.fsdecode(b"h\xff.txt"),
             "h\\xff.txt"]
    for name in names:
        (tmp_path / name).write_text("zum Beispiel\n", encoding="utf-8")
    monkeypatch.setattr(sys, "stdin",
                        io.TextIOWrapper(io.BytesIO(b"zum Beispiel\n"),
                                         encoding="utf-8"))
    code, out, err = run_cli(["tokenize", *(str(tmp_path / n) for n in names),
                              "-"])
    assert (code, err) == (0, "")
    out.encode("utf-8")  # no surrogate reaches the output
    ids = [s.sent_id for s in parse_document(out, "skeleton").sentences]
    assert ids == ["a\\nb-1", "a\\\\nb-1", "c\\td-1", "c\\\\td-1", "e\\r-1",
                   "<x>-1", "x-1", "<>-1", "h\\xff-1", "h\\\\xff-1", "stdin-1"]
    skeleton = tmp_path / "skeleton.conllu"
    skeleton.write_text(out, encoding="utf-8")
    _, report, _ = run_cli(["lint", str(skeleton)])
    assert "META.DUP_ID" not in report


# one basename in two directories, standard input and a file of its stem,
# names in angle brackets, a byte that is not UTF-8 and its escape, and
# names that end like a stem given to the second of two equal stems
_STEM_NAMES = ["a/x.txt", "b/x.txt", "x.txt", "x", "x~2.txt", "b/x~2.txt",
               "-", "stdin.txt", "<x>.txt", "<>.txt",
               os.fsdecode(b"a/h\xff.txt"), "h\\xff.txt"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(names=st.lists(st.sampled_from(_STEM_NAMES), min_size=1, max_size=7,
                      unique=True))
def test_tokenize_gives_each_input_a_stem_of_its_own(tmp_path_factory, names):
    work = tmp_path_factory.mktemp("stems")
    for sub in ("a", "b"):
        (work / sub).mkdir()
    paths = [n if n == "-" else str(work / n) for n in names]
    for path in paths:
        if path != "-":
            Path(path).write_text("zum Beispiel\n", encoding="utf-8")
    stdin = io.TextIOWrapper(io.BytesIO(b"Servus\n"), encoding="utf-8")
    with unittest.mock.patch.object(sys, "stdin", stdin):
        code, out, err = run_cli(["tokenize", *paths])
    assert (code, err) == (0, "")
    out.encode("utf-8")  # no surrogate reaches the output
    stems = [s.sent_id.removesuffix("-1")
             for s in parse_document(out, "skeleton").sentences]
    assert len(set(stems)) == len(paths)
    # the first input of each stem keeps it: stems that differ are unchanged
    own = [n.rpartition("/")[2].partition(".")[0] for n in names]
    own = ["stdin" if n == "-" else cli._shown(cli._tsv_field(o))
           for n, o in zip(names, own)]
    for i, stem in enumerate(own):
        if stem not in own[:i]:
            assert stems[i] == stem
    skeleton = work / "skeleton.conllu"
    skeleton.write_text(out, encoding="utf-8")
    code, report, err = run_cli(["lint", str(skeleton)])
    assert code <= 1 and err == ""
    assert "META.DUP_ID" not in report


def test_tokenize_custom_lexicon(tmp_path):
    lex = tmp_path / "lex.tsv"
    lex.write_text("beim\tmwt\tbei m\tADP DET\n", encoding="utf-8")
    src = tmp_path / "raw.txt"
    src.write_text("beim Essen\n", encoding="utf-8")
    _, out, _ = run_cli(["tokenize", "--lexicon", str(lex), str(src)])
    assert out.splitlines()[2].startswith("1-2\tbeim")


def test_tokenize_rejects_a_lexicon_line_without_surface(tmp_path):
    lex = tmp_path / "lex.tsv"
    lex.write_text("\tonset\t_\tADP\n", encoding="utf-8")
    src = tmp_path / "raw.txt"
    src.write_text("Haus\n", encoding="utf-8")
    assert run_cli(["tokenize", "--lexicon", str(lex), str(src)]) == (
        2, "", f"error: {lex}:1: empty surface\n")


def test_tokenize_names_the_lines_of_a_lexicon_clash(tmp_path):
    lex = tmp_path / "clash.tsv"
    lex.write_text("ab\tclitic\ta b\t_\nabc\tclitic\tab c\t_\n",
                   encoding="utf-8")
    src = tmp_path / "raw.txt"
    src.write_text("abc\n", encoding="utf-8")
    assert run_cli(["tokenize", "--lexicon", str(lex), str(src)]) == (
        2, "", f"error: {lex}:1: split surface 'ab' is also a part on "
               "line 2\n")


def test_tokenize_strips_a_byte_order_mark(tmp_path):
    plain, bom = tmp_path / "raw.txt", tmp_path / "bom" / "raw.txt"
    bom.parent.mkdir()
    plain.write_text("zum Haus\nServus\n", encoding="utf-8")
    bom.write_text("\ufeffzum Haus\nServus\n", encoding="utf-8")
    expected = run_cli(["tokenize", str(plain)])
    assert expected[0] == 0 and "1-2\tzum" in expected[1]
    assert run_cli(["tokenize", str(bom)]) == expected


def test_tokenize_strips_a_byte_order_mark_on_every_line(tmp_path):
    # as `cat a.txt b.txt` leaves it when both files start with a BOM; a
    # line holding only the BOM is blank and gets no sentence number
    plain, bom = tmp_path / "raw.txt", tmp_path / "bom" / "raw.txt"
    bom.parent.mkdir()
    plain.write_text("Servus\nzum Haus\n", encoding="utf-8")
    bom.write_text("\ufeffServus\n\ufeffzum Haus\n\ufeff\n", encoding="utf-8")
    expected = run_cli(["tokenize", str(plain)])
    assert expected[0] == 0 and "1-2\tzum" in expected[1]
    assert run_cli(["tokenize", str(bom)]) == expected


def test_tokenize_output_is_byte_stable(monkeypatch):
    # one line per lexicon kind, with case and apostrophe variants
    monkeypatch.chdir(FIXTURES)
    assert run_cli(["tokenize", "golden_tokenize.txt"]) == (
        0, (FIXTURES / "golden_tokenize.conllu").read_bytes().decode("utf-8"),
        "")


def test_tokenize_keeps_a_unit_whose_folded_key_is_longer(tmp_path):
    # "İ" lower-cases to two code points, "i" + U+0307; a split measured on
    # that key must not slice the surface
    lex = tmp_path / "lex.tsv"
    lex.write_text("i̇\tonset\ti̇\tPRON\n", encoding="utf-8")
    src = tmp_path / "raw.txt"
    src.write_text("İx\n", encoding="utf-8")
    assert run_cli(["tokenize", "--lexicon", str(lex), str(src)]) == (
        0, "# sent_id = raw-1\n# text = İx\n"
           "1\tİx\t_\tX\t_\t_\t0\troot\t_\t_\n\n", "")


def test_tokenize_streams_documents_in_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    texts = {"a.txt": "Servus, wia gehts da heid z'Minga?\n\n"
                      "  I  geh zum Beispiel ham.  \n",
             "b.txt": "wemma mia gehn ,dassd kummst!\n(zum) Beispiel"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, err = run_cli(["tokenize", "a.txt", "missing.txt", "b.txt"])
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith("error: cannot read missing.txt: ")
    # stdout is each readable input's own output, in argument order
    assert out == run_cli(["tokenize", "a.txt"])[1] + \
        run_cli(["tokenize", "b.txt"])[1]
    doc = parse_document(out, "skeleton")
    assert [s.metadata_value("sent_id") for s in doc.sentences] == [
        "a-1", "a-2", "b-1", "b-2"]
    raw_lines = [line for text in texts.values()
                 for line in text.split("\n") if line.strip()]
    assert [s.metadata_value("text") for s in doc.sentences] == [
        " ".join(line.split()) for line in raw_lines]


_BLANK_OR_RAW_LINES = st.lists(
    st.tuples(st.sampled_from(["", "\ufeff", "\ufeff\ufeff"]),
              _RAW_LINES | st.sampled_from(["", " ", "\t "])),
    min_size=1, max_size=60)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(lines=_BLANK_OR_RAW_LINES)
def test_tokenize_then_lint_a_file_of_many_lines(tmp_path_factory, lines):
    # the CLI twin of the one-line property above: one file of many lines,
    # some opened by byte-order marks and some blank, goes through
    # `tokenize` and then `lint` and `stats`
    work = tmp_path_factory.mktemp("twin")
    src, skeleton = work / "raw.txt", work / "raw.conllu"
    src.write_text("".join(bom + text + "\n" for bom, text in lines),
                   encoding="utf-8")
    code, out, err = run_cli(["tokenize", str(src)])
    assert (code, err) == (0, "")
    skeleton.write_text(out, encoding="utf-8")
    code, report, err = run_cli(["lint", "--format", "json", str(skeleton)])
    assert code in (0, 1) and err == ""
    assert {f["rule_id"] for f in json.loads(report)["findings"]} <= {
        "LEMMA.MISSING", "META.MISSING", "STRUCT.PUNCT_CHILD"}
    code, report, err = run_cli(["stats", "--format", "json", str(skeleton)])
    assert (code, err) == (0, "")
    assert json.loads(report)["sentences"] == sum(
        bool(text.strip()) for _, text in lines)


def test_tokenize_then_lint_more_distinct_words_than_the_memo_holds(
        tmp_path):
    # about 70,000 words: the tokenizer's unit memo empties midway through
    # the input, every line still becomes one sentence, and the skeletons
    # lint with no error
    words = distinct_words(random.Random(27),
                           tokenizer.UNIT_MEMO_LIMIT + 4_464, range(3, 11))
    lines = [" ".join(words[i:i + 12]) for i in range(0, len(words), 12)]
    src, skeleton = tmp_path / "words.txt", tmp_path / "words.conllu"
    src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code, out, err = run_cli(["tokenize", str(src)])
    assert (code, err) == (0, "")
    assert out.count("# sent_id = ") == len(lines)
    skeleton.write_text(out, encoding="utf-8")
    assert run_cli(["lint", str(skeleton)])[::2] == (0, "")


@pytest.mark.parametrize("raw", [
    b"", b"\n \n\t\n", b"zum Beispiel\r\nServus\r\n\r\n",
    b"zum Beispiel\n\nServus", b"Mia san do.\nI geh hoam.\n" * 8,
], ids=["empty", "blank-only", "crlf", "no-final-newline", "many-lines"])
def test_tokenize_does_not_depend_on_the_chunk_size(raw, tmp_path,
                                                    monkeypatch):
    path = tmp_path / "t.txt"
    path.write_bytes(raw)
    whole = run_cli(["tokenize", str(path)])
    assert whole[0] == 0 and whole[2] == ""
    assert (whole[1] == "") == (not raw.strip())
    for size in (1, 2, 5, 13):
        monkeypatch.setattr(conllu, "_CHUNK_CHARS", size)
        assert run_cli(["tokenize", str(path)]) == whole


def test_tokenize_reports_undecodable_input_and_goes_on(tmp_path, monkeypatch):
    # like lint and stats: one error line for the bad input, the other
    # inputs are still tokenized, and the run ends with exit 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_text("zum Beispiel\n", encoding="utf-8")
    (tmp_path / "bad.txt").write_bytes(b"gut\n\xff kaputt\n")
    (tmp_path / "b.txt").write_text("Servus\n", encoding="utf-8")
    code, out, err = run_cli(["tokenize", "a.txt", "bad.txt", "b.txt"])
    assert code == 2
    # the lines before the bad one are tokenized, as they are read
    assert out == run_cli(["tokenize", "a.txt"])[1] + \
        "# sent_id = bad-1\n# text = gut\n" \
        "1\tgut\t_\tX\t_\t_\t0\troot\t_\t_\n\n" + \
        run_cli(["tokenize", "b.txt"])[1]
    # the line names the input and the line of the first bad byte
    assert err == "error: bad.txt:2: not UTF-8: invalid start byte 0xff\n"
    # lint and stats name the same line, unless a line before it is not
    # CoNLL-U: the first fault in the file is the one reported
    (tmp_path / "bad.conllu").write_bytes(b"# gut\n\xff kaputt\n")
    for cmd in ("lint", "stats"):
        assert run_cli([cmd, "bad.conllu"])[2] == \
            err.replace("bad.txt", "bad.conllu")
        assert run_cli([cmd, "bad.txt"])[2] == "error: bad.txt:1: " \
            "WRONG_COLUMN_COUNT: expected 10 tab-separated fields, got 1\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xc3"),
                                                        encoding="utf-8"))
    assert run_cli(["tokenize", "-"])[2] == \
        "error: <stdin>:1: not UTF-8: unexpected end of data 0xc3\n"


_GOLDEN_LINES = GOLDEN.read_bytes().count(b"\n")


@pytest.mark.parametrize("tail,error", [
    (b"# caf\xc3\xa9 \xe9 au lait\n", "not UTF-8: invalid continuation byte "
                                      "0xe9"),
    (b"\xff\n", "not UTF-8: invalid start byte 0xff"),
    (b"# caf\xc3", "not UTF-8: unexpected end of data 0xc3"),
    (b"# sent_id = late\r\n", "CRLF_LINE_ENDING: CRLF line ending (use LF)"),
    (b"", None),
], ids=["bad-byte", "bad-start-byte", "cut-at-end", "crlf", "clean"])
@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
def test_input_faults_are_located_at_any_read_size(tail, error, stdin,
                                                   tmp_path, monkeypatch):
    # golden.conllu holds characters of two and three bytes, which small
    # reads cut apart; the fault comes on the line after its last
    golden = GOLDEN.read_bytes()
    path = tmp_path / "t.conllu"
    arg, name = ("-", "<stdin>") if stdin else (str(path), str(path))

    def run_on(raw, cmd):
        if stdin:
            monkeypatch.setattr(sys, "stdin",
                                io.TextIOWrapper(io.BytesIO(raw),
                                                 encoding="utf-8"))
        else:
            path.write_bytes(raw)
        return run_cli([cmd, arg])

    for cmd in ("lint", "tokenize"):
        whole = run_on(golden + tail, cmd)
        if error is None or (cmd == "tokenize" and "CRLF" in error):
            assert whole[0] == 0 and whole[2] == ""
        else:
            # lint adds nothing of a failed input; tokenize writes what it
            # made of the lines before the bad one
            good = run_on(golden, cmd)[1]
            assert whole == (2, "" if cmd == "lint" else good,
                             f"error: {name}:{_GOLDEN_LINES + 1}: {error}\n")
        for size in (1, 2, 3, 5, 64, 4096):
            monkeypatch.setattr(conllu, "_CHUNK_CHARS", size)
            assert run_on(golden + tail, cmd) == whole, (cmd, size)
        monkeypatch.undo()


def test_the_first_fault_in_a_file_is_reported(tmp_path, monkeypatch):
    # a not-UTF-8 byte, a CRLF and a parse error are found in the order of
    # their lines, whichever piece of the input holds them
    monkeypatch.chdir(tmp_path)
    filler = b"# x\n" * 20_000
    files = {
        "column.conllu": (b"1\tMinga\n\n" + filler + b"\xff\n",
                          "column.conllu:1: WRONG_COLUMN_COUNT: expected 10 "
                          "tab-separated fields, got 2"),
        "byte.conllu": (filler + b"\xff\n# c\r\n",
                        "byte.conllu:20001: not UTF-8: invalid start byte "
                        "0xff"),
        "crlf.conllu": (filler + b"# c\r\n\xff\n",
                        "crlf.conllu:20001: CRLF_LINE_ENDING: CRLF line "
                        "ending (use LF)"),
    }
    for name, (raw, error) in files.items():
        Path(name).write_bytes(raw)
        for size in (7, 1 << 16):
            monkeypatch.setattr(conllu, "_CHUNK_CHARS", size)
            assert run_cli(["lint", name]) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("arg", ["ff.conllu", "-"], ids=["file", "stdin"])
def test_console_locates_a_bad_byte_past_the_first_read(arg, tmp_path):
    # about 3 MB, with a byte that is not UTF-8 on line 10,001, past the
    # first 64 KiB read, read by name or as standard input
    path = tmp_path / "ff.conllu"
    path.write_bytes(b"# filler line\n" * 10_000 + b"# \xff\n"
                     + b"# filler line\n" * 200_000)
    with open(path, "rb") as stdin:
        proc = subprocess.run(
            [sys.executable, "-m", "maibaam_lint.cli", "lint", arg],
            stdin=stdin, capture_output=True, cwd=tmp_path, env=BUFFERED_ENV)
    name = "<stdin>" if arg == "-" else arg
    assert (proc.returncode, proc.stdout, proc.stderr.decode("utf-8")) == (
        2, b"", f"error: {name}:10001: not UTF-8: invalid start byte 0xff\n")


def test_lint_holds_a_piece_of_its_input_not_the_whole_file(golden_text,
                                                            tmp_path):
    # the input is read in pieces and its sentences are dropped as they
    # are linted; what the run keeps is its findings (none here) and an
    # index of the sent_ids, far less than the text
    copies = 1_000_000 // len(golden_text) + 1
    text = "".join(re.sub(r"(?m)^# sent_id = (.*)$", rf"# sent_id = \1-{k}",
                          golden_text) for k in range(copies))
    path = tmp_path / "big.conllu"
    path.write_text(text, encoding="utf-8")
    tracemalloc.start()
    try:
        result = run_cli(["lint", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, "", "")
    assert peak < sys.getsizeof(text) / 2


def test_undecodable_config_and_lexicon_files_are_located(tmp_path,
                                                          monkeypatch):
    # the same lines as for inputs, and exit 2: file and line of the first
    # bad byte, or the file and why it cannot be opened
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    Path("bad.conf").write_bytes(b"# config\nguideline_version = 2.17\n"
                                 b"# caf\xe9\n")
    Path("list.conf").write_text("lexicon.copula.path = words.txt\n",
                                 encoding="utf-8")
    # the bad byte lies past the first 8 KiB that a text read decodes
    Path("words.txt").write_bytes(b"sein\n" * 3000 + b"caf\xe9\n")
    Path("bad.tsv").write_bytes(b"# lexicon\nzum\tmwt\tzu m\t_\n# caf\xe9\n")
    # a dropped byte-order mark takes no line of its own
    Path("bom.conf").write_bytes(b"\xef\xbb\xbf# config\n# caf\xe9\n")
    Path("bom.tsv").write_bytes(b"\xef\xbb\xbf" + b"# lexicon\n" * 5000
                                + b"# caf\xe9\n")
    Path("raw.txt").write_text("Servus\n", encoding="utf-8")

    def error(name, line, prefix=""):
        return (2, "", f"error: {prefix}{name}:{line}: not UTF-8: invalid "
                       "continuation byte 0xe9\n")

    assert run_cli(["lint", "--config", "bad.conf", str(GOLDEN)]) == \
        error("bad.conf", 3)
    # a word list's fault follows the config line that names it
    assert run_cli(["lint", "--config", "list.conf", str(GOLDEN)]) == \
        error(tmp_path / "words.txt", 3001, "list.conf:1: ")
    assert run_cli(["tokenize", "--lexicon", "bad.tsv", "raw.txt"]) == \
        error("bad.tsv", 3)
    assert run_cli(["lint", "--config", "bom.conf", str(GOLDEN)]) == \
        error("bom.conf", 2)
    assert run_cli(["tokenize", "--lexicon", "bom.tsv", "raw.txt"]) == \
        error("bom.tsv", 5001)
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, "bad.conf")
    assert run_cli(["stats", str(GOLDEN)]) == error("bad.conf", 3)
    monkeypatch.delenv(cli.CONFIG_ENV_VAR)
    # a file that cannot be opened gets the line of an input that cannot
    # be read, after the config line that names a word list; a config
    # line's path is resolved against the config's directory
    Path("adir").mkdir()
    for name, line in (("genres.conf", "lexicon.genres.path = genress.txt"),
                       ("list-dir.conf", "lexicon.copula.path = adir"),
                       ("tokenizer.conf", "lexicon.tokenizer.path = x.tsv")):
        Path(name).write_text(line + "\n", encoding="utf-8")
    golden = str(GOLDEN)
    for argv, where, code in (
            (["lint", "--config", "missing.conf", golden],
             "cannot read missing.conf", errno.ENOENT),
            (["lint", "--config", "adir", golden], "cannot read adir",
             errno.EISDIR),
            (["list-rules", "--config", "missing.conf"],
             "cannot read missing.conf", errno.ENOENT),
            (["stats", "--config", "genres.conf", golden],
             f"genres.conf:1: cannot read {tmp_path / 'genress.txt'}",
             errno.ENOENT),
            (["lint", "--config", "list-dir.conf", golden],
             f"list-dir.conf:1: cannot read {tmp_path / 'adir'}",
             errno.EISDIR),
            (["tokenize", "--lexicon", "missing.tsv", "raw.txt"],
             "cannot read missing.tsv", errno.ENOENT),
            (["tokenize", "--lexicon", "adir", "raw.txt"], "cannot read adir",
             errno.EISDIR),
            # the tokenizer lexicon is read after the config, so no config
            # line is read with it
            (["tokenize", "--config", "tokenizer.conf", "raw.txt"],
             f"cannot read {tmp_path / 'x.tsv'}", errno.ENOENT)):
        assert run_cli(argv) == \
            (2, "", f"error: {where}: {os.strerror(code)}\n"), argv
    # only tokenize opens the tokenizer lexicon
    assert run_cli(["lint", "--config", "tokenizer.conf", golden]) == \
        (0, "", "")


def test_stats_counts():
    code, out, _ = run_cli(["stats", "--format", "json", str(GOLDEN)])
    assert code == 0
    stats = json.loads(out)
    assert stats["sentences"] == 21
    assert stats["upos"]["AUX"] >= 1
    assert sum(stats["upos"].values()) == stats["tokens"]
    assert sum(stats["deprel"].values()) == stats["tokens"]
    assert stats["mwt_spans"] == 2
    assert stats["genre"]["wiki"] >= 4
    assert stats["dialect_group"]["central"] >= 5


def test_stats_empty_corpus(tmp_path):
    empty = tmp_path / "empty.conllu"
    empty.write_bytes(b"")
    code, out, _ = run_cli(["stats", "--format", "json", str(empty)])
    assert code == 0
    stats = json.loads(out)
    assert (stats["sentences"], stats["tokens"], stats["mwt_spans"]) == (0, 0, 0)
    assert not stats["upos"] and not stats["deprel"]


def test_stats_cli_json():
    code, out, _ = run_cli(["stats", "--format", "json", str(GOLDEN)])
    assert code == 0
    payload = json.loads(out)
    assert payload["sentences"] == 21
    assert sum(payload["upos"].values()) == payload["tokens"]
    assert payload["diagnostics"] == {}


def test_stats_cli_tsv():
    code, out, _ = run_cli(["stats", str(GOLDEN)])
    assert code == 0
    lines = dict(line.split("\t") for line in out.splitlines())
    assert lines["sentences"] == "21"
    assert "upos.NOUN" in lines


@pytest.mark.parametrize("fmt, golden", [
    ("human", "golden_lint.txt"),
    ("tsv", "golden_lint.tsv"),
    ("json", "golden_lint.json"),
])
def test_lint_output_is_byte_stable(fmt, golden, monkeypatch):
    # skeleton.conllu is tokenize's output for four of golden.conllu's texts
    monkeypatch.chdir(FIXTURES)
    code, out, err = run_cli(["lint", "--format", fmt, "skeleton.conllu",
                              "durch_des_fixed.conllu", "golden.conllu"])
    assert (code, err) == (1, "")
    assert out == (FIXTURES / golden).read_bytes().decode("utf-8")


# text that json.dumps escapes or leaves, the cases mixed in often: the
# characters it escapes, DEL, U+2028 and a lone surrogate, which it leaves,
# and any other code point, surrogates included
_JSON_TEXT = st.text(st.sampled_from(
    '"\\\x00\x08\x0c\n\r\t\x1b\x1f \x7f\u2028\ud800\udcffa\u00e4\u00a7') |
    st.characters(exclude_categories=()), max_size=12)
_DIAGNOSTICS = st.lists(st.builds(
    Diagnostic,
    rule_id=st.sampled_from([r.rule_id for r in RULES]),
    severity=st.sampled_from(list(conllu.SEVERITY_RANK)),
    file=_JSON_TEXT, line=st.integers(1, 10**6), sentence_id=_JSON_TEXT,
    token_id=st.none() | st.integers(1, 999), message=_JSON_TEXT,
    guideline_ref=st.none() | st.sampled_from(["§6.6", "§3"]) | _JSON_TEXT),
    max_size=8)


def _json_dumps(obj):
    return json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) \
        + "\n"


@settings(max_examples=300, deadline=None)
@given(diags=_DIAGNOSTICS, files=st.lists(_JSON_TEXT, max_size=3))
def test_json_report_is_what_json_dumps_writes(diags, files):
    out = io.StringIO()
    cli.render_json(diags, files, out)
    assert out.getvalue() == _json_dumps({
        "findings": [d._asdict() for d in diags],
        "summary": {"files": sorted(set(files)),
                    "counts": {**dict.fromkeys(conllu.SEVERITY_RANK, 0),
                               **Counter(d.severity for d in diags)},
                    "total": len(diags)},
        "version": cli.REPORT_VERSION})


_JSON_VALUES = st.recursive(
    st.none() | st.integers() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4), max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES)
def test_json_values_are_what_json_dumps_writes(value):
    assert cli._json_value(value) + "\n" == _json_dumps(value)


@pytest.mark.parametrize("value", [
    True, False, 1.5, {"a": [1, None, False]}, [{"b": 0.0}], (1, 2)])
def test_json_writer_rejects_what_a_report_does_not_hold(value):
    # json would write True as true and a float as it pleases; a report
    # holds neither
    with pytest.raises(TypeError):
        cli._json_value(value)


class _CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


_RENDER = {"human": cli.render_human, "tsv": cli.render_tsv,
           "json": lambda diags, out: cli.render_json(diags, ["a.conllu"], out)}


@pytest.mark.parametrize("findings", [0, 1, 255, 256, 257, 500])
@pytest.mark.parametrize("report_format", list(_RENDER))
def test_reports_take_a_write_per_batch_of_findings(report_format, findings):
    diags = [Diagnostic("VOCAB.UPOS", "error", "a.conllu", i, "a-1", i,
                        f"m{i}", "§3" if i % 2 else None)
             for i in range(1, findings + 1)]
    out = _CountingWriter()
    _RENDER[report_format](diags, out)
    # a header, summary or version may take one write of its own
    assert out.writes <= -(-findings // cli._BATCH_LINES) + 1
    report = out.getvalue()
    if report_format == "json":
        messages = [f["message"] for f in json.loads(report)["findings"]]
    else:
        rows = report.splitlines()[report_format == "tsv":]
        messages = [re.search(r"\bm\d+\b", row)[0] for row in rows]
    assert messages == [f"m{i}" for i in range(1, findings + 1)]


def test_json_finding_keys_are_the_diagnostic_fields_sorted():
    # a field added to Diagnostic must be added to render_json's finding
    out = io.StringIO()
    cli.render_json([Diagnostic("R", "error", "f", 1, "s", 2, "m", "§1")],
                    ["f"], out)
    [finding] = json.loads(out.getvalue())["findings"]
    assert list(finding) == sorted(Diagnostic._fields)


@pytest.mark.parametrize("env", [BUFFERED_ENV,
                                 {**BUFFERED_ENV, "PYTHONUNBUFFERED": "1"}],
                         ids=["buffered", "unbuffered"])
def test_console_json_report_into_a_file_is_complete(env, tmp_path):
    # a skeleton's findings, more than 1 MB of report
    text = tmp_path / "big.txt"
    text.write_text("zum Beispiel, gibts z'Minga\n" * 1_500, encoding="utf-8")
    skeleton = tmp_path / "big.conllu"
    skeleton.write_text(run_cli(["tokenize", str(text)])[1], encoding="utf-8")
    argv = ["lint", "--format", "json", str(skeleton)]
    out = tmp_path / "report.json"
    with open(out, "wb") as f:
        proc = subprocess.run(
            [sys.executable, "-m", "maibaam_lint.cli", *argv],
            stdout=f, stderr=subprocess.PIPE, env=env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    written = out.read_bytes()
    assert len(written) > 1_000_000
    assert written == _in_process(argv)[1]


def test_structural_findings_render_without_a_citation(tmp_path,
                                                       monkeypatch):
    meta = ("# genre = grammar examples\n# dialect_group = central\n"
            "# location = Munich\n# source = constructed\n")
    (tmp_path / "h.conllu").write_text(
        "# sent_id = h-1\n# text = Servus Servus\n" + meta +
        "1\tServus\t_\tINTJ\t_\t_\t0\troot\t_\tGermanLemma=servus\n"
        "2\tServus\t_\tINTJ\t_\t_\t5\tdiscourse\t_\tGermanLemma=servus\n\n"
        "# sent_id = h-2\n# text = Servus\n" + meta +
        "1\tServus\t_\tINTJ\t_\t_\t1\tdiscourse\t_\tGermanLemma=servus\n\n",
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run_cli(["lint", "h.conllu"]) == (1, (
        "h.conllu:8: [error] STRUCT.HEAD_RANGE head 5 exceeds sentence "
        "length 2\n"
        "h.conllu:10: [error] STRUCT.NO_ROOT no token has head 0\n"
        "h.conllu:16: [error] STRUCT.CYCLE head chain through token 1 "
        "revisits itself\n"), "")
    code, out, err = run_cli(["lint", "--format", "tsv", "h.conllu"])
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == [
        "h.conllu\t8\th-1\t2\terror\tSTRUCT.HEAD_RANGE\t"
        "head 5 exceeds sentence length 2\t",
        "h.conllu\t10\th-2\t\terror\tSTRUCT.NO_ROOT\tno token has head 0\t",
        "h.conllu\t16\th-2\t1\terror\tSTRUCT.CYCLE\t"
        "head chain through token 1 revisits itself\t"]


def _unparseable_source_file(tmp_path):
    bad = tmp_path / "x.conllu"
    bad.write_text("# sent_id = x-1\n# text = Servus\n# genre = wiki\n"
                   "# dialect_group = central\n# location = Munich\n"
                   "# source = http://[oops\n"
                   "1\tServus\t_\tINTJ\t_\t_\t0\troot\t_\t"
                   "GermanLemma=servus\n\n", encoding="utf-8")
    return str(bad)


def test_lint_reports_an_unparseable_source_and_goes_on(tmp_path):
    bad = _unparseable_source_file(tmp_path)
    code, out, err = run_cli(["lint", bad, str(GOLDEN), str(DURCH_DES)])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].startswith(f"{DURCH_DES}:")
    assert lines[1:] == [
        f"{bad}:1: [warning] META.SOURCE source for genre 'wiki' should be "
        "an absolute URL, got 'http://[oops' (§1.3)"]


def test_stats_counts_an_unparseable_source(tmp_path):
    bad = _unparseable_source_file(tmp_path)
    code, out, err = run_cli(["stats", "--format", "json", bad, str(GOLDEN)])
    assert (code, err) == (0, "")
    stats = json.loads(out)
    assert stats["diagnostics"] == {"META.SOURCE": 1}
    assert stats["sentences"] == 22


@pytest.mark.parametrize("fmt", ["human", "tsv"])
def test_stats_escapes_keys_so_each_line_keeps_two_fields(tmp_path, fmt):
    src = tmp_path / "keys.conllu"
    src.write_text("# sent_id = k-1\n# genre = fan\tfic\n"
                   "# dialect_group = a\\b\n"
                   "1\tHaus\t_\tNO\rUN\t_\t_\t0\troot\t_\t_\n\n",
                   encoding="utf-8", newline="")
    code, out, err = run_cli(["stats", "--format", fmt, str(src)])
    assert (code, err) == (0, "")
    lines = out.split("\n")[:-1]
    assert all(len(line.split("\t")) == 2 for line in lines), lines
    assert {"genre.fan\\tfic\t1", "dialect_group.a\\\\b\t1",
            "upos.NO\\rUN\t1"} <= set(lines)


@pytest.mark.parametrize("argv, golden", [
    ([], "golden_stats.tsv"),
    (["--format", "json"], "golden_stats.json"),
    # README: --format tsv prints the same name<TAB>count lines as human
    (["--format", "tsv"], "golden_stats.tsv"),
])
def test_stats_output_is_byte_stable(argv, golden):
    code, out, err = run_cli(["stats", *argv, str(GOLDEN), str(DURCH_DES)])
    assert (code, err) == (0, "")
    assert out == (FIXTURES / golden).read_bytes().decode("utf-8")


def test_stats_counts_the_findings_lint_reports_without_sorting_them(
        tmp_path, monkeypatch):
    # two files sharing a sent_id, each missing most metadata keys
    paths = []
    for name in ("a.conllu", "b.conllu"):
        f = tmp_path / name
        f.write_text("# sent_id = s-1\n"
                     "1\tHaus\t_\tNOUN\t_\t_\t0\troot\t_\t_\n\n",
                     encoding="utf-8")
        paths.append(str(f))
    _, out, _ = run_cli(["lint", "--format", "json", *paths])
    expected = {}
    for f in json.loads(out)["findings"]:
        expected[f["rule_id"]] = expected.get(f["rule_id"], 0) + 1
    assert expected["META.DUP_ID"] == 2

    def refuse(self):
        raise AssertionError("stats sorted the findings it counts")

    monkeypatch.setattr(cli._LintRun, "finish_sorted", refuse)
    code, out, err = run_cli(["stats", "--format", "json", *paths])
    assert (code, err) == (0, "")
    assert json.loads(out)["diagnostics"] == expected


def test_bom_is_flagged_but_tolerated(tmp_path):
    f = tmp_path / "bom.conllu"
    f.write_text("﻿# sent_id = b-1\n# text = Haus\n"
                 "1\tHaus\t_\tNOUN\t_\t_\t0\troot\t_\tGermanLemma=Haus\n\n",
                 encoding="utf-8")
    code, out, _ = run_cli(["lint", "--format", "json", str(f)])
    assert code == 0  # warnings only
    rules = [x["rule_id"] for x in json.loads(out)["findings"]]
    assert "CORE.BOM" in rules


def test_bom_only_file_finding_fields():
    doc = parse_document("\ufeff", "b.conllu")
    assert lint_documents([doc], LintConfig()) == [Diagnostic(
        rule_id="CORE.BOM", severity="warning", file="b.conllu", line=1,
        sentence_id="", token_id=None,
        message="byte-order mark stripped from input", guideline_ref=None)]


def test_empty_file_is_clean(tmp_path):
    f = tmp_path / "empty.conllu"
    f.write_text("", encoding="utf-8")
    code, out, err = run_cli(["lint", "--format", "json", str(f)])
    assert (code, err) == (0, "")
    assert json.loads(out)["findings"] == []


def test_crlf_file_is_a_located_parse_error(tmp_path):
    f = tmp_path / "crlf.conllu"
    f.write_bytes(GOLDEN.read_bytes().replace(b"\n", b"\r\n"))
    code, _, err = run_cli(["lint", str(f)])
    assert code == 2
    assert f"{f}:1: CRLF_LINE_ENDING" in err


def test_stdin_input():
    proc = subprocess.run(
        [sys.executable, "-m", "maibaam_lint.cli", "lint", "--format",
         "json", "-"],
        input=GOLDEN.read_text(encoding="utf-8"),
        capture_output=True, encoding="utf-8", env=BUFFERED_ENV)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["summary"]["files"] == ["<stdin>"]


@pytest.mark.parametrize("subcommand", ["lint", "stats", "tokenize"])
def test_closed_standard_input_is_an_input_that_cannot_be_read(
        subcommand, tmp_path, monkeypatch):
    # with standard input closed at start-up, sys.stdin is None
    text = tmp_path / "t.txt"
    text.write_text("zum Beispiel\n", encoding="utf-8")
    path = str(text if subcommand == "tokenize" else GOLDEN)
    monkeypatch.setattr(sys, "stdin", None)
    code, out, err = run_cli([subcommand, "-", path])
    assert (code, err) == (
        2, f"error: cannot read <stdin>: {os.strerror(errno.EBADF)}\n")
    assert out == run_cli([subcommand, path])[1]


def test_console_reads_a_closed_standard_input_as_unreadable(monkeypatch):
    # the child closes descriptor 0 and then starts the program, as a
    # shell does for `maibaam-lint lint - <&-`
    argv = ["lint", "--format", "json", "-", str(GOLDEN)]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys; os.close(0); os.execv(sys.executable, "
         "[sys.executable, '-m', 'maibaam_lint.cli', *sys.argv[1:]])", *argv],
        capture_output=True, env=BUFFERED_ENV)
    monkeypatch.setattr(sys, "stdin", None)
    assert (proc.returncode, proc.stdout, proc.stderr.decode("utf-8")) == \
        _in_process(argv)
    assert proc.returncode == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "maibaam_lint.cli", "--list-rules"],
        capture_output=True, encoding="utf-8", env=CHILD_ENV)
    assert proc.returncode == 0
    assert "VOCAB.UPOS" in proc.stdout


def test_closed_output_pipe_exits_141_without_an_error_line(tmp_path):
    # about 5 MB of output, far more than a pipe holds, so the program is
    # still writing when the reader goes away
    text = tmp_path / "big.txt"
    text.write_text("zum Beispiel\n" * 50_000, encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "maibaam_lint.cli", "tokenize", str(text)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=BUFFERED_ENV)
    assert proc.stdout.readline() == b"# sent_id = big-1\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 141
    proc.stderr.close()


def _in_process(argv):
    """run_cli's exit code, standard output as bytes and standard error."""
    code, out, err = run_cli(argv)
    return code, out.encode("utf-8"), err


@pytest.mark.parametrize("argv, code", [
    (["lint", "--format", "json", "{golden}"], 0),
    (["lint", "{bad}"], 1),
    (["stats", "--format", "tsv", "{bad}", "{golden}"], 0),
    (["lint", "--format", "tsv", "{bad}", "/no/such/file.conllu"], 2),
    (["tokenize", "/no/such/file.txt"], 2),
])
def test_console_exit_matches_run(argv, code, tmp_path):
    # main() ends the process with os._exit: whatever run() wrote must
    # still reach both streams, with run()'s exit code
    bad = tmp_path / "bad.conllu"
    bad.write_text(BAD_UPOS_FILE, encoding="utf-8")
    argv = [a.format(golden=GOLDEN, bad=bad) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "maibaam_lint.cli", *argv],
                          capture_output=True, env=BUFFERED_ENV)
    assert (proc.returncode, proc.stdout, proc.stderr.decode("utf-8")) == \
        _in_process(argv)
    assert proc.returncode == code


def test_console_tokenize_into_a_file_is_complete(tmp_path):
    # more than 1 MB, many times what one buffer holds
    text = tmp_path / "big.txt"
    text.write_text("zum Beispiel, gibts z'Minga\n" * 8_000, encoding="utf-8")
    out = tmp_path / "big.conllu"
    with open(out, "wb") as f:
        proc = subprocess.run(
            [sys.executable, "-m", "maibaam_lint.cli", "tokenize", str(text)],
            stdout=f, stderr=subprocess.PIPE, env=BUFFERED_ENV)
    assert (proc.returncode, proc.stderr) == (0, b"")
    written = out.read_bytes()
    assert len(written) > 1_000_000
    assert written.endswith(b"\n\n")
    assert written == _in_process(["tokenize", str(text)])[1]


def test_names_that_are_not_utf8_are_shown_with_escapes(tmp_path,
                                                       monkeypatch):
    # each byte of a name that is not UTF-8 is shown as \xNN, so a strict
    # UTF-8 standard output takes every report, and each reads as that of
    # files whose names hold the escapes themselves
    monkeypatch.chdir(tmp_path)
    for name, raw in ((b"u\xff.conllu", BAD_UPOS_FILE.encode("utf-8")),
                      (b"w\xff.conllu", b"\xff\n")):
        Path(os.fsdecode(name)).write_bytes(raw)
        Path(name.decode("utf-8", "backslashreplace")).write_bytes(raw)
    names = [b"u\xff.conllu", b"v\xff.conllu", b"w\xff.conllu"]
    env = {**BUFFERED_ENV, "PYTHONIOENCODING": "utf-8:strict"}
    for argv in (["lint"], ["lint", "--format", "json"],
                 ["lint", "--format", "tsv"], ["stats"]):
        proc = subprocess.run(
            [sys.executable, "-m", "maibaam_lint.cli", *argv,
             *map(os.fsdecode, names)], capture_output=True, env=env)
        code, out, err = run_cli(
            [*argv, *(n.decode("utf-8", "backslashreplace") for n in names)])
        assert (proc.returncode, proc.stdout.decode("utf-8"),
                proc.stderr.decode("utf-8")) == (code, out, err), argv
    assert err == (
        f"error: cannot read v\\xff.conllu: {os.strerror(errno.ENOENT)}\n"
        "error: w\\xff.conllu:1: not UTF-8: invalid start byte 0xff\n")


# the classes of characters _shown escapes: those str.splitlines ends a
# line at (a terminal or a line-reading tool at LF and CR), and DEL
LINE_BREAKING_CLASSES = {"LF": "\n", "CR": "\r", "VT and FF": "\x0b\x0c",
                         "FS to RS": "\x1c\x1d\x1e", "NEL": "\x85",
                         "LS and PS": "\u2028\u2029", "DEL": "\x7f"}


@pytest.mark.parametrize("chars", LINE_BREAKING_CLASSES.values(),
                         ids=LINE_BREAKING_CLASSES.keys())
def test_names_with_line_breaking_characters_stay_on_one_line(
        tmp_path, monkeypatch, chars):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    for char in chars:
        escape = (f"\\x{ord(char):02x}" if ord(char) < 0x100
                  else f"\\u{ord(char):04x}")
        name = f"a{char}b.conllu"
        Path(name).write_text(BAD_UPOS_FILE + BAD_UPOS_FILE.replace(
            "x-1", "x-2"), encoding="utf-8")
        shown = f"a{escape}b.conllu"
        code, out, err = run_cli(["lint", "--format", "json", name])
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["summary"]["files"] == [shown]
        assert {d["file"] for d in report["findings"]} == {shown}
        code, out, err = run_cli(["lint", name])
        assert (code, err) == (1, "")
        assert len(out.splitlines()) == len(report["findings"]) == 2
        assert all(line.startswith(f"{shown}:") for line in out.splitlines())
        code, out, err = run_cli(["lint", "--format", "tsv", name])
        rows = out.splitlines()[1:]
        assert (code, err, len(rows)) == (1, "", 2)
        assert {row.split("\t")[0] for row in rows} == {
            cli._tsv_field(shown)}
        assert run_cli(["stats", name])[::2] == (0, "")
        # a stem escapes LF and CR as a TSV field does, the rest as names
        Path(f"t{char}.txt").write_text("Servus\n", encoding="utf-8")
        code, out, err = run_cli(["tokenize", f"t{char}.txt"])
        assert (code, err) == (0, "")
        stem = cli._tsv_field(char) if char in "\r\n" else escape
        assert out.startswith(f"# sent_id = t{stem}-1\n")
        # one error line per fault: missing inputs, and a word list
        missing = f"m{char}.conllu"
        reason = os.strerror(errno.ENOENT)
        for argv in (["lint", missing, missing], ["stats", missing, missing],
                     ["tokenize", missing, missing]):
            code, _, err = run_cli(argv)
            assert code == 2
            assert err.splitlines() == 2 * [
                f"error: cannot read m{escape}.conllu: {reason}"]
        if char not in "\r\n":  # the ends of a config line
            Path("list.conf").write_text(f"lexicon.aux.path = w{char}x.txt\n",
                                         encoding="utf-8")
            code, _, err = run_cli(["lint", "--config", "list.conf", name])
            assert code == 2
            assert err.splitlines() == [
                f"error: list.conf:1: cannot read {tmp_path}/w{escape}x.txt: "
                f"{reason}"]


def _side_file_errors(argv, name, text):
    """run_cli's results for argv with the file at name missing, holding a
    line that is not UTF-8, and holding text."""
    errors = [run_cli(argv)]
    Path(name).write_bytes(b"caf\xe9\n")
    errors.append(run_cli(argv))
    Path(name).write_text(text, encoding="utf-8")
    errors.append(run_cli(argv))
    return errors


NOT_UTF8 = "not UTF-8: invalid continuation byte 0xe9"


def test_config_names_that_are_not_utf8_are_shown_with_escapes(
        tmp_path, monkeypatch):
    # an error line shows a config's name as reports show an input's
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    name = os.fsdecode(b"c\xff.conf")
    errors = _side_file_errors(["lint", "--config", name, str(GOLDEN)],
                               name, "bogus\n")
    assert errors == [
        (2, "", f"error: cannot read c\\xff.conf: "
                f"{os.strerror(errno.ENOENT)}\n"),
        (2, "", f"error: c\\xff.conf:1: {NOT_UTF8}\n"),
        (2, "", "error: c\\xff.conf:1: expected key=value\n")]


def test_word_list_names_that_are_not_utf8_are_shown_with_escapes(
        tmp_path, monkeypatch):
    # the word list's path is resolved against the config's directory,
    # whose name holds the byte
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    folder = os.fsdecode(b"d\xff")
    os.mkdir(folder)
    conf = os.path.join(folder, "list.conf")
    Path(conf).write_text("lexicon.copula.path = words.txt\n",
                          encoding="utf-8")
    errors = _side_file_errors(["lint", "--config", conf, str(GOLDEN)],
                               os.path.join(folder, "words.txt"), "sein\n")
    words = f"{tmp_path}/d\\xff/words.txt"
    assert errors == [
        (2, "", f"error: d\\xff/list.conf:1: cannot read {words}: "
                f"{os.strerror(errno.ENOENT)}\n"),
        (2, "", f"error: d\\xff/list.conf:1: {words}:1: {NOT_UTF8}\n"),
        (0, "", "")]


def test_lexicon_names_that_are_not_utf8_are_shown_with_escapes(
        tmp_path, monkeypatch):
    # a malformed line, and an entry that breaks a rule of every lexicon
    monkeypatch.chdir(tmp_path)
    Path("raw.txt").write_text("zum Beispiel\n", encoding="utf-8")
    name = os.fsdecode(b"l\xff.tsv")
    argv = ["tokenize", "--lexicon", name, "raw.txt"]
    errors = _side_file_errors(argv, name, "zum\tmwt\n")
    Path(name).write_text("zum\tmwt\tzu m\t_\nzum\tmwt\tzu m\t_\n",
                          encoding="utf-8")
    errors.append(run_cli(argv))
    assert errors == [
        (2, "", f"error: cannot read l\\xff.tsv: "
                f"{os.strerror(errno.ENOENT)}\n"),
        (2, "", f"error: l\\xff.tsv:1: {NOT_UTF8}\n"),
        (2, "", "error: l\\xff.tsv:1: expected 4 tab-separated columns, "
                "got 2\n"),
        (2, "", "error: l\\xff.tsv:2: mwt surface 'zum' is also listed as "
                "mwt on line 1\n")]


def _console_with(fd: int, how: str, argv: list[str]):
    """The console module run on argv after descriptor fd (1 or 2) is
    closed, or left open on a file for reading only (as a launcher script
    may leave its own file), before the program starts."""
    prepare = {"closed": f"os.close({fd})",
               "read-only": f"os.dup2(os.open(os.devnull, os.O_RDONLY), {fd})"}
    return subprocess.run(
        [sys.executable, "-c",
         f"import os, sys; {prepare[how]}; os.execv(sys.executable, "
         "[sys.executable, '-m', 'maibaam_lint.cli', *sys.argv[1:]])", *argv],
        capture_output=True, env=BUFFERED_ENV)


@pytest.mark.parametrize("how", ["closed", "read-only"])
@pytest.mark.parametrize("argv", [
    ["lint", "{bad}"], ["lint", "--format", "json", "{golden}"],
    ["list-rules"], ["tokenize", "{text}"]], ids=" ".join)
def test_closed_standard_output_exits_141(argv, how, tmp_path):
    # as a shell runs `maibaam-lint ... >&-`: a write to it ends the run
    # as a closed pipe does, with no traceback
    bad = tmp_path / "bad.conllu"
    bad.write_text(BAD_UPOS_FILE, encoding="utf-8")
    text = tmp_path / "t.txt"
    text.write_text("zum Beispiel\n", encoding="utf-8")
    argv = [a.format(bad=bad, golden=GOLDEN, text=text) for a in argv]
    proc = _console_with(1, how, argv)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("how", ["closed", "read-only"])
def test_closed_standard_error_exits_141(how, tmp_path):
    # as for `maibaam-lint lint missing.conllu 2>&-`: the error line goes
    # nowhere, not to standard output
    proc = _console_with(2, how, ["lint", str(tmp_path / "missing.conllu")])
    assert (proc.returncode, proc.stdout) == (141, b"")


@pytest.mark.parametrize("fd, argv", [
    (1, ["lint", "{golden}"]), (2, ["stats", "{golden}"]),
    (2, ["lint", "{bad}"])])
def test_a_run_that_writes_nothing_to_a_closed_stream_keeps_its_code(
        fd, argv, tmp_path):
    bad = tmp_path / "bad.conllu"
    bad.write_text(BAD_UPOS_FILE, encoding="utf-8")
    argv = [a.format(bad=bad, golden=GOLDEN) for a in argv]
    expected = _in_process(argv)
    assert not expected[fd]  # nothing is written to the closed stream
    proc = _console_with(fd, "closed", argv)
    assert (proc.returncode, proc.stdout, proc.stderr.decode("utf-8")) == \
        expected


def test_run_raises_the_error_of_a_standard_stream_that_is_none(monkeypatch):
    # the error line is not written to standard output instead
    out = io.StringIO()
    monkeypatch.setattr(sys, "stderr", None)
    with pytest.raises(OSError) as raised:
        run(["lint", "/no/such/file.conllu"], output=out)
    assert raised.value.errno == errno.EBADF
    assert out.getvalue() == ""


def test_closed_error_pipe_exits_141(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "maibaam_lint.cli", "lint",
             str(tmp_path / "missing.conllu")],
            stdout=subprocess.PIPE, stderr=write_end, env=BUFFERED_ENV)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stdout) == (141, b"")


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    # both interpreters run with -S: a site-packages .pth file may import
    # any of these before the program starts, which would hide its own
    # import of them; the difference leaves out what a bare start loads
    def loaded(code):
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             f"{code}; import sys; print(*sys.modules)"],
            capture_output=True, encoding="utf-8", env=CHILD_ENV,
            check=True)
        return set(proc.stdout.split())

    bare = loaded("pass")
    added = loaded("import maibaam_lint.cli") - bare
    assert "maibaam_lint.cli" in added
    # urllib.parse is imported by the one metadata check that needs it
    assert not added & {"dataclasses", "inspect", "json",
                        "importlib.resources", "tempfile", "urllib.parse"}
    # nor does a JSON report load json
    for argv in (["lint", "--format", "json", str(GOLDEN)],
                 ["stats", "--format", "json", str(GOLDEN)]):
        ran = loaded("import io; from maibaam_lint import cli; "
                     f"cli.run({argv!r}, output=io.StringIO())") - bare
        assert "maibaam_lint.cli" in ran and "json" not in ran, argv


def _console_run(argv):
    """Exit code, stdout and the modules imported of a console run of argv
    (-X importtime; -S, so that no .pth file imports any of them first)."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "maibaam_lint.cli",
         *argv], capture_output=True, encoding="utf-8", env=CHILD_ENV)
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    return proc.returncode, proc.stdout, imported


_PARSER_MODULES = {"argparse", "gettext", "locale", "shutil"}


@pytest.mark.parametrize("argv", [
    ["lint", str(GOLDEN)],
    ["lint", "--format", "human", str(GOLDEN)],
    ["lint", "--format", "json", str(GOLDEN)],
    ["lint", "--format", "tsv", "--fail-level", "warning", str(GOLDEN)],
    ["stats", str(GOLDEN)],
    ["stats", "--format", "json", str(GOLDEN)],
    ["tokenize", str(GOLDEN)],
    ["list-rules"],
], ids=lambda argv: " ".join(argv).replace(str(FIXTURES), "fixtures"))
def test_canonical_command_lines_load_no_argparse(argv):
    code, _, imported = _console_run(argv)
    assert code == 0
    assert "maibaam_lint.conllu" in imported  # -m runs cli as __main__
    assert not imported & _PARSER_MODULES


def test_abbreviations_still_go_through_argparse():
    code, out, imported = _console_run(["--l"])
    assert "argparse" in imported
    assert (code, out) == (0, run_cli(["list-rules"])[1])


def test_list_rules_shows_whether_each_rule_is_on(tmp_path):
    conf = tmp_path / "lint.conf"
    conf.write_text("rule.REVIEW.*.enabled=false\n"
                    "rule.LEMMA.*.enabled=false\n"
                    "rule.LEMMA.NIMMA.enabled=true\n", encoding="utf-8")
    code, out, _ = run_cli(["list-rules", "--config", str(conf)])
    assert code == 0
    off = {line.split("\t")[0] for line in out.splitlines()
           if line.split("\t")[4] == "off"}
    assert off == {"REVIEW.IOBJ", "REVIEW.APPOS_ORDER", "LEMMA.MISSING",
                   "LEMMA.ON_MWT"}


def test_family_severity_in_lint_and_list_rules(tmp_path):
    conf = tmp_path / "lint.conf"
    conf.write_text("rule.META.*.severity=review\n"
                    "rule.META.TEXT_MISMATCH.severity=warning\n",
                    encoding="utf-8")
    f = tmp_path / "dup.conllu"
    block = ("# sent_id = d-1\n# text = Haus Haus\n"
             "# genre = fiction\n# dialect_group = central\n"
             "1\tHaus\t_\tNOUN\t_\t_\t0\troot\t_\tGermanLemma=Haus\n\n")
    f.write_text(block + block.replace("text = Haus Haus", "text = Haus"),
                 encoding="utf-8")
    code, out, _ = run_cli(["lint", "--format", "tsv", "--config", str(conf),
                            str(f)])
    rows = {tuple(r.split("\t")[4:6]) for r in out.splitlines()[1:]}
    assert rows == {("review", "META.DUP_ID"), ("review", "META.MISSING"),
                    ("warning", "META.TEXT_MISMATCH")}
    assert code == 0
    code, out, _ = run_cli(["list-rules", "--config", str(conf)])
    severities = {line.split("\t")[0]: line.split("\t")[1]
                  for line in out.splitlines()}
    assert severities["META.DUP_ID"] == "review"
    assert severities["META.TEXT_MISMATCH"] == "warning"
    assert severities["CLASS.COP"] == "error"


@pytest.mark.parametrize("argv", [
    ["--config", "x.conf", "lint", str(DURCH_DES)],
    ["--guideline-version", "1.1", "lint", str(DURCH_DES)],
    ["lint", "--guideline-version", "banana", str(DURCH_DES)],
    ["lint", "--guideline-version", "2.", str(DURCH_DES)],
    ["tokenize", "--format", "json", "-"],
    ["--format", "json", "lint", str(DURCH_DES)],
    ["--fail-level", "review", "lint", str(DURCH_DES)],
    ["--lexicon", "x.tsv", "tokenize", "-"],
])
def test_misplaced_or_bad_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv, output=io.StringIO(), errout=io.StringIO())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    # the message names the offending option
    option = next(a for a in argv if a.startswith("--"))
    assert option in err
    assert "invalid choice" not in err
    if argv[0] == option:
        # and shows it after a subcommand that takes it
        assert f"'maibaam-lint {argv[2]} {option} ... FILE'" in err


def test_readme_command_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for line in "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).splitlines():
        # split pipelines into commands, dropping redirections and targets
        argv: list[str] = []
        words = iter(shlex.split(line, comments=True) + ["|"])
        for word in words:
            if word in (">", "<"):
                next(words)
            elif word in ("|", "&&", ";"):
                if argv[:1] == ["maibaam-lint"]:
                    commands.append(argv[1:])
                argv = []
            else:
                argv.append(word)
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parsed = parser.parse_args(argv, cli.RunOptions())
        except SystemExit:
            pytest.fail(f"README line does not parse: maibaam-lint "
                        f"{shlex.join(argv)}")
        # a README command line is one a user types, so run() reads it
        # without argparse, to the same options
        read = cli._read_command_line(argv)
        assert read is not None, argv
        assert vars(read) == vars(parsed), argv


_SUBCOMMAND_NAMES = list(cli._SUBCOMMANDS)
_FLAGS = sorted({flag for sub in cli._SUBCOMMANDS.values()
                 for flag in sub.options})
_VALUES = ["human", "json", "tsv", "xml", "error", "warning", "review",
           "fatal", "2.17", "2.", "banana", "lint.conf"]
_OPERANDS = ["a.conllu", "b.txt", "corpus/*.conllu", "-", ""]
_ARGV_TOKENS = st.sampled_from([
    *_SUBCOMMAND_NAMES, *_FLAGS, *_VALUES, *_OPERANDS, "--list-rules",
    "--version", "--help", "-h", "--form", "--conf", "--l", "--lex",
    "--format=json", "--config=x.conf", "--fail-level=warning", "--", "-x",
    "-1"])


@st.composite
def _command_lines(draw):
    """A subcommand, mostly, then option pairs, mostly with values that
    the option takes, and operands, with any token mixed in; about a
    quarter of them are read directly."""
    name = draw(st.sampled_from([*_SUBCOMMAND_NAMES, None]))
    argv = [name] if name else draw(st.lists(_ARGV_TOKENS, max_size=1))
    options = cli._SUBCOMMANDS[name].options if name else {}
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["option"] * 4 + ["operands"] * 3
                                    + ["any"]))
        if kind == "option" and options:
            flag = draw(st.sampled_from(sorted(options)))
            option = options[flag]
            taken = option.choices or (
                ["2.17", "1.1"] if option.fault else ["lint.conf"])
            argv += [flag, draw(st.sampled_from(
                taken if draw(st.integers(0, 3)) else
                [*_VALUES, *_OPERANDS, "-x"]))]
        elif kind == "operands":
            argv += draw(st.lists(st.sampled_from(_OPERANDS), min_size=1,
                                  max_size=2))
        else:
            argv.append(draw(_ARGV_TOKENS))
    return argv


@settings(max_examples=1000, deadline=None)
@given(argv=_command_lines())
def test_command_lines_read_without_argparse_parse_the_same(argv):
    read = cli._read_command_line(argv)
    if read is not None:
        # argparse reads it too, to the same options
        try:
            parsed = build_parser().parse_args(argv, cli.RunOptions())
        except SystemExit:
            pytest.fail(f"argparse rejects {argv}")
        assert vars(read) == vars(parsed), argv


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["lint", "--help"], ["--version"], ["--l"],
    ["--list-rules"], ["lint", "--form", "json", "a"],
    ["lint", "--format=json", "a"], ["lint", "--", "a"], ["lint", "-x", "a"],
    ["lint", "-1"], ["lint", "a", "--format", "json", "b"],
    ["lint", "--format", "xml", "a"], ["lint", "--config", "-", "a"],
    ["lint", "--guideline-version", "2.", "a"], ["lint"], ["list-rules", "a"],
    ["tokenize", "--format", "json", "a"], ["lint", "a", "--format"],
    ["--config", "x.conf", "lint", "a"],
], ids=" ".join)
def test_other_command_lines_are_left_to_argparse(argv):
    assert cli._read_command_line(argv) is None


def test_readme_python_examples_run(tmp_path, monkeypatch):
    # warnings are errors here, so an example that leaves a file open fails
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    shutil.copy(GOLDEN, tmp_path / "corpus.conllu")
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
        gc.collect()


def test_readme_json_report_is_what_render_json_writes():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"```json\n(.*?)```", readme, re.S)
    report = json.loads(block)
    out = io.StringIO()
    cli.render_json([Diagnostic(**f) for f in report["findings"]],
                    report["summary"]["files"], out)
    assert out.getvalue() == block


def _one_token(sent_id, upos="NOUN"):
    """A one-token sentence that lacks most required metadata, so that it
    always carries findings."""
    return (f"# sent_id = {sent_id}\n# text = Haus\n"
            f"1\tHaus\t_\t{upos}\t_\t_\t0\troot\t_\tGermanLemma=Haus\n\n")


@pytest.mark.parametrize("subcommand", ["lint", "stats"])
def test_inputs_are_held_one_sentence_at_a_time(subcommand, tmp_path,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = GOLDEN.read_text(encoding="utf-8")
    Path("a.conllu").write_text(golden, encoding="utf-8")
    Path("b.conllu").write_text(golden, encoding="utf-8")
    seen = []     # (file, sent_id, weak reference) of each linted sentence
    alive = []    # earlier sentences still alive when a later one is linted
    lint_sentence = cli.lint_sentence

    def recorder(s, cfg):
        gc.collect()
        alive.extend((f, sid) for f, sid, ref in seen if ref() is not None)
        seen.append((s.file, s.sent_id, weakref.ref(s)))
        return lint_sentence(s, cfg)

    monkeypatch.setattr(cli, "lint_sentence", recorder)
    code, _, err = run_cli([subcommand, "a.conllu", "b.conllu"])
    # every sentence's sent_id occurs twice: META.DUP_ID errors for lint
    assert (code, err) == (1 if subcommand == "lint" else 0, "")
    assert len(seen) == 2 * golden.count("# sent_id")
    assert alive == []
    gc.collect()
    assert [sid for _, sid, ref in seen if ref() is not None] == []


@pytest.mark.parametrize("argv", [
    ["lint"], ["lint", "--format", "json"], ["lint", "--format", "tsv"],
    ["stats"], ["stats", "--format", "json"], ["stats", "--format", "tsv"],
])
def test_inputs_that_cannot_be_opened_add_nothing(argv, tmp_path,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("a.conllu").write_text(_one_token("a-1") + _one_token("a-2", "ZZZ"),
                                encoding="utf-8")
    Path("dir.conllu").mkdir()
    Path("b.conllu").write_text(_one_token("b-1"), encoding="utf-8")
    code, out, err = run_cli([*argv, "a.conllu", "missing.conllu",
                              "dir.conllu", "b.conllu"])
    assert code == 2
    # one line per input, in argument order
    assert err == (
        f"error: cannot read missing.conllu: {os.strerror(errno.ENOENT)}\n"
        f"error: cannot read dir.conllu: {os.strerror(errno.EISDIR)}\n")
    assert out == run_cli([*argv, "a.conllu", "b.conllu"])[1]
    if argv == ["lint", "--format", "json"]:
        assert json.loads(out)["summary"]["files"] == ["a.conllu", "b.conllu"]


def test_an_input_is_opened_when_its_first_piece_is_read(tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("dir").mkdir()
    for path in ("missing", "dir"):
        pieces, name = cli._read_input(path)  # nothing is opened yet
        assert name == path
        with pytest.raises(cli._ReadError, match=f"^cannot read {path}: "):
            next(pieces)
    # a file removed between the call and the first read is not read
    Path("gone.conllu").write_text(_one_token("g-1"), encoding="utf-8")
    pieces, _ = cli._read_input("gone.conllu")
    os.remove("gone.conllu")
    with pytest.raises(cli._ReadError, match="^cannot read gone.conllu: "):
        next(pieces)


@pytest.mark.parametrize("argv", [
    ["lint"], ["lint", "--format", "json"], ["stats"],
    ["stats", "--format", "json"],
])
def test_input_failing_to_parse_midway_adds_nothing(argv, tmp_path,
                                                    monkeypatch):
    # bad.conllu's first two sentences carry findings, and its first
    # shares a sent_id with b.conllu; its third does not parse
    monkeypatch.chdir(tmp_path)
    Path("a.conllu").write_text(_one_token("a-1") + _one_token("a-2", "ZZZ"),
                                encoding="utf-8")
    Path("bad.conllu").write_text(
        _one_token("shared-1", "ZZZ") + _one_token("bad-2") +
        "1\tHaus\t_\tNOUN\n\n" + _one_token("bad-4"), encoding="utf-8")
    Path("b.conllu").write_text(_one_token("shared-1") + _one_token("b-2"),
                                encoding="utf-8")
    code, out, err = run_cli([*argv, "a.conllu", "bad.conllu", "b.conllu"])
    assert code == 2
    assert err == ("error: bad.conllu:9: WRONG_COLUMN_COUNT: expected 10 "
                   "tab-separated fields, got 4\n")
    assert out == run_cli([*argv, "a.conllu", "b.conllu"])[1]
    assert "bad" not in out
    assert "META.DUP_ID" not in out
    if argv == ["lint", "--format", "json"]:
        assert json.loads(out)["summary"]["files"] == ["a.conllu", "b.conllu"]
