import gc
import io
import json
import os
import re
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import maibaam_lint
from maibaam_lint import cli, conllu
from maibaam_lint.cli import build_parser, lint_documents, run
from maibaam_lint.conllu import Diagnostic, parse_document
from maibaam_lint.rules import RULES, LintConfig

from conftest import DURCH_DES, FIXTURES, GOLDEN

# child processes import the package this process imported, installed or not
CHILD_ENV = {**os.environ,
             "PYTHONPATH": str(Path(maibaam_lint.__file__).parents[1])}


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
    first = lines[0].split("\t")
    assert len(first) == 4
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


def test_tokenize_output_shape(tmp_path):
    src = tmp_path / "raw.txt"
    src.write_text("zum Beispiel\n", encoding="utf-8")
    _, out, _ = run_cli(["tokenize", str(src)])
    lines = out.splitlines()
    assert lines[0] == "# sent_id = raw-1"
    assert lines[1] == "# text = zum Beispiel"
    assert lines[2].startswith("1-2\tzum")
    assert lines[3].split("\t")[7] == "root"


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
    assert out == run_cli(["tokenize", "a.txt"])[1] + \
        run_cli(["tokenize", "b.txt"])[1]
    # the line names the input and the line of the first bad byte
    assert err == "error: bad.txt:2: not UTF-8: invalid start byte 0xff\n"
    assert run_cli(["lint", "bad.txt"])[2] == err
    assert run_cli(["stats", "bad.txt"])[2] == err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xc3")))
    assert run_cli(["tokenize", "-"])[2] == \
        "error: <stdin>:1: not UTF-8: unexpected end of data 0xc3\n"


def test_undecodable_config_and_lexicon_files_are_located(tmp_path,
                                                          monkeypatch):
    # the same line as for inputs: file, line of the first bad byte, exit 2
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    Path("bad.conf").write_bytes(b"# config\nguideline_version = 2.17\n"
                                 b"# caf\xe9\n")
    Path("list.conf").write_text("lexicon.copula.path = words.txt\n",
                                 encoding="utf-8")
    # the bad byte lies past the first 8 KiB that a text read decodes
    Path("words.txt").write_bytes(b"sein\n" * 3000 + b"caf\xe9\n")
    Path("bad.tsv").write_bytes(b"# lexicon\nzum\tmwt\tzu m\t_\n# caf\xe9\n")
    Path("raw.txt").write_text("Servus\n", encoding="utf-8")

    def error(name, line):
        return (2, "", f"error: {name}:{line}: not UTF-8: invalid "
                       "continuation byte 0xe9\n")

    assert run_cli(["lint", "--config", "bad.conf", str(GOLDEN)]) == \
        error("bad.conf", 3)
    assert run_cli(["lint", "--config", "list.conf", str(GOLDEN)]) == \
        error(tmp_path / "words.txt", 3001)
    assert run_cli(["tokenize", "--lexicon", "bad.tsv", "raw.txt"]) == \
        error("bad.tsv", 3)
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, "bad.conf")
    assert run_cli(["stats", str(GOLDEN)]) == error("bad.conf", 3)


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


@pytest.mark.parametrize("argv, golden", [
    ([], "golden_stats.tsv"),
    (["--format", "json"], "golden_stats.json"),
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
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["summary"]["files"] == ["<stdin>"]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "maibaam_lint.cli", "--list-rules"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert "VOCAB.UPOS" in proc.stdout


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
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: maibaam-lint "
                        f"{shlex.join(argv)}")


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
