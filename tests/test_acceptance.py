"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import hashlib
import io
import itertools
import json
import random
import time
from dataclasses import asdict

from maibaam_lint.cli import lint_documents, run
from maibaam_lint.conllu import (
    Sentence,
    Token,
    parse_document,
    reconstruct_text,
    serialize_document,
)
from maibaam_lint.rules import (
    RULES,
    RULES_BY_ID,
    LintConfig,
    lint_sentence,
    validate_structure,
)
from maibaam_lint.metadata import validate_metadata
from maibaam_lint.tokenizer import (
    KIND_INTACT,
    KIND_MWT,
    KIND_SPACE_AFTER_NO,
    default_lexicon,
    segment_token,
)

from conftest import DURCH_DES, FIXTURES, GOLDEN


def test_c1_tokenizer_fidelity():
    """Every splitting example resolves exactly, in under a second."""
    cases = [
        ("zum", KIND_MWT, ("zu", "m")),
        ("aus'n", KIND_MWT, ("aus", "'n")),
        ("im", KIND_MWT, ("i", "m")),
        ("z'Minga", KIND_SPACE_AFTER_NO, ("z'", "Minga")),
        ("d'neie", KIND_SPACE_AFTER_NO, ("d'", "neie")),
        ("s´Haus", KIND_SPACE_AFTER_NO, ("s´", "Haus")),
        ("gibts", KIND_SPACE_AFTER_NO, ("gibt", "s")),
        ("håmas", KIND_SPACE_AFTER_NO, ("hå", "ma", "s")),
        ("wiera", KIND_SPACE_AFTER_NO, ("wier", "a")),
        ("dassd", KIND_INTACT, ("dassd",)),
        ("weilds", KIND_INTACT, ("weilds",)),
    ]
    lexicon = default_lexicon()
    start = time.monotonic()
    passed = 0
    for surface, kind, forms in cases:
        result = segment_token(surface, lexicon)
        assert result.kind == kind, surface
        assert result.forms() == forms, surface
        assert "".join(result.forms()) == surface
        passed += 1
    elapsed = time.monotonic() - start
    assert passed == 11
    assert elapsed < 1.0
    print(f"\nC1 tokenizer fidelity: PASS ({passed}/11 in {elapsed:.3f}s)")


def test_c2_round_trip_byte_identity():
    """All fixture files and a 10k-sentence corpus round-trip byte-exactly."""
    checked = 0
    for path in sorted(FIXTURES.glob("*.conllu")):
        text = path.read_text(encoding="utf-8")
        doc = parse_document(text, path.name)
        out = serialize_document(doc)
        assert hashlib.sha256(out.encode()).digest() == \
            hashlib.sha256(text.encode()).digest(), path.name
        checked += 1
    assert checked >= 2

    block = ("# sent_id = perf-{i}\n# text = Des is a Probesatz.\n"
             "1\tDes\t_\tPRON\t_\t_\t2\tnsubj\t_\tGermanLemma=das\n"
             "2\tis\t_\tAUX\t_\t_\t4\tcop\t_\tGermanLemma=sein\n"
             "3\ta\t_\tDET\t_\t_\t4\tdet\t_\tGermanLemma=ein\n"
             "4\tProbesatz\t_\tNOUN\t_\t_\t0\troot\t_\t"
             "SpaceAfter=No|GermanLemma=Probesatz\n"
             "5\t.\t_\tPUNCT\t_\t_\t4\tpunct\t_\t_\n\n")
    big = "".join(block.format(i=i) for i in range(10000))
    start = time.monotonic()
    out = serialize_document(parse_document(big, "big.conllu"))
    elapsed = time.monotonic() - start
    assert hashlib.sha256(out.encode()).digest() == \
        hashlib.sha256(big.encode()).digest()
    assert elapsed < 5.0
    print(f"\nC2 round-trip identity: PASS ({checked} fixture files + "
          f"10k sentences in {elapsed:.2f}s)")


def test_c3_golden_corpus_lints_clean():
    """>= 12 transcribed sentences produce zero error-severity findings."""
    text = GOLDEN.read_text(encoding="utf-8")
    doc = parse_document(text, "golden.conllu")
    assert len(doc.sentences) >= 12
    diags = lint_documents([doc], LintConfig())
    errors = [d for d in diags if d.severity == "error"]
    assert errors == []
    assert diags == []  # the golden file is fully clean, not just error-free
    print(f"\nC3 golden-corpus cleanliness: PASS ({len(doc.sentences)} "
          f"sentences, 0 findings)")


# one mutation per rule surface: the 13 annotation-rule checks plus the
# metadata validator
MUTATIONS = [
    ("upos vocabulary", "VOCAB.UPOS", "maibaam-golden-014",
     lambda s: setattr(s.tokens[3], "upos", "ADJD")),
    ("deprel vocabulary", "VOCAB.DEPREL", "maibaam-golden-014",
     lambda s: setattr(s.tokens[0], "deprel", "nsubj:outerx")),
    ("copula class", "CLASS.COP", "maibaam-golden-005",
     lambda s: _set_lemma(s, 2, "werden")),
    ("particle class", "CLASS.PART", "maibaam-golden-011",
     lambda s: _set_lemma(s, 22, "halt")),
    ("auxiliary class", "CLASS.AUX", "maibaam-golden-010",
     lambda s: _set_lemma(s, 6, "gehen")),
    ("fixed whitelist", "REL.FIXED", "maibaam-golden-017",
     lambda s: _set_lemma(s, 4, "foo")),
    ("goeswith shape", "REL.GOESWITH", "maibaam-golden-019",
     lambda s: _add_misc(s.tokens[2], "GermanLemma=den")),
    ("lemma conventions", "LEMMA.MISSING", "maibaam-golden-009",
     lambda s: _set_lemma(s, 5, None)),
    ("typo features", "TYPO.CORRECT_SPACE", "maibaam-golden-014",
     lambda s: _add_misc(s.tokens[2], "CorrectSpaceAfter=Yes")),
    ("mwt surface", "MWT.SURFACE", "maibaam-golden-008",
     lambda s: setattr(s.tokens[3], "form", "n")),
    ("placeholder tags", "CLASS.USERNAME", "maibaam-golden-018",
     lambda s: setattr(s.tokens[1], "upos", "NOUN")),
    ("relative marker", "REL.RELMARK", "maibaam-golden-015",
     lambda s: setattr(s.tokens[8], "upos", "PRON")),
    ("review hints", "REVIEW.IOBJ", "maibaam-golden-011",
     lambda s: setattr(s.tokens[16], "deprel", "iobj")),
    ("metadata schema", "META.GENRE", "maibaam-golden-002",
     lambda s: s.metadata.__setitem__(2, ("genre", "poetry"))),
]


def _add_misc(t, entry):
    t.misc = entry if t.misc == "_" else f"{t.misc}|{entry}"


def _set_lemma(s, token_id, value):
    t = s.tokens[token_id - 1]
    kept = [e for e in t.misc.split("|")
            if e != "_" and e.partition("=")[0] != "GermanLemma"]
    t.misc = "|".join(kept) or "_"
    if value is not None:
        _add_misc(t, f"GermanLemma={value}")


def test_c4_mutant_detection_single_fault_isolation():
    """Each rule's mutation yields exactly one finding with its rule id."""
    text = GOLDEN.read_text(encoding="utf-8")
    cfg = LintConfig()
    detected = 0
    for rule_name, expected, sent_id, mutate in MUTATIONS:
        doc = parse_document(text, "golden.conllu")
        s = next(x for x in doc.sentences if x.sent_id == sent_id)
        mutate(s)
        diags = lint_documents([doc], cfg)
        assert len(diags) == 1, (rule_name, [d.rule_id for d in diags])
        assert diags[0].rule_id == expected, rule_name
        detected += 1
    assert detected == 14
    print(f"\nC4 mutant detection: PASS ({detected}/14)")


def test_every_finding_agrees_with_the_catalog_and_config():
    """Each finding's id is catalogued, its citation is the catalog's and its
    severity is the config's, under default and overridden severities."""
    text = GOLDEN.read_text(encoding="utf-8")
    docs = [parse_document(p.read_text(encoding="utf-8"), p.name)
            for p in sorted(FIXTURES.glob("*.conllu"))]
    for _, _, sent_id, mutate in MUTATIONS:
        doc = parse_document(text, f"{sent_id}.conllu")
        mutate(next(x for x in doc.sentences if x.sent_id == sent_id))
        docs.append(doc)
    trees = parse_document("\ufeff" + text, "trees.conllu")  # CORE.BOM
    s0, s1, s2 = trees.sentences[:3]
    for t in s0.tokens:
        t.head = 0                       # MULTI_ROOT, ROOT_DEPREL
    s1.tokens[0].head = 99               # HEAD_RANGE
    s2.tokens[0].head, s2.tokens[1].head = 2, 1   # CYCLE
    docs.append(trees)

    overridden = LintConfig(severity_overrides={
        r.rule_id: "error" if r.default_severity == "review" else "review"
        for r in RULES})
    for cfg in (LintConfig(), overridden):
        diags = lint_documents(docs, cfg)
        families = {d.rule_id.split(".")[0] for d in diags}
        assert {"STRUCT", "CORE", "META", "VOCAB", "CLASS", "REL", "LEMMA",
                "TYPO", "MWT", "REVIEW"} <= families
        for d in diags:
            assert d.rule_id in RULES_BY_ID, d
            assert d.guideline_ref == RULES_BY_ID[d.rule_id].guideline_ref, d
            assert d.severity == cfg.severity(d.rule_id), d


def test_streamed_lint_equals_library_lint(tmp_path, monkeypatch):
    """lint reads its inputs one sentence at a time; its findings equal
    lint_documents over the same files parsed whole, in any file order."""
    monkeypatch.chdir(tmp_path)
    text = GOLDEN.read_text(encoding="utf-8")
    files = {p.name: p.read_text(encoding="utf-8")
             for p in (GOLDEN, DURCH_DES)}
    for i, (_, _, sent_id, mutate) in enumerate(MUTATIONS):
        doc = parse_document(text, "golden.conllu")
        s = next(x for x in doc.sentences if x.sent_id == sent_id)
        mutate(s)
        s.comments = []  # written from the (maybe mutated) metadata
        files[f"c4-{i:02d}.conllu"] = serialize_document(doc)
    files["bom-only.conllu"] = "\ufeff"
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")

    names = sorted(files)
    for seed in range(3):
        random.Random(seed).shuffle(names)
        out = io.StringIO()
        code = run(["lint", "--format", "json", *names], output=out,
                   errout=io.StringIO())
        expected = lint_documents(
            [parse_document(files[n], n) for n in names], LintConfig())
        assert json.loads(out.getvalue())["findings"] == \
            [asdict(d) for d in expected]
        assert code == 1
    rules = {d.rule_id for d in expected}
    assert {"CORE.BOM", "META.DUP_ID", "META.GENRE"} <= rules
    print(f"\nstreamed lint equals library lint: PASS ({len(files)} files, "
          f"{len(expected)} findings, 3 orders)")


def test_c5_structural_oracle_equivalence():
    """validate_structure matches brute-force enumeration for n <= 4."""
    bad = {"STRUCT.NO_ROOT", "STRUCT.MULTI_ROOT", "STRUCT.CYCLE",
           "STRUCT.HEAD_RANGE"}

    def oracle(heads):
        n = len(heads)
        if heads.count(0) != 1:
            return False
        for start in range(1, n + 1):
            seen, node = set(), start
            while node != 0:
                if node in seen or not (1 <= node <= n):
                    return False
                seen.add(node)
                node = heads[node - 1]
        return True

    start = time.monotonic()
    agree = total = 0
    for n in range(1, 5):
        for heads in itertools.product(range(n + 1), repeat=n):
            s = Sentence(tokens=[
                Token(id=i + 1, form="w", upos="X", head=h,
                      deprel="root" if h == 0 else "dep")
                for i, h in enumerate(heads)])
            accepted = not any(d.rule_id in bad for d in validate_structure(s))
            total += 1
            agree += accepted == oracle(list(heads))
    elapsed = time.monotonic() - start
    assert agree == total == sum((n + 1) ** n for n in range(1, 5))
    assert elapsed < 10.0
    print(f"\nC5 structural oracle equivalence: PASS ({agree}/{total} "
          f"in {elapsed:.2f}s)")


def test_c6_guideline_version_gating():
    """durch/fir des fixed spans: clean at 1.1, REL.FIXED at 2.17."""
    text = DURCH_DES.read_text(encoding="utf-8")
    s = parse_document(text, "durch_des_fixed.conllu").sentences[0]
    old = lint_sentence(s, LintConfig(guideline_version="1.1")) + \
        validate_metadata(s, cfg=LintConfig(guideline_version="1.1"))
    new = lint_sentence(s, LintConfig(guideline_version="2.17"))
    assert old == []
    assert [d.rule_id for d in new] == ["REL.FIXED"]
    print("\nC6 version gating: PASS (1.1 clean, 2.17 -> REL.FIXED)")


def test_c7_report_determinism(tmp_path):
    """Shuffled file lists produce byte-identical JSON reports."""
    files = []
    for i, name in enumerate(["m.conllu", "a.conllu", "z.conllu"]):
        p = tmp_path / name
        p.write_text(f"# sent_id = d-{i}\n# text = Haus\n"
                     "1\tHaus\t_\tNOUN\t_\t_\t0\troot\t_\t_\n\n",
                     encoding="utf-8")
        files.append(str(p))
    orders = [files, files[::-1], [files[1], files[2], files[0]]]
    reports = []
    for order in orders:
        out = io.StringIO()
        run(["lint", "--format", "json", *order], output=out,
            errout=io.StringIO())
        reports.append(out.getvalue())
    assert reports[0] == reports[1] == reports[2]
    json.loads(reports[0])  # well-formed
    print("\nC7 determinism: PASS (3 orderings, identical JSON)")


def test_c8_text_reconstruction():
    """reconstruct_text equals the text metadata for every golden sentence."""
    text = GOLDEN.read_text(encoding="utf-8")
    doc = parse_document(text, "golden.conllu")
    with_mwt = with_glue = 0
    for s in doc.sentences:
        assert reconstruct_text(s) == s.metadata_value("text"), s.sent_id
        with_mwt += bool(s.mwt_spans)
        with_glue += any(t.misc_value("SpaceAfter") == "No" for t in s.tokens)
    assert with_mwt >= 1 and with_glue >= 1
    print(f"\nC8 text reconstruction: PASS ({len(doc.sentences)} sentences, "
          f"{with_mwt} with MWTs, {with_glue} with SpaceAfter=No)")
