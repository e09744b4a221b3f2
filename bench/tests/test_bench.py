"""Tests of the benchmark itself: generator determinism, output checks that
reject tampered outputs, metric declarations, and the reference program's
independence from the code it calibrates against."""

import ast
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

from maibaam_lint import cli  # noqa: E402

SMALL = {
    "lint-corpus": lambda seed, d: generate.gen_lint_corpus(seed, d, 3, 20),
    "lint-skeleton": lambda seed, d: generate.gen_lint_skeleton(seed, d, 30),
    "tokenize-text": lambda seed, d: generate.gen_tokenize_text(seed, d, 30),
}


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _run_cli(argv: list[str]) -> tuple[bytes, int]:
    out = io.StringIO()
    code = cli.run(argv, output=out, errout=io.StringIO())
    return out.getvalue().encode("utf-8"), code


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    SMALL[workload](7, tmp_path)
    first = _files(tmp_path)
    SMALL[workload](7, tmp_path)
    assert _files(tmp_path) == first
    SMALL[workload](8, tmp_path)
    assert _files(tmp_path) != first


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_timed_input_is_about_one_treebank(workload, tmp_path):
    tokens = generate.generate(workload, 1, tmp_path).tokens
    assert abs(tokens - generate.TARGET_TOKENS) < 0.05 * generate.TARGET_TOKENS


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_checks_accept_the_program_output(workload, tmp_path):
    inputs = SMALL[workload](3, tmp_path)
    check = checks.CHECKS[workload]
    assert check(*_run_cli(inputs.argv), inputs.truth) is None
    assert check(*_run_cli(inputs.setup_argv), inputs.setup_truth) is None


# full-size seeds whose inputs once had wrong ground truth: a sent_id reused
# three times (lint-corpus), a sentence-final "sog" + "." that the lexicon
# reads as the abbreviation "sog." (tokenize-text)
@pytest.mark.parametrize("workload,seed", [("lint-corpus", 1913557296),
                                           ("tokenize-text", 16),
                                           ("tokenize-text", 80)])
def test_checks_accept_the_program_output_on_timed_inputs(workload, seed,
                                                          tmp_path):
    inputs = generate.generate(workload, seed, tmp_path)
    assert checks.CHECKS[workload](*_run_cli(inputs.argv), inputs.truth) \
        is None


def test_lint_corpus_check_rejects_a_dropped_finding(tmp_path):
    inputs = generate.gen_lint_corpus(5, tmp_path, 4, 60)
    stdout, code = _run_cli(inputs.argv)
    report = json.loads(stdout)
    assert report["findings"], "seed 5 must inject at least one violation"
    report["findings"].pop()
    report["summary"]["total"] -= 1
    tampered = json.dumps(report).encode("utf-8")
    assert checks.check_lint_json(tampered, code, inputs.truth) is not None
    assert checks.check_lint_json(stdout, 1 - code, inputs.truth) is not None


def test_lint_skeleton_check_rejects_a_dropped_finding(tmp_path):
    inputs = generate.gen_lint_skeleton(5, tmp_path, 30)
    stdout, code = _run_cli(inputs.argv)
    lines = stdout.splitlines(keepends=True)
    for i in (0, len(lines) // 2, len(lines) - 1):
        tampered = b"".join(lines[:i] + lines[i + 1:])
        assert checks.check_lint_human(tampered, code, inputs.truth) \
            is not None


def test_tokenize_check_rejects_one_changed_byte(tmp_path):
    inputs = generate.gen_tokenize_text(5, tmp_path, 30)
    stdout, code = _run_cli(inputs.argv)
    token_lines = [i for i, line in enumerate(stdout.split(b"\n"))
                   if line[:1].isdigit()]
    offsets = []
    pos = 0
    for i, line in enumerate(stdout.split(b"\n")):
        if i in token_lines[::7]:
            cols = line.split(b"\t")
            offsets.append(pos + len(cols[0]) + 1)  # first byte of FORM
            offsets.append(pos + len(cols[0]) + len(cols[1]) + 3)  # UPOS
            offsets.append(pos + len(cols[0]))  # a column separator
        pos += len(line) + 1
    assert len(offsets) >= 9
    for offset in offsets:
        tampered = bytearray(stdout)
        tampered[offset] = ord("Q") if tampered[offset] != ord("Q") \
            else ord("R")
        assert checks.check_tokenize(bytes(tampered), code, inputs.truth) \
            is not None, offset


def test_printed_metrics_are_exactly_the_declared_ones(tmp_path):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    mods = run._Modules()
    tracer = tracing.Tracer()
    produced: set[str] = {"cli.import_s", "trace.overhead_ratio"}
    for workload in generate.WORKLOADS:
        (tmp_path / workload).mkdir()
        inputs = SMALL[workload](2, tmp_path / workload)
        patches = tracing.instrument(tracer, mods)
        tracer.begin_pass()
        try:
            out, code, extra = run.PIPELINES[workload](mods, inputs, tracer)
        finally:
            tracer.end_pass()
            patches.restore()
        assert patches.missing == []
        assert checks.CHECKS[workload](out, code, inputs.truth) is None
        produced |= set(run.layer_values(tracer, extra, len(out), 1.0))
    layer_names = {m["name"] for m in declared["per_layer"]}
    assert layer_names <= produced, layer_names - produced

    e2e = run.e2e_values(tokens=100, pass_s=[0.5, 0.4], setup_s=[0.1, 0.2],
                         rss_mb=[30.0, 31.0])
    assert set(e2e) == {m["name"] for m in declared["end_to_end"]}

    for kind, values in (("end_to_end", e2e),
                         ("per_layer", dict.fromkeys(produced, 1.0))):
        result = run._result([], run.Verifier(None, None), values,
                             declared[kind])
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared[kind]}


def test_declared_names_are_unique_and_workloads_match():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in declared[kind]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in declared["workloads"]] == \
        list(generate.WORKLOADS)


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    """ru_maxrss of a child includes its spawner's peak RSS, so children are
    spawned from a small helper: a large benchmark process must not show."""
    ballast = bytearray(96 * 1024 * 1024)
    ballast[::4096] = b"\x01" * len(ballast[::4096])
    spawner = run.Spawner(tmp_path)
    try:
        child = spawner.run(["-c", "pass"])
    finally:
        spawner.close()
    del ballast
    assert child.exit_code == 0
    assert child.maxrss_kb < 48 * 1024


def test_reference_program_uses_only_the_standard_library():
    tree = ast.parse((BENCH / "refprog.py").read_text(encoding="utf-8"))
    imported = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported[node.module.split(".")[0]] += 1
    assert imported, "expected at least one import"
    assert "maibaam_lint" not in imported
    assert set(imported) <= sys.stdlib_module_names
