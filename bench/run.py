#!/usr/bin/env python3
"""Benchmark for maibaam-lint.

    python3 bench/run.py --workload lint-corpus --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed (bench/generate.py), then for
--seconds runs rounds of three child processes: a timed CLI pass over the
input, a pass of the fixed reference program (bench/refprog.py) and a CLI
pass over a one-sentence input, with the reference pass in the middle and
the order of the other two alternating. Every CLI output is checked against
the generator's ground truth. The last line of stdout is one JSON result
with the end-to-end metrics declared in BENCHMARK.json; input properties and
raw timings go to stderr.

With --trace 1 the same workload runs in-process instead, alternating an
untraced pass, a traced pass (bench/tracing.py) and a reference pass, and
the result carries the per-layer metrics.

Host adjustment: this benchmark targets small shared VMs whose speed drifts
by 10-30% within a minute. Every timed second is scaled by
REF_NOMINAL_S / (seconds of the adjacent reference pass), so the metrics
measure the program relative to the host's current speed. Raw seconds are
reported on stderr for information only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# bench/ is sys.path[0] when run as a script; src/ holds the program, which
# the output checks and the traced run import
sys.path.insert(1, str(SRC))
import checks  # noqa: E402
import generate  # noqa: E402
import tracing  # noqa: E402

# Typical seconds of one refprog.py pass on the 2-vCPU x86-64 KVM guest the
# benchmark was written on (Python 3.11). A fixed constant: changing it, or
# refprog.py, re-bases every adjusted number.
REF_NOMINAL_S = 0.25
REF_SHA256 = "99d2255d219a070435608cae41c59f01e353b62f363d5e8ad37868fca0ba1fc6"
MIN_ROUNDS = 3

CLI = ["-m", "maibaam_lint.cli"]
REF = [str(BENCH / "refprog.py")]
IMPORT_PROBE = ["-c", "import time; t = time.perf_counter(); "
                      "import maibaam_lint.cli; print(time.perf_counter() - t)"]
REQUIRED = (SRC / "maibaam_lint" / "cli.py", generate.GOLDEN,
            generate.LEXICON, ROOT / "BENCHMARK.json")


class Child:
    __slots__ = ("seconds", "exit_code", "maxrss_kb", "stdout")

    def __init__(self, seconds, exit_code, maxrss_kb, stdout):
        self.seconds = seconds
        self.exit_code = exit_code
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout


class Spawner:
    """Starts the CLI, the reference program and the import probe the same
    way: same interpreter, environment and stdio, timed from spawn to exit,
    with the child's own rusage from wait4. The children are started by
    bench/spawner.py, a small helper process, because a child's ru_maxrss
    is at least the peak RSS of the process that spawned it."""

    def __init__(self, workdir: Path):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PYTHON") and k != "MAIBAAM_LINT_CONFIG"}
        env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.out = workdir / "child.stdout"
        self.err = workdir / "child.stderr"
        self._helper = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str]) -> Child:
        request = {"argv": [sys.executable, *args], "stdout": str(self.out),
                   "stderr": str(self.err)}
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError("bench/spawner.py exited")
        reply = json.loads(reply)
        return Child(reply["seconds"], reply["exit_code"],
                     reply["maxrss_kb"], self.out.read_bytes())

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait()
        self._helper.stdout.close()


class Verifier:
    """Checks outputs of one kind of pass. Each distinct (output, exit code)
    is checked once; every pass must also match the first byte for byte."""

    def __init__(self, check, truth):
        self.check = check
        self.truth = truth
        self.attempted = 0
        self.failures: list[str] = []
        self._first = None
        self._verdicts: dict = {}

    def __call__(self, stdout: bytes, exit_code: int) -> None:
        self.attempted += 1
        key = (hashlib.sha256(stdout).digest(), exit_code)
        if key not in self._verdicts:
            self._verdicts[key] = self.check(stdout, exit_code, self.truth)
        problem = self._verdicts[key]
        if self._first is None:
            self._first = key
        elif problem is None and key != self._first:
            problem = "output differs from the first pass of this run"
        if problem is not None:
            self.failures.append(problem)

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.failures.append(problem)


def _check_ref(stdout: bytes, exit_code: int, _truth) -> str | None:
    if exit_code != 0 or hashlib.sha256(stdout).hexdigest() != REF_SHA256:
        return f"reference program: exit {exit_code}, output {stdout[-60:]!r}"
    return None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(verifiers: list[Verifier], ref: Verifier, values: dict,
            declared: list[dict]) -> dict:
    """The result line: declared metrics only, in declaration order."""
    return {
        "correct": not any(v.failures for v in verifiers + [ref]),
        "attempted": sum(v.attempted for v in verifiers),
        "failed": sum(len(v.failures) for v in verifiers),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def e2e_values(tokens: int, pass_s: list[float], setup_s: list[float],
               rss_mb: list[float]) -> dict:
    """End-to-end metrics from per-round samples (seconds host-adjusted)."""
    return {"setup_s": _median(setup_s),
            "tokens_per_s": tokens / _median(pass_s),
            "peak_rss_mb": _median(rss_mb)}


def end_to_end(inputs: generate.Inputs, seconds: float,
               spawner: Spawner) -> tuple[dict, dict]:
    check = checks.CHECKS[inputs.workload]
    verify = {"cli": Verifier(check, inputs.truth),
              "setup": Verifier(check, inputs.setup_truth),
              "ref": Verifier(_check_ref, None)}
    argv = {"cli": CLI + inputs.argv, "setup": CLI + inputs.setup_argv,
            "ref": REF}

    def spawn(kind: str) -> Child:
        child = spawner.run(argv[kind])
        verify[kind](child.stdout, child.exit_code)
        return child

    for kind in ("cli", "setup", "ref"):   # bytecode and page caches
        spawn(kind)
    raw = {"cli": [], "setup": [], "ref": []}
    adjusted = {"cli": [], "setup": []}
    rss_mb = []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        order = ("cli", "ref", "setup") if rounds % 2 == 0 else \
            ("setup", "ref", "cli")
        got = {kind: spawn(kind) for kind in order}
        factor = REF_NOMINAL_S / got["ref"].seconds
        for kind in raw:
            raw[kind].append(got[kind].seconds)
        for kind in adjusted:
            adjusted[kind].append(got[kind].seconds * factor)
        rss_mb.append(got["cli"].maxrss_kb / 1024)
        rounds += 1

    values = e2e_values(inputs.tokens, adjusted["cli"], adjusted["setup"],
                        rss_mb)
    result = _result([verify["cli"], verify["setup"]], verify["ref"], values,
                     _declared()["end_to_end"])
    info = {
        "rounds": rounds,
        "raw_median_s": {k: _median(v) for k, v in raw.items()},
        "adjusted_median_s": {k: _median(v) for k, v in adjusted.items()},
        "failures": sorted(set(f for v in verify.values() for f in v.failures)),
    }
    return result, info


# -- traced in-process run -------------------------------------------------

class _Modules:
    def __init__(self):
        from maibaam_lint import cli, conllu, metadata, rules, tokenizer
        self.cli, self.conllu, self.metadata = cli, conllu, metadata
        self.rules, self.tokenizer = rules, tokenizer


class _NoTrace:
    @staticmethod
    def span(_name: str):
        return contextlib.nullcontext()


def lint_pipeline(mods: _Modules, inputs: generate.Inputs, tr):
    """The `lint` subcommand's steps as `cli.cmd_lint` takes them, except
    that the files are read and parsed in order rather than in a thread
    pool, so that each parse call's retained memory can be measured. The
    config and the exit code come from the program's own `cli` functions."""
    _, _, report_format, *paths = inputs.argv
    cli = mods.cli
    opts = cli.RunOptions(subcommand="lint", inputs=paths,
                          report_format=report_format)
    docs, blocks, tokens = [], 0, 0
    for path in paths:
        text, name = cli._read_input(path)
        before = sys.getallocatedblocks()
        with tr.span("conllu.parse"):
            doc = mods.conllu.parse_document(text, name)
        blocks += sys.getallocatedblocks() - before
        tokens += sum(len(s.tokens) for s in doc.sentences)
        docs.append(doc)
    with tr.span("cli.lint_documents"):
        diags = cli.lint_documents(docs, cli._resolve_config(opts))
    out = io.StringIO()
    with tr.span("cli.render"):
        if report_format == "json":
            cli.render_json(diags, [d.file for d in docs], out)
        else:
            cli.render_human(diags, out)
    exit_code = cli._exit_code(diags, opts.fail_level)
    return out.getvalue().encode("utf-8"), exit_code, \
        Counter(parse_blocks=blocks, parse_tokens=tokens)


def tokenize_pipeline(mods: _Modules, inputs: generate.Inputs, tr):
    """The `tokenize` subcommand through cli.cmd_tokenize."""
    out = io.StringIO()
    opts = mods.cli.RunOptions(subcommand="tokenize", inputs=inputs.argv[1:],
                               output=out, errout=io.StringIO())
    exit_code = mods.cli.cmd_tokenize(opts)
    return out.getvalue().encode("utf-8"), exit_code, Counter()


PIPELINES = {"lint-corpus": lint_pipeline, "lint-skeleton": lint_pipeline,
             "tokenize-text": tokenize_pipeline}


def layer_values(tracer: tracing.Tracer, extra: Counter, output_bytes: int,
                 factor: float) -> dict:
    """Per-layer values of one traced pass, seconds host-adjusted."""
    values = {"conllu.parse.retained_blocks_per_token":
              extra["parse_blocks"] / max(extra["parse_tokens"], 1)}
    for name, st in tracer.stats.items():
        values[f"{name}.self_s"] = st.self_s * factor
        values[f"{name}.gc_s"] = st.gc_s * factor
        values[f"{name}.gc_collections"] = st.gc_collections
        values[f"{name}.findings"] = st.findings
        values[f"{name}.calls"] = st.calls
        values[f"{name}.s"] = st.total_s * factor
        if st.distinct is not None:
            values[f"{name}.distinct_share"] = len(st.distinct) / st.calls
    values["cli.output_bytes"] = output_bytes
    return values


def traced(inputs: generate.Inputs, seconds: float, spawner: Spawner,
           trace_path: Path) -> tuple[dict, dict]:
    mods = _Modules()
    # the CLI children run without a user config; so does this process
    os.environ.pop(mods.cli.CONFIG_ENV_VAR, None)
    tracer = tracing.Tracer()
    verify = Verifier(checks.CHECKS[inputs.workload], inputs.truth)
    verify_ref = Verifier(_check_ref, None)
    pipeline = PIPELINES[inputs.workload]
    missing_hooks: list[str] = []

    def run_pass(traced_pass: bool):
        gc.collect()
        patches = None
        if traced_pass:
            patches = tracing.instrument(tracer, mods)
            missing_hooks[:] = patches.missing
            tracer.begin_pass()
        start = time.perf_counter()
        try:
            with tracer.span("pass") if traced_pass else \
                    contextlib.nullcontext():
                out, code, extra = pipeline(
                    mods, inputs, tracer if traced_pass else _NoTrace)
        except Exception:  # a program failure is a failed operation
            verify.fail(traceback.format_exc(limit=3))
            return time.perf_counter() - start, Counter(), 0
        finally:
            if traced_pass:
                tracer.end_pass()
                patches.restore()
        elapsed = time.perf_counter() - start
        verify(out, code)
        return elapsed, extra, len(out)

    def ref_pass() -> float:
        child = spawner.run(REF)
        verify_ref(child.stdout, child.exit_code)
        return child.seconds

    def probe_pass() -> float:
        child = spawner.run(IMPORT_PROBE)
        try:
            return float(child.stdout)
        except ValueError:
            verify.fail(f"import probe failed: exit {child.exit_code}")
            return 0.0

    run_pass(False)
    run_pass(True)
    ref_pass()
    plain_adj, traced_adj, import_adj, per_pass = [], [], [], []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        if rounds % 2 == 0:
            plain_s, _, _ = run_pass(False)
            import_s = probe_pass()
            factor = REF_NOMINAL_S / ref_pass()
            traced_s, extra, size = run_pass(True)
        else:
            traced_s, extra, size = run_pass(True)
            factor = REF_NOMINAL_S / ref_pass()
            import_s = probe_pass()
            plain_s, _, _ = run_pass(False)
        plain_adj.append(plain_s * factor)
        traced_adj.append(traced_s * factor)
        import_adj.append(import_s * factor)
        per_pass.append(layer_values(tracer, extra, size, factor))
        rounds += 1

    declared = _declared()["per_layer"]
    values = {m["name"]: _median([p.get(m["name"], 0.0) for p in per_pass])
              for m in declared}
    values["cli.import_s"] = _median(import_adj)
    values["trace.overhead_ratio"] = _median(traced_adj) / _median(plain_adj)
    result = _result([verify], verify_ref, values, declared)

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(
        {"workload": inputs.workload, "ref_nominal_s": REF_NOMINAL_S,
         "spans": tracer.spans, "layers_per_pass": per_pass}, indent=1),
        encoding="utf-8")
    info = {
        "rounds": rounds,
        "adjusted_median_s": {"untraced": _median(plain_adj),
                              "traced": _median(traced_adj)},
        "missing_hooks": missing_hooks,
        "failures": sorted(set(verify.failures + verify_ref.failures)),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=generate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    absent = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if absent:
        print(f"error: not a maibaam-lint checkout, missing {absent}",
              file=sys.stderr)
        return 2

    build = ROOT / ".bench_build"
    workdir = build / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        started = time.perf_counter()
        inputs = generate.generate(args.workload, args.seed, workdir)
        generated = time.perf_counter() - started
        spawner = Spawner(workdir)
        try:
            if args.trace:
                trace_path = build / "trace" / \
                    f"{args.workload}-seed{args.seed}.json"
                result, info = traced(inputs, args.seconds, spawner,
                                      trace_path)
            else:
                result, info = end_to_end(inputs, args.seconds, spawner)
        finally:
            spawner.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "ref_nominal_s": REF_NOMINAL_S,
            "generate_s": generated, "inputs": inputs.properties, **info}
    print(json.dumps(info, ensure_ascii=False), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
