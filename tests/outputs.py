"""The committed output table: a fixed matrix of command lines, each run in
process through maibaam_lint.cli.run, with its exit code, standard output
and standard error.

    PYTHONPATH=src python tests/outputs.py             # check the table
    PYTHONPATH=src python tests/outputs.py --update    # rewrite the table

tests/outputs.tsv holds one row per command line, in matrix order: its
key, the exit code, and standard output and standard error, each as its
text when it is under TEXT_LIMIT bytes of UTF-8 and as "sha256:" and its
digest otherwise. The key is the command line (and "< FILE" for standard
input); a benchmark row's key names the workload, the seed and the pass.
Key and text are escaped as report TSV fields are (\\, \\t, \\n, \\r).

Every input is written into one temporary directory, which is the working
directory of every run, and named by a path relative to it, so that no
row depends on where the checkout lives. A "cannot read" line's
operating-system reason is masked as <ENOENT> or <EISDIR> (the errno's
name), so those rows hold on any POSIX system.

The matrix: lint and stats in each report format on each CoNLL-U fixture
and on all of them in both orders, each without and with CONFIG;
list-rules without and with CONFIG; tokenize on each text fixture and on
both; each of those subcommands on each input fault (a missing file, a
directory, a byte that is not UTF-8, CRLF line ends, a byte-order mark,
"-" given twice) and on all of them among good files; lint in each
format on an input whose name holds an LF, and lint, stats and tokenize
on a missing input whose name holds U+2028; and the timed and
setup command lines of bench/generate.py for each workload at seeds 1 to
SEEDS.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import io
import os
import shlex
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

from maibaam_lint import cli

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS / "fixtures"
BENCH = TESTS.parent / "bench"
TABLE = TESTS / "outputs.tsv"

TEXT_LIMIT = 2048
SEEDS = 5

CONLLU = sorted(p.name for p in FIXTURES.glob("*.conllu"))
TEXTS = sorted(p.name for p in FIXTURES.glob("*.txt"))
FORMATS = ("human", "json", "tsv")

# one severity override, one disabled family and one word list
CONFIG = "outputs.conf"
CONFIG_TEXT = """\
rule.LEMMA.MISSING.severity = error
rule.REVIEW.*.enabled = false
lexicon.aux.path = aux.txt
"""
CONFIG_FILES = {CONFIG: CONFIG_TEXT, "aux.txt": "sein\nhaben\n"}

MASKED = (errno.ENOENT, errno.EISDIR)  # the reasons the fault rows show

Case = namedtuple("Case", ("key", "argv", "stdin", "seed"))


def _fault_files(suffix: str, good: bytes) -> dict[str, bytes | None]:
    """An input of each fault, by name; None for the directory."""
    middle = good.index(b"\n", len(good) // 2) + 1  # a line start
    bad_byte = good.index(b"a", middle)
    return {
        f"latin1{suffix}": good[:bad_byte] + b"\xe4" + good[bad_byte + 1:],
        f"crlf{suffix}": good[:middle] + good[middle:].replace(b"\n", b"\r\n"),
        f"bom{suffix}": b"\xef\xbb\xbf" + good,
        f"dir{suffix}": None,
    }


def _faults(suffix: str, good: str) -> list[list[str]]:
    """The input lists of the fault rows: each fault alone, then all of
    them among good files."""
    names = [f"missing{suffix}", f"dir{suffix}", f"latin1{suffix}",
             f"crlf{suffix}", f"bom{suffix}"]
    return [[name] for name in names] + [["-", "-"],
                                         [good, *names, "-", "-", good]]


# the good file of each fault kind, which is also its standard input
FAULT_INPUTS = {".conllu": "golden.conllu", ".txt": "golden_tokenize.txt"}
# names that break a line unless they are shown escaped: a copy of
# durch_des_fixed.conllu, which has findings, and a missing input
LF_NAME = "durch\ndes.conllu"
LS_MISSING = "missing\u2028file.conllu"


def cases() -> list[Case]:
    """The matrix in table order."""
    out: list[Case] = []

    def add(argv, stdin=None, seed=None, key=None):
        if stdin is not None and "-" not in argv:
            stdin = None
        if key is None:
            key = shlex.join(argv) + (f" < {stdin}" if stdin else "")
        out.append(Case(key, argv, stdin, seed))

    together = [CONLLU, CONLLU[::-1]]
    for sub in ("lint", "stats"):
        for fmt in FORMATS:
            for config in ([], ["--config", CONFIG]):
                for files in [[name] for name in CONLLU] + together:
                    add([sub, "--format", fmt, *config, *files])
    add(["list-rules"])
    add(["list-rules", "--config", CONFIG])
    for files in [[name] for name in TEXTS] + [TEXTS]:
        add(["tokenize", *files])
    for sub in ("lint", "stats"):
        for fmt in FORMATS:
            for files in _faults(".conllu", FAULT_INPUTS[".conllu"]):
                add([sub, "--format", fmt, *files], FAULT_INPUTS[".conllu"])
    for files in _faults(".txt", FAULT_INPUTS[".txt"]):
        add(["tokenize", *files], FAULT_INPUTS[".txt"])
    for fmt in FORMATS:
        add(["lint", "--format", fmt, LF_NAME])
    for sub in ("lint", "stats", "tokenize"):
        add([sub, LS_MISSING])

    generate = _generator()
    for seed in range(1, SEEDS + 1):
        for workload in generate.WORKLOADS:
            for kind in ("timed", "setup"):
                add(None, seed=seed, key=f"{workload} seed {seed} {kind}")
    return out


def _generator():
    """bench/generate.py, imported as bench/tests import it."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import generate
    return generate


def write_inputs(directory: Path) -> dict:
    """Write every input of cases() into directory; return the argv of
    each benchmark row by its key."""
    for name in CONLLU + TEXTS:
        (directory / name).write_bytes((FIXTURES / name).read_bytes())
    (directory / LF_NAME).write_bytes(
        (FIXTURES / "durch_des_fixed.conllu").read_bytes())
    for name, text in CONFIG_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    for suffix, good in FAULT_INPUTS.items():
        for name, data in _fault_files(suffix,
                                       (FIXTURES / good).read_bytes()).items():
            if data is None:
                (directory / name).mkdir()
            else:
                (directory / name).write_bytes(data)
    generate = _generator()
    bench_argv = {}
    cwd = os.getcwd()
    os.chdir(directory)  # so that the argv name relative paths
    try:
        for seed in range(1, SEEDS + 1):
            workdir = Path(f"seed-{seed}")
            workdir.mkdir()
            for workload in generate.WORKLOADS:
                inputs = generate.generate(workload, seed, workdir)
                bench_argv[f"{workload} seed {seed} timed"] = inputs.argv
                bench_argv[f"{workload} seed {seed} setup"] = \
                    inputs.setup_argv
    finally:
        os.chdir(cwd)
    return bench_argv


def _field(text: str) -> str:
    """text as a table field: escaped, or its digest past TEXT_LIMIT."""
    data = text.encode("utf-8", "surrogateescape")
    if len(data) >= TEXT_LIMIT:
        return "sha256:" + hashlib.sha256(data).hexdigest()
    for raw, escaped in (("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"),
                         ("\r", "\\r")):
        text = text.replace(raw, escaped)
    return text


def _masked(err: str) -> str:
    for code in MASKED:
        err = err.replace(os.strerror(code), f"<{errno.errorcode[code]}>")
    return err


def run_case(case: Case, bench_argv: dict) -> tuple[str, str, str, str]:
    """case run in the working directory, as its table row: key, exit
    code, stdout and stderr fields. No config comes from the
    environment."""
    argv = case.argv if case.seed is None else bench_argv[case.key]
    out, err = io.StringIO(), io.StringIO()
    saved_env = os.environ.pop(cli.CONFIG_ENV_VAR, None)
    saved_stdin = sys.stdin
    if case.stdin is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(Path(case.stdin).read_bytes()),
                                     encoding="utf-8")
    try:
        code = cli.run(argv, output=out, errout=err)
    finally:
        sys.stdin = saved_stdin
        if saved_env is not None:
            os.environ[cli.CONFIG_ENV_VAR] = saved_env
    return (_field(case.key), str(code), _field(out.getvalue()),
            _field(_masked(err.getvalue())))


def read_table(path: Path = TABLE) -> dict[str, tuple[str, str, str, str]]:
    """The committed rows by key field, in table order."""
    rows = {}
    # split at LF only: a key may hold U+2028, which splitlines splits at
    for line in path.read_text(encoding="utf-8").split("\n"):
        if line and not line.startswith("#"):
            row = tuple(line.split("\t"))
            rows[row[0]] = row
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the table instead of checking it")
    args = parser.parse_args(argv)
    matrix = cases()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        bench_argv = write_inputs(Path(directory))
        os.chdir(directory)
        try:
            rows = [run_case(case, bench_argv) for case in matrix]
        finally:
            os.chdir(cwd)
    if args.update:
        TABLE.write_text(
            "# key\texit\tstdout\tstderr (tests/outputs.py writes this "
            "file)\n" + "".join("\t".join(row) + "\n" for row in rows),
            encoding="utf-8")
        print(f"wrote {len(rows)} rows to {TABLE}")
        return 0
    table = read_table()
    wrong = [row for row in rows if table.get(row[0]) != row]
    for row in wrong:
        print(f"differs: {row[0]}\n  table: {table.get(row[0])}\n"
              f"  now:   {row}")
    missing = set(table) - {row[0] for row in rows}
    if missing:
        print(f"rows in the table but not in the matrix: {sorted(missing)}")
    print(f"{len(rows) - len(wrong)} of {len(rows)} rows match")
    return int(bool(wrong or missing))


if __name__ == "__main__":
    sys.exit(main())
