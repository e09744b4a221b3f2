"""The benchmark's traced run wraps program functions through module
attributes (bench/tracing.py). A hook the program stops calling through its
module attribute would read 0 there without failing; here it fails."""

import importlib.util
import io
from pathlib import Path
from types import SimpleNamespace

from maibaam_lint import cli, conllu, metadata, rules, tokenizer

from conftest import GOLDEN

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_hook_is_called(tmp_path):
    tracing = _load_tracing()
    wrapped = set()

    class Recording(tracing.Tracer):
        def wrap(self, name, fn, **kwargs):
            wrapped.add(name)
            return super().wrap(name, fn, **kwargs)

    raw = tmp_path / "raw.txt"
    raw.write_text("Mia san zum Haus gånga, dass'd es woaßt.\n",
                   encoding="utf-8")
    tracer = Recording()
    mods = SimpleNamespace(cli=cli, conllu=conllu, rules=rules,
                           metadata=metadata, tokenizer=tokenizer)
    patches = tracing.instrument(tracer, mods)
    try:
        for argv in (["lint", str(GOLDEN)], ["tokenize", str(raw)]):
            assert cli.run(argv, output=io.StringIO(),
                           errout=io.StringIO()) == 0, argv
    finally:
        patches.restore()

    assert patches.missing == []
    expected = {"rules.lint_sentence", "conllu.validate_structure",
                "metadata.validate_metadata", "metadata.check_unique_sent_ids",
                "conllu.reconstruct_text", "conllu.serialize", "cli.read",
                "tokenizer.default_lexicon", "tokenizer.tokenize_sentence",
                "tokenizer.attach_skeleton_heads", "tokenizer.segment_token"}
    expected |= {f"rules.{f.__name__}" for f in rules.SENTENCE_RULES}
    assert len(expected) == 11 + 14
    assert wrapped == expected
    assert {name for name, st in tracer.stats.items() if st.calls} == expected
