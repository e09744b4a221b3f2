import pathlib
import string

import pytest

from maibaam_lint.conllu import parse_document
from maibaam_lint.rules import LintConfig

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden.conllu"
DURCH_DES = FIXTURES / "durch_des_fixed.conllu"


@pytest.fixture(scope="session")
def golden_text() -> str:
    return GOLDEN.read_text(encoding="utf-8")


@pytest.fixture
def golden_doc(golden_text):
    return parse_document(golden_text, "golden.conllu")


@pytest.fixture(scope="session")
def cfg() -> LintConfig:
    return LintConfig()


def distinct_words(rng, n, lengths):
    """n distinct random lower-case words, their lengths drawn from lengths,
    in random order."""
    words = set()
    while len(words) < n:
        words.add("".join(rng.choice(string.ascii_lowercase)
                          for _ in range(rng.choice(lengths))))
    words = sorted(words)
    rng.shuffle(words)
    return words
