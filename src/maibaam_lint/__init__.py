"""Parsing, Bavarian segmentation and guideline linting for MaiBaam-style
CoNLL-U treebanks."""

__version__ = "0.1.0"

from .conllu import (
    Diagnostic,
    Document,
    MwtSpan,
    ParseError,
    Sentence,
    Token,
    column_value,
    iter_sentences,
    parse_document,
    reconstruct_text,
    serialize_document,
)
from .metadata import check_unique_sent_ids, validate_metadata
from .rules import (
    RULES,
    LintConfig,
    RuleDescriptor,
    lint_sentence,
    load_config,
    validate_structure,
)
from .tokenizer import (
    SegmentationResult,
    TokenizerLexicon,
    default_lexicon,
    load_lexicon,
    match_agreement_suffix,
    segment_token,
    tokenize_sentence,
)

__all__ = [
    "Diagnostic", "Document", "MwtSpan", "ParseError", "Sentence", "Token",
    "column_value", "iter_sentences", "parse_document", "reconstruct_text",
    "serialize_document",
    "check_unique_sent_ids", "validate_metadata",
    "RULES", "LintConfig", "RuleDescriptor", "lint_sentence", "load_config",
    "validate_structure",
    "SegmentationResult", "TokenizerLexicon", "default_lexicon",
    "load_lexicon", "match_agreement_suffix", "segment_token",
    "tokenize_sentence",
]
