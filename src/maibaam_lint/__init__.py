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
    SegmentationContext,
    SegmentationResult,
    TokenizerLexicon,
    default_lexicon,
    is_complementizer_agreement,
    load_lexicon,
    segment_token,
    tokenize_sentence,
)

__all__ = [
    "Diagnostic", "Document", "MwtSpan", "ParseError", "Sentence", "Token",
    "iter_sentences", "parse_document", "reconstruct_text",
    "serialize_document",
    "check_unique_sent_ids", "validate_metadata",
    "RULES", "LintConfig", "RuleDescriptor", "lint_sentence", "load_config",
    "validate_structure",
    "SegmentationContext", "SegmentationResult", "TokenizerLexicon",
    "default_lexicon", "is_complementizer_agreement", "load_lexicon",
    "segment_token", "tokenize_sentence",
]
