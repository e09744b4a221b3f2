"""Lint rules for MaiBaam-style annotations.

Every rule has a stable id, a default severity and a guideline citation.
Rules consult the GermanLemma MISC attribute rather than surface forms for
closed-class checks, since Bavarian spelling varies while the German lemma
is stable. Rule output is a pure function of (sentence, config).
"""

from __future__ import annotations

import os
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .conllu import (
    Diagnostic,
    MwtSpan,
    Sentence,
    SEVERITY_ERROR,
    SEVERITY_REVIEW,
    SEVERITY_WARNING,
    Token,
    column_value,
    read_text,
)

UPOS_TAGS = frozenset({
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
})

DEPRELS = frozenset({
    "root", "nsubj", "nsubj:pass", "nsubj:outer", "obj", "iobj", "obl",
    "obl:arg", "obl:agent", "expl", "expl:pv", "vocative", "csubj",
    "csubj:pass", "ccomp", "xcomp", "advcl", "advcl:relcl", "aux",
    "aux:pass", "cop", "mark", "compound", "compound:prt", "dislocated",
    "discourse", "nmod", "nmod:poss", "appos", "acl", "acl:relcl", "det",
    "det:poss", "case", "amod", "nummod", "flat", "conj", "cc", "punct",
    "advmod", "fixed", "parataxis", "goeswith", "orphan", "reparandum",
    "list", "dep",
})

UNKNOWN_LEMMA = "<unknown>"


@dataclass(frozen=True)
class RuleDescriptor:
    rule_id: str
    default_severity: str
    guideline_ref: str | None
    description: str


RULES: tuple[RuleDescriptor, ...] = (
    RuleDescriptor("STRUCT.NO_ROOT", SEVERITY_ERROR, None,
                   "exactly one token must have head 0"),
    RuleDescriptor("STRUCT.MULTI_ROOT", SEVERITY_ERROR, None,
                   "exactly one token must have head 0"),
    RuleDescriptor("STRUCT.CYCLE", SEVERITY_ERROR, None,
                   "head chains must not revisit a token"),
    RuleDescriptor("STRUCT.HEAD_RANGE", SEVERITY_ERROR, None,
                   "head ids must stay within the sentence"),
    RuleDescriptor("STRUCT.ROOT_DEPREL", SEVERITY_ERROR, None,
                   'the head-0 token must use deprel "root"'),
    RuleDescriptor("STRUCT.PUNCT_CHILD", SEVERITY_ERROR, None,
                   "punctuation tokens must not head other tokens"),
    RuleDescriptor("STRUCT.MWT_OVERLAP", SEVERITY_ERROR, None,
                   "multi-word token ranges must not overlap"),
    RuleDescriptor("CORE.ENHANCED_UNSUPPORTED", SEVERITY_WARNING,
                   "General remarks",
                   "enhanced dependencies and empty nodes are not annotated"),
    RuleDescriptor("CORE.COLUMNS", SEVERITY_WARNING, "General remarks",
                   "LEMMA/XPOS/FEATS stay empty apart from Typo=Yes"),
    RuleDescriptor("CORE.BOM", SEVERITY_WARNING, None,
                   "file starts with a byte-order mark"),
    RuleDescriptor("VOCAB.UPOS", SEVERITY_ERROR, "§2",
                   "UPOS must be one of the 17 universal tags"),
    RuleDescriptor("VOCAB.DEPREL", SEVERITY_ERROR, "§3",
                   "deprel must be in the closed relation inventory"),
    RuleDescriptor("CLASS.COP", SEVERITY_ERROR, "§6.6",
                   'only forms of "sein" can be copulas'),
    RuleDescriptor("CLASS.PART", SEVERITY_ERROR, "§6.12",
                   'PART is reserved for "nicht" and "zu"'),
    RuleDescriptor("CLASS.AUX", SEVERITY_ERROR, "§7.2.1",
                   "AUX lemmas come from a closed auxiliary set"),
    RuleDescriptor("CLASS.USERNAME", SEVERITY_ERROR, "§6.4",
                   "the USERNAME placeholder is tagged PROPN"),
    RuleDescriptor("CLASS.PLACEHOLDER", SEVERITY_REVIEW, "§6.9",
                   "dummy placeholders are tagged X, ellipses SYM"),
    RuleDescriptor("REL.FIXED", SEVERITY_ERROR, "§6.11",
                   "fixed is limited to whitelisted expressions"),
    RuleDescriptor("REL.GOESWITH", SEVERITY_ERROR, "§6.20",
                   "goeswith parts follow their typo-marked head"),
    RuleDescriptor("REL.RELMARK", SEVERITY_ERROR, "§7.4.4",
                   "relative markers are SCONJ, not PRON"),
    RuleDescriptor("LEMMA.MISSING", SEVERITY_WARNING, "§5",
                   "tokens carry a GermanLemma MISC attribute"),
    RuleDescriptor("LEMMA.ON_MWT", SEVERITY_ERROR, "§5",
                   "multi-word token lines carry no lemma"),
    RuleDescriptor("LEMMA.NIMMA", SEVERITY_WARNING, "§5",
                   '"nimma" is lemmatized as "nicht mehr"'),
    RuleDescriptor("TYPO.CORRECT_SPACE", SEVERITY_ERROR, "§6.20",
                   "CorrectSpaceAfter=Yes pairs with SpaceAfter=No"),
    RuleDescriptor("TYPO.REVIEW", SEVERITY_REVIEW, "§6.20",
                   "Typo=Yes without goeswith parts needs a second look"),
    RuleDescriptor("MWT.SURFACE", SEVERITY_ERROR, "§1.5",
                   "MWT parts are substrings of the surface form"),
    RuleDescriptor("REVIEW.IOBJ", SEVERITY_REVIEW, "§6.8",
                   "iobj is reserved for rare second accusatives"),
    RuleDescriptor("REVIEW.APPOS_ORDER", SEVERITY_REVIEW, "§4.3",
                   "appositions normally follow their head"),
    RuleDescriptor("META.MISSING", SEVERITY_WARNING, "§1.3",
                   "required sentence metadata keys are present"),
    RuleDescriptor("META.GENRE", SEVERITY_ERROR, "§1.3",
                   "genre comes from the closed genre list"),
    RuleDescriptor("META.DIALECT", SEVERITY_ERROR, "§1.3",
                   "dialect_group comes from the closed group list"),
    RuleDescriptor("META.DIALECT_ORDER", SEVERITY_ERROR, "§1.3",
                   "unk (...) elaborations list groups north to south"),
    RuleDescriptor("META.DUP_ID", SEVERITY_ERROR, "§1.3",
                   "sent_id values are unique across the run"),
    RuleDescriptor("META.TEXT_MISMATCH", SEVERITY_ERROR, "§1.6",
                   "the text metadata matches the token forms"),
    RuleDescriptor("META.SOURCE", SEVERITY_WARNING, "§1.3",
                   "wiki/social sources are absolute URLs"),
)

RULES_BY_ID = {r.rule_id: r for r in RULES}
RULE_FAMILIES = frozenset(r.rule_id.split(".")[0] + ".*" for r in RULES)

DEFAULT_COPULA_LEMMAS = frozenset({"sein"})
DEFAULT_PART_LEMMAS = frozenset({"nicht", "zu"})
DEFAULT_AUX_LEMMAS = frozenset({
    "sein", "haben", "werden", "tun",
    "können", "müssen", "sollen", "wollen", "dürfen", "mögen",
})
DEFAULT_FIXED_WHITELIST: tuple[tuple[str, ...], ...] = (
    ("ein", "paar"),
    ("ein", "wenig"),
    ("ein", "bisschen"),
    ("und", "zwar"),
    ("mehr", "als"),
    ("mehr", "wie"),
    ("weniger", "als"),
    ("weniger", "wie"),
    ("ein", "und", "derselbe"),
    ("bis", "zu"),
    ("gäin", "S"),
)
# fixed before guideline version 2.17, banned afterwards
DEFAULT_FIXED_VERSIONED: tuple[tuple[str, ...], ...] = (
    ("durch", "des"),
    ("duach", "des"),
    ("durch", "das"),
    ("fir", "des"),
    ("für", "das"),
)
DEFAULT_PLACEHOLDER_X = frozenset({"A", "B", "C", "X", "Y", "Z", "XYZ", "XZY"})
DEFAULT_PLACEHOLDER_SYM = frozenset({"...", "…"})
DEFAULT_RELATIVE_MARKERS = frozenset({"wo", "was", "wie", "wej"})
DEFAULT_GENRES = frozenset({
    "wiki", "social", "fiction", "grammar examples", "non-fiction",
})
DIALECT_GROUPS_NORTH_TO_SOUTH = (
    "north", "northcentral", "central", "southcentral", "south",
)
URL_GENRES = frozenset({"wiki", "social"})


@dataclass(frozen=True)
class LintConfig:
    """Rule toggles, severity overrides and the closed-class lexicons."""

    severity_overrides: Mapping[str, str] = field(default_factory=dict)
    disabled_rules: frozenset[str] = frozenset()
    enabled_rules: frozenset[str] = frozenset()
    copula_lemmas: frozenset[str] = DEFAULT_COPULA_LEMMAS
    part_lemmas: frozenset[str] = DEFAULT_PART_LEMMAS
    aux_lemmas: frozenset[str] = DEFAULT_AUX_LEMMAS
    fixed_whitelist: tuple[tuple[str, ...], ...] = DEFAULT_FIXED_WHITELIST
    fixed_versioned: tuple[tuple[str, ...], ...] = DEFAULT_FIXED_VERSIONED
    placeholder_x_forms: frozenset[str] = DEFAULT_PLACEHOLDER_X
    placeholder_sym_forms: frozenset[str] = DEFAULT_PLACEHOLDER_SYM
    relative_markers: frozenset[str] = DEFAULT_RELATIVE_MARKERS
    genre_vocab: frozenset[str] = DEFAULT_GENRES
    dialect_order: tuple[str, ...] = DIALECT_GROUPS_NORTH_TO_SOUTH
    guideline_version: str = "2.17"
    typo_column: str = "either"  # "feats", "misc" or "either"
    punct_lemma_exempt: bool = True
    tokenizer_lexicon_path: str | None = None
    # every catalogued rule id -> (severity, citation), resolved once per
    # config; dataclasses.replace builds a new config and so a new table
    rule_table: dict[str, tuple[str, str | None]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        # read-only, so that an edit cannot leave rule_table stale
        object.__setattr__(self, "severity_overrides",
                           MappingProxyType(dict(self.severity_overrides)))
        object.__setattr__(self, "rule_table", {
            r.rule_id: (self.severity(r.rule_id), r.guideline_ref)
            for r in RULES})

    def rule_enabled(self, rule_id: str) -> bool:
        for key in _setting_keys(rule_id):
            if key in self.enabled_rules:
                return True
            if key in self.disabled_rules:
                return False
        return True

    def severity(self, rule_id: str) -> str:
        for key in _setting_keys(rule_id):
            if key in self.severity_overrides:
                return self.severity_overrides[key]
        return RULES_BY_ID[rule_id].default_severity

    def version_at_least(self, threshold: str) -> bool:
        return _version_tuple(self.guideline_version) >= _version_tuple(threshold)


def _setting_keys(rule_id: str) -> tuple[str, str]:
    """Config keys that can set a rule, most specific first: the exact id,
    then its FAMILY.* wildcard."""
    return rule_id, rule_id.split(".")[0] + ".*"


VERSION_RE = re.compile(r"[0-9]+(\.[0-9]+)*")
BOOLEANS = {"1": True, "true": True, "yes": True,
            "0": False, "false": False, "no": False}


def _version_tuple(version: str) -> tuple[int, ...]:
    return tuple(map(int, version.split(".")))


def load_config(path: str) -> LintConfig:
    """Load a flat key=value config file.

    Recognized keys: guideline_version, typo_column, punct_lemma_exempt,
    rule.<ID>.severity and rule.<ID>.enabled (<ID> a catalogued rule id or
    a FAMILY.* wildcard), and lexicon.<name>.path entries
    pointing at plain word-list files (one entry per line, # comments;
    fixed-expression lists hold one space-separated sequence per line).
    Booleans are 1/0/true/false/yes/no in any case; guideline_version is
    dot-separated ASCII digits such as 2.17.
    """
    overrides: dict[str, str] = {}
    disabled: set[str] = set()
    enabled: set[str] = set()
    fields: dict[str, object] = {}
    base = os.path.dirname(os.path.abspath(path))

    lexicon_fields = {
        "copula": ("copula_lemmas", "set"),
        "part": ("part_lemmas", "set"),
        "aux": ("aux_lemmas", "set"),
        "fixed": ("fixed_whitelist", "sequences"),
        "fixed_versioned": ("fixed_versioned", "sequences"),
        "placeholder_x": ("placeholder_x_forms", "set"),
        "placeholder_sym": ("placeholder_sym_forms", "set"),
        "relative_markers": ("relative_markers", "set"),
        "genres": ("genre_vocab", "set"),
        "dialect_groups": ("dialect_order", "tuple"),
    }

    for line_no, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        flag = BOOLEANS.get(value.lower())
        if key.startswith("rule.") and key.endswith((".severity", ".enabled")):
            rule_id, setting = key[len("rule."):].rsplit(".", 1)
            if rule_id not in RULES_BY_ID and rule_id not in RULE_FAMILIES:
                raise ValueError(f"{path}:{line_no}: unknown rule {rule_id!r}")
            if setting == "enabled":
                if flag is None:
                    raise ValueError(f"{path}:{line_no}: bad boolean {value!r}")
                (enabled if flag else disabled).add(rule_id)
            elif value not in (SEVERITY_ERROR, SEVERITY_WARNING, SEVERITY_REVIEW):
                raise ValueError(f"{path}:{line_no}: bad severity {value!r}")
            else:
                overrides[rule_id] = value
        elif key.startswith("lexicon.") and key.endswith(".path"):
            name = key[len("lexicon."):-len(".path")]
            if name == "tokenizer":
                fields["tokenizer_lexicon_path"] = os.path.join(base, value)
                continue
            if name not in lexicon_fields:
                raise ValueError(f"{path}:{line_no}: unknown lexicon {name!r}")
            attr, shape = lexicon_fields[name]
            entries = _read_word_list(os.path.join(base, value))
            if shape == "set":
                fields[attr] = frozenset(entries)
            elif shape == "tuple":
                fields[attr] = tuple(entries)
            else:
                fields[attr] = tuple(tuple(e.split()) for e in entries)
        elif key == "guideline_version":
            if not VERSION_RE.fullmatch(value):
                raise ValueError(f"{path}:{line_no}: bad guideline_version "
                                 f"{value!r}")
            fields["guideline_version"] = value
        elif key == "typo_column":
            if value not in ("feats", "misc", "either"):
                raise ValueError(f"{path}:{line_no}: bad typo_column {value!r}")
            fields["typo_column"] = value
        elif key == "punct_lemma_exempt":
            if flag is None:
                raise ValueError(f"{path}:{line_no}: bad boolean {value!r}")
            fields["punct_lemma_exempt"] = flag
        else:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")

    return LintConfig(severity_overrides=overrides,
                      disabled_rules=frozenset(disabled),
                      enabled_rules=frozenset(enabled),
                      **fields)  # type: ignore[arg-type]


def _read_word_list(path: str) -> list[str]:
    entries = []
    for raw in read_text(path).split("\n"):
        line = raw.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    return entries


def finding(cfg: LintConfig, s: Sentence, rule_id: str, message: str,
            token: Token | None = None, line: int | None = None) -> Diagnostic:
    """The one constructor of sentence findings: severity and citation from
    the config's rule table, location from the token or sentence."""
    severity, ref = cfg.rule_table[rule_id]
    if token is None:
        token_id = None
        if line is None:
            line = s.line
    else:
        token_id = token.id
        if line is None:
            line = token.line
    return Diagnostic(rule_id, severity, s.file, line, s.sent_id, token_id,
                      message, ref)


def validate_structure(s: Sentence,
                       cfg: LintConfig | None = None) -> list[Diagnostic]:
    """Check tree well-formedness: one root, no cycles, heads in range,
    root deprel pairing, no tokens headed by punctuation, no overlapping
    MWT spans. Crossing arcs are deliberately not flagged.
    """
    cfg = cfg or LintConfig()
    diags: list[Diagnostic] = []
    n = len(s.tokens)

    roots = [t for t in s.tokens if t.head == 0]
    if n and not roots:
        diags.append(finding(cfg, s, "STRUCT.NO_ROOT", "no token has head 0"))
    elif len(roots) > 1:
        ids = ", ".join(str(t.id) for t in roots)
        diags.append(finding(cfg, s, "STRUCT.MULTI_ROOT",
                             f"{len(roots)} tokens have head 0 (ids {ids})"))

    for t in s.tokens:
        if t.head > n:
            diags.append(finding(cfg, s, "STRUCT.HEAD_RANGE",
                                 f"head {t.head} exceeds sentence length {n}", t))
        if t.head == 0 and t.deprel != "root":
            diags.append(finding(cfg, s, "STRUCT.ROOT_DEPREL",
                                 f'head 0 requires deprel "root", got "{t.deprel}"', t))
        if 1 <= t.head <= n and s.tokens[t.head - 1].upos == "PUNCT":
            diags.append(finding(cfg, s, "STRUCT.PUNCT_CHILD",
                                 f"token headed by punctuation token {t.head}", t))

    # Cycle detection over the head map; heads out of range end their chain.
    state = [0] * (n + 1)  # 0 unvisited, 1 on stack, 2 done
    cycle_starts: list[int] = []
    for start in range(1, n + 1):
        if state[start]:
            continue
        path = []
        node = start
        while node and 1 <= node <= n and state[node] == 0:
            state[node] = 1
            path.append(node)
            node = s.tokens[node - 1].head
        if node and 1 <= node <= n and state[node] == 1:
            cycle = path[path.index(node):]
            cycle_starts.append(min(cycle))
        for visited in path:
            state[visited] = 2
    for anchor in sorted(cycle_starts):
        diags.append(finding(cfg, s, "STRUCT.CYCLE",
                             f"head chain through token {anchor} revisits itself",
                             s.tokens[anchor - 1]))

    covered: list[tuple[int, int, MwtSpan]] = sorted(
        (span.first_id, span.last_id, span) for span in s.mwt_spans)
    for (f1, l1, _), (f2, l2, span2) in zip(covered, covered[1:]):
        if f2 <= l1:
            diags.append(finding(cfg, s, "STRUCT.MWT_OVERLAP",
                                 f"multiword ranges {f1}-{l1} and {f2}-{l2} overlap",
                                 line=span2.line or s.line))
    return diags


def _has_typo_flag(t: Token, cfg: LintConfig) -> bool:
    if "Typo=" not in t.feats_col and "Typo=" not in t.misc:
        return False
    in_feats = t.feats_value("Typo") == "Yes"
    in_misc = t.misc_value("Typo") == "Yes"
    if cfg.typo_column == "feats":
        return in_feats
    if cfg.typo_column == "misc":
        return in_misc
    return in_feats or in_misc


def _dependents(s: Sentence, deprel: str) -> dict[int, list[Token]]:
    """Head id -> its dependents with this deprel, in token order."""
    deps: dict[int, list[Token]] = {}
    for t in s.tokens:
        if t.deprel == deprel:
            deps.setdefault(t.head, []).append(t)
    return deps


def _follow(head: Token, deps: list[Token]) -> bool:
    """Whether deps, in token order, are the tokens right after head. Ids
    rise by one per token, so the first and the last id settle it."""
    return deps[0].id == head.id + 1 and deps[-1].id == head.id + len(deps)


def rule_upos_vocabulary(s: Sentence, cfg: LintConfig) -> list[Diagnostic]:
    """VOCAB.UPOS: every UPOS value is one of the 17 universal tags."""
    return [
        finding(cfg, s, "VOCAB.UPOS", f"unknown UPOS tag {t.upos!r}", t)
        for t in s.tokens if t.upos not in UPOS_TAGS
    ]


def rule_deprel_vocabulary(s: Sentence, cfg: LintConfig) -> list[Diagnostic]:
    """VOCAB.DEPREL: deprels come from the closed set; "root" only on head 0."""
    diags = []
    for t in s.tokens:
        if t.deprel not in DEPRELS:
            diags.append(finding(cfg, s, "VOCAB.DEPREL",
                                 f"unknown deprel {t.deprel!r}", t))
        elif t.deprel == "root" and t.head != 0:
            diags.append(finding(cfg, s, "VOCAB.DEPREL",
                                 f'deprel "root" on token with head {t.head}', t))
    return diags


def _checkable_lemma(t: Token) -> str | None:
    lemma = t.german_lemma
    if lemma is None or lemma == UNKNOWN_LEMMA:
        return None
    return lemma


def rule_copula(s: Sentence, cfg: LintConfig) -> list[Diagnostic]:
    """CLASS.COP: copulas must be forms of "sein" (by GermanLemma)."""
    diags = []
    for t in s.tokens:
        if t.deprel == "cop":
            lemma = _checkable_lemma(t)
            if lemma is not None and lemma not in cfg.copula_lemmas:
                diags.append(finding(cfg, s, "CLASS.COP",
                                     f"copula lemma {lemma!r} is not allowed; "
                                     f"verbs like werden/bleiben are full verbs", t))
    return diags


def rule_part_closed_class(s: Sentence, cfg: LintConfig) -> list[Diagnostic]:
    """CLASS.PART: PART tokens carry lemma "nicht" or "zu"."""
    diags = []
    for t in s.tokens:
        if t.upos == "PART":
            lemma = _checkable_lemma(t)
            if lemma is not None and lemma not in cfg.part_lemmas:
                diags.append(finding(cfg, s, "CLASS.PART",
                                     f"PART with lemma {lemma!r}; modal particles "
                                     f"are tagged ADV", t))
    return diags


def rule_aux_closed_class(s: Sentence, cfg: LintConfig) -> list[Diagnostic]:
    """CLASS.AUX: AUX lemmas come from the configured auxiliary set."""
    diags = []
    for t in s.tokens:
        if t.upos == "AUX":
            lemma = _checkable_lemma(t)
            if lemma is not None and lemma not in cfg.aux_lemmas:
                diags.append(finding(cfg, s, "CLASS.AUX",
                                     f"AUX with lemma {lemma!r} outside the "
                                     f"auxiliary set", t))
    return diags


def _matches_sequence(span: list[Token], entry: tuple[str, ...]) -> bool:
    if len(span) != len(entry):
        return False
    for t, word in zip(span, entry):
        w = word.casefold()
        if t.form.casefold() != w and (t.german_lemma or "").casefold() != w:
            return False
    return True


def rule_fixed_whitelist(s: Sentence, cfg: LintConfig) -> list[Diagnostic]:
    """REL.FIXED: fixed spans match the whitelist and follow their head."""
    diags = []
    for head_id, deps in sorted(_dependents(s, "fixed").items()):
        head = s.token_by_id(head_id)
        if head is None:
            continue
        if not _follow(head, deps):
            diags.append(finding(cfg, s, "REL.FIXED",
                                 "fixed dependents must immediately follow "
                                 "their head", deps[0]))
            continue
        span = [head] + deps
        words = " ".join(t.form for t in span)
        if any(_matches_sequence(span, e) for e in cfg.fixed_versioned):
            if cfg.version_at_least("2.17"):
                diags.append(finding(cfg, s, "REL.FIXED",
                                     f'"{words}" is no longer annotated as a '
                                     f"fixed expression", head))
            continue
        if not any(_matches_sequence(span, e) for e in cfg.fixed_whitelist):
            diags.append(finding(cfg, s, "REL.FIXED",
                                 f'"{words}" is not a whitelisted fixed '
                                 f"expression", head))
    return diags


def rule_goeswith_shape(s: Sentence, cfg: LintConfig) -> list[Diagnostic]:
    """REL.GOESWITH: parts follow a typo-marked, lemma-bearing head."""
    diags = []
    for head_id, deps in sorted(_dependents(s, "goeswith").items()):
        head = s.token_by_id(head_id)
        if head is None:
            diags.append(finding(cfg, s, "REL.GOESWITH",
                                 "goeswith dependent without a head token",
                                 deps[0]))
            continue
        if not _follow(head, deps):
            diags.append(finding(cfg, s, "REL.GOESWITH",
                                 "goeswith parts must contiguously follow "
                                 "their head", deps[0]))
        if not _has_typo_flag(head, cfg):
            diags.append(finding(cfg, s, "REL.GOESWITH",
                                 "goeswith head must carry Typo=Yes", head))
        if head.german_lemma is None:
            diags.append(finding(cfg, s, "REL.GOESWITH",
                                 "goeswith head carries the lemma of the whole "
                                 "word", head))
        for d in deps:
            if d.german_lemma is not None:
                diags.append(finding(cfg, s, "REL.GOESWITH",
                                     "goeswith dependents are not lemmatized", d))
    return diags


def rule_lemma_conventions(s: Sentence, cfg: LintConfig) -> list[Diagnostic]:
    """LEMMA.*: GermanLemma presence, MWT exemption, and "nimma"."""
    diags = []
    for t in s.tokens:
        lemma = t.german_lemma
        if lemma is None:
            if t.deprel == "goeswith":
                continue
            if t.upos == "PUNCT" and cfg.punct_lemma_exempt:
                continue
            diags.append(finding(cfg, s, "LEMMA.MISSING",
                                 "token has no GermanLemma", t))
        elif t.form.casefold() == "nimma" and lemma != "nicht mehr":
            diags.append(finding(cfg, s, "LEMMA.NIMMA",
                                 f'"nimma" must be lemmatized "nicht mehr", '
                                 f"got {lemma!r}", t))
    for span in s.mwt_spans:
        if span.misc_value("GermanLemma") is not None:
            diags.append(finding(cfg, s, "LEMMA.ON_MWT",
                                 "multi-word token lines carry no lemma",
                                 line=span.line or s.line))
    return diags


def rule_typo_features(s: Sentence, cfg: LintConfig) -> list[Diagnostic]:
    """TYPO.*: CorrectSpaceAfter pairing and stray Typo=Yes flags."""
    diags = []
    heads_with_goeswith = _dependents(s, "goeswith")
    for t in s.tokens:
        correct_space = column_value(t.misc, "CorrectSpaceAfter")
        if correct_space == "Yes" and \
                column_value(t.misc, "SpaceAfter") != "No":
            diags.append(finding(cfg, s, "TYPO.CORRECT_SPACE",
                                 "CorrectSpaceAfter=Yes requires SpaceAfter=No "
                                 "on the same token", t))
        if correct_space is None and t.id not in heads_with_goeswith and \
                _has_typo_flag(t, cfg):
            diags.append(finding(cfg, s, "TYPO.REVIEW",
                                 "Typo=Yes without goeswith parts: check the "
                                 "form", t))
    return diags


def rule_mwt_shape(s: Sentence, cfg: LintConfig) -> list[Diagnostic]:
    """MWT.SURFACE: covered forms concatenate exactly to the surface."""
    diags = []
    for span in s.mwt_spans:
        if span.last_id == span.first_id or span.last_id > len(s.tokens):
            diags.append(finding(cfg, s, "MWT.SURFACE",
                                 f"range {span.first_id}-{span.last_id} must "
                                 f"cover at least two tokens",
                                 line=span.line or s.line))
            continue
        covered = "".join(t.form for t in s.tokens[span.first_id - 1:span.last_id])
        if covered != span.surface_form:
            diags.append(finding(cfg, s, "MWT.SURFACE",
                                 f"token forms {covered!r} do not concatenate to "
                                 f"surface {span.surface_form!r} (split into "
                                 f"substrings, do not normalize)",
                                 line=span.line or s.line))
    return diags


def rule_placeholder_tags(s: Sentence, cfg: LintConfig) -> list[Diagnostic]:
    """CLASS.USERNAME / CLASS.PLACEHOLDER: dummy token tagging."""
    diags = []
    for t in s.tokens:
        if t.form == "USERNAME":
            if t.upos != "PROPN":
                diags.append(finding(cfg, s, "CLASS.USERNAME",
                                     f"USERNAME must be PROPN, got {t.upos}", t))
        elif t.form in cfg.placeholder_x_forms and t.upos != "X":
            diags.append(finding(cfg, s, "CLASS.PLACEHOLDER",
                                 f"{t.form!r} looks like a dummy placeholder; "
                                 f"those are tagged X", t))
        elif t.form in cfg.placeholder_sym_forms and \
                t.upos not in ("SYM", "PUNCT"):
            diags.append(finding(cfg, s, "CLASS.PLACEHOLDER",
                                 f"{t.form!r} used as a name placeholder is "
                                 f"tagged SYM", t))
    return diags


def rule_relative_marker(s: Sentence, cfg: LintConfig) -> list[Diagnostic]:
    """REL.RELMARK: invariant relativizers with deprel mark are SCONJ."""
    diags = []
    for t in s.tokens:
        if t.deprel != "mark":
            continue
        if t.upos == "PRON":
            diags.append(finding(cfg, s, "REL.RELMARK",
                                 "PRON with deprel mark: relative markers are "
                                 "SCONJ, relative pronouns take nsubj/obj/...", t))
        elif t.form.casefold() in cfg.relative_markers and t.upos != "SCONJ":
            diags.append(finding(cfg, s, "REL.RELMARK",
                                 f"relative marker {t.form!r} must be SCONJ, "
                                 f"got {t.upos}", t))
    return diags


def rule_review_hints(s: Sentence, cfg: LintConfig) -> list[Diagnostic]:
    """REVIEW.*: advisory flags that never block; negative concord is fine."""
    diags = []
    for t in s.tokens:
        if t.deprel == "iobj":
            diags.append(finding(cfg, s, "REVIEW.IOBJ",
                                 "iobj is reserved for the rare second "
                                 "accusative; dative objects take obl:arg", t))
        if t.deprel == "appos":
            head = s.token_by_id(t.head)
            if head is not None and head.id > t.id:
                diags.append(finding(cfg, s, "REVIEW.APPOS_ORDER",
                                     "apposition precedes its head", t))
    return diags


def rule_core_columns(s: Sentence, cfg: LintConfig) -> list[Diagnostic]:
    """CORE.COLUMNS / CORE.ENHANCED_UNSUPPORTED: column usage conventions."""
    diags = []
    for t in s.tokens:
        unexpected = []
        if t.lemma_col != "_":
            unexpected.append("LEMMA")
        if t.xpos_col != "_":
            unexpected.append("XPOS")
        if t.feats_col not in ("_", "Typo=Yes"):
            unexpected.append("FEATS")
        if unexpected:
            diags.append(finding(cfg, s, "CORE.COLUMNS",
                                 f"unexpected content in {'/'.join(unexpected)}; "
                                 f"annotations live in UPOS, HEAD, DEPREL and "
                                 f"MISC", t))
        if t.deps_col != "_":
            diags.append(finding(cfg, s, "CORE.ENHANCED_UNSUPPORTED",
                                 "enhanced dependencies are not annotated", t))
    for node in s.empty_nodes:
        diags.append(finding(cfg, s, "CORE.ENHANCED_UNSUPPORTED",
                             "empty nodes are not annotated",
                             line=node.line or s.line))
    return diags


SENTENCE_RULES = (
    rule_upos_vocabulary,
    rule_deprel_vocabulary,
    rule_copula,
    rule_part_closed_class,
    rule_aux_closed_class,
    rule_fixed_whitelist,
    rule_goeswith_shape,
    rule_lemma_conventions,
    rule_typo_features,
    rule_mwt_shape,
    rule_placeholder_tags,
    rule_relative_marker,
    rule_review_hints,
    rule_core_columns,
)


def lint_sentence(s: Sentence, cfg: LintConfig | None = None) -> list[Diagnostic]:
    """Run all enabled rules plus structural validation on one sentence.

    Findings come in check order; reports sort them by Diagnostic.sort_key.
    """
    cfg = cfg or LintConfig()
    diags = validate_structure(s, cfg)
    for rule in SENTENCE_RULES:
        diags.extend(rule(s, cfg))
    if cfg.disabled_rules:
        diags = [d for d in diags if cfg.rule_enabled(d.rule_id)]
    return diags
