"""Seeded input generator for the benchmark, with the ground truth the
output checks compare against.

Inputs are built only from `tests/fixtures/golden.conllu` and the packaged
segmentation lexicon, both read as data: nothing here imports the program,
so a change to the program can never change an input. The same seed gives
the same bytes, and every iteration runs over sorted lists, never sets.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "golden.conllu"
LEXICON = ROOT / "src" / "maibaam_lint" / "data" / "lexicon.tsv"

WORKLOADS = ("lint-corpus", "lint-skeleton", "tokenize-text")

# Input sizes. Each timed input holds about 15,000 syntactic words: the
# size of the MaiBaam treebank, whose abstract (arXiv:2403.05902) gives
# "15k tokens". The sentence counts below reach that at the sentence lengths
# this generator draws (about 7.3 words for the fixture's sentences, about
# 12.4 for the generated ones). Everything else in this block is an
# assumption, not a measured property of real traffic; bench/README.md
# ("Traffic model") lists each with its basis.
TARGET_TOKENS = 15_000
CORPUS_FILES = 16              # assumption: "a dozen or more" files
CORPUS_SENTENCES_PER_FILE = 129
SKELETON_SENTENCES = 1210
TEXT_LINES = 1200
VOCABULARY_SIZE = 30_000       # assumption
ZIPF_EXPONENT = 1.05           # word frequencies follow Zipf's law, s ~ 1

INJECT_RATE = 0.02             # assumption: a treebank that is mostly clean

# Default severities of the rules the generator injects (MaiBaam
# guidelines, as catalogued by `maibaam-lint list-rules`).
INJECTED_SEVERITY = {
    "VOCAB.UPOS": "error", "VOCAB.DEPREL": "error", "CLASS.COP": "error",
    "STRUCT.HEAD_RANGE": "error", "META.GENRE": "error",
    "META.DUP_ID": "error", "LEMMA.MISSING": "warning",
    "META.MISSING": "warning", "REVIEW.IOBJ": "review",
    "CLASS.PLACEHOLDER": "review",
}
SKELETON_MISSING_KEYS = ("genre", "dialect_group", "location", "source")

CONTENT_UPOS = ("ADJ", "ADV", "NOUN", "PROPN", "VERB")
# deprels whose rules read forms, lemmas or heads of the token
PROTECTED_DEPRELS = ("cop", "fixed", "goeswith", "mark", "root")
PLACEHOLDER_FORMS = ("A", "B", "C", "X", "Y", "Z", "XYZ", "XZY", "...", "…")

TRAILING_PUNCT = ".,;:!?…\"“”«»‹›)]}/%"
APOSTROPHES = "'’´`ʼ"
FULL_1PL_PRONOUNS = ("mia", "mir")


@dataclass
class Inputs:
    """One workload's generated files and what a correct run yields."""

    workload: str
    argv: list[str]            # CLI arguments for the timed pass
    setup_argv: list[str]      # CLI arguments for the one-sentence pass
    tokens: int                # syntactic words in the timed input
    truth: dict                # ground truth for the timed pass
    setup_truth: dict          # ground truth for the one-sentence pass
    properties: dict = field(default_factory=dict)


# -- data files ------------------------------------------------------------

@dataclass
class Template:
    metadata: list[tuple[str, str]]
    rows: list[list[str]]      # ten columns each; MWT rows included


def read_golden(path: Path = GOLDEN) -> list[Template]:
    templates = []
    for block in path.read_text(encoding="utf-8").split("\n\n"):
        if not block.strip():
            continue
        metadata, rows = [], []
        for line in block.split("\n"):
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                metadata.append((key, value))
            elif line:
                rows.append(line.split("\t"))
        templates.append(Template(metadata, rows))
    return templates


def read_lexicon(path: Path = LEXICON) -> dict[str, dict[str, list]]:
    """kind -> surface -> [(part, UPOS hint)], in file order. An unsplit
    entry is its own single part; a part without a hint gets "X", the
    tokenizer's fallback for alphabetic forms."""
    lex: dict[str, dict[str, list]] = {}
    for raw in path.read_text(encoding="utf-8").split("\n"):
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        surface, kind, parts, hints = line.split("\t")
        parts = [surface] if parts == "_" else parts.split(" ")
        hints = hints.split(" ")
        hints += ["_"] * (len(parts) - len(hints))
        lex.setdefault(kind, {})[surface] = [
            (part, "X" if hint == "_" else hint)
            for part, hint in zip(parts, hints)]
    return lex


def _fold(s: str) -> str:
    for c in APOSTROPHES:
        s = s.replace(c, "'")
    return s


def _zipf_cum_weights(n: int, exponent: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (r ** exponent)
                                     for r in range(1, n + 1)))


# -- vocabulary ------------------------------------------------------------

ONSETS = ("b", "d", "g", "h", "k", "l", "m", "n", "r", "s", "sch", "st",
          "w", "z", "br", "dr", "gr", "kn", "schn", "bl", "fl", "pf")
VOWELS = ("a", "e", "i", "o", "u", "ä", "ö", "ü", "å", "oa", "ia", "ea",
          "ei", "au", "ui", "ou")
CODAS = ("", "n", "l", "r", "ch", "ng", "k", "g", "b", "tz", "x", "cht")


class Vocabulary:
    """Plain words that the segmentation lexicon leaves intact, ranked for
    a Zipf draw. Lexicon-driven units are added separately, at seeded rates,
    so the generator knows how each one splits."""

    def __init__(self, rng: random.Random, lex, size: int,
                 seeds: list[str], exponent: float = ZIPF_EXPONENT):
        split_keys = set()
        for kind in ("mwt", "mwt-inf", "clitic", "sandhi", "ma-form"):
            split_keys.update(_fold(s).lower() for s in lex.get(kind, {}))
        self.hosts = sorted(_fold(s).lower() for s in lex.get("host", {}))
        onsets = tuple(_fold(s).lower() for s in lex.get("onset", {}))
        banned = {w.lower() for w in lex.get("review", {})}
        banned |= {w.lower() for w in lex.get("intact", {})}
        banned |= {w.lower() for w in lex.get("nominf", {})}
        banned |= {w.lower() for w in lex.get("unit", {})}
        banned |= {w.lower() for w in PLACEHOLDER_FORMS}
        banned |= set(FULL_1PL_PRONOUNS)
        host_set = set(self.hosts)

        def plain(word: str) -> bool:
            key = _fold(word).lower()
            if key in split_keys or key in banned or key.startswith(onsets):
                return False
            if any(c in word for c in APOSTROPHES) or not word.isalpha():
                return False
            return not (key.endswith("ma") and key[:-2] in host_set)

        words: list[str] = []
        seen: set[str] = set()
        for w in seeds:
            if plain(w) and w not in seen:
                seen.add(w)
                words.append(w)
        while len(words) < size:
            w = "".join(rng.choice(ONSETS) + rng.choice(VOWELS)
                        + rng.choice(CODAS)
                        for _ in range(rng.choice((1, 2, 2, 3))))
            if rng.random() < 0.3:
                w = w.capitalize()
            if len(w) >= 3 and plain(w) and w not in seen:
                seen.add(w)
                words.append(w)
        self.words = words
        self.cum = _zipf_cum_weights(len(words), exponent)

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum, k=k)


def golden_words(templates: list[Template]) -> list[str]:
    """Surface forms of the fixture's non-MWT tokens, most frequent first."""
    counts: Counter = Counter()
    for t in templates:
        covered = _mwt_covered(t.rows)
        for row in t.rows:
            if row[0].isdigit() and int(row[0]) not in covered and \
                    row[3] != "PUNCT":
                counts[row[1]] += 1
    return [w for w, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]


def _mwt_covered(rows: list[list[str]]) -> set[int]:
    covered: set[int] = set()
    for row in rows:
        if "-" in row[0]:
            first, last = row[0].split("-")
            covered.update(range(int(first), int(last) + 1))
    return covered


# -- shared CoNLL-U helpers ------------------------------------------------

def _misc_get(misc: str, key: str) -> str | None:
    if misc == "_":
        return None
    for part in misc.split("|"):
        k, sep, v = part.partition("=")
        if k == key:
            return v if sep else None
    return None


def _misc_without(misc: str, key: str) -> str:
    parts = [p for p in misc.split("|") if p.partition("=")[0] != key]
    return "|".join(parts) if parts and misc != "_" else "_"


def _misc_with(misc: str, key: str, value: str) -> str:
    parts = [] if misc == "_" else misc.split("|")
    out = [f"{key}={value}" if p.partition("=")[0] == key else p
           for p in parts]
    return "|".join(out)


def reconstruct(rows: list[list[str]]) -> str:
    """Sentence surface from forms and SpaceAfter=No, MWTs counted once."""
    out: list[str] = []
    skip_to = 0
    for row in rows:
        if "-" in row[0]:
            skip_to = int(row[0].split("-")[1])
        elif int(row[0]) <= skip_to:
            continue
        out.append(row[1])
        if _misc_get(row[9], "SpaceAfter") != "No":
            out.append(" ")
    return "".join(out).rstrip(" ")


def write_sentence(metadata: list[tuple[str, str]],
                   rows: list[list[str]]) -> str:
    lines = [f"# {k} = {v}" for k, v in metadata]
    lines.extend("\t".join(r) for r in rows)
    return "\n".join(lines) + "\n\n"


def _write(path: Path, text: str) -> int:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return len(data)


# -- lint-corpus -----------------------------------------------------------

def _content_ids(t: Template) -> list[int]:
    """Tokens whose form and lemma no rule reads: content words outside
    MWTs, fixed and goeswith groups, not placeholders."""
    covered = _mwt_covered(t.rows)
    tokens = [r for r in t.rows if r[0].isdigit()]
    heads_of_groups = {int(r[6]) for r in tokens
                       if r[7] in ("fixed", "goeswith")}
    ids = []
    for r in tokens:
        tid = int(r[0])
        if r[3] in CONTENT_UPOS and r[7] not in PROTECTED_DEPRELS and \
                tid not in covered and tid not in heads_of_groups and \
                r[1] not in ("USERNAME", "nimma") and \
                _misc_get(r[9], "GermanLemma") is not None:
            ids.append(tid)
    return ids


def _inject(rng: random.Random, rows: list[list[str]],
            metadata: list[tuple[str, str]], content: list[int]):
    """Apply one seeded violation that yields exactly one finding; returns
    (rule id, token id or None for a sentence-level finding)."""
    tokens = {int(r[0]): r for r in rows if r[0].isdigit()}
    options = ["META.MISSING", "META.GENRE"]
    if content:
        options += ["VOCAB.UPOS", "VOCAB.DEPREL", "LEMMA.MISSING",
                    "STRUCT.HEAD_RANGE", "CLASS.PLACEHOLDER"]
    objs = [i for i in content if tokens[i][7] == "obj"]
    if objs:
        options.append("REVIEW.IOBJ")
    cops = sorted(i for i, r in tokens.items() if r[7] == "cop")
    if cops:
        options.append("CLASS.COP")
    rule = rng.choice(options)
    tid = None
    if rule == "VOCAB.UPOS":
        tid = rng.choice(content)
        tokens[tid][3] = rng.choice(("NOUM", "VREB", "ADJA", "PROPM"))
    elif rule == "VOCAB.DEPREL":
        tid = rng.choice(content)
        tokens[tid][7] = rng.choice(("nsubjj", "ojb", "nmdo", "advmdo"))
    elif rule == "LEMMA.MISSING":
        tid = rng.choice(content)
        tokens[tid][9] = _misc_without(tokens[tid][9], "GermanLemma")
    elif rule == "STRUCT.HEAD_RANGE":
        tid = rng.choice(content)
        tokens[tid][6] = str(len(tokens) + rng.randint(1, 9))
    elif rule == "CLASS.PLACEHOLDER":
        tid = rng.choice(content)
        tokens[tid][1] = "XYZ"
    elif rule == "REVIEW.IOBJ":
        tid = rng.choice(objs)
        tokens[tid][7] = "iobj"
    elif rule == "CLASS.COP":
        tid = rng.choice(cops)
        tokens[tid][9] = _misc_with(tokens[tid][9], "GermanLemma", "werden")
    elif rule == "META.MISSING":
        metadata[:] = [(k, v) for k, v in metadata if k != "location"]
    elif rule == "META.GENRE":
        metadata[:] = [(k, "blog" if k == "genre" else v)
                       for k, v in metadata]
    return rule, tid


def _mutation_suffixes(rng: random.Random, n: int) -> list[str]:
    out, seen = [], set()
    while len(out) < n:
        s = rng.choice(VOWELS) + rng.choice(CODAS[1:])
        if rng.random() < 0.8:
            s += rng.choice(ONSETS) + rng.choice(VOWELS)
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def gen_lint_corpus(seed: int, workdir: Path,
                    files: int = CORPUS_FILES,
                    per_file: int = CORPUS_SENTENCES_PER_FILE) -> Inputs:
    rng = random.Random(seed * 1_000 + 1)
    templates = read_golden()
    contents = [_content_ids(t) for t in templates]
    suffixes = _mutation_suffixes(rng, 4000)
    cum = _zipf_cum_weights(len(suffixes), 0.7)

    expected: Counter = Counter()
    injected: Counter = Counter()
    forms: list[str] = []
    paths: list[str] = []
    file_sentences: list[list[tuple[list, list]]] = []
    tokens = 0
    for f in range(files):
        name = str(workdir / f"corpus-{f:02d}.conllu")
        paths.append(name)
        sentences = []
        for i in range(per_file):
            k = rng.randrange(len(templates))
            metadata = [(key, value) for key, value in templates[k].metadata]
            rows = [list(r) for r in templates[k].rows]
            by_id = {r[0]: r for r in rows}
            for tid, suffix in zip(contents[k],
                                   rng.choices(suffixes, cum_weights=cum,
                                               k=len(contents[k]))):
                row = by_id[str(tid)]
                row[1] += suffix
                lemma = _misc_get(row[9], "GermanLemma")
                row[9] = _misc_with(row[9], "GermanLemma", lemma + suffix)
                forms.append(row[1])
            sent_id = f"bench-c{f:02d}-s{i:04d}"
            metadata = [(key, sent_id if key == "sent_id" else value)
                        for key, value in metadata]
            if rng.random() < INJECT_RATE:
                rule, tid = _inject(rng, rows, metadata, contents[k])
                expected[(name, rule, sent_id, tid)] += 1
                injected[rule] += 1
            text = reconstruct(rows)
            metadata = [(key, text if key == "text" else value)
                        for key, value in metadata]
            tokens += sum(1 for r in rows if r[0].isdigit())
            sentences.append((metadata, rows))
        file_sentences.append(sentences)

    # cross-file duplicate sent_ids: a later sentence reuses an earlier
    # file's id, and both occurrences are flagged; `used` holds each touched
    # sentence under its old and its new id, so no id is reused three times
    used = {(n, sid) for n, _, sid, _ in expected}
    for _ in range(max(1, round(files * per_file * INJECT_RATE / 8))):
        a, b = sorted(rng.sample(range(files), 2))
        ia, ib = rng.randrange(per_file), rng.randrange(per_file)
        sid_a = dict(file_sentences[a][ia][0])["sent_id"]
        meta_b = file_sentences[b][ib][0]
        sid_b = dict(meta_b)["sent_id"]
        if (paths[a], sid_a) in used or (paths[b], sid_b) in used:
            continue
        used |= {(paths[a], sid_a), (paths[b], sid_b), (paths[b], sid_a)}
        meta_b[:] = [(k, sid_a if k == "sent_id" else v) for k, v in meta_b]
        expected[(paths[a], "META.DUP_ID", sid_a, None)] += 1
        expected[(paths[b], "META.DUP_ID", sid_a, None)] += 1
        injected["META.DUP_ID"] += 2

    total_bytes = 0
    for name, sentences in zip(paths, file_sentences):
        total_bytes += _write(Path(name), "".join(
            write_sentence(m, r) for m, r in sentences))

    setup_name = str(workdir / "setup-corpus.conllu")
    clean = templates[0]
    _write(Path(setup_name), write_sentence(clean.metadata, clean.rows))

    fails = any(INJECTED_SEVERITY[rule] == "error" for _, rule, _, _ in expected)
    findings = sum(expected.values())
    return Inputs(
        workload="lint-corpus",
        argv=["lint", "--format", "json", *paths],
        setup_argv=["lint", "--format", "json", setup_name],
        tokens=tokens,
        truth={"findings": expected, "exit_code": 1 if fails else 0},
        setup_truth={"findings": Counter(), "exit_code": 0},
        properties={
            "files": files, "sentences": files * per_file, "tokens": tokens,
            "bytes": total_bytes,
            "distinct_surface_share": round(len(set(forms)) / len(forms), 4),
            "findings_per_token": round(findings / tokens, 5),
            "injected": dict(sorted(injected.items())),
        })


# -- lint-skeleton and tokenize-text: shared sentence builder ---------------

@dataclass
class Unit:
    """One whitespace-separated unit and its expected segmentation:
    pieces are (form, upos hint, mwt group) and are glued to each other."""

    text: str
    pieces: list[tuple[str, str, int]]
    mwt: int = 0
    # the segmentation of the unit before depends on this one's exact text,
    # so no punctuation may be attached to it
    sealed: bool = False


class UnitMaker:
    """Draws units at seeded rates: Zipf-drawn plain words plus the
    lexicon's phenomena, each with the segmentation the lexicon implies."""

    def __init__(self, rng: random.Random, lex, vocab: Vocabulary):
        self.rng = rng
        self.vocab = vocab
        self.fused = sorted(lex.get("mwt", {}).items())
        self.fused_inf = sorted(lex.get("mwt-inf", {}).items())
        self.nominf = sorted(lex.get("nominf", {}))
        self.onsets = [(o, parts[0][1])
                       for o, parts in sorted(lex.get("onset", {}).items())
                       if not o.startswith("'")]
        self.clitics = sorted(lex.get("clitic", {}).items())
        self.sandhi = sorted(lex.get("sandhi", {}).items())
        self.ma_forms = sorted(lex.get("ma-form", {}).items())
        self.reviews = sorted(lex.get("review", {}))
        self.abbrevs = sorted(lex.get("abbrev", {}))
        self.abbrevs_folded = {a.lower() for a in self.abbrevs}
        self.units = sorted(lex.get("unit", {}))
        self.intact = lex.get("intact", {})
        self.hosts = vocab.hosts
        self._mwt = 0
        self._words: list[str] = []

    def word(self) -> str:
        if not self._words:
            self._words = self.vocab.draw(self.rng, 4096)
            self._words.reverse()
        return self._words.pop()

    def _plain(self) -> Unit:
        word = self.word()
        return Unit(word, [(word, "X", 0)])

    def _mwt_unit(self, surface: str, parts: list) -> Unit:
        self._mwt += 1
        return Unit(surface, [(p, h, self._mwt) for p, h in parts], mwt=1)

    @staticmethod
    def _split_unit(surface: str, parts: list) -> Unit:
        return Unit(surface, [(p, h, 0) for p, h in parts])

    def sentence(self, min_units: int = 3, max_units: int = 14) -> list[Unit]:
        rng = self.rng
        n = rng.randint(min_units, max_units)
        units: list[Unit] = []
        while len(units) < n:
            units.extend(self._draw())
        return units

    def _draw(self) -> list[Unit]:
        rng = self.rng
        # cumulative rates of the unit kinds below; all are assumptions
        r = rng.random()
        if r < 0.76:
            return [self._plain()]
        if r < 0.80:
            return [self._mwt_unit(*rng.choice(self.fused))]
        if r < 0.805:
            # the infinitival reading needs the nominalised infinitive as
            # the very next unit, punctuation-free
            inf = rng.choice(self.nominf)
            return [self._mwt_unit(*rng.choice(self.fused_inf)),
                    Unit(inf, [(inf, "X", 0)], sealed=True)]
        if r < 0.825:
            onset, hint = rng.choice(self.onsets)
            onset = onset.replace("'", rng.choice("'’´"))
            rest = self.word()
            return [Unit(onset + rest, [(onset, hint, 0), (rest, "X", 0)])]
        if r < 0.835:
            return [self._split_unit(*rng.choice(self.clitics))]
        if r < 0.84:
            return [self._split_unit(*rng.choice(self.sandhi))]
        if r < 0.85:
            surface = rng.choice(self.hosts) + rng.choice(("sd", "st", "ds",
                                                            "'st"))
            return [Unit(surface, [(surface, "SCONJ", 0)])]
        if r < 0.86:
            if rng.random() < 0.5:
                surface, parts = rng.choice(self.ma_forms)
            else:
                host = rng.choice(self.hosts)
                surface = host + "ma"
                parts = [(host, "SCONJ"), ("ma", "PRON")]
            if rng.random() < 0.4:
                # doubly marked 1pl: the ending stays on the complementizer
                pron = rng.choice(FULL_1PL_PRONOUNS)
                return [Unit(surface, [(surface, "SCONJ", 0)]),
                        Unit(pron, [(pron, "X", 0)], sealed=True)]
            return [self._split_unit(surface, parts)]
        if r < 0.865:
            form = rng.choice(self.reviews)
            return [Unit(form, [(form, "X", 0)])]
        if r < 0.875:
            form = rng.choice(self.abbrevs)
            return [Unit(form, [(form, "X", 0)])]
        if r < 0.89:
            num = str(rng.randint(1, 999))
            return [Unit(num, [(num, "NUM", 0)])]
        if r < 0.90:
            num = str(rng.randint(1, 99))
            if rng.random() < 0.3:
                num += "," + str(rng.randint(1, 9))
            unit = rng.choice(self.units)
            return [Unit(num + unit, [(num, "NUM", 0), (unit, "NOUN", 0)])]
        if r < 0.905:
            a = rng.randint(1, 50)
            b = a + rng.randint(1, 20)
            dash = rng.choice(("-", "–", "--"))
            return [Unit(f"{a}{dash}{b}", [(str(a), "NUM", 0),
                                           (dash, "ADP", 0),
                                           (str(b), "NUM", 0)])]
        if r < 0.911:
            form = rng.choice(sorted(self.intact))
            return [self._split_unit(form, self.intact[form])]
        # a short quoted or bracketed stretch
        inner = [self._plain() for _ in range(rng.randint(1, 3))]
        opening, closing = rng.choice((("„", "“"), ("(", ")")))
        first = inner[0]
        inner[0] = Unit(opening + first.text,
                        [(opening, "PUNCT", 0)] + first.pieces)
        last = inner[-1]
        inner[-1] = Unit(last.text + closing,
                         last.pieces + [(closing, "PUNCT", 0)])
        return inner

    def punctuate(self, units: list[Unit]) -> list[Unit]:
        """Commas inside, a sentence-final mark at the end (mostly)."""
        rng = self.rng
        out = []
        for i, u in enumerate(units):
            last = i == len(units) - 1
            if u.sealed:
                pass
            elif not last and rng.random() < 0.08 and \
                    u.text[-1] not in TRAILING_PUNCT:
                u = Unit(u.text + ",", u.pieces + [(",", "PUNCT", 0)], u.mwt)
            elif last and rng.random() < 0.9:
                mark = rng.choice((".", ".", ".", "!", "?", "…", "?!"))
                if mark == "." and \
                        (u.text + mark).lower() in self.abbrevs_folded:
                    # "sog" + "." reads as the abbreviation "sog."
                    mark = rng.choice(("!", "?", "…"))
                u = Unit(u.text + mark,
                         u.pieces + [(c, "PUNCT", 0) for c in mark], u.mwt)
            out.append(u)
        return out


def _new_maker(seed: int, salt: int) -> UnitMaker:
    """The vocabulary is the same for every seed, so that the cost profile
    of the most frequent words (length, capitalisation) does not vary with
    it; the seed draws the text."""
    lex = read_lexicon()
    vocab = Vocabulary(random.Random(0), lex, VOCABULARY_SIZE,
                       golden_words(read_golden()))
    return UnitMaker(random.Random(seed * 1_000 + salt), lex, vocab)


def _expected_tokens(units: list[Unit]) -> tuple[list, list]:
    """(form, UPOS hint) of each token, and the surface of each MWT."""
    return [(form, hint) for u in units for form, hint, _ in u.pieces], \
        ["".join(form for form, _, group in u.pieces if group)
         for u in units if u.mwt]


def _skeleton_rows(units: list[Unit]) -> list[list[str]]:
    """CoNLL-U rows shaped like `tokenize` output: UPOS hints, MWT ranges,
    SpaceAfter=No, chained placeholder heads, no lemmas."""
    pieces = []  # (form, hint, glue, group)
    for u in units:
        for i, (form, hint, group) in enumerate(u.pieces):
            pieces.append((form, hint, i != len(u.pieces) - 1, group))
    content = [i + 1 for i, p in enumerate(pieces) if p[1] != "PUNCT"]
    rows: list[list[str]] = []
    prev_content = 0
    open_group, span_row = 0, None
    for i, (form, hint, glue, group) in enumerate(pieces):
        tid = i + 1
        if group and group != open_group:
            last = tid + sum(1 for p in pieces[tid:] if p[3] == group)
            span_row = [f"{tid}-{last}", "", "_", "_", "_", "_", "_", "_", "_",
                        "_"]
            rows.append(span_row)
        open_group = group
        if group:
            span_row[1] += form
            group_ends = i + 1 == len(pieces) or pieces[i + 1][3] != group
            if group_ends and glue:
                span_row[9] = "SpaceAfter=No"
        if hint != "PUNCT":
            head = prev_content
            deprel = "root" if head == 0 else "dep"
            prev_content = tid
        else:
            before = [c for c in content if c < tid]
            head = before[-1] if before else content[0]
            deprel = "punct"
        misc = "SpaceAfter=No" if glue and not group else "_"
        rows.append([str(tid), form, "_", hint, "_", "_", str(head), deprel,
                     "_", misc])
    return rows


def gen_lint_skeleton(seed: int, workdir: Path,
                      sentences: int = SKELETON_SENTENCES) -> Inputs:
    maker = _new_maker(seed, 2)
    blocks = []
    tokens = non_punct = 0
    words: list[str] = []
    for i in range(sentences):
        units = maker.punctuate(maker.sentence())
        rows = _skeleton_rows(units)
        text = " ".join(u.text for u in units)
        blocks.append(write_sentence(
            [("sent_id", f"skeleton-{i + 1}"), ("text", text)], rows))
        toks = [r for r in rows if r[0].isdigit()]
        tokens += len(toks)
        non_punct += sum(1 for r in toks if r[3] != "PUNCT")
        words.extend(u.text for u in units)
    path = workdir / "skeleton.conllu"
    size = _write(path, "".join(blocks))

    setup_units = maker.punctuate(maker.sentence(3, 6))
    setup_rows = _skeleton_rows(setup_units)
    setup_path = workdir / "setup-skeleton.conllu"
    _write(setup_path, write_sentence(
        [("sent_id", "setup-1"),
         ("text", " ".join(u.text for u in setup_units))], setup_rows))
    setup_non_punct = sum(1 for r in setup_rows
                          if r[0].isdigit() and r[3] != "PUNCT")

    counts = {"LEMMA.MISSING": non_punct,
              "META.MISSING": len(SKELETON_MISSING_KEYS) * sentences}
    return Inputs(
        workload="lint-skeleton",
        argv=["lint", "--format", "human", str(path)],
        setup_argv=["lint", "--format", "human", str(setup_path)],
        tokens=tokens,
        truth={"counts": counts, "exit_code": 0},
        setup_truth={"counts": {
            "LEMMA.MISSING": setup_non_punct,
            "META.MISSING": len(SKELETON_MISSING_KEYS)}, "exit_code": 0},
        properties={
            "files": 1, "sentences": sentences, "tokens": tokens,
            "bytes": size,
            "distinct_surface_share": round(len(set(words)) / len(words), 4),
            "findings_per_token": round(sum(counts.values()) / tokens, 5),
            "injected": {},
        })


def gen_tokenize_text(seed: int, workdir: Path,
                      lines: int = TEXT_LINES) -> Inputs:
    maker = _new_maker(seed, 3)

    def make_lines(n: int):
        texts, per_line = [], []
        units_seen: list[str] = []
        for _ in range(n):
            units = maker.punctuate(maker.sentence())
            texts.append(" ".join(u.text for u in units))
            per_line.append(_expected_tokens(units))
            units_seen.extend(u.text for u in units)
        return texts, per_line, units_seen

    texts, per_line, units_seen = make_lines(lines)
    path = workdir / "text.txt"
    size = _write(path, "\n".join(texts) + "\n")
    setup_texts, setup_counts, _ = make_lines(1)
    setup_path = workdir / "setup-text.txt"
    _write(setup_path, setup_texts[0] + "\n")

    tokens = sum(len(t) for t, _ in per_line)
    return Inputs(
        workload="tokenize-text",
        argv=["tokenize", str(path)],
        setup_argv=["tokenize", str(setup_path)],
        tokens=tokens,
        truth={"lines": texts, "tokens": per_line},
        setup_truth={"lines": setup_texts, "tokens": setup_counts},
        properties={
            "files": 1, "sentences": lines, "tokens": tokens, "bytes": size,
            "distinct_surface_share": round(
                len(set(units_seen)) / len(units_seen), 4),
            "mwt": sum(len(m) for _, m in per_line),
            "findings_per_token": 0.0,
            "injected": {},
        })


GENERATORS = {
    "lint-corpus": gen_lint_corpus,
    "lint-skeleton": gen_lint_skeleton,
    "tokenize-text": gen_tokenize_text,
}


def generate(workload: str, seed: int, workdir: Path) -> Inputs:
    """Write the workload's inputs into workdir and return them."""
    return GENERATORS[workload](seed, workdir)
