"""Fixed reference workload for host-speed adjustment.

The benchmark runs this program next to every timed pass, spawned the same
way, and scales the pass's seconds by REF_NOMINAL_S / (this program's
seconds). To slow down the way maibaam-lint does when the host is
contended, it has the same resource profile: it imports the standard-library
modules the CLI imports, splits a generated CoNLL-U-like text into dataclass
rows, builds frozen dataclass findings, sorts them and prints a report of
about 400 kB. Standard library only, and it must never change: every
adjusted number is relative to its speed.
"""

import argparse  # noqa: F401  (imported for the start-up profile)
import json  # noqa: F401
import os  # noqa: F401
import re  # noqa: F401
import sys
import unicodedata  # noqa: F401
from collections import Counter
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from importlib import resources  # noqa: F401
from urllib.parse import urlparse  # noqa: F401

SENTENCES = 2_000
SYLLABLES = ("ba", "de", "gi", "lo", "mu", "ra", "se", "ti", "wo", "zä",
             "ch", "ng", "oa", "ia", "å", "ü")
TAGS = ("NOUN", "VERB", "ADJ", "DET", "PRON", "PUNCT")


@dataclass
class Row:
    id: int
    form: str
    tag: str
    head: int
    misc: list = field(default_factory=list)

    def __post_init__(self):
        if self.id < 1 or self.head < 0:
            raise ValueError("bad row")


@dataclass(frozen=True)
class Note:
    key: str
    line: int
    row: int
    message: str


def make_text() -> str:
    x = 2_463_534_242
    out = []
    for s in range(SENTENCES):
        n = 4 + s % 11
        out.append(f"# sent_id = ref-{s}")
        for i in range(1, n + 1):
            x = (x * 1_103_515_245 + 12_345) & 0x7FFFFFFF
            word = SYLLABLES[x % 16] + SYLLABLES[(x >> 4) % 16] + \
                SYLLABLES[(x >> 8) % 16]
            misc = f"Lemma={word}" if x % 3 else "SpaceAfter=No"
            out.append(f"{i}\t{word}\t_\t{TAGS[(x >> 12) % 6]}\t_\t_"
                       f"\t{(x >> 16) % n}\tdep\t_\t{misc}")
        out.append("")
    return "\n".join(out) + "\n"


def main() -> None:
    sentences, rows = [], []
    for line in make_text().split("\n"):
        if not line:
            if rows:
                sentences.append(rows)
                rows = []
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        misc = [tuple(p.split("=", 1)) for p in cols[9].split("|")]
        rows.append(Row(int(cols[0]), cols[1], cols[3], int(cols[6]), misc))
    notes = []
    counts = Counter()
    for s_no, rows in enumerate(sentences):
        for r in rows:
            counts[r.form] += 1
            if r.tag != "PUNCT" and not any(k == "Lemma" for k, *_ in r.misc):
                notes.append(Note("LEMMA", s_no, r.id,
                                  f"row {r.form!r} has no lemma"))
        notes.append(Note("META", s_no, 0, "missing metadata key 'genre'"))
    notes.sort(key=lambda n: (n.line, n.row, n.key))
    for n in notes:
        print(f"ref:{n.line}: [warning] {n.key} {n.message} (§{n.row})")
    print(f"{len(notes)} notes, {len(counts)} forms")


if __name__ == "__main__":
    main()
