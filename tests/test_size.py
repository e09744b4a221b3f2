"""The committed code-size table (tests/size.tsv) matches the tree. A
change to src/ rewrites it with `python tests/size.py --update`, so that
its diff shows which functions grew or shrank."""

import size


def test_the_size_table_matches_the_tree():
    assert size.TABLE.read_text(encoding="utf-8") == size._text(size.rows())


def test_each_statement_counts_in_one_row():
    table = size.rows()
    for module in {row[0] for row in table}:
        counts = {name: n for m, name, n in table if m == module}
        total = counts.pop("<total>")
        assert sum(counts.values()) == total
