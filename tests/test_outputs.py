"""The committed output table (tests/outputs.tsv) holds: every row. A
change that alters an output on purpose rewrites the table with
`python tests/outputs.py --update` and names each changed row."""

import pytest

import outputs

TABLE = outputs.read_table()
CASES = outputs.cases()


def test_the_table_holds_the_matrix():
    assert list(TABLE) == [outputs._field(case.key) for case in CASES]


@pytest.fixture(scope="module")
def bench_argv(tmp_path_factory):
    directory = tmp_path_factory.mktemp("outputs")
    return directory, outputs.write_inputs(directory)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.key)
def test_output_is_the_tables(case, bench_argv, monkeypatch):
    directory, argv = bench_argv
    monkeypatch.chdir(directory)
    row = outputs.run_case(case, argv)
    assert row == TABLE[row[0]]
