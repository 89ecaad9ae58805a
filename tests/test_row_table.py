"""Every runner returns its records as a row table: ``rows``, one entry per
distinct record, and ``row_of_shot``, each shot's row. The rows are
pairwise distinct records, each is taken by some shot, every leaf column
has one entry per row, and there is one row index per shot.
"""

import json

import numpy as np
import pytest

from obliq import cli
from test_digests import SCENARIO_DIR, _near_unitary_dbqc, _near_unitary_pingpong, _wide_dbqc

SCENARIOS = {
    **{path.stem: (lambda path=path: json.loads(path.read_text())) for path in SCENARIO_DIR.glob("*.json")},
    "wide-dbqc": _wide_dbqc,
    "near-unitary-dbqc": _near_unitary_dbqc,
    "near-unitary-pingpong": _near_unitary_pingpong,
}


def _leaves(rows):
    """Each leaf column of a row table; nested mappings are walked."""
    for col in rows.values():
        if isinstance(col, dict):
            yield from _leaves(col)
        else:
            yield col


def _record(rows, r: int):
    """Row ``r`` as Python values."""
    return {key: _record(col, r) if isinstance(col, dict) else col[r].tolist() for key, col in rows.items()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_runner_rows_are_distinct_records_each_taken(name):
    sc = cli.validate_scenario(SCENARIOS[name]())
    *_, rows, row_of_shot = cli._RUNNERS[sc["kind"]](sc, np.random.default_rng(sc["seed"]))
    leaves = list(_leaves(rows))
    n = len(leaves[0])
    assert all(len(col) == n for col in leaves)
    assert len(row_of_shot) == sc["shots"]
    assert np.array_equal(np.unique(row_of_shot), np.arange(n))
    records = {json.dumps(_record(rows, r), sort_keys=True) for r in range(n)}
    assert len(records) == n
