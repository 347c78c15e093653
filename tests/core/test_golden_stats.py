"""Every engine reproduces the committed golden ``SimStats``.

A mismatch means a simulated result changed for that (program, mode)
cell.  If the change is intended, regenerate with ``PYTHONPATH=src
python -m tests.core.golden_stats``, review the printed field diff and
explain it in the change description.
"""

import pytest

from repro.uarch.batch import BatchCell, run_batch
from tests.core.golden_stats import (
    cell_kwargs,
    cells,
    load_golden,
    run_cell,
    stats_json,
)

_GOLDEN = load_golden()
_CELLS = cells()
_IDS = [cell_id for cell_id, _, _, _ in _CELLS]


def test_golden_covers_every_cell():
    assert sorted(_GOLDEN) == sorted(_IDS)


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("cell", _CELLS, ids=_IDS)
def test_engine_matches_golden(cell, engine):
    cell_id, program, mode, config = cell
    assert stats_json(run_cell(program, mode, config, engine)) == (
        _GOLDEN[cell_id]
    )


def test_batch_group_matches_golden():
    group = [
        BatchCell(program.program, program.trace,
                  config.replace(engine="batch"),
                  **cell_kwargs(program, mode))
        for _, program, mode, config in _CELLS
    ]
    got = run_batch(group)
    wrong = [
        cell_id for cell_id, stats in zip(_IDS, got)
        if stats_json(stats) != _GOLDEN[cell_id]
    ]
    assert wrong == []
