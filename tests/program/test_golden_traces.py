"""The functional interpreter reproduces its committed golden digests.

A mismatch means a trace record, a trace counter, the final register
file or the final memory changed for that program.  If the change is
intended, regenerate with ``PYTHONPATH=src python -m
tests.program.golden_traces`` and review the printed diff.
"""

import pytest

from tests.program.golden_traces import cases, load_golden, trace_digest

_GOLDEN = load_golden()
_CASES = cases()


def test_golden_covers_every_case():
    assert sorted(_GOLDEN) == sorted(case_id for case_id, _ in _CASES)


@pytest.mark.parametrize("case_id,build", _CASES, ids=[c for c, _ in _CASES])
def test_trace_matches_golden(case_id, build):
    assert trace_digest(build()) == _GOLDEN[case_id]
