"""Tier-1 replay of the committed counterexample corpus.

Every file under ``tests/fuzz/corpus/`` is a minimized reproducer of a
bug class the differential harness once caught (or, for bootstrap
entries, a known injected mutation). Replaying them on every run makes
sure none of those bug classes silently returns: each spec must run the
full engine x mode differential matrix with **zero** findings on HEAD.
"""

import os

import pytest

from repro.fuzz import (
    FUZZ_MODES,
    GANG_MODE,
    check_spec,
    load_corpus,
    spec_from_dict,
)

_CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
_ENTRIES = load_corpus(_CORPUS_DIR)


def test_corpus_is_committed_and_nonempty():
    assert _ENTRIES, f"no corpus entries found in {_CORPUS_DIR}"


@pytest.mark.parametrize(
    "entry", _ENTRIES, ids=[os.path.basename(e["path"]) for e in _ENTRIES]
)
def test_reproducer_is_clean_on_head(entry):
    spec = spec_from_dict(entry["spec"])
    findings = check_spec(spec)
    assert findings == [], [f.summary() for f in findings]


@pytest.mark.parametrize(
    "entry", _ENTRIES, ids=[os.path.basename(e["path"]) for e in _ENTRIES]
)
def test_reproducer_is_clean_on_batch_engine(entry):
    """The corpus replays against the vectorized batch engine too.

    ``harden=False`` is deliberate: hardened configs fall back to the
    fast engine per cell, so only an unhardened replay drives the
    corpus programs down the batch engine's vector path.  The mode
    matrix includes ``dmp-basic`` (the plain Table-1 machine, inside
    the vector envelope), so every replay also exercises the
    vectorized predicated-episode path — not just the unpredicated
    lockstep loop.  Appending the ``dmp-gang`` band fans each
    reproducer across machine sizings as one batch group, so the
    replay also covers many lanes entering the same episodes and
    sharing structural walks and predictor epochs, not just
    single-lane groups."""
    spec = spec_from_dict(entry["spec"])
    findings = check_spec(
        spec,
        modes=FUZZ_MODES + (GANG_MODE,),
        engines=("reference", "batch"),
        harden=False,
    )
    assert findings == [], [f.summary() for f in findings]


@pytest.mark.parametrize(
    "entry", _ENTRIES, ids=[os.path.basename(e["path"]) for e in _ENTRIES]
)
def test_entry_metadata_is_complete(entry):
    # Triage provenance must never be stripped from a committed entry.
    assert entry["notes"], entry["path"]
    # The harness finding kinds, plus "recovery": a proactively
    # committed exerciser (no failure at capture time) pinning the
    # learned-merge misprediction/recovery machinery of mode "mpp".
    assert entry["finding"]["kind"] in (
        "divergence",
        "oracle",
        "hang",
        "crash",
        "generator",
        "recovery",
    )
    assert entry["static_instructions"] > 0
