"""Replay the recorded CLI transcript: every subcommand on every fixture.

``bench/golden/fixtures.json`` holds, for each command line, the exit code,
the stdout bytes of ``--json`` output and the error class (the stderr prefix
before the first colon, or the class of an uncaught exception).  A refactor
must reproduce all three exactly, ``generators`` on ex346 included.
"""

import contextlib
import io
import json
import os
import random

import pytest

from polydiv import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "bench", "golden", "fixtures.json")

with open(GOLDEN) as fh:
    RECORDS = json.load(fh)


def replay(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--json"])
        except SystemExit as exc:
            return {"exit": exc.code, "stdout": out.getvalue(), "error": "SystemExit"}
        except Exception as exc:
            return {"exit": None, "stdout": out.getvalue(), "error": type(exc).__name__}
    text = err.getvalue()
    return {"exit": code, "stdout": out.getvalue(),
            "error": text.split(":", 1)[0] if text else ""}


def test_transcript_size():
    assert len(RECORDS) == 125


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_replay(record):
    assert replay(record["argv"]) == record["outcome"]


def test_replay_is_independent_of_order():
    """The parser and the caches are shared by every call in a process: two
    passes over the transcript in two shuffled orders must still match it."""
    for seed in (1, 2):
        records = RECORDS[:]
        random.Random(seed).shuffle(records)
        mismatched = [r["argv"] for r in records if replay(r["argv"]) != r["outcome"]]
        assert mismatched == []
