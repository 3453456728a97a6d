"""Byte-level mutations of small ``.rg`` files through the command line:
each command exits 0, 1 or 2 and never raises, and every exit-2 message
names a line and a column."""

from __future__ import annotations

import io
import itertools
import random
import re
from contextlib import redirect_stderr, redirect_stdout

from conftest import THETA_EXAMPLE_RG
from ribbonpoly.cli import main
from ribbonpoly.fileformat import render
from ribbonpoly.invariants import corpus

MUTANTS = 2000
LOCATED = re.compile(r"\(line \d+, column \d+\)")


def _seed_texts() -> list[bytes]:
    texts = [THETA_EXAMPLE_RG] + [
        render(pg) for _, pg in itertools.islice(corpus(3, 5, 1), 0, 120, 6)]
    return [t.encode() for t in texts]


def _mutate(rng: random.Random, data: bytes, alphabet: list[int]) -> bytes:
    """One to three edits: replace, insert or delete a byte, or copy a short
    slice elsewhere.  New bytes come mostly from the seed texts, sometimes
    from all 256 values (so also bytes that are not UTF-8)."""
    b = bytearray(data)
    for _ in range(rng.choice((1, 1, 2, 3))):
        op = rng.randrange(4)
        byte = (rng.choice(alphabet) if rng.random() < 0.7
                else rng.randrange(256))
        i = rng.randrange(len(b) + 1)
        if op == 0 and i < len(b):
            b[i] = byte
        elif op == 1:
            b.insert(i, byte)
        elif op == 2 and i < len(b):
            del b[i]
        else:
            j = rng.randrange(len(b) + 1)
            b[i:i] = b[min(i, j):max(i, j)][:20]
    return bytes(b)


def test_mutated_inputs_exit_cleanly(tmp_path):
    seeds = _seed_texts()
    alphabet = sorted(set(b"".join(seeds)))
    rng = random.Random(2024)
    path = tmp_path / "mutant.rg"
    faults = []
    codes = set()
    for _ in range(MUTANTS):
        data = _mutate(rng, rng.choice(seeds), alphabet)
        path.write_bytes(data)
        for argv in (["compute", str(path)],
                     ["compute", str(path), "--method", "delcon"],
                     ["validate", str(path)]):
            faults += _check(argv, data, codes)
    assert not faults, faults[:5]
    assert {0, 2} <= codes   # the mutants reach both outcomes


def _check(argv: list[str], data: bytes, codes: set) -> list:
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    except Exception as ex:  # any exception is a finding
        return [(data, argv[0], repr(ex))]
    err = err.getvalue()
    codes.add(code)
    if code not in (0, 1, 2) or (code == 2 and not LOCATED.search(err)):
        return [(data, argv[0], code, err)]
    return []
