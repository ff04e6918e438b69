"""Exact stdout of CLI commands, pinned byte for byte in tests/golden/.

Every input is written factored, and numpy's root finder is patched to raise,
so no pin depends on the LAPACK build numpy was linked against. A pin changes
only with an intended change of output.
"""

from pathlib import Path

import numpy as np
import pytest

from zinv.cli import main

GOLDEN = Path(__file__).parent / "golden"
BATCH = "# factored denominators\n1/(z-3)\n5/z^2\n\n(2z+3)/((z^2-2z+2)^3)\n1/((z-0.5)^2 (z^2-z+0.5))\n"

TABLE = ["table", "--batch", "{batch}", "--n", "4"]
CASES = {
    "identities.txt": ["identities"],
    "identities.json": ["identities", "--format", "json"],
    "invert_batch.txt": ["invert", "--batch", "{batch}"],
    "invert_batch.json": ["invert", "--batch", "{batch}", "--format", "json"],
    **{
        f"table_{method}.{ext}": [*TABLE, "--method", method, "--format", fmt]
        for method in ("proposed", "longdiv")
        for fmt, ext in (("text", "txt"), ("csv", "csv"), ("json", "json"))
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_pin(name, tmp_path, monkeypatch, capsys):
    def no_roots(*args, **kwargs):
        raise AssertionError("numeric root finding reached")

    monkeypatch.setattr(np, "roots", no_roots)
    batch = tmp_path / "exprs.txt"
    batch.write_text(BATCH)
    argv = [arg.format(batch=batch) for arg in CASES[name]]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / name).read_text(encoding="utf-8")
    assert captured.err == ""
