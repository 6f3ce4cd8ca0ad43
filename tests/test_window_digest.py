"""``tools/window_digest.py``: the cheap sections print their recorded digests."""

import importlib.util
from pathlib import Path

# the sections that take under a second each; the others are checked by hand
CHEAP = ("levels", "serialize", "chain", "protocols", "robustness", "histogram", "optimize")


def test_cheap_sections_print_their_recorded_digests(capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "window_digest.py"
    spec = importlib.util.spec_from_file_location("window_digest", path)
    window_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(window_digest)
    assert window_digest.check(CHEAP), capsys.readouterr().out
    assert capsys.readouterr().out.splitlines() == [f"{name} ok" for name in CHEAP]
