"""``tools/scan_stages.py``: the stage probe runs at tiny sizes and prints every stage,
and its A/B mode times this tree against a copy of it."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def scan_stages():
    spec = importlib.util.spec_from_file_location("scan_stages", ROOT / "tools" / "scan_stages.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_probe_prints_a_median_per_stage_and_size(scan_stages, capsys):
    scan_stages.main(["--samples", "1", "8", "--rounds", "2"])
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split()[-2:] == ["1", "8"]
    assert [line.split()[0] for line in lines] == list(scan_stages.STAGES)
    for line in lines:
        assert all(float(median) > 0.0 for median in line.split()[1:])


def test_against_times_a_copy_interleaved_and_checks_its_text(scan_stages, capsys, tmp_path,
                                                              monkeypatch):
    """``--against DIR`` imports the rydex copy in DIR by its name and prints both
    medians, their ratio and the win count; a copy that writes other text is refused."""
    shutil.copytree(ROOT / "src" / "rydex", tmp_path / "rydex_copy",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    try:
        scan_stages.main(["--against", str(tmp_path / "rydex_copy"), "--samples", "8",
                          "--rounds", "2"])
        header, line = capsys.readouterr().out.splitlines()
        assert header.split() == ["samples", "this", "(us)", "other", "(us)", "ratio", "this",
                                  "faster"]
        samples, mine, theirs, ratio, wins = line.split()
        assert samples == "8" and float(mine) > 0.0 and float(theirs) > 0.0
        assert float(ratio) == pytest.approx(float(mine) / float(theirs), abs=2e-3)
        assert wins in ("0/2", "1/2", "2/2")
        monkeypatch.setattr(sys.modules["rydex_copy.harness"], "SCHEMA", "rydex/0")
        with pytest.raises(AssertionError, match="outputs differ at 8 samples"):
            scan_stages.main(["--against", str(tmp_path / "rydex_copy"), "--samples", "8",
                              "--rounds", "1"])
        with pytest.raises(SystemExit, match="another name"):
            scan_stages.main(["--against", str(ROOT / "src" / "rydex")])
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "rydex_copy"]:
            del sys.modules[name]
