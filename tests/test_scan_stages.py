"""``tools/scan_stages.py``: the stage probe runs at tiny sizes and prints every stage."""

import importlib.util
from pathlib import Path


def test_stage_probe_prints_a_median_per_stage_and_size(capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "scan_stages.py"
    spec = importlib.util.spec_from_file_location("scan_stages", path)
    scan_stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan_stages)
    scan_stages.main(["--samples", "1", "8", "--rounds", "2"])
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split()[-2:] == ["1", "8"]
    assert [line.split()[0] for line in lines] == list(scan_stages.STAGES)
    for line in lines:
        assert all(float(median) > 0.0 for median in line.split()[1:])
