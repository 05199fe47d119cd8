"""scripts/audit_reports.py: the entropy audit's reports on a seeded set of runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
KEYS = {"entropy_blocks", "side_residuals", "straddle_residuals", "certified_items",
        "stencil_values"}


def test_audit_reports_writes_one_entry_per_audit(tmp_path):
    """Two cases, each with 4 multiples of the bound x 4 constant sets, in that
    order: the runs at 0.9 x the bound pass with every active item certified, and
    past it some audits fail and some take straddle residuals."""
    out = tmp_path / "reports.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "audit_reports.py"), str(out), "--cases", "2"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    entries = json.loads(out.read_text())
    assert len(entries) == 2 * 4 * 4
    for k, (violation, location, passed, counts) in enumerate(entries):
        assert set(counts) == KEYS
        assert location is None or len(location) == 3
        if k % 16 < 4:  # 0.9 x the bound
            assert passed and counts["straddle_residuals"] == 0
            assert 2 * counts["certified_items"] == counts["side_residuals"]
    assert not all(passed for _, _, passed, _ in entries)
    assert any(counts["straddle_residuals"] > 0 for *_, counts in entries)
    assert np.isfinite([violation for violation, *_ in entries]).all()
