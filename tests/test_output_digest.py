"""Every byte the CLI writes stays as it was.

``scripts/output_digest.py`` runs every command on the shipped pack and on
the seeded synthetic rules and prints the sha256 of all their outputs as its
last line.  A change that alters an output on purpose updates ``TOTAL`` here
and says why in ``CHANGES.md``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOTAL = "1dbebc3cd8b7dc2a3dfc2baead78120345ad0604abd7225d891cb1f1e28c67a5 total"


def test_every_output_byte_is_unchanged():
    env = {key: value for key, value in os.environ.items() if key != "LEXROAD_RULEPACK"}
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_digest.py")],
                            capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == TOTAL
