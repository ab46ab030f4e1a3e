"""The byte-identity contract: every output that `tools/log_digest.py`
hashes (train logs and checkpoints, ablation tables, verify and analyze
reports, printed lines) matches the committed listing byte for byte."""

import subprocess
import sys
from pathlib import Path

import pytest

from tools import log_digest

TOOL = Path(log_digest.__file__)
LISTING = TOOL.with_suffix(".txt")


def test_outputs_match_the_committed_listing():
    lines = LISTING.read_text().splitlines()
    made_with = [line[2:] for line in lines if line.startswith("# ")]
    running = log_digest.versions()
    if made_with != running:
        pytest.skip(f"the listing was made with {made_with}; this run has {running}")
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == lines
