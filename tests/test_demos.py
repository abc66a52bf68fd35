"""The demos' stdout, pinned: each demo runs in a fresh interpreter under
-W error and is checked by the sha256 of what it prints.

The demos read the sizes, bounds, sets and verdicts of the constructions,
so a change to any of them shows up here by demo.  The one elapsed time a
demo prints (the exhaustive check of 02, "(0.01 s)") is masked.  The
digests were recorded from the output before the rank checks and the
sphere gathers moved into geometry.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ffkakeya

DEMOS = Path(__file__).resolve().parent.parent / "demos"
ENV = dict(os.environ, PYTHONPATH=str(Path(ffkakeya.__file__).resolve().parent.parent))

DIGESTS = {
    "01_fields_and_counting.py": "5b045487659f923caadffc5f0a7b7e4537d23c1537f9a44ff397230124f41134",
    "02_spherical_kakeya.py": "f676de09b87427baf0d0bb897c39f69883466d034072e53eb448d5439e5d39c7",
    "03_hypersphere_union.py": "e3d007c315295f4c672199bdab08ec001b791a7a56126758c7b2e38fd8a4f290",
    "04_circular_kakeya.py": "1073638555f878dadafcf5fbf4e2acc388a1ea60d8898cc65c43fc2eb1af20d4",
    "05_minimal_covers.py": "ffd02fa77c4affe0839281b17ad1c476f9192ec192e8a8a7818c6199ec504eba",
}
ELAPSED = re.compile(r"\(\d+\.\d\d s\)")


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_stdout_is_unchanged(demo):
    proc = subprocess.run([sys.executable, "-W", "error", str(DEMOS / demo)],
                          capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    if demo.startswith("02_"):
        assert len(ELAPSED.findall(out)) == 1
        out = ELAPSED.sub("(… s)", out)
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[demo]
