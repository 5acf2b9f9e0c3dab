"""Golden digests: the default manifest's CSVs and summaries, byte for byte.

Aim: the same manifest and seed give byte-identical artifacts. The sha256 of
every CSV and summary that `run_manifest(default_manifest(seed=S))` writes
is recorded in golden_digests.json, together with the numpy version that
made them (another numpy may round differently, so the check skips then).

After a change that moves artifacts on purpose, regenerate the file with

    PYTHONPATH=src python tests/test_golden_digests.py

and name each moved file and the reason in the change description.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qfclab.scenarios import default_manifest, run_manifest

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
SEEDS = (1, 7, 12345)


def artifact_digests(seed, out_dir):
    """Run the default manifest into out_dir; sha256 of each CSV and summary."""
    run_manifest(default_manifest(output_dir=str(out_dir), seed=seed))
    paths = sorted(Path(out_dir).glob("*.csv")) + sorted(Path(out_dir).glob("*_summary.json"))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


@pytest.mark.parametrize("seed", SEEDS)
def test_default_manifest_matches_golden_digests(seed, tmp_path):
    golden = json.loads(DIGEST_FILE.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {golden['numpy']}, "
                    f"running numpy {np.__version__}")
    expected = golden["seeds"][str(seed)]
    got = artifact_digests(seed, tmp_path)
    moved = sorted(name for name in expected.keys() | got.keys()
                   if expected.get(name) != got.get(name))
    assert not moved, f"seed {seed}: {len(moved)} artifacts moved: {moved}"


if __name__ == "__main__":
    record = {}
    for s in SEEDS:
        with tempfile.TemporaryDirectory() as d:
            record[str(s)] = artifact_digests(s, d)
    DIGEST_FILE.write_text(json.dumps({"numpy": np.__version__, "seeds": record},
                                      indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_FILE}: {sum(map(len, record.values()))} digests")
