"""tools/fingerprint.py gives one digest per set of outputs: two runs on one
checkout agree, and the digest is the MD5 of the JSON it writes."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from coocmap.presets import PRESETS

ROOT = Path(__file__).resolve().parent.parent


def test_changed_paths_name_each_entry_that_differs():
    spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    old = {"a": {"x": 1, "y": [1, 2]}, "b/c": [{"z": None}], "gone": 0, "n": 1}
    new = {"a": {"x": 1, "y": [1, 3]}, "b/c": [{"z": 0}], "added": 0, "n": True}
    assert fingerprint.changed_paths(old, new) == [
        '$["a"]["y"][1]', '$["added"]', '$["b/c"][0]["z"]', '$["gone"]', '$["n"]',
    ]
    assert fingerprint.changed_paths(old, old) == []
    assert fingerprint.changed_paths([1], [1, 2]) == ["$"]  # a length change names the list


def test_two_runs_give_the_same_digest(tmp_path):
    digests = []
    for i in range(2):
        out = tmp_path / f"fp{i}.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "fingerprint.py"), "--src", str(ROOT / "src"),
             "--out", str(out), "--size", "tiny"],
            capture_output=True, text=True, timeout=300, check=True,
        )
        digest = proc.stdout.strip().splitlines()[-1]
        assert digest == hashlib.md5(out.read_bytes()).hexdigest()
        digests.append(digest)
    assert digests[0] == digests[1]
    result = json.loads(out.read_text())
    # every point ran or recorded its error, and the error sweep has its rows;
    # the points are each preset but dict-init in both modes, and coocmap-drop at dim 50
    assert len(result["benches"]) == 2 * (len(PRESETS) - 1) + 2
    assert all(row["error"].startswith("FileNotFoundError")
               for row in result["sweeps"]["error-rows"])
    # six --help, the usage error and the missing option, then eight runs
    output = result["cli"]["output"]
    codes = [line.split(" rc=", 1)[1].split(" ", 1)[0] for line in output]
    assert codes == ["0"] * 6 + ["1", "2"] + ["0"] * 8
    assert output[-1].startswith("sweep --spec rc=0 rows=8 failed=0 ")
    assert "seconds" not in json.dumps(result["cli"])
