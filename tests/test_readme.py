"""The README's library sketch runs as written, and the files it names exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_sketch_runs():
    section = README.read_text(encoding="utf-8").split("## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["out"].errors.shape == (200,)
    assert namespace["errors"].shape == (200,)
    assert namespace["both"].shape == (50, 2, 4)


def test_named_files_exist():
    # a benchmark record, test or bench script that the README cites must not have been renamed or deleted
    text = README.read_text(encoding="utf-8")
    names = set(re.findall(r"\bBENCH_\d+\.json", text)) | set(re.findall(r"\b(?:tests|bench|src)/[\w./-]*\w", text))
    missing = sorted(n for n in names if not (ROOT / n).exists())
    assert names and not missing, f"the README names files that do not exist: {missing}"
