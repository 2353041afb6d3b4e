"""The README's "Library use" example runs as written, from the repository root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_use_example_runs(monkeypatch):
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["bits"].shape == scope["frame"].tx_bits.shape
    assert scope["sol_20db"].sub is scope["sol"].sub
