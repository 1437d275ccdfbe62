"""The README's library example runs as documented: its ```python blocks,
in order, in one namespace, next to the running example's model file."""

import re
from pathlib import Path

from helpers import fig1_chain

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    (tmp_path / "fig1.json").write_text(fig1_chain().to_json())
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["weights"]
