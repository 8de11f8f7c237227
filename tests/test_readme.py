"""The README's Python example runs as written, so the public names it shows cannot drift."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "the README has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
