import re
from pathlib import Path

import nehari2d as nh

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    missing = [name for name in nh.__all__ if not hasattr(nh, name)]
    assert missing == []


def test_readme_example_uses_only_exports():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    used = set(re.findall(r"\bnh\.(\w+)", "".join(blocks)))
    assert "solve_system" in used
    assert used - set(nh.__all__) == set()
