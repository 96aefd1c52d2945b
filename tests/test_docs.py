"""The README's library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_example_runs(capsys):
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"^```python\n(.*?)^```", handle.read(),
                            re.MULTILINE | re.DOTALL)
    assert blocks, "README has no python example"
    for source in blocks:
        exec(compile(source, "README.md", "exec"), {})
    assert "dim=24" in capsys.readouterr().out
