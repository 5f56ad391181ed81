"""The README's Python quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (library quickstart)", "exec"), {})
    dcor, communities = capsys.readouterr().out.splitlines()
    assert 0.0 <= float(dcor) <= 1.0
    assert communities.startswith("[")
