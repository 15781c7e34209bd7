import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    # the fenced python block under "Library quick start", run as written
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "Existence.EXISTS"
