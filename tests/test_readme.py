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


def test_readme_lists_every_tolerance():
    # the table under "## Tolerances" names each constant with its value
    from dhym import tolerances
    section = README.read_text().split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    table = {name: float(value) for name, value in
             re.findall(r"^\| `([A-Z_]+)` \| ([^|]+?) \|", section, re.M)}
    constants = {name: value for name, value in vars(tolerances).items()
                 if name.isupper()}
    assert len(constants) == 6
    assert table == constants


def test_readme_lists_every_reason():
    # the table under "## The existence block" names each reason token
    from dhym.levelcurve import REASONS
    section = (README.read_text().split("## The existence block", 1)[1]
               .split("\n## ", 1)[0])
    tokens = re.findall(r"^\| `([a-z_]+)` \| `(?:not_exists|inconclusive)` \|",
                        section, re.M)
    assert sorted(tokens) == sorted(REASONS)
    assert len(set(REASONS)) == len(REASONS) == 4


def test_readme_lists_every_config_key():
    # the table under "## Config keys" names each key the parser admits, and
    # its default for figure.samples is the one the parser fills in
    from dhym.charges import Geometry
    from dhym.config import FigureSpec, SweepSpec, load_config
    section = (README.read_text().split("## Config keys", 1)[1]
               .split("\n## ", 1)[0])
    rows = {key: default.strip() for key, default in
            re.findall(r"^\| `([a-z_.]+)` \|.*\|([^|]+)\|$", section, re.M)}
    assert set(rows) == {*Geometry._fields, "sweep", "figure",
                         *(f"sweep.{key}" for key in SweepSpec._fields),
                         *(f"figure.{key}" for key in FigureSpec._fields)}
    cfg = load_config('{"n": 2, "a": 2, "p": 1, "q": 1, '
                      '"figure": {"window": [-3, 3, -3, 3]}}')
    assert rows["figure.samples"] == str(cfg.figure.samples)
