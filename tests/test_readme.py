"""The README's library tour runs and prints a passing decay verdict.

Every name the tour calls must exist, so a public name it uses cannot be
removed without this test failing.  The tour prints the decay slope and
its verdict, which must be True.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.split()[-1] == "True"
