"""The README's library tour runs as written.

Every name the tour calls must exist, so a public name it uses cannot be
removed without this test failing.  Its printed decay verdict is not
asserted: the tour is an example, not an acceptance claim.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
