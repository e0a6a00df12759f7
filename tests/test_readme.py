"""The README's library tour is run as written, so it cannot fall out of date."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    scope = {}
    exec(compile(tour, str(README), "exec"), scope)
    assert scope["dist"] >= 0.0 and scope["bar"] >= 0.0
