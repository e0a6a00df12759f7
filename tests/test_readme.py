"""The README's library tour is run as written, so it cannot fall out of date."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    scope = {}
    exec(compile(tour, str(README), "exec"), scope)
    # g fixes +-1 and moves the tour's data, whose jumps sit at +-i
    assert scope["dist"] > scope["bar"]
    assert sum(scope["approx"].metric_defect()) <= 0.1
