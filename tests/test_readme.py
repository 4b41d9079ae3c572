import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    # The library quick start, run as written.  Its amplified cat does not
    # fit dim 60, and the Fock reconstruction says so.
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    with pytest.warns(UserWarning, match=r"dim 60 captures trace 0\.2"):
        exec(compile(block, str(README), "exec"), {})
