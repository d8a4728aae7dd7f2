"""The README's library example runs and does what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_does_what_its_comments_say():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    names = {}
    exec(blocks[0], names)
    assert names["closed"] is False and names["trace"].verdict is False
    assert names["closure"] == names["zel"](names["g"])
    assert names["closure_order"](names["closure"]) == 8
