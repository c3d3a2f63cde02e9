import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    # the README's python block, asserts and comments included, as a user
    # would paste it
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["rate_theta"](0.0, 0.0, float("inf"), 3.141592653589793) == 0.0
