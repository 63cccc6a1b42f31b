"""The README's library example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    trace6 = namespace["trace6"]
    assert trace6.k == 6 and trace6.potentials_recorded
