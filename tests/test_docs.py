"""The README's code examples run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block after the given heading of README.md."""
    text = README.read_text()
    section = text[text.index(f"\n{heading}\n"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no python block under {heading!r}"
    return match.group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_block("## Library example"), str(README), "exec"), {})
    p_fa_closed, p_fa_oracle, p_md_closed = map(float, out.getvalue().split())
    assert abs(p_fa_closed - p_fa_oracle) < 1e-10
    assert p_md_closed == 0.25
