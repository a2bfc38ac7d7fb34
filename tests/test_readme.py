"""The README's Library block runs as written and prints what it says."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs():
    block = _library_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    # each print's trailing comment is its output; "..." stands for the rest
    expected = [line.split("# ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 3
    for got, want in zip(printed, expected):
        head, dots, _ = want.partition("...")
        assert got.startswith(head) if dots else got == want
