"""The README's library example runs as shown."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.S | re.M).group(1)


def shown_lines(block):
    """The output the block's full-line comments show: an indented comment
    continues the line before it, and ``...`` stands for lines left out."""
    shown = []
    for line in block.splitlines():
        if not line.startswith("# ") or line == "# ...":
            continue
        text = line[2:]
        if text.startswith(" "):
            shown[-1] += " " + text.strip()
        else:
            shown.append(text)
    return shown


def test_library_example_prints_what_it_shows(capsys):
    block = library_block()
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    detail, *relations = shown_lines(block)
    assert "print(verdict.normal)                    # False:" in block
    assert printed[0] == "False"
    # the two das violations, the second one left out as "..."
    assert printed[1] == detail
    assert detail.startswith("das support ('s2', 's1') at ('t',): ")
    assert printed[2].startswith("das support ('s2', 's3') at ('t',): ")
    assert printed[3] == "False"  # no logical fallacy under grounded
    assert printed[4:] == relations == [
        "('s2', 's1') ('t',) ['strengthening']",
        "('s2', 's3') ('t',) ['strengthening']",
    ]
