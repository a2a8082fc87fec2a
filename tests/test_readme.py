"""The README's library example runs as shown, and its modules exist."""

import importlib
import re
from pathlib import Path
from types import ModuleType

import aspectarg

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


def test_every_listed_module_imports_as_a_module():
    text = README.read_text(encoding="utf-8")
    table = re.search(r"^## Modules\n\n(.*?)\n\n", text, re.S | re.M).group(1)
    names = re.findall(r"^\| `(aspectarg\.\w+)`(?: / `(aspectarg\.\w+)`)? \|", table, re.M)
    listed = [name for row in names for name in row if name]
    assert len(listed) == 11
    for name in listed:
        module = importlib.import_module(name)
        assert isinstance(module, ModuleType), name
        # ``import aspectarg.x as m`` binds the package attribute, which a
        # re-export of the same name would shadow
        assert getattr(aspectarg, name.split(".")[1]) is module, name
