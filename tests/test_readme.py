"""README's library section is a checked contract.

The quick-start block runs as written, and each `print` in it must print
what its `# ` comment says, with `...` matching anything.  The list of the
public surface must name exactly `ncalg.__all__`, every name of which
resolves: an export added or removed has to be added to or removed from
README too.
"""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

import ncalg

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def library_section() -> str:
    return README.split("## Library quick start", 1)[1].split("\n## ", 1)[0]


def quick_start() -> str:
    return library_section().split("```python\n", 1)[1].split("```", 1)[0]


def surface_names() -> set:
    """The backticked names of the bullet list after the `ncalg.__all__`
    paragraph, up to the blank line that ends the list."""
    after = library_section().split("`ncalg.__all__`", 1)[1]
    bullets = after.split("\n\n", 1)[1].split("\n\n", 1)[0]
    assert bullets.startswith("* ")
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", bullets))


def test_quick_start_prints_its_comments():
    source = quick_start()
    comments = {tok.start[0]: tok.string.removeprefix("# ")
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    print_lines = {node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"}
    printed = []

    def record(*args):
        printed.append((sys._getframe(1).f_lineno, " ".join(map(str, args))))
    exec(compile(source, "README.md", "exec"), {"print": record})
    assert [line for line, _ in printed] == sorted(print_lines)
    for line, text in printed:
        pattern = ".*".join(re.escape(part) for part in comments[line].split("..."))
        assert re.fullmatch(pattern, text), (line, text, comments[line])


def test_surface_list_is_the_exported_names():
    assert all(hasattr(ncalg, name) for name in ncalg.__all__)
    assert surface_names() == set(ncalg.__all__)
    assert len(ncalg.__all__) == len(set(ncalg.__all__))
