import warnings
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "ncalg").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_compiles_without_warnings(path):
    # an invalid escape such as "\d" outside a raw string only warns at
    # compile time (DeprecationWarning on 3.11, SyntaxWarning from 3.12),
    # and a cached .pyc hides it from later imports; as an error it fails here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
