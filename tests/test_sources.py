import os
import subprocess
import sys
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


@pytest.mark.parametrize("name", ["solvers.py", "newton.py"])
def test_table_format_stays_in_algebra_and_tensor(name):
    # the sparse table `_mul_table` and its scale `_dc` are read only by
    # algebra.py and tensor.py; the solvers reach them through
    # `operator_rows`, `pair_coefficients` and `right_multiples`
    text = (SOURCES[0].parent / name).read_text(encoding="utf-8")
    assert "_mul_table" not in text and "_dc" not in text


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every CLI call imports ncalg.cli, and `dataclasses` would add inspect,
    # ast, dis, tokenize and copy, over a third of that import; -S keeps the
    # site packages' own imports out of the result
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parent.parent))
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", "import ncalg.cli, sys; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded == "[]\n"
