import ast
from pathlib import Path

import stalefl

SOURCES = sorted(Path(stalefl.__file__).parent.glob("*.py"))


def test_every_module_parses_as_python_3_10():
    """pyproject.toml declares Python >= 3.10; each module of stalefl must
    parse with the grammar of 3.10. This catches syntax only: a call to an
    API that 3.10 lacks, such as `BaseException.add_note`, still passes."""
    assert len(SOURCES) > 1
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
