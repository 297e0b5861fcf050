"""The definition listing of ``scripts/count_lines.py``."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "count_lines.py"


def load_script():
    spec = importlib.util.spec_from_file_location("count_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unreferenced_lists_what_only_tests_docstrings_and_exports_name(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .mod import exported\n")
    (pkg / "mod.py").write_text(
        '"""Mentions ``documented`` only in text."""\n'
        "import functools\n\n\n"
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def documented():\n    pass\n\n\n"
        "def exported():\n    pass\n\n\n"
        "def tested():\n    pass\n\n\n"
        "@functools.lru_cache\ndef cached():\n    pass\n\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.n = 0\n\n"
        "    @property\n    def shown(self):\n        return self.n\n\n"
        "    @property\n    def hidden(self):\n        return 0\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text(
        "from pkg.mod import Box, used\n"
        "print(used(), Box().shown)\n"
        "LAYER = ('pkg.mod', 'pkg.mod.used')\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import Box, documented, exported, tested\n"
        "Box().hidden, documented(), exported(), tested()\n")
    names = load_script().unreferenced(tmp_path / "src")
    assert names == ["pkg/mod.py:documented", "pkg/mod.py:exported",
                     "pkg/mod.py:tested", "pkg/mod.py:Box.hidden"]
