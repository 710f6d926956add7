"""DESIGN.md section 6 lists exactly the modules under ``src/repro``."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _layout_modules() -> set[str]:
    """Module paths (``pkg/mod.py`` or ``mod.py``) named in the
    ``src/repro/`` block of DESIGN.md's repository-layout section."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 6. Repository layout", 1)[1]
    block = section.split("```", 2)[1]
    lines = block.splitlines()
    start = lines.index("src/repro/")
    modules: set[str] = set()
    package = ""
    for line in lines[start + 1:]:
        if not line.startswith(" "):
            break  # the next top-level directory (tests/, ...)
        tokens = line.split()
        if tokens[0].endswith("/"):
            package, tokens = tokens[0], tokens[1:]
        elif re.match(r"  \S", line):
            package = ""  # top-level modules of src/repro/
        modules.update(package + tok for tok in tokens)
    return modules


def _disk_modules() -> set[str]:
    return {path.relative_to(SRC).as_posix()
            for path in [*SRC.glob("*.py"), *SRC.glob("*/*.py")]
            if path.name != "__init__.py"}


def test_layout_lists_exactly_the_modules_on_disk():
    listed, on_disk = _layout_modules(), _disk_modules()
    assert not listed - on_disk, f"DESIGN.md lists missing modules: {sorted(listed - on_disk)}"
    assert not on_disk - listed, f"DESIGN.md omits modules: {sorted(on_disk - listed)}"
