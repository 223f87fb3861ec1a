import re
from pathlib import Path

import rnmlab

ROOT = Path(__file__).resolve().parent.parent

# public names that no subcommand, demo or benchmark reaches yet, with the
# ROADMAP item that gives each one a caller
NO_CALLER_YET = {"tilting_check": "ROADMAP item 2"}


def test_every_public_name_has_a_caller():
    # a name earns its place in the API by a use in the package, a demo or
    # the benchmark; its own tests do not count
    sources = [p for p in sorted((ROOT / "src" / "rnmlab").glob("*.py"))
               if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    lines = [line for p in sources for line in p.read_text().splitlines()]
    missing = []
    for name in rnmlab.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            missing.append(name)
    assert sorted(missing) == sorted(NO_CALLER_YET)
