"""One runner writes every CLI envelope.

Each subcommand of ``unitgraphs.cli`` returns its result; ``main`` alone
calls ``_emit``, and the clock is read only in ``main``, which starts it,
and in ``_emit``, which stops it.  This reads ``cli.py`` with ``ast`` and
names every top-level definition that breaks either rule.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "unitgraphs" / "cli.py"


def envelope_faults(source: str) -> list[str]:
    faults = []
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == "_emit" and owner != "main":
                faults.append(f"{owner} calls _emit")
            clock = (isinstance(node, ast.Attribute) and node.attr == "monotonic") or (
                isinstance(node, ast.Name) and node.id == "monotonic"
            )
            if clock and owner not in ("main", "_emit"):
                faults.append(f"{owner} reads time.monotonic")
    return faults


def test_main_alone_writes_the_envelope():
    assert envelope_faults(CLI.read_text()) == []


def test_the_check_sees_a_subcommand_that_writes_its_own_envelope():
    planted = (
        "import time\n"
        "def _emit(args, ring_expr, command, result, truncated, start):\n"
        "    print(time.monotonic() - start)\n"
        "def _cmd_info(args):\n"
        "    start = time.monotonic()\n"
        "    _emit(args, 'Z4', 'info', {}, False, start)\n"
        "def main(argv=None):\n"
        "    start = time.monotonic()\n"
        "    _emit(None, None, 'verify', {}, False, start)\n"
    )
    assert envelope_faults(planted) == ["_cmd_info reads time.monotonic", "_cmd_info calls _emit"]
