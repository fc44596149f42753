"""The README's examples run as written."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

from bluefish import compile_source

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

# Runs a block read from stdin, then writes the ``svg`` it leaves behind, if any.
_RUNNER = """
import sys
namespace = {"__name__": "__main__"}
exec(compile(sys.stdin.read(), "README.md", "exec"), namespace)
sys.stdout.buffer.write(namespace.get("svg", b""))
"""


def _blocks(language: str, text: str = README) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def _run(block: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _RUNNER], input=block.encode("utf-8"),
                          capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    return done.stdout


def test_every_python_block_runs():
    blocks = _blocks("python")
    assert blocks
    for block in blocks:
        _run(block)


def test_the_extending_example_paints_its_diamond():
    (block,) = [b for b in _blocks("python") if "paint_diamond" in b]
    assert b'<polygon points="4,0 8,2 4,4 0,2"/>' in _run(block)


def test_the_quick_start_document_compiles_cleanly():
    quick_start = README[README.index("## Quick start"):README.index("## Document format")]
    (document,) = _blocks("json", quick_start)
    scene, diagnostics = compile_source(document)
    assert diagnostics == []
    assert scene is not None
