"""Command line behavior, driven through main(argv)."""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bluefish
from bluefish import compile_source
from bluefish.cli import _report, _use_color, main

from conftest import FIXTURES, stack_chain
from generators import generate_nested_stacks

_DOC = {"bluefish": 1, "root": {"kind": "rect", "props": {"width": 10, "height": 20}}}


def _write_doc(tmp_path: Path, doc: dict = _DOC, name: str = "d.json") -> Path:
    target = tmp_path / name
    target.write_text(json.dumps(doc))
    return target


def test_render_writes_svg_next_to_the_input(tmp_path):
    source = _write_doc(tmp_path)
    assert main(["render", str(source)]) == 0
    svg = source.with_suffix(".svg")
    assert svg.read_bytes().startswith(b"<svg ")
    assert not source.with_suffix(".scene.json").exists()


def test_render_honors_out_and_dump(tmp_path):
    source = _write_doc(tmp_path)
    out = tmp_path / "pictures" / "diagram.svg"
    out.parent.mkdir()
    assert main(["render", str(source), "--out", str(out), "--dump"]) == 0
    assert out.exists()
    dump = json.loads((tmp_path / "pictures" / "diagram.scene.json").read_bytes())
    assert dump["geometry"][0]["kind"] == "rect"


def test_render_failure_writes_nothing(tmp_path, capsys):
    source = tmp_path / "conflict.json"
    shutil.copy(FIXTURES / "conflict_two_aligns.json", source)
    assert main(["render", str(source)]) == 1
    assert not source.with_suffix(".svg").exists()
    err = capsys.readouterr().err
    assert "error[BF001]" in err


def test_check_prints_ok(tmp_path, capsys):
    source = _write_doc(tmp_path)
    assert main(["check", str(source)]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_check_rejects_schema_problems(tmp_path, capsys):
    source = _write_doc(tmp_path, {"bluefish": 1, "root": {"kind": "rect"}})
    assert main(["check", str(source)]) == 1
    assert "error[BF007]" in capsys.readouterr().err


def test_check_rejects_a_document_nested_too_deeply(tmp_path, capsys):
    source = tmp_path / "deep.json"
    source.write_bytes(stack_chain(5000))
    assert main(["check", str(source)]) == 1
    err = capsys.readouterr().err
    assert err.count("error[BF007]") == 1
    assert "nests too deeply" in err


def test_check_rejects_a_nan_without_a_traceback(tmp_path, capsys):
    source = tmp_path / "nan.json"
    source.write_text('{"bluefish": 1, "root": {"kind": "rect", "props": {"width": NaN, "height": 1}}}')
    assert main(["check", str(source)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error[BF007]") == 1
    assert "root.props.width" in err


def test_check_rejects_an_integer_too_long_to_read_without_a_traceback(tmp_path):
    # in a fresh interpreter, whose int conversion limit is its default of
    # 4,300 digits, as a user's shell runs the tool
    source = tmp_path / "long.json"
    source.write_text('{"bluefish": 1, "root": {"kind": "rect", "props": {"width": %s, "height": 1}}}'
                      % ("9" * 5000))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(Path(bluefish.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", "bluefish", "check", str(source)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.count("error[BF007]") == 1
    assert "an integer has more than 4300 digits" in done.stderr


def test_check_rejects_overflowing_geometry_without_a_traceback(tmp_path, capsys):
    tall = {"kind": "rect", "props": {"width": 1, "height": 1e308}}
    source = _write_doc(tmp_path, {"bluefish": 1, "root": {"kind": "stackV", "children": [tall, tall]}})
    assert main(["check", str(source)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error[BF016]") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["render", "check"])
def test_a_string_svg_cannot_carry_fails_without_a_traceback(tmp_path, capsys, command):
    source = tmp_path / "surrogate.json"
    source.write_text('{"bluefish": 1, "root": {"kind": "text", '
                      '"props": {"content": "a\\ud800b", "fontSize": 12}}}')
    assert main([command, str(source)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error[BF007]") == 1
    assert "root.props.content" in err
    assert "Traceback" not in err
    assert not source.with_suffix(".svg").exists()


@pytest.mark.parametrize(("width", "digits"), [
    (1e30, "1" + "0" * 30),
    (sys.float_info.max, "17976931348623157" + "0" * 292),
])
def test_render_dumps_coordinates_beyond_28_digits(tmp_path, width, digits):
    source = _write_doc(tmp_path, {"bluefish": 1, "root": {
        "kind": "rect", "props": {"width": width, "height": 1}}})
    assert main(["render", str(source), "--dump"]) == 0
    assert f'width="{digits}"' in source.with_suffix(".svg").read_text()
    dump = json.loads(source.with_suffix(".scene.json").read_text())
    # the dump's integer is the SVG's spelling, not the float's binary value
    assert dump["geometry"][0]["width"] == int(digits)
    assert float(dump["geometry"][0]["width"]) == width


def test_missing_input_is_an_io_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_an_unwritable_output_is_an_io_error(tmp_path, capsys):
    source = _write_doc(tmp_path)
    out = tmp_path / "absent" / "d.svg"
    assert main(["render", str(source), "--out", str(out)]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err
    assert not out.parent.exists()
    # a dump that cannot be written is the file named, after the SVG is written
    dump = source.with_suffix(".scene.json")
    dump.mkdir()
    assert main(["render", str(source), "--dump"]) == 2
    assert capsys.readouterr().err.startswith(f"cannot write {dump}: ")
    assert source.with_suffix(".svg").read_bytes().startswith(b"<svg ")


def test_warnings_do_not_fail_the_run(tmp_path, capsys):
    doc = {"bluefish": 1, "root": {
        "kind": "group",
        "children": [
            {"kind": "rect", "name": "a", "props": {"width": 10, "height": 10}},
            {"kind": "rect", "name": "b", "props": {"width": 20, "height": 20}},
            {"kind": "align", "props": {"alignment": "center"},
             "children": [{"kind": "ref", "select": "a"}, {"kind": "ref", "select": "b"}]},
            {"kind": "line",
             "children": [{"kind": "ref", "select": "a"}, {"kind": "ref", "select": "b"}]},
        ],
    }}
    source = _write_doc(tmp_path, doc)
    assert main(["render", str(source)]) == 0
    assert "warning[BF008]" in capsys.readouterr().err
    assert source.with_suffix(".svg").exists()


def test_generators_hit_their_node_budgets():
    scene, _ = compile_source(generate_nested_stacks(1000))
    assert len(scene.nodes) == 1 + 17 * round(999 / 17)


# --- color gating ----------------------------------------------------------------


class _FakeTty(io.StringIO):
    def isatty(self) -> bool:
        return True


def test_color_respects_the_environment(monkeypatch):
    monkeypatch.delenv("BLUEFISH_NO_COLOR", raising=False)
    assert _use_color(_FakeTty()) is True
    monkeypatch.setenv("BLUEFISH_NO_COLOR", "1")
    assert _use_color(_FakeTty()) is False


def test_a_terminal_sees_colored_severities(monkeypatch):
    _, diagnostics = compile_source(b'{"bluefish": 1, "root": {"kind": "rect", "props": {"width": 1}}}')
    (diagnostic,) = diagnostics
    plain = diagnostic.render()
    assert plain.startswith("error[BF007]")
    monkeypatch.delenv("BLUEFISH_NO_COLOR", raising=False)
    tty = _FakeTty()
    _report(diagnostics, tty)
    assert tty.getvalue() == "\x1b[31merror[BF007]\x1b[0m" + plain[len("error[BF007]"):] + "\n"
    monkeypatch.setenv("BLUEFISH_NO_COLOR", "1")
    tty = _FakeTty()
    _report(diagnostics, tty)
    assert tty.getvalue() == plain + "\n"


@pytest.mark.parametrize("root, spelled", [
    pytest.param({"kind": "rect", "name": "a\u001b[2Jb\nfake", "props": {"width": 3}},
                 r"  at rect:a\x1b[2Jb\x0afake", id="name"),
    pytest.param({"kind": "x\u001b[31m\nerror[BF000]: forged"},
                 r"  at x\x1b[31m\x0aerror[BF000]: forged", id="kind"),
    pytest.param({"kind": "group", "children": [
        {"kind": "rect", "name": "\u0085\u009b2J\u007f\t", "props": {"height": 3}}]},
                 r"  at group/rect[0]:\x85\x9b2J\x7f\x09", id="c1-del-tab"),
])
def test_rendered_diagnostics_carry_no_control_characters(tmp_path, capsys, root, spelled):
    # kinds and names reach walk paths raw; only the rendered text spells them
    _, diagnostics = compile_source(json.dumps({"bluefish": 1, "root": root}))
    (diagnostic,) = diagnostics
    header, *at_lines = diagnostic.render().split("\n")
    assert header.startswith("error[BF007]: ") and at_lines == [spelled]
    assert not any(ord(c) < 0x20 or 0x7f <= ord(c) <= 0x9f for c in header + "".join(at_lines))
    assert main(["check", str(_write_doc(tmp_path, {"bluefish": 1, "root": root}))]) == 1
    assert "\x1b" not in capsys.readouterr().err
