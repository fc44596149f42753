"""Command line behavior, driven through main(argv)."""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

from bluefish import compile_source
from bluefish.cli import _use_color, main

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


class _FakeTty:
    def isatty(self) -> bool:
        return True


def test_color_respects_the_environment(monkeypatch):
    monkeypatch.delenv("BLUEFISH_NO_COLOR", raising=False)
    assert _use_color(_FakeTty()) is True
    monkeypatch.setenv("BLUEFISH_NO_COLOR", "1")
    assert _use_color(_FakeTty()) is False
