"""Command line behavior, driven through main(argv)."""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

from bluefish import compile_source
from bluefish.cli import (
    _use_color,
    generate_insertion_sort_like,
    generate_nested_stacks,
    main,
    run_bench,
)

from conftest import FIXTURES, stack_chain

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


# --- bench ---------------------------------------------------------------------


def test_bench_prints_a_table(tmp_path, capsys):
    assert main(["bench", "nested-stacks", "--sizes", "103", "--reps", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{'nodes':>8}  {'ms':>10}"
    assert re.fullmatch(r"\s+103\s+\d+\.\d\d", out[1])


@pytest.mark.parametrize("argv", [
    ["bench", "nested-stacks", "--sizes", "0"],
    ["bench", "nested-stacks", "--sizes", "10,x"],
    ["bench", "nested-stacks", "--sizes", ""],
    ["bench", "nested-stacks", "--sizes", "10", "--reps", "0"],
])
def test_bench_rejects_bad_arguments(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err != ""


def test_unknown_generator_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "unknown", "--sizes", "10"])
    assert excinfo.value.code == 2


def test_generators_hit_their_node_budgets():
    scene, _ = compile_source(generate_nested_stacks(1000))
    assert len(scene.order) == 1 + 17 * round(999 / 17)
    scene, _ = compile_source(generate_insertion_sort_like(50))
    # 4 steps of 11 nodes, 3 arrows of 3, plus the group and root stack
    assert len(scene.order) == 55


def test_run_bench_reports_node_counts_with_timings():
    rows = run_bench("insertion-sort-like", [50], reps=1)
    assert [count for count, _ in rows] == [55]
    assert all(ms > 0 for _, ms in rows)


# --- color gating ----------------------------------------------------------------


class _FakeTty:
    def isatty(self) -> bool:
        return True


def test_color_respects_the_environment(monkeypatch):
    monkeypatch.delenv("BLUEFISH_NO_COLOR", raising=False)
    assert _use_color(_FakeTty()) is True
    monkeypatch.setenv("BLUEFISH_NO_COLOR", "1")
    assert _use_color(_FakeTty()) is False
