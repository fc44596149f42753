"""End-to-end acceptance checks, one per shipped claim.

Each test prints a single pass/fail line on the real terminal so a full
run reads as a checklist. Randomized suites use fixed seeds; geometry
comparisons against the oracles in oracles.py are exact unless a
tolerance is part of the claim.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from contextlib import contextmanager

import pytest

from bluefish import compile_source, dump_scene, paint
from bluefish.cli import main

from conftest import FIXTURES, compile_doc, compile_fixture, errors_of, node_named
from generators import (
    random_ref_free_doc,
    random_stack_tree,
    random_stack_triplet,
    stack_tree_to_doc,
    time_nested_stacks,
)
from oracles import stack_layout, stack_marks, tree_walk, walk_marks

TOL = 1e-6


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def _criterion(number: int, claim: str):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"\ncriterion {number}: FAIL - {claim}")
            raise
        with capfd.disabled():
            print(f"\ncriterion {number}: PASS - {claim}")

    return _criterion


def _geometry_section(name: str) -> bytes:
    scene, diags = compile_fixture(name)
    assert errors_of(diags) == [], name
    dump = json.loads(dump_scene(scene))
    return json.dumps(dump["geometry"], sort_keys=True).encode("utf-8")


def _mark_boxes(scene):
    return [m.content_box() for m in scene.marks()]


def test_criterion_1_ref_stack_trace(criterion):
    with criterion(1, "stackV over refs places 10x20 at (-5,0) and 30x10 at (-15,50)"):
        started = time.perf_counter()
        scene, diags = compile_fixture("ref_stack")
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        assert errors_of(diags) == []
        a = node_named(scene, "a")
        b = node_named(scene, "b")
        assert a.content_box() == pytest.approx((-5.0, 0.0, 10.0, 20.0), abs=TOL)
        assert b.content_box() == pytest.approx((-15.0, 50.0, 30.0, 10.0), abs=TOL)
        (stack,) = [n for n in scene.nodes.values() if n.kind == "stackV"]
        assert (stack.tx, stack.ty) == pytest.approx((0.0, 0.0), abs=TOL)
        dump = json.loads(dump_scene(scene))
        placed = {n.get("name"): n for n in dump["nodes"] if n["kind"] == "rect"}
        assert (placed["a"]["x"], placed["a"]["y"]) == (-5, 0)
        assert (placed["b"]["x"], placed["b"]["y"]) == (-15, 50)
        assert elapsed_ms < 50.0


def test_criterion_2_equivalent_forms_agree(criterion):
    with criterion(2, "nested, denested, and align+distribute documents are equivalent"):
        nested = _geometry_section("equiv_nested")
        denested = _geometry_section("equiv_denested")
        split = _geometry_section("equiv_split")
        assert nested == denested == split

        rng = random.Random(58202414)
        for _ in range(200):
            docs = random_stack_triplet(rng)
            boxes = []
            for doc in docs:
                scene, diags = compile_doc(doc)
                assert errors_of(diags) == []
                boxes.append(_mark_boxes(scene))
            assert len(boxes[0]) == len(boxes[1]) == len(boxes[2])
            for form in boxes[1:]:
                for got, want in zip(form, boxes[0]):
                    assert got == pytest.approx(want, abs=TOL)


def test_criterion_3_pure_stacks_match_the_cursor_walk(criterion):
    with criterion(3, "500 random pure-stack documents match the cursor-walk oracle exactly"):
        rng = random.Random(91046001)
        for _ in range(500):
            tree = random_stack_tree(rng)
            oracle = stack_layout(tree)
            scene, diags = compile_doc(stack_tree_to_doc(tree))
            assert errors_of(diags) == []
            assert _mark_boxes(scene) == stack_marks(oracle)
            root = scene.nodes[scene.root]
            assert (root.width, root.height) == (oracle.width, oracle.height)


def test_criterion_4_conflicting_aligns_name_both_owners(criterion, tmp_path):
    with criterion(4, "a rect aligned by two relations yields one conflict naming both"):
        scene, diags = compile_fixture("conflict_two_aligns")
        assert scene is None
        (error,) = errors_of(diags)
        assert error.code == "BF001"
        assert "group/align[2]" in error.message
        assert "group/align[3]" in error.message
        assert set(error.node_paths) == {"group/align[2]", "group/align[3]"}

        source = tmp_path / "conflict.json"
        shutil.copy(FIXTURES / "conflict_two_aligns.json", source)
        assert main(["render", str(source)]) == 1
        assert not source.with_suffix(".svg").exists()


def test_criterion_5_planets_scene(criterion):
    with criterion(5, "planet circles sit on one line, 50 apart, labeled from above"):
        scene, diags = compile_fixture("planets")
        assert errors_of(diags) == []
        assert paint(scene).startswith(b"<svg ")

        circles = [m.content_box() for m in scene.marks() if m.kind == "circle"]
        assert len(circles) == 4
        center_ys = {round(y + h / 2.0, 9) for _, y, _, h in circles}
        assert len(center_ys) == 1  # horizontally collinear centers
        for (x1, _, w1, _), (x2, _, _, _) in zip(circles, circles[1:]):
            assert x2 - (x1 + w1) == pytest.approx(50.0, abs=TOL)

        (text,) = [m for m in scene.marks() if m.kind == "text"]
        tx, ty, tw, th = text.content_box()
        mx, my, mw, mh = node_named(scene, "mercury").content_box()
        assert tx + tw / 2.0 == pytest.approx(mx + mw / 2.0, abs=TOL)
        assert my - (ty + th) == pytest.approx(30.0, abs=TOL)

        label_bg = [n for n in scene.nodes.values() if n.kind == "background"][1]
        bx, by, bw, bh = label_bg.content_box()
        for ex, ey, ew, eh in ((tx, ty, tw, th), (mx, my, mw, mh)):
            assert bx <= ex + TOL and ey >= by - TOL
            assert ex + ew <= bx + bw + TOL and ey + eh <= by + bh + TOL


def test_criterion_6_ref_free_documents_match_a_tree_walk(criterion):
    with criterion(6, "500 random ref-free documents match the tree-walk oracle exactly"):
        rng = random.Random(73110688)
        for _ in range(500):
            doc = random_ref_free_doc(rng)
            scene, diags = compile_doc(doc)
            assert errors_of(diags) == [], doc
            walked = tree_walk(doc["root"])
            got = [(m.kind, *m.content_box()) for m in scene.marks()]
            assert got == walk_marks(walked)
            root = scene.nodes[scene.root]
            assert (root.width, root.height) == (walked.x[1], walked.y[1])


def test_criterion_7_layout_time_stays_linear(criterion):
    with criterion(7, "nested-stacks timing grows linearly from 1k to 8k nodes"):
        rows = time_nested_stacks([1000, 2000, 4000, 8000], reps=3)
        times = [ms for _, ms in rows]
        assert all(ms < 2000.0 for ms in times)
        assert times[3] / times[0] <= 12.0


def test_criterion_8_rendering_is_deterministic(criterion, tmp_path, capfd):
    with criterion(8, "rendering the fixture corpus twice is byte-identical"):
        fixtures = sorted(FIXTURES.glob("*.json"))
        assert fixtures
        for fixture in fixtures:
            runs = []
            for attempt in ("first", "second"):
                out = tmp_path / attempt / fixture.stem
                out.mkdir(parents=True)
                code = main(["render", str(fixture),
                             "--out", str(out / "diagram.svg"), "--dump"])
                stderr = capfd.readouterr().err
                if code != 0:
                    assert code == 1, fixture.name
                    runs.append(("diagnostics", stderr))
                    continue
                runs.append((
                    (out / "diagram.svg").read_bytes(),
                    (out / "diagram.scene.json").read_bytes(),
                ))
            assert runs[0] == runs[1], fixture.name
