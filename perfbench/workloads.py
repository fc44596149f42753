"""The three benchmark workloads, each an endless seeded stream of documents.

* ``service-mix``: independent documents of 20-600 nodes drawn
  log-uniformly, with every mark and relation kind, bare and path
  selectors, nested backgrounds and connectors. One in ten carries one
  planted error. Small documents make the fixed per-document costs
  (registry builds, parse, dump) count.
* ``editor-session``: one document of about 1,000 nodes, heavy with refs,
  changed by a seeded chain of single edits. Consecutive versions share
  more than 99% of their elements, so only this workload can show
  incremental or memoised compilation. Versions are painted, not dumped.
* ``bulk-deep``: documents of 1,500-2,000 nodes mixing broad stacks with
  two chains 245 relations deep, joined by arrows across the chains. One
  in three carries a planted static error (not BF001). Per-node costs
  and O(depth) ancestry walks dominate; the fixed per-document cost is
  negligible.

The program under test sees only the encoded bytes of each document.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

import docgen
from docgen import Builder

MAX_CHAIN_LEVELS = 245  # element depth stays at or below 250; see NOTES.md
CONFLICT_EVERY = 5  # editor-session plants a conflict every this many edits


@dataclass
class Doc:
    """One request: the bytes sent, and what the benchmark knows about them."""

    data: bytes
    twin: dict | None  # ref-free equivalent of the root, None for planted documents
    ref_free: bool
    planted: str | None  # the one error code the document must yield
    nodes: int  # scenegraph nodes, counted independently of the compiler
    depth: int
    unchanged: float | None  # share of elements identical to the previous document's


def make_doc(root: dict, planted: str | None = None, unchanged: float | None = None) -> Doc:
    _, nodes, depth, refs = docgen.shape(root)
    return Doc(
        data=docgen.encode(root),
        twin=None if planted else docgen.nested_twin(root),
        ref_free=not refs,
        planted=planted,
        nodes=nodes,
        depth=depth,
        unchanged=unchanged)


def stream(roots: Iterator[tuple[dict, str | None]]) -> Iterator[Doc]:
    """Documents of one workload, each with its share of the previous one's elements."""
    previous = None
    for root, planted in roots:
        current = docgen.signatures(root)
        yield make_doc(root, planted, docgen.unchanged_share(previous, current))
        previous = current


@dataclass(frozen=True)
class Workload:
    name: str
    dumps: bool
    warmup: Callable[[int], Doc]
    stream: Callable[[int], Iterator[Doc]]


# --- service-mix -----------------------------------------------------------------------------


def service_doc(rng: random.Random, target: int, ref_free: bool, b: Builder | None = None) -> dict:
    """An independent document of about ``target`` nodes rooted at a group."""
    b = b or Builder(rng, refs=not ref_free)
    children: list[dict] = []
    used = 1
    while used < target:
        child = b.element(min(target - used, rng.randint(8, 80)), depth=5)
        children.append(child)
        used += docgen.count_nodes(child)
    if not ref_free and len(b.targets) >= 2:
        children += b.connectors(max(1, target // 60))
    return {"kind": "group", "children": children}


def _planted_every(rng: random.Random, every: int, lo: int, hi: int, codes, make):
    """Documents from ``make(size, builder)``; every ``every``-th carries a planted error.

    Planted documents take their sizes from a sequence of their own and
    their codes from a seeded cycle, so each run has the same share of
    every code and each code meets the whole size range.
    """
    sizes = docgen.quasi_sizes(rng, lo, hi)
    planted_sizes = docgen.quasi_sizes(rng, lo, hi)
    cycle = list(codes)
    rng.shuffle(cycle)
    i = 0
    while True:
        if i % every == every - 1:
            b = Builder(rng)
            code = cycle[(i // every) % len(cycle)]
            yield docgen.plant_error(make(next(planted_sizes), b), code, b), code
        else:
            yield make(next(sizes), None), None
        i += 1


def _service_roots(seed: int):
    rng = random.Random(f"service-mix/{seed}")

    def make(size: int, b: Builder | None) -> dict:
        ref_free = b is None and rng.random() < 0.3
        return service_doc(rng, size, ref_free, b or Builder(rng, refs=not ref_free))

    return _planted_every(rng, 10, 20, 600, docgen.PLANTED_CODES, make)


def _service_warmup(seed: int) -> Doc:
    rng = random.Random(f"service-mix/warmup/{seed}")
    return make_doc(service_doc(rng, 200, ref_free=False))


# --- editor-session ---------------------------------------------------------------------------


class EditorSession:
    """A document under a seeded chain of single edits.

    Edits: change a mark's prop, rename an element (and every ref to
    it), insert or delete a leaf, add or remove an arrow. Every
    CONFLICT_EVERY edits one appends an align that contradicts a stack
    (BF001); the next edit or the one after removes it again, and every
    version in between is rejected. Short, regular conflicts spread the
    rejected versions evenly over a run.
    """

    def __init__(self, rng: random.Random, target: int = 1000):
        self.rng = rng
        self.b = Builder(rng)
        self.root = service_doc(rng, target, ref_free=False, b=self.b)
        self.conflict: dict | None = None
        self.edits = 0
        self.repair_at = 0

    def versions(self):
        yield self.root, None
        while True:
            self.edit()
            yield self.root, ("BF001" if self.conflict is not None else None)

    # --- helpers ------------------------------------------------------------------------------

    def _elements(self) -> list[tuple[dict, dict | None]]:
        out = []
        stack: list[tuple[dict, dict | None]] = [(self.root, None)]
        while stack:
            el, parent = stack.pop()
            out.append((el, parent))
            stack.extend((c, el) for c in el.get("children", ()))
        return out

    def _targets(self, pairs) -> list[list[str]]:
        out = []
        for el, parent in pairs:
            name = el.get("name")
            if name is None or el["kind"] not in docgen.FULL_BOX_KINDS:
                continue
            if name.startswith("c"):
                out.append([parent["name"], name])
            else:
                out.append([name])
        return out

    def _connectors(self) -> list[dict]:
        return [c for c in self.root["children"]
                if c is not self.conflict and docgen.is_ref_connector(c)]

    # --- edits ----------------------------------------------------------------------------------

    def edit(self) -> str:
        rng = self.rng
        self.edits += 1
        if self.conflict is not None and self.edits >= self.repair_at:
            self.root["children"].remove(self.conflict)
            self.conflict = None
            return "repair"
        if self.edits % CONFLICT_EVERY == 0 and self._plant_conflict():
            self.repair_at = self.edits + rng.randint(1, 2)
            return "conflict"
        op = rng.choice(("prop", "prop", "rename", "insert", "delete", "arrow+", "arrow-"))
        done = getattr(self, "_" + op.replace("+", "_add").replace("-", "_remove"))()
        if not done:
            self._prop()
            return "prop"
        return op

    def _prop(self) -> bool:
        rng = self.rng
        marks = [el for el, _ in self._elements() if el["kind"] in docgen.MARK_KINDS]
        el = rng.choice(marks)
        fresh = self.b.mark(el["kind"])["props"]
        keys = {"rect": ("width", "height"), "circle": ("r",), "ellipse": ("rx", "ry"),
                "text": ("content", "fontSize"), "path": ("d",)}[el["kind"]]
        key = rng.choice(keys)
        el["props"][key] = fresh.get(key, 12.0)
        return True

    def _rename(self) -> bool:
        pairs = self._elements()
        named = [(el, parent) for el, parent in pairs
                 if "name" in el and parent is not None and parent is not self.conflict]
        if not named:
            return False
        el, parent = self.rng.choice(named)
        old = el["name"]
        new = self.b.fresh(old[0])
        el["name"] = new
        local = old.startswith("c")
        for ref, _ in pairs:
            if ref["kind"] != "ref":
                continue
            path = [ref["select"]] if isinstance(ref["select"], str) else list(ref["select"])
            if local:
                hit = len(path) == 2 and path == [parent["name"], old]
            else:
                hit = old in path
            if hit:
                ref["select"] = docgen.selector_json([new if s == old else s for s in path])
        return True

    def _insert(self) -> bool:
        rng = self.rng
        pairs = self._elements()
        containers = [el for el, _ in pairs
                      if el["kind"] in docgen.CONTAINER_KINDS and not docgen.is_ref_connector(el)]
        el = rng.choice(containers)
        mark = self.b.mark()
        if docgen.is_block(el):
            kids = el["children"]
            index = rng.randint(0, len(kids) - 1)
            if "name" not in mark:
                mark["name"] = self.b.fresh("c")
            selector = [el["name"], mark["name"]]
            kids.insert(index, mark)
            kids[-1]["children"].insert(index, {"kind": "ref", "select": selector})
            return True
        el["children"].insert(rng.randint(0, len(el["children"])), mark)
        return True

    def _delete(self) -> bool:
        candidates = []
        for el, parent in self._elements():
            if (parent is None or el["kind"] not in docgen.MARK_KINDS or "name" in el
                    or parent["kind"] not in docgen.CONTAINER_KINDS or docgen.is_block(parent)):
                continue
            low = 2 if parent["kind"] == "distribute" else 1
            if len(parent["children"]) > low:
                candidates.append((el, parent))
        if not candidates:
            return False
        el, parent = self.rng.choice(candidates)
        parent["children"].remove(el)
        return True

    def _arrow_add(self) -> bool:
        targets = self._targets(self._elements())
        if len(targets) < 2:
            return False
        (arrow,) = self.b.connectors(1, pool=targets)
        kids = self.root["children"]
        kids.insert(len(kids) - (1 if self.conflict is not None else 0), arrow)
        return True

    def _arrow_remove(self) -> bool:
        connectors = self._connectors()
        if not connectors:
            return False
        self.root["children"].remove(self.rng.choice(connectors))
        return True

    def _plant_conflict(self) -> bool:
        blocks = [el for el, _ in self._elements() if docgen.is_block(el)
                  and el["children"][-1]["kind"] in ("stackV", "stackH")
                  and all(c["kind"] in docgen.FULL_BOX_KINDS for c in el["children"][:2])]
        if not blocks:
            return False
        block = self.rng.choice(blocks)
        relation = block["children"][-1]
        alignment = "top" if relation["kind"] == "stackV" else "left"
        self.conflict = {"kind": "align", "props": {"alignment": alignment},
                         "children": [dict(r) for r in relation["children"][:2]]}
        self.root["children"].append(self.conflict)
        return True


def _editor_roots(seed: int):
    session = EditorSession(random.Random(f"editor-session/{seed}"))
    versions = session.versions()
    next(versions)  # the opening version is the warm-up document
    return versions


def _editor_warmup(seed: int) -> Doc:
    return make_doc(EditorSession(random.Random(f"editor-session/{seed}")).root)


# --- bulk-deep -----------------------------------------------------------------------------------


def bulk_doc(rng: random.Random, target: int, b: Builder | None = None,
             levels: int = MAX_CHAIN_LEVELS) -> dict:
    """Two deep chains and broad stacks, joined by arrows across the chains.

    The chains are ``levels`` deep in every document and the broad rows
    take the rest of ``target``, so per-node cost does not swing from seed
    to seed with how deep a document happened to be.
    """
    b = b or Builder(rng)
    chains = []
    chain_targets = []
    for _ in range(2):
        start = len(b.targets)
        chains.append(docgen.chain(b, levels))
        chain_targets.append(b.targets[start:] or [[chains[-1].setdefault("name", b.fresh("u"))]])
    used = 1 + sum(docgen.count_nodes(c) for c in chains)
    arrows = b.connectors(max(2, used // 40), across=chain_targets)
    used += 3 * len(arrows)
    rows = []
    while used < target:
        row = {"kind": "stackH", "props": {"spacing": 4, "alignment": "top"}, "children": []}
        used += 1
        for _ in range(rng.randint(4, 12)):
            if used >= target:
                break
            child = b.element(rng.randint(3, 40), depth=3)
            row["children"].append(child)
            used += docgen.count_nodes(child)
        if not row["children"]:
            break
        rows.append(row)
    body = [{"kind": "stackV", "props": {"spacing": 8, "alignment": "left"}, "children": rows}] if rows else []
    return {"kind": "group", "children": [*body, *chains, *arrows]}


def _bulk_roots(seed: int):
    rng = random.Random(f"bulk-deep/{seed}")
    # static errors only, so a rejection measures the document passes
    # (parse, validate, resolve_names) on a deep tree
    codes = [c for c in docgen.PLANTED_CODES if c != "BF001"]
    return _planted_every(rng, 3, 1500, 2000, codes, lambda size, b: bulk_doc(rng, size, b))


def _bulk_warmup(seed: int) -> Doc:
    return make_doc(bulk_doc(random.Random(f"bulk-deep/warmup/{seed}"), 800, levels=60))


WORKLOADS = {
    w.name: w for w in (
        Workload("service-mix", True, _service_warmup, lambda s: stream(_service_roots(s))),
        Workload("editor-session", False, _editor_warmup, lambda s: stream(_editor_roots(s))),
        Workload("bulk-deep", True, _bulk_warmup, lambda s: stream(_bulk_roots(s))),
    )
}
