"""Paired timing of two compilers on the same documents.

Usage, from the root of a checkout:

    python3 tests/ab_time.py PARENT_SRC CHANGE_SRC [--workload NAME] [--seconds S]

Each ``*_SRC`` is the ``src`` directory of a checkout. Each compiler runs
in its own subprocess; this process reads the documents from its own
checkout's ``perfbench/workloads.py`` at seed 7 and hands each to both.
Per document, one side compiles, paints and (where the workload dumps)
dumps it, then the other side does; the side that goes first alternates
from one document to the next. Each subprocess runs ``gc.collect()``
before each of the three timings, so no stage pays for garbage another
left. Both subprocesses are replaced by fresh ones every 5 s, because
one process of a pair can run a little faster than the other for its
whole life, and the same code in two processes would then read as a
change.

It prints one row per measure: the median of the time ratios (change
over parent) with a 95% interval, and the parent's median time. The
rows are ``compile``, over the documents that compile, and ``reject``,
over those with a planted error (what ``perfbench/run.py`` reports as
``compile_p50_ms`` and ``reject_p50_ms``); then ``paint`` and ``dump``;
and ``setup``, one pair per round: each fresh compiler takes the median
of 5 reps of ``import bluefish`` plus a warm-up request (compile, paint
and, where the workload dumps, dump), dropping every ``bluefish`` module
before each import, in one process whose standard library and ``re``
pattern cache stay warm, as ``perfbench/run.py``'s ``setup_s`` does; the
two sides start in alternating order from round to round.
The interval's bootstrap draws rounds and then ratios within them, so
it holds the spread between process pairs. A ratio above 1 means the
change is slower. Pairing each document cancels drift in the machine's
speed, which moves both sides of a pair alike, so the interval resolves
changes of about 1%, where a single benchmark run cannot tell 10%.

``--workload`` names one workload (default: each in turn) and
``--seconds`` the wall time per workload (default 60). The tool changes
nothing under ``perfbench/``, and a speed claim is still a benchmark
metric. It is not a test, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS.parent / "perfbench"))

SEED = 7
ROWS = ("compile", "reject", "paint", "dump", "setup")
WORKLOAD_NAMES = ("service-mix", "editor-session", "bulk-deep")
BOOTSTRAP = 1000
ROUND_SECONDS = 5.0
SETUP_REPS = 5


def serve(dumps: bool) -> None:
    """Time the setup of bluefish, then each document read from stdin.

    A document comes as its length in bytes on one line, then the bytes.
    The first is the warm-up document: the first line written is the
    median setup time in ms over ``SETUP_REPS`` reps, each a fresh import
    of bluefish and one warm-up request. The answer to each later
    document is one JSON line ``[compile_ms, paint_ms, dump_ms]``, paint
    and dump None where they did not run.
    """
    clock = time.perf_counter
    source, out = sys.stdin.buffer, sys.stdout
    warmup = source.read(int(source.readline()))
    setups = []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m == "bluefish" or m.startswith("bluefish.")]:
            del sys.modules[name]
        started = clock()
        # imported here, so that only a compiler subprocess imports bluefish
        import bluefish

        scene, _ = bluefish.compile_source(warmup)
        if scene is not None:
            bluefish.paint(scene)
            if dumps:
                bluefish.dump_scene(scene)
        setups.append((clock() - started) * 1000.0)
    out.write(json.dumps(statistics.median(setups)) + "\n")
    out.flush()
    while True:
        size = source.readline()
        if not size:
            return
        data = source.read(int(size))
        times = [None, None, None]
        gc.collect()
        started = clock()
        scene, _ = bluefish.compile_source(data)
        times[0] = (clock() - started) * 1000.0
        if scene is not None:
            gc.collect()
            started = clock()
            bluefish.paint(scene)
            times[1] = (clock() - started) * 1000.0
            if dumps:
                gc.collect()
                started = clock()
                bluefish.dump_scene(scene)
                times[2] = (clock() - started) * 1000.0
        out.write(json.dumps(times) + "\n")
        out.flush()


class _Compiler:
    """One tree's compiler subprocess, started fresh, and warmed up, by ``restart``.

    ``setup_ms`` is the fresh process's median import plus warm-up request.
    """

    def __init__(self, src: str, dumps: bool, warmup: bytes) -> None:
        # both sides hash alike, so neither gets the luckier dict layouts
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
            (str(Path(src).resolve()), str(TESTS))))
        self.command = [sys.executable, "-c", f"import ab_time; ab_time.serve({dumps!r})"]
        self.warmup = warmup
        self.proc: subprocess.Popen | None = None
        self.setup_ms = 0.0

    def restart(self) -> None:
        self.close()
        self.proc = subprocess.Popen(self.command, env=self.env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.setup_ms = json.loads(self.send(self.warmup))

    def time(self, data: bytes) -> list:
        return json.loads(self.send(data))

    def send(self, data: bytes) -> bytes:
        """Hand the compiler one document; returns the line it answers."""
        self.proc.stdin.write(b"%d\n%b" % (len(data), data))
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("a compiler exited")
        return line

    def close(self) -> None:
        if self.proc is not None:
            # leaving the block closes the pipes, which ends the compiler, and waits for it
            with self.proc:
                pass


def interval(rounds: list[list[float]]) -> tuple[float, float, float]:
    """The median of all ratios, and a 95% interval around it.

    The bootstrap draws rounds, then ratios within each drawn round, so
    the interval holds the spread between rounds' process pairs as well
    as between documents.
    """
    rng = random.Random(0)
    medians = []
    for _ in range(BOOTSTRAP):
        sample: list[float] = []
        for ratios in rng.choices(rounds, k=len(rounds)):
            sample += rng.choices(ratios, k=len(ratios))
        medians.append(statistics.median(sample))
    medians.sort()
    return (statistics.median([r for ratios in rounds for r in ratios]),
            medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1])


def compare(parent_src: str, change_src: str, workload: str, seconds: float) -> None:
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    warmup = spec.warmup(SEED).data
    parent, change = (_Compiler(src, spec.dumps, warmup) for src in (parent_src, change_src))
    ratios: dict[str, list[list[float]]] = {row: [] for row in ROWS}  # per round
    parent_ms: dict[str, list[float]] = {row: [] for row in ROWS}

    def pair(row: str, a: float | None, b: float | None) -> None:
        if a is not None and b is not None and a > 0.0:
            ratios[row][-1].append(b / a)
            parent_ms[row].append(a)

    documents = 0
    try:
        started = time.perf_counter()
        rounds = 0
        for doc in spec.stream(SEED):
            now = time.perf_counter() - started
            if now >= seconds:
                break
            if now >= rounds * ROUND_SECONDS:
                # a fresh pair of processes per round, so that neither side
                # keeps a process that happens to run faster
                for compiler in (parent, change) if rounds % 2 == 0 else (change, parent):
                    compiler.restart()
                rounds += 1
                for row in ROWS:
                    ratios[row].append([])
                pair("setup", parent.setup_ms, change.setup_ms)
            if documents % 2:
                new = change.time(doc.data)
                old = parent.time(doc.data)
            else:
                old = parent.time(doc.data)
                new = change.time(doc.data)
            documents += 1
            compiled = "compile" if doc.planted is None else "reject"
            for row, a, b in zip((compiled, "paint", "dump"), old, new):
                pair(row, a, b)
    finally:
        parent.close()
        change.close()
    print(f"{workload}: {documents} documents in {seconds:g} s, {rounds} rounds of fresh processes")
    for row in ROWS:
        runs = [r for r in ratios[row] if r]
        if not runs:
            print(f"  {row:<8} not run on this workload")
            continue
        median, lo, hi = interval(runs)
        print(f"  {row:<8} {median:.3f} [{lo:.3f}, {hi:.3f}] over {len(parent_ms[row])} pairs, "
              f"parent median {statistics.median(parent_ms[row]):.3f} ms")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args(argv)
    for workload in (args.workload,) if args.workload else WORKLOAD_NAMES:
        compare(args.parent_src, args.change_src, workload, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
