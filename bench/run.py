"""Benchmark of tropinf as a library user runs it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  One operation is one user session on one
program: parse the source, analyze it at target 1, serialize the report,
solve i1 at the workload's rational probability points and, for every selected
monomial, solve i2 and test each point against the region.  The session is
timed as a whole; its outputs are then checked against `refeval`, the
benchmark's own call-by-name evaluator.  One client sends the next operation
when the previous one has ended (a closed loop), in one process, for
`--seconds` seconds.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a traced
pass (see spans.py) over the operations of an untraced pass, and informational
rows for every corpus program are printed before it.  Every other line starts
with "#".  `--workload all` runs each workload in its own interpreter and
prints their lines in turn.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import refeval
import spans

TARGET = 1
FIX_FUEL = 14  # choices per run the reference explores in programs with fix
POINTS = 3  # probability points per program: all one half, then seeded ones
SETUP_REPEATS = 15
CORPUS_DEADLINE = 3.0  # wall seconds per informational corpus row
CALIBRATION_NOMINAL_S = 0.004  # see Speedometer
CALIBRATION_EVERY_S = 0.1

# Kinds of failure.  ATOM_BOUND is the signature of the atom-bound defect: the
# polynomial misses runs whose numerals pass the refinement bound, so it is
# zero although a run reaches the target, or i1 finds less than the best run.
ATOM_BOUND = "atom-bound"
TIMEOUT = "timeout"
# Anything else: an exception, or an output that is wrong or cannot be checked.
WRONG = "wrong"
KNOWN_DEFECT_CEILING = 0.02

# Why each workload is there is recorded in BENCHMARK.json.  `deadline` bounds
# one operation, in wall seconds; passing it fails the operation.  A failure
# of a kind in `tolerated` leaves the result correct; any other makes it
# incorrect.  On the commit that introduced the benchmark, some batch programs
# show the atom-bound defect and every frontier operation times out.
#
# An operation whose only problems are tolerated ATOM_BOUND ones is a known
# defect: it is printed with its program and counted in `known`, and in the
# traced run's check.atom_bound_ratio, but not in the result's `failed`.  How
# many such programs a timed run draws depends on how many operations fit in
# it, so counting them in `failed` would make two runs of the same code
# disagree; a later fix of the defect shows as the ratio dropping to 0.  About
# 0.5% of batch programs show it; a share above KNOWN_DEFECT_CEILING means some
# other fault takes its signature, and makes the result incorrect.
WORKLOADS = {
    "sampler": {"corpus": "m2", "deadline": 30.0, "tolerated": set()},
    "towers": {"corpus": "m4_3", "deadline": 15.0, "tolerated": set()},
    "batch": {"corpus": None, "deadline": 10.0, "tolerated": {ATOM_BOUND}},
    "frontier": {"corpus": "m4_4", "deadline": 3.0, "tolerated": {TIMEOUT}},
}

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.p90", "s"),
    ("programs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

SETUP_CHILD = """\
import sys, time
sys.path.insert(0, "src")
import tropinf, tropinf.cli
for path in sys.argv[1:]:
    open(path, encoding="utf-8").read()
print(time.monotonic())
"""


class Deadline(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


@dataclass
class Case:
    label: str  # corpus path or program text, for failure messages
    source: str
    term: tuple
    k: int
    points: list  # of lists of Fraction, one per parameter
    ref: refeval.Reference


class Tropinf:
    """The modules of the tropinf under test, imported from ./src."""

    def __init__(self, root: Path):
        src = root / "src"
        sys.path.insert(0, str(src))
        import tropinf
        from tropinf import algebra, geometry, infer, lang, typesys

        if not Path(tropinf.__file__).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"tropinf was imported from {tropinf.__file__}, not {src}")
        self.modules = {"lang": lang, "typesys": typesys, "geometry": geometry,
                        "infer": infer}
        self.lang, self.infer = lang, infer
        self.ProbAssignment = algebra.ProbAssignment


class Speedometer:
    """The current speed of the machine, from a fixed kernel timed between
    operations.

    On a shared machine a process runs at one speed for a few seconds and then
    at another, up to 1.7 times slower, as other tenants come and go.  Run
    medians then depend on how the run fell into those phases.  The kernel
    does the kind of work tropinf does (exact fractions, tuples, dicts,
    sorting) and slows down with it: timed around every operation, it cut the
    quartile spread of `towers` operation times within a minute from 0.28 to
    0.08 of the median.  An operation's time is reported multiplied by
    CALIBRATION_NOMINAL_S over the mean kernel time just before and after
    it, that is in seconds of a machine on which the kernel takes its nominal
    time.  Deadlines are wall times: an operation that passes one counts as
    lasting the deadline plus the calibrated time it took to stop.
    """

    def __init__(self):
        self.samples = []
        self.sample()

    def sample(self):
        """Time the kernel; the faster of two runs, to skip interruptions."""
        runs = []
        for _ in range(2):
            start = time.perf_counter()
            table = {}
            for j in range(4):
                q = Fraction(1)
                for i in range(1, 120):
                    q = q * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i + j)
                    table[(i, j, i % 13)] = q
                sorted(table, key=lambda key: (key[2], key[0]))
            runs.append(time.perf_counter() - start)
        self.last = time.perf_counter()
        self.samples.append(min(runs))

    def mark(self) -> int:
        """Sample if the latest sample is older than CALIBRATION_EVERY_S;
        the index of the latest sample."""
        if time.perf_counter() - self.last >= CALIBRATION_EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def factor(self, mark: int) -> float:
        """Wall to calibrated seconds for work between sample `mark` and the
        next one."""
        around = self.samples[mark:mark + 2]
        return CALIBRATION_NOMINAL_S * len(around) / sum(around)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Harness:
    """Time the benchmark spends on its own inputs and checks."""

    generate_s: float = 0.0
    reference_s: float = 0.0
    check_s: float = 0.0


def _points(rng, k):
    out = [[Fraction(1, 2)] * k]
    for _ in range(POINTS - 1):
        out.append([Fraction(rng.randint(1, 9), 10) for _ in range(k)])
    return out


def _make_case(label, source, term, k, rng, harness) -> Case:
    points = _points(rng, k)
    start = time.perf_counter()
    ref = refeval.Reference(term, k, TARGET, points, FIX_FUEL)
    harness.reference_s += time.perf_counter() - start
    return Case(label, source, term, k, points, ref)


def cases(root: Path, workload: str, seed: int, harness: Harness):
    """The endless stream of operations of a workload for a seed."""
    rng = random.Random(f"{workload}/{seed}")
    corpus = WORKLOADS[workload]["corpus"]
    if corpus is not None:
        path = f"corpus/{corpus}.pcfx"
        source = (root / path).read_text(encoding="utf-8")
        term, k = refeval.parse(source)
        # One program; the seed picks its probability points.
        yield from itertools.repeat(_make_case(path, source, term, k, rng, harness))
        return
    gen = refeval.ProgramGenerator(seed)
    while True:
        start = time.perf_counter()
        term, k = gen.draw()
        source = refeval.program_source(term, k)
        harness.generate_s += time.perf_counter() - start
        yield _make_case(source, source, term, k, rng, harness)


# ---------------------------------------------------------------------------
# One operation and its checks
# ---------------------------------------------------------------------------


def operation(tp: Tropinf, case: Case, deadline: float):
    """Run one session; returns (wall seconds, outputs or None, error or None),
    an error being a (kind, message) pair."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            program = tp.lang.parse(case.source)
            report = tp.infer.analyze(program, TARGET, source=case.source)
            doc = tp.infer.report_to_json(report)
            best, inside = [], []
            if doc["selected"]:
                probs = [tp.ProbAssignment(ps) for ps in case.points]
                best = [tp.infer.solve_i1(report, p) for p in probs]
                for sel in doc["selected"]:
                    region = tp.infer.solve_i2(report, tuple(sel["monomial"]))
                    inside.append([tp.infer.i2_contains(region, p) for p in probs])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return time.perf_counter() - start, None, (TIMEOUT, f"timeout after {deadline:g} s")
    except Exception as exc:  # the operation failed; the run goes on
        return time.perf_counter() - start, None, (WRONG, f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, (doc, best, inside), None


def check(case: Case, doc: dict, best: list, inside: list) -> list:
    """What is wrong with one operation's outputs, by the reference: a list of
    (kind, message) pairs."""
    ref = case.ref
    problems = []
    if doc["stable"] is not True:
        problems.append((WRONG, "report is not stable"))
    selected = doc["selected"]
    if ref.reaches and not selected:
        problems.append((ATOM_BOUND, f"a run reaches {TARGET} but the polynomial is zero"))
    if ref.complete and not ref.reaches and selected:
        problems.append((WRONG, f"no run reaches {TARGET} but the polynomial is not zero"))
    for sel in selected:
        word = tuple((param, bit) for param, bit in sel["word"])
        try:
            value = refeval.replay(case.term, word)
        except refeval.OutOfFuel:
            problems.append((WRONG, f"word {sel['word_text']} did not end within the "
                                    "replay budget"))
            continue
        if value != TARGET or refeval.word_monomial(word, case.k) != tuple(sel["monomial"]):
            problems.append((WRONG, f"word {sel['word_text'] or '(empty)'} does not replay "
                                    f"to {TARGET} with weight {sel['monomial_text']}"))
    for i, result in enumerate(best):
        want = ref.best[i]
        found = f"best run {'' if ref.complete else 'within fuel '}{want}"
        if result.probability < want:
            problems.append((ATOM_BOUND, f"i1 at point {i}: probability "
                                         f"{result.probability}, {found}"))
        elif result.probability > want and ref.complete:
            problems.append((WRONG, f"i1 at point {i}: probability {result.probability}, "
                                    f"{found}"))
        winners = set(result.winners)
        for sel, flags in zip(selected, inside):
            if flags[i] != (tuple(sel["monomial"]) in winners):
                problems.append((WRONG, f"i2 region of {sel['monomial_text']} disagrees "
                                        f"with i1 at point {i}"))
    return problems


class Tally:
    """Outcomes of the operations of one pass; `times` are calibrated (see
    Speedometer) and `wall` are as measured."""

    def __init__(self, tolerated):
        self.tolerated = tolerated
        self.times = []
        self.wall = []
        self.failed = 0  # failures other than known defects
        self.known = 0  # known defects: tolerated atom-bound failures only
        self.wrong = 0  # failures of a kind the workload does not tolerate
        self.failures = {}  # (message, label, verdict) -> count

    def add(self, seconds, wall, problems, label):
        self.times.append(seconds)
        self.wall.append(wall)
        if problems:
            kinds = {kind for kind, _ in problems}
            if not kinds <= self.tolerated:
                verdict = "WRONG"
                self.wrong += 1
            elif kinds == {ATOM_BOUND}:
                verdict = "KNOWN DEFECT"
            else:
                verdict = "FAIL (tolerated)"
            if verdict == "KNOWN DEFECT":
                self.known += 1
            else:
                self.failed += 1
            key = ("; ".join(message for _, message in problems), label, verdict)
            self.failures[key] = self.failures.get(key, 0) + 1

    def ok(self) -> bool:
        """No failure the workload does not tolerate, and no more known
        defects than the defect itself explains."""
        return self.wrong == 0 and self.known <= KNOWN_DEFECT_CEILING * len(self.times)


def run_pass(tp, stream, workload, harness, speed, seconds=None, count=None,
             tracer=None, keep=False):
    """Run operations for `seconds` of wall time, or exactly `count` of them.

    Returns the tally and, with `keep`, the list of the cases run.
    """
    deadline = WORKLOADS[workload]["deadline"]
    tally = Tally(WORKLOADS[workload]["tolerated"])
    done = []
    marks = []  # (speed sample before the operation, wall seconds, problems, label)

    # The harness's own objects stay out of the collector's way.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    for case in stream:
        if count is not None and len(marks) >= count:
            break
        if count is None and marks and time.perf_counter() - start >= seconds:
            break
        mark = speed.mark()
        if tracer:
            tracer.begin_op()
        elapsed, outputs, error = operation(tp, case, deadline)
        if tracer:
            tracer.end_op()
        if error is None:
            t = time.perf_counter()
            problems = check(case, *outputs)
            harness.check_s += time.perf_counter() - t
        else:
            problems = [error]
        marks.append((mark, elapsed, problems, case.label))
        if keep:
            done.append(case)
    speed.sample()
    for mark, elapsed, problems, label in marks:
        if elapsed >= deadline:
            seconds = deadline + (elapsed - deadline) * speed.factor(mark)
        else:
            seconds = elapsed * speed.factor(mark)
        tally.add(seconds, elapsed, problems, label)
    return tally, done


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def measure_setup(root: Path, sources: list, speed: Speedometer) -> float:
    """Median calibrated time from starting an interpreter to having tropinf
    and its CLI imported and the workload's sources read."""
    samples = []
    for _ in range(SETUP_REPEATS):
        mark = speed.mark()
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, *sources], cwd=root,
                             capture_output=True, text=True, timeout=120, check=True)
        elapsed = float(out.stdout.split()[-1]) - start
        speed.sample()
        samples.append(elapsed * speed.factor(mark))
    return statistics.median(samples)


def quantile(times, q):
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def print_failures(workload, tally):
    for (message, label, verdict), n in sorted(tally.failures.items()):
        print(f"# {verdict} {workload} x{n}: {message}: {label}")


def print_metrics(values: dict, units: dict, absent=()):
    for name, value in values.items():
        shown = "absent" if name in absent else f"{value:.6g}"
        print(f"#   {name:<42} {shown:>14} {units[name]}")


def result_line(correct, attempted, failed, values, units):
    """The result object.  Every failed operation but the known defects counts
    in `failed`; `correct` is false when some failure is of a kind the
    workload does not tolerate."""
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def print_speed(speed: Speedometer, tally: Tally):
    print(f"# calibration kernel: median {statistics.median(speed.samples) * 1000:.3f} ms "
          f"over {len(speed.samples)} samples, nominal "
          f"{CALIBRATION_NOMINAL_S * 1000:g} ms; "
          f"wall verdict_s.p50 {statistics.median(tally.wall):.6g} s")


def run_plain(root, tp, workload, seed, seconds):
    harness = Harness()
    stream = cases(root, workload, seed, harness)
    speed = Speedometer()
    corpus = WORKLOADS[workload]["corpus"]
    setup_s = measure_setup(root, [f"corpus/{corpus}.pcfx"] if corpus else [], speed)
    tally, _ = run_pass(tp, stream, workload, harness, speed, seconds)
    times = tally.times
    units = dict(END_TO_END)
    values = {
        "setup_s": setup_s,
        "verdict_s.p50": statistics.median(times),
        "verdict_s.p90": quantile(times, 90),
        "programs_per_s": len(times) / sum(times),
        "peak_rss_mib": peak_rss_mib(),
    }
    fail_ratio = (tally.failed + tally.known) / len(times)
    print(f"# workload {workload}  seed {seed}  operations {len(times)}  "
          f"failed {tally.failed} (not tolerated {tally.wrong})  "
          f"known defects {tally.known}  fail_ratio {fail_ratio:.6g}")
    print_failures(workload, tally)
    print_speed(speed, tally)
    print_metrics({**values, "fail_ratio": fail_ratio}, {**units, "fail_ratio": "ratio"})
    print(f"# harness: generate {harness.generate_s:.3f} s  reference "
          f"{harness.reference_s:.3f} s  check {harness.check_s:.3f} s")
    return result_line(tally.ok(), len(times), tally.failed, values, units)


# Per-layer metrics the traced run adds to those of spans.METRICS.
TRACE_EXTRA = (
    ("trace.overhead_s", "s"),
    ("trace.count_mismatches", "count"),
    ("check.atom_bound_ratio", "ratio"),
    ("harness.generate_s", "s"),
    ("harness.reference_s", "s"),
    ("harness.check_s", "s"),
)


def traced_pass(tp, stream, workload, harness, speed, count):
    tracer = spans.Tracer()
    tracer.install(tp.modules)
    try:
        tally, _ = run_pass(tp, stream, workload, harness, speed, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, tally


def run_repeat(root, tp, workload, seed, count):
    """The counts of a traced pass over the first `count` operations, for
    run_traced to compare with its own."""
    harness = Harness()
    tracer, tally = traced_pass(tp, cases(root, workload, seed, harness), workload,
                                harness, Speedometer(), count)
    return json.dumps({"counts": tracer.count_totals(), "attempted": len(tally.times),
                       "failed": tally.failed, "ok": tally.ok()})


def repeat_in_child(workload, seed, count):
    """run_repeat in a fresh interpreter with another hash seed, so that counts
    depending on the order of sets or dicts keyed by strings show up."""
    env = dict(os.environ)
    ours = env.get("PYTHONHASHSEED", "random")
    env["PYTHONHASHSEED"] = "1" if ours == "0" else "0"
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--repeat-traced", str(count)]
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=150)
    if out.returncode != 0:
        raise SystemExit(f"the repeated traced pass failed:\n{out.stderr}")
    print(f"# repeated traced pass: PYTHONHASHSEED={env['PYTHONHASHSEED']} "
          f"(first pass: {ours})")
    return json.loads(out.stdout.splitlines()[-1])


def run_traced(root, tp, workload, seed, seconds):
    harness = Harness()
    stream = cases(root, workload, seed, harness)
    speed = Speedometer()
    # An untraced pass picks the operations; a traced pass repeats them here,
    # and another in a fresh interpreter.
    plain, ops = run_pass(tp, stream, workload, harness, speed, seconds / 4, keep=True)
    tracer, traced = traced_pass(tp, iter(ops), workload, harness, speed, len(ops))
    repeat = repeat_in_child(workload, seed, len(ops))
    # Span times are calibrated by the pass's overall factor.
    values, absent = tracer.report(sum(traced.times) / sum(traced.wall))
    first, second = tracer.count_totals(), repeat["counts"]
    mismatched = sorted(k for k in first.keys() | second.keys()
                        if first.get(k) != second.get(k))
    values["trace.overhead_s"] = (statistics.median(traced.times)
                                  - statistics.median(plain.times))
    values["trace.count_mismatches"] = len(mismatched)
    values["check.atom_bound_ratio"] = plain.known / len(plain.times)
    values["harness.generate_s"] = harness.generate_s
    values["harness.reference_s"] = harness.reference_s
    values["harness.check_s"] = harness.check_s
    units = {**dict(spans.METRICS), **dict(TRACE_EXTRA)}

    print(f"# workload {workload}  seed {seed}  traced operations {len(ops)} x2  "
          f"failed {traced.failed} (not tolerated {traced.wrong})  "
          f"known defects {traced.known}")
    print_failures(workload, traced)
    print_speed(speed, traced)
    rounds = sorted(set(tracer.last_rounds))
    print(f"# last completed round (index in the bound schedule): {rounds}")
    for key in mismatched:
        print(f"# COUNT DIFFERS between traced passes: {key} {first.get(key)} "
              f"vs {second.get(key)}")
    print_metrics(values, units, absent)
    corpus_rows(root, tp)
    tallies = (plain, traced)
    return result_line(repeat["ok"] and all(t.ok() for t in tallies),
                       repeat["attempted"] + sum(len(t.times) for t in tallies),
                       repeat["failed"] + sum(t.failed for t in tallies), values, units)


def corpus_rows(root, tp):
    """Informational: analyze every corpus program at targets 0 and 1."""
    print("# corpus rows (informational): program target seconds rounds stable monomials")
    for path in sorted((root / "corpus").glob("*.pcfx")):
        source = path.read_text(encoding="utf-8")
        for target in (0, 1):
            start = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, CORPUS_DEADLINE)
                try:
                    report = tp.infer.analyze(tp.lang.parse(source), target, source=source)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Deadline:
                print(f"#   {path.stem:<8} {target}  timeout (> {CORPUS_DEADLINE:g} s)")
                continue
            elapsed = time.perf_counter() - start
            rounds = " ".join(f"({n},{p})" for n, p in report.rounds)
            print(f"#   {path.stem:<8} {target}  {elapsed:.4f} s  {rounds}  "
                  f"stable={str(report.stable).lower()}  {len(report.poly.coeffs)}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own interpreter, one after the other."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, sys.argv[0], "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        status = status or out.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat-traced", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    root = Path.cwd()
    corpus = WORKLOADS[args.workload]["corpus"]
    needed = [root / "src" / "tropinf" / "__init__.py"]
    if corpus:
        needed.append(root / "corpus" / f"{corpus}.pcfx")
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    tp = Tropinf(root)
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.repeat_traced:
        line = run_repeat(root, tp, args.workload, args.seed, args.repeat_traced)
    else:
        runner = run_traced if args.trace else run_plain
        line = runner(root, tp, args.workload, args.seed, args.seconds)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
