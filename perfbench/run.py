"""Layered benchmark of the hypermap-codes CLI.

    python3 perfbench/run.py --workload lattice|corpus|distance|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  One process runs one workload: a closed
loop with a single caller that calls ``hypermap_codes.cli.main(argv)``
in-process, one command after another, with stdout and stderr sent to
in-memory sinks.  A *pass* is the workload's command list in order.  After
a checked warm-up pass, passes repeat until the next one would end after
``--seconds``.  Every command's exit code and output are checked against
answers computed by ``workloads.py``; outputs must also be identical from
pass to pass and, where ``digests.json`` covers the command, byte-identical
to the recorded digest.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
of up to SETUP_REPS set-ups (a fresh interpreter importing the CLI plus
generating and writing the inputs), spread over the run between passes.
``pass_s`` is the median time of a pass, and ``cmd_p50_ms``/``cmd_p90_ms``
are percentiles over the pass's commands, each at its median time (see
:func:`end_to_end`).  All four are scaled by
the host's speed at the time, gauged with the fixed probe of ``speed.py``;
the unscaled values are printed too.  ``peak_rss_mib`` is this process's
``ru_maxrss``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py`` (medians over traced passes) plus
``trace.overhead_ratio``, the traced ``pass_s`` over the untraced one; the
spans of the first traced pass go to ``.bench_build/perfbench/``.
``--workload all`` runs each workload in its own process and prints every
table.  ``--record-digests`` rewrites ``digests.json`` from one pass of
each workload at the default seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_REPS = 15
SETUP_REPS_UPFRONT = 3  # the rest run between passes, so they sample the whole run
IMPORT_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 180


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


class Sink:
    """Collects what the CLI writes; hashed and checked after the command's timing ends."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def fresh_import() -> None:
    """Start a new interpreter that imports ``hypermap_codes.cli`` from ``src/``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import hypermap_codes.cli"
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=IMPORT_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"cannot import hypermap_codes.cli from {SRC}: {proc.stderr.strip()}")


@dataclass
class Setup:
    seconds: float
    slowdown: float  # the probe's mean around the set-up over speed.PROBE_NOMINAL_S
    commands: list[workloads.Command]


def setup_once(workload: str, seed: int, inputs: Path) -> Setup:
    """One set-up: a fresh import plus generating and writing the workload's inputs."""
    before = speed.probe()
    start = perf_counter()
    fresh_import()
    commands = workloads.WORKLOADS[workload](seed, inputs, ROOT)
    seconds = perf_counter() - start
    slowdown = (before + speed.probe()) / 2 / speed.PROBE_NOMINAL_S
    return Setup(seconds, slowdown, commands)


def load_cli():
    sys.path.insert(0, str(SRC))
    try:
        from hypermap_codes import cli
    except ImportError as exc:
        raise SetupError(f"cannot import hypermap_codes.cli from {SRC}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"hypermap_codes.cli was imported from {cli.__file__}, not {SRC}")
    return cli


class Checker:
    """Exit code, content checks on first sight, then pass-to-pass and recorded digests."""

    def __init__(self, workload: str, seed: int, recorded: dict | None = None):
        doc = {"seed": None, "workloads": {}}
        if recorded is None and DIGESTS.exists():
            doc = json.loads(DIGESTS.read_text(encoding="utf-8"))
        self.recorded: dict[str, str] = doc["workloads"].get(workload, {})
        self.recorded_seed = doc["seed"]
        self.seed = seed
        self.verdicts: dict[str, tuple[str, list[str]]] = {}  # label -> (sha256, problems)
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}  # label -> first problem report

    def digests(self) -> dict[str, str]:
        return {label: digest for label, (digest, _) in self.verdicts.items()}

    def check(self, cmd: workloads.Command, rc, out: str, err: str) -> int:
        """Record one command's outcome; returns its stdout size in bytes."""
        self.attempted += 1
        data = out.encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        if rc != 0:
            problems = [f"exit code {rc}: {err.strip()[-300:]}"]
        elif cmd.label in self.verdicts:
            seen, problems = self.verdicts[cmd.label]
            if seen != digest:
                problems = ["output differs from the previous pass"]
        else:
            try:
                problems = cmd.check(out)
            except Exception as exc:  # a malformed output is a failed check, not a crash
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
            want = self.recorded.get(cmd.label)
            if want and (self.seed == self.recorded_seed or not cmd.seeded) and want != digest:
                problems.append(f"sha256 {digest[:16]} differs from recorded {want[:16]}")
            self.verdicts[cmd.label] = (digest, problems)
        if problems:
            self.failed += 1
            self.failures.setdefault(cmd.label, "; ".join(problems))
        return len(data)


def run_command(cli, argv: list[str]):
    out, err = Sink(), Sink()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed command; keep measuring the rest
            rc = None
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
    return elapsed, rc, out.text(), err.text()


@dataclass
class Pass:
    times: list[float]  # seconds, one per command
    scaled: list[float]  # the same, scaled by speed.Gauge
    slowdowns: list[float]
    stdout_bytes: int


def run_pass(cli, commands, checker: Checker, tracer: tracing.Tracer | None = None) -> Pass:
    """Run every command once, probing the host's speed between commands."""
    gc.collect()
    gauge = speed.Gauge()
    times = []
    stdout_bytes = 0
    for cmd in commands:
        elapsed, rc, out, err = run_command(cli, cmd.argv)
        if tracer is not None:
            tracer.flush()
        times.append(elapsed)
        stdout_bytes += checker.check(cmd, rc, out, err)
        gauge.add(elapsed)
    gauge.probe()
    return Pass(times, gauge.scaled(), gauge.slowdowns, stdout_bytes)


@dataclass
class Measurement:
    """Untraced passes and, when traced, traced passes with their per-layer metrics."""

    plain: list[Pass] = field(default_factory=list)
    traced: list[Pass] = field(default_factory=list)
    layer_passes: list[dict[str, float]] = field(default_factory=list)
    first_spans: tracing.Spans | None = None


def measure(cli, commands, checker: Checker, seconds: float, between=None,
            tracer: tracing.Tracer | None = None) -> Measurement:
    """Run passes until the next would end after ``seconds``.

    Without a tracer only untraced passes run; with one, untraced and
    traced passes alternate.  After each untraced pass ``between`` runs.
    """
    run_pass(cli, commands, checker)  # warm-up: checked, not timed
    m = Measurement()
    rounds = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        m.plain.append(run_pass(cli, commands, checker))
        if between is not None:
            between()
        if tracer is not None:
            tracer.install()
            try:
                traced = run_pass(cli, commands, checker, tracer)
            finally:
                tracer.uninstall()
            metrics, spans = tracer.take_pass()
            metrics["cli.stdout_bytes"] = traced.stdout_bytes
            m.traced.append(traced)
            m.layer_passes.append(metrics)
            m.first_spans = m.first_spans or spans
        rounds.append(perf_counter() - round_start)
        if perf_counter() - start + statistics.median(rounds) > seconds:
            return m


def end_to_end(passes: list[Pass], scale: bool = True) -> dict[str, float]:
    """pass_s, cmd_p50_ms and cmd_p90_ms, scaled to the probe's nominal speed or not.

    pass_s is the median over passes.  The percentiles are taken over the
    pass's commands, each at its median over the passes.  Over all samples,
    the median of an even number of commands falls between the slowest
    sample of one command and the fastest of the next, and the p90 follows
    how widely the host's noise spreads each command's samples.
    """
    samples = [p.scaled if scale else p.times for p in passes]
    per_command = [statistics.median(times) for times in zip(*samples)]
    return {
        "pass_s": statistics.median(sum(times) for times in samples),
        "cmd_p50_ms": 1e3 * statistics.median(per_command),
        "cmd_p90_ms": 1e3 * statistics.quantiles(per_command, n=10)[8],
    }


def write_trace(path: Path, spans: tracing.Spans, counter_failures: int) -> None:
    origin = spans.starts[0] if len(spans) else 0.0
    doc = {
        "span_fields": ["id", "parent", "label", "start_s", "end_s", "raised"],
        "computed_counters": list(tracing.COMPUTED),
        "counter_failures": counter_failures,
        "spans": [[i, parent, label, round(s - origin, 7), round(e - origin, 7), bool(raised)]
                  for i, (label, parent, s, e, raised) in enumerate(zip(
                      spans.labels, spans.parents, spans.starts, spans.ends, spans.raised))],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = WORK / f"inputs-{workload}-{seed}-{os.getpid()}"
    try:
        problems = workloads.lattice_self_test(
            workloads.LATTICE_SIZES + workloads.DISTANCE_SIZES["face"])
        if problems:
            raise SetupError("; ".join(problems))
        fresh_import()  # compiles the bytecode cache once, as an installed CLI has it
        inputs.mkdir(parents=True, exist_ok=True)
        setups = [setup_once(workload, seed, inputs) for _ in range(SETUP_REPS_UPFRONT)]
        commands = setups[0].commands
        cli = load_cli()
        checker = Checker(workload, seed)
        if trace:
            tracer = tracing.Tracer()
            m = measure(cli, commands, checker, seconds, tracer=tracer)
            metrics = tracing.median_metrics(m.layer_passes)
            metrics["trace.overhead_ratio"] = (end_to_end(m.traced)["pass_s"]
                                               / end_to_end(m.plain)["pass_s"])
            write_trace(WORK / f"trace-{workload}-seed{seed}.json", m.first_spans,
                        tracer.counter_failures)
            units = declared_units("per_layer")
            samples = f"{len(m.traced)} traced and {len(m.plain)} untraced passes"
        else:
            def more_setups():
                if len(setups) < SETUP_REPS:
                    setups.append(setup_once(workload, seed, inputs))

            m = measure(cli, commands, checker, seconds, between=more_setups)
            metrics = end_to_end(m.plain)
            metrics["setup_s"] = statistics.median(s.seconds / s.slowdown for s in setups)
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = declared_units("end_to_end")
            raw = end_to_end(m.plain, scale=False)
            raw["setup_s"] = statistics.median(s.seconds for s in setups)
            slowdowns = [s for p in m.plain for s in p.slowdowns]
            samples = (f"{len(m.plain)} passes, {len(m.plain) * len(commands)} command samples, "
                       f"{len(setups)} set-ups; slowdown {min(slowdowns):.3f}-"
                       f"{max(slowdowns):.3f}; unscaled " + ", ".join(
                           f"{name} {value:.6g}" for name, value in raw.items()))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    for label, problem in list(checker.failures.items())[:20]:
        print(f"FAIL {label}: {problem}", file=sys.stderr)
    failed = checker.failed
    print(f"workload {workload} (seed {seed}, {len(commands)} commands a pass): {samples}")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
    print(f"  {'fail_ratio':<34} {failed / checker.attempted:>14.6g} "
          f"({failed}/{checker.attempted})")
    return {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def declared_units(group: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[group]}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS belongs to that workload alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode not in (0, 1):  # 1 still prints a result: some check failed
            raise SetupError(f"workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    return combined


def record_digests() -> None:
    """Write digests.json from one checked pass of every workload at the default seed."""
    cli = load_cli()
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload, build in workloads.WORKLOADS.items():
        inputs = WORK / f"inputs-record-{workload}"
        inputs.mkdir(parents=True, exist_ok=True)
        try:
            commands = build(DEFAULT_SEED, inputs, ROOT)
            checker = Checker(workload, DEFAULT_SEED, recorded={})
            run_pass(cli, commands, checker)
        finally:
            shutil.rmtree(inputs, ignore_errors=True)
        if checker.failures:
            raise SetupError(f"{workload}: not recording failing outputs: {checker.failures}")
        doc["workloads"][workload] = checker.digests()
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
