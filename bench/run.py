#!/usr/bin/env python3
"""Benchmark of the fpbounds command line.

    python3 bench/run.py --workload table --seed 1 --seconds 25 --trace 0

Imports fpbounds from ./src of this checkout and drives `fpbounds.cli.cli`
in-process, in one thread, so interpreter start-up stays out of every
timing.  One operation is one CLI command.  The run repeats the workload's
whole command list until --seconds have passed and checks every output
(see checks.py).  The last line of stdout is one JSON
object: correct, attempted, failed and the metrics, which are the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
Results and spans are also written under bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import click
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
SETUP_REPEATS = 7
P90_MIN_SAMPLES = 100  # op_p90_ms needs ten samples above it


def parse_args(argv: list[str] | None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Console:
    """Runs `fpbounds ARGS` in-process with stdout captured.

    click's CliRunner is not used: it keeps each output alive in a
    traceback cycle until a full garbage collection.  One buffer serves
    every command, because click caches a wrapper per stdout object for the
    life of the process, so a fresh buffer per command would never be freed.
    """

    def __init__(self) -> None:
        self.out = io.StringIO()

    def run(self, cli, args: tuple[str, ...]) -> tuple[int, str, Exception | None]:
        """Return the exit code the command line would give, the output and
        any exception."""
        self.out.seek(0)
        self.out.truncate()
        try:
            with contextlib.redirect_stdout(self.out):
                code = cli.main(list(args), prog_name="fpbounds", standalone_mode=False)
        except click.ClickException as exc:
            return exc.exit_code, self.out.getvalue(), exc
        except Exception as exc:  # an uncaught traceback on the real command line
            return 1, self.out.getvalue(), exc
        return code or 0, self.out.getvalue(), None


class Harness:
    """Runs a workload's commands, checks their outputs and counts them."""

    def __init__(self, console: Console, cli, ops) -> None:
        self.console, self.cli, self.ops = console, cli, ops
        self.digests: list[bytes | None] = [None] * len(ops)
        self.attempted = self.failed = 0
        self.failures: list[str] = []  # commands that exited non-zero or raised
        self.errors: list[str] = []  # outputs that failed their check
        self.latencies: list[float] = []
        self.round_rates: list[float] = []

    def round(self, tracer=None) -> float:
        """Run every command once; return the time spent in commands."""
        spent = 0.0
        completed = len(self.latencies)
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id += 1
                root = tracer.begin(tracer.name_id(f"cli.{op.command}"))
            t0 = perf_counter()
            code, output, exception = self.console.run(self.cli, op.args)
            elapsed = perf_counter() - t0
            output_bytes = output.encode()
            if tracer is not None:
                tracer.finish(root)
                tracer.counts[f"cli.{op.command}.output_bytes"] += len(output_bytes)
            spent += elapsed
            self.attempted += 1
            if code != 0 or exception is not None:
                self.failed += 1
                _note(self.failures, f"{' '.join(op.args)}: exit {code} {exception!r}")
                continue
            self.latencies.append(elapsed)
            digest = hashlib.blake2b(output_bytes).digest()
            if self.digests[i] is None:
                try:
                    op.check(output)
                except (checks.CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
                    _note(self.errors, f"{' '.join(op.args)}: {exc!r}")
                self.digests[i] = digest
            elif digest != self.digests[i]:
                _note(self.errors, f"{' '.join(op.args)}: output changed between rounds")
        self.round_rates.append((len(self.latencies) - completed) / spent)
        return spent



def _note(messages: list[str], message: str) -> None:
    if len(messages) < 20:
        messages.append(message)


def set_up(console: Console, make_ops, seed: int):
    """Import fpbounds afresh, build the inputs and run the first command
    once.  Returns the CLI group, the ops and the seconds it took."""
    for name in [m for m in sys.modules if m == "fpbounds" or m.startswith("fpbounds.")]:
        del sys.modules[name]
    t0 = perf_counter()
    cli_module = importlib.import_module("fpbounds.cli")
    ops = make_ops(random.Random(seed))
    console.run(cli_module.cli, ops[0].args)
    elapsed = perf_counter() - t0
    if not Path(cli_module.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: fpbounds was imported from {cli_module.__file__}, not {SRC}")
    return cli_module.cli, ops, elapsed


def end_to_end(harness: Harness, setups: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "ops_per_s": (statistics.median(harness.round_rates), "1/s"),
        "op_p50_ms": (statistics.median(harness.latencies or [0.0]) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "fpbounds" / "__init__.py").is_file():
        print(f"error: no fpbounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    console = Console()
    setups = []
    for _ in range(SETUP_REPEATS):
        cli, ops, elapsed = set_up(console, workload, args.seed)
        setups.append(elapsed)
    harness = Harness(console, cli, ops)

    deadline = perf_counter() + args.seconds
    rounds = 0
    extra: dict = {}
    if args.trace:
        tracer = spans.Tracer()
        totals: dict[str, float] = {}
        plain = traced = 0.0
        while rounds == 0 or perf_counter() < deadline:
            plain += harness.round()
            tracer.install()
            try:
                traced += harness.round(tracer)
            finally:
                tracer.uninstall()
            for key, value in tracer.summarize().items():
                totals[key] = totals.get(key, 0.0) + value
            if rounds == 0:
                RESULTS.mkdir(parents=True, exist_ok=True)
                tracer.dump(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")
            tracer.clear()
            rounds += 1
        totals["trace.overhead_ms"] = (traced - plain) * 1e3
        units = spans.metric_units()
        metrics = {name: (totals.get(name, 0.0) / rounds, unit) for name, unit in units.items()}
        extra["untraced_round_ms"] = plain * 1e3 / rounds
    else:
        while rounds == 0 or perf_counter() < deadline:
            harness.round()
            rounds += 1
        metrics = end_to_end(harness, setups)
        if len(harness.latencies) >= P90_MIN_SAMPLES:
            extra["op_p90_ms"] = statistics.quantiles(harness.latencies, n=10)[-1] * 1e3
        extra["setup_samples_s"] = setups

    correct = not harness.errors
    result = {
        "correct": correct,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    kind = "untraced and traced round pairs" if args.trace else "rounds"
    print(f"workload {args.workload}, seed {args.seed}: {rounds} {kind} of {len(ops)} commands, "
          f"{harness.attempted} attempted, {harness.failed} failed, "
          f"outputs {'checked' if correct else 'WRONG'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if "op_p90_ms" in extra:
        print(f"  op_p90_ms = {extra['op_p90_ms']:.6g} ms ({len(harness.latencies)} samples)")
    for message in harness.failures:
        print(f"failed: {message}", file=sys.stderr)
    for message in harness.errors:
        print(f"wrong output: {message}", file=sys.stderr)

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  rounds=rounds, ops_per_round=len(ops), samples=len(harness.latencies),
                  python=sys.version.split()[0], failures=harness.failures,
                  errors=harness.errors, **extra)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
