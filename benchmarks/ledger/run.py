"""The performance ledger: five journeys, one command.

    python benchmarks/ledger/run.py --workload all --seed 7 --out ledger.json
    python benchmarks/ledger/run.py --workload all --seed 7 --traced --repeat 5
    python benchmarks/ledger/run.py --workload serve_mixed --seed 7 --trace 1

One workload runs in this process: inputs are generated from the seed,
the journey is measured against product defaults, every answer is
checked, every metric is printed by name with its unit and sample
count, and the last line of standard output is the one JSON object the
benchmark contract asks for (``--trace 0``: the end-to-end metrics,
``--trace 1``: the per-layer metrics of the traced pass). ``--workload
all`` runs each workload in a process of its own — peak memory is per
process — and gathers the ledger, with per-repeat values, medians and
quartiles under ``--repeat``. The exit status is 1 when any operation
failed or any answer differed from its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import spec

spec.bootstrap()

import federated  # noqa: E402 - the program must be importable first
import harvest  # noqa: E402
import ingest  # noqa: E402
import inputs  # noqa: E402
import library  # noqa: E402
import serve  # noqa: E402
from harness import Context, Measurement, median, peak_rss_mb  # noqa: E402
from trace import Recorder  # noqa: E402

JOURNEYS = {spec.INGEST: ingest, spec.HARVEST: harvest, spec.QUERY: library,
            spec.SERVE: serve, spec.FEDERATED: federated}
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: ``PYTHONHASHSEED`` of every measured process (0: no salt)
HASH_SEED = "0"


def run_untraced(name: str, ctx: Context, seconds: float,
                 setups: int = 1, phases: bool = True) -> Measurement:
    """Set the journey up (``setups`` times, keeping the last), run
    its measured window (and, with ``phases``, the short phases that
    price the sides of the warehouse the window left alone), tear it
    down; adds the metrics that come from set-up and the process."""
    journey = JOURNEYS[name]
    setup_seconds, build_seconds = [], []
    system = None
    for _ in range(setups):
        if system is not None:
            journey.teardown(system)
        start = perf_counter()
        system = journey.setup(ctx)
        setup_seconds.append(perf_counter() - start)
        build_seconds.append(getattr(system, "build_s", None))
    try:
        measurement = journey.measure(ctx, system, seconds, phases)
        if name != spec.INGEST:
            # every workload bulk-builds what it measures; set-up is
            # where, so set-up is where its ingest rate is taken
            documents, input_bytes = inputs.release_size(system.texts)
            measurement.metrics.update(
                ingest_docs_per_s=documents / median(build_seconds),
                db_bytes_per_input_byte=system.db_bytes / input_bytes)
            measurement.samples["ingest_docs_per_s"] = len(build_seconds)
    finally:
        journey.teardown(system)
    measurement.metrics["setup_s"] = median(setup_seconds)
    measurement.samples["setup_s"] = len(setup_seconds)
    # the server is the process under test of serve_mixed; it has been
    # waited for by now, which is when its usage becomes readable
    measurement.metrics["peak_rss_mb"] = peak_rss_mb(
        children=name == spec.SERVE)
    return measurement


def run_traced(name: str, ctx: Context, untraced: Measurement
               ) -> tuple[dict[str, float], Recorder]:
    """The second pass: the journey behind the benchmark's own proxies
    and spans; returns the per-layer metrics and the span recorder."""
    journey = JOURNEYS[name]
    traced_ctx = replace(ctx, recorder=Recorder())
    system = journey.setup(traced_ctx, timed=True)
    try:
        layers = journey.traced(traced_ctx, system, untraced)
    finally:
        journey.teardown(system)
    headline = untraced.metrics[spec.HEADLINE[name]]
    layers["trace.overhead_share"] = (
        (headline - layers.pop("traced_headline")) / headline)
    return layers, traced_ctx.recorder


def _discard(workdir: Path) -> None:
    """Remove a run's scratch directory, and the scratch root with it
    when no other run is using it."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(spec.WORK_ROOT)
    except OSError:
        pass


def environment() -> dict:
    """Where the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "sqlite": sqlite3.sqlite_version, "platform": platform.platform(),
            "commit": commit}


def run_one(args) -> dict:
    """One workload in this process; returns its record."""
    benchmark = spec.load_benchmark()
    scale = spec.SMOKE if args.smoke else spec.FULL
    os.makedirs(spec.WORK_ROOT, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=spec.WORK_ROOT))
    try:
        ctx = Context(args.seed, scale, workdir)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "scale": scale.name,
                  "trace": args.trace}
        if args.trace:
            untraced = run_untraced(args.workload, ctx, args.seconds / 2,
                                    phases=False)
            layers, recorder = run_traced(args.workload, ctx, untraced)
            if args.trace_out:
                recorder.dump(args.trace_out)
            record["per_layer"] = {
                metric: {"value": value,
                         "unit": benchmark["per_layer"][metric]["unit"]}
                for metric, value in layers.items()}
            attempted, failed = untraced.attempted, untraced.failed
        else:
            untraced = run_untraced(args.workload, ctx, args.seconds,
                                    setups=SETUP_REPEATS)
            attempted, failed = untraced.attempted, untraced.failed
            record["end_to_end"] = {
                metric: {"value": untraced.metrics[metric],
                         "unit": declared["unit"],
                         "samples": untraced.samples.get(metric, 1),
                         "home": args.workload in spec.HOME[metric]}
                for metric, declared in benchmark["end_to_end"].items()}
        record.update(attempted=attempted, failed=failed,
                      failed_share=failed / attempted, info=untraced.info)
        return record
    finally:
        _discard(workdir)


def contract_line(record: dict) -> str:
    """The last line of standard output: exactly the declared metrics,
    end-to-end (``--trace 0``) or per-layer (``--trace 1``). A layer
    that does no work on this workload reads 0."""
    benchmark = spec.load_benchmark()
    if record["trace"]:
        measured = record["per_layer"]
        metrics = {name: measured.get(name, {"value": 0.0,
                                             "unit": declared["unit"]})
                   for name, declared in benchmark["per_layer"].items()}
    else:
        metrics = {name: {"value": cell["value"], "unit": cell["unit"]}
                   for name, cell in record["end_to_end"].items()}
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def print_record(record: dict) -> None:
    """Every metric by name, with its unit (and sample count)."""
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"window {record['seconds']:g} s  scale {record['scale']}  "
          f"{'traced' if record['trace'] else 'untraced'}")
    cells = record.get("end_to_end") or record["per_layer"]
    for name, cell in sorted(cells.items(),
                             key=lambda item: not item[1].get("home", True)):
        count = f"  n={cell['samples']}" if "samples" in cell else ""
        aside = "" if cell.get("home", True) else "  (not its own)"
        print(f"  {name:<36} {cell['value']:>14.6g} {cell['unit']}"
              f"{count}{aside}")
    if record["trace"]:
        share = record["per_layer"]["trace.attributed_share"]["value"]
        print(f"  {'unattributed':<36} {1 - share:>14.6g} ratio")
    print(f"  {'failed_share':<36} {record['failed_share']:>14.6g} ratio"
          f"  ({record['failed']} of {record['attempted']})")


# -- the ledger: every workload, each in its own process --------------------

def _child(args, workload: str, trace: int, record_path: Path,
           trace_out: str | None) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--record", str(record_path)]
    if args.smoke:
        command.append("--smoke")
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
    if not record_path.exists():
        raise SystemExit(f"ledger: {workload} produced no record "
                         f"(exit status {done.returncode})")
    return json.loads(record_path.read_text())


def _spread(values: list[float]) -> dict:
    cell = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        cell.update(q1=q1, q3=q3)
    return cell


def run_all(args) -> dict:
    """Each workload ``--repeat`` times (plus a traced pass with
    ``--traced``), gathered into one ledger."""
    os.makedirs(spec.WORK_ROOT, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ledger-", dir=spec.WORK_ROOT))
    ledger = {"environment": environment(),
              "config": {"seed": args.seed, "seconds": args.seconds,
                         "repeat": args.repeat, "traced": args.traced,
                         "scale": "smoke" if args.smoke else "full"},
              "workloads": {}}
    try:
        for workload in spec.WORKLOADS:
            records = [_child(args, workload, 0, scratch / "record.json",
                              None) for _ in range(args.repeat)]
            entry = {"attempted": sum(r["attempted"] for r in records),
                     "failed": sum(r["failed"] for r in records),
                     "info": records[-1]["info"]}
            entry["failed_share"] = entry["failed"] / entry["attempted"]
            entry["end_to_end"] = {
                name: {"unit": cell["unit"], "home": cell["home"],
                       "samples": cell["samples"],
                       **_spread([r["end_to_end"][name]["value"]
                                  for r in records])}
                for name, cell in records[0]["end_to_end"].items()}
            if args.traced:
                trace_out = None
                if args.trace_out:
                    target = Path(args.trace_out)
                    trace_out = str(target.with_name(
                        f"{target.stem}.{workload}{target.suffix}"))
                traced = _child(args, workload, 1, scratch / "record.json",
                                trace_out)
                entry["per_layer"] = traced["per_layer"]
                entry["failed"] += traced["failed"]
            ledger["workloads"][workload] = entry
    finally:
        _discard(scratch)
    return ledger


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="The performance ledger: five journeys, one command.")
    parser.add_argument("--workload", required=True,
                        choices=spec.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="every input is generated from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="one workload: 1 runs the traced pass and "
                             "reports the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: add the traced pass")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all workloads: untraced runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora (self-tests)")
    parser.add_argument("--out", help="all workloads: write the ledger here")
    parser.add_argument("--record", help="one workload: write its record "
                                         "here (how the ledger gathers)")
    parser.add_argument("--trace-out",
                        help="write the traced pass's spans here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec.load_benchmark()["run_seconds"])
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        ledger = run_all(args)
        if args.out:
            Path(args.out).write_text(json.dumps(ledger, indent=1))
            print(f"ledger: {args.out}")
        return 1 if any(entry["failed"]
                        for entry in ledger["workloads"].values()) else 0
    record = run_one(args)
    if args.record:
        Path(args.record).write_text(json.dumps(record))
    print_record(record)
    print(contract_line(record))
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # str hashes are salted per process, and with them the order
        # sets iterate in; on the harvest path that order moves the
        # delivery lag by up to 45 % from one process to the next (see
        # README). One fixed salt makes runs repeat; the server
        # subprocess inherits it.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    raise SystemExit(main())
