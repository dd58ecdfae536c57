"""Self-tests of the ledger, at smoke scale.

Run explicitly — ``PYTHONPATH=src python -m pytest benchmarks/ledger``
— they are not part of the tier-1 suite (each starts servers and runs
every journey, about three minutes in all).
"""

from __future__ import annotations

import json
import random
import re

import pytest

import compare
import inputs
import library
import run
import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE = ["--seed", "7", "--smoke", "--seconds", "1"]
#: per-layer prefixes of layers that work on one workload only
LAYER_ONLY_ON = {"service.": spec.SERVE, "federation.": spec.FEDERATED,
                 "subscriptions.": spec.HARVEST}


def last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_declarations_stay_inside_the_contract():
    benchmark = spec.load_benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == spec.WORKLOADS
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    assert benchmark["paths"] == ["benchmarks/ledger"]
    names = (spec.WORKLOADS + list(benchmark["end_to_end"])
             + list(benchmark["per_layer"]))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in (*benchmark["end_to_end"].values(),
                   *benchmark["per_layer"].values()):
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in benchmark["end_to_end"].values():
        assert 0 <= metric["bound"] <= 0.25
    setup = benchmark["end_to_end"]["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert set(spec.HOME) == set(benchmark["end_to_end"])
    assert set(spec.HEADLINE) == set(spec.WORKLOADS)


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_untraced_run_emits_exactly_the_end_to_end_metrics(workload, capsys):
    assert run.main(["--workload", workload, *SMOKE]) == 0
    line = last_line(capsys)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = spec.load_benchmark()["end_to_end"]
    assert set(line["metrics"]) == set(declared)
    for name, cell in line["metrics"].items():
        assert cell["unit"] == declared[name]["unit"]
        assert cell["value"] > 0, name


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_traced_run_emits_exactly_the_per_layer_metrics(workload, capsys,
                                                        tmp_path):
    record_path = tmp_path / "record.json"
    spans_path = tmp_path / "spans.json"
    assert run.main(["--workload", workload, *SMOKE, "--trace", "1",
                     "--record", str(record_path),
                     "--trace-out", str(spans_path)]) == 0
    line = last_line(capsys)
    declared = spec.load_benchmark()["per_layer"]
    assert set(line["metrics"]) == set(declared)
    for name, cell in line["metrics"].items():
        assert cell["unit"] == declared[name]["unit"]
    # the ledger leaves a layer out where it does no work; the
    # contract line states it as 0
    measured = json.loads(record_path.read_text())["per_layer"]
    assert set(measured) <= set(declared)
    assert "trace.overhead_share" in measured
    for prefix, home in LAYER_ONLY_ON.items():
        present = any(name.startswith(prefix) for name in measured)
        assert present == (workload == home), prefix
        if workload != home:
            assert all(cell["value"] == 0
                       for name, cell in line["metrics"].items()
                       if name.startswith(prefix))
    spans = json.loads(spans_path.read_text())
    assert spans["fields"] == ["name", "start_s", "end_s", "parent", "op"]
    assert spans["spans"]
    for index, (_, start, end, parent, _) in enumerate(spans["spans"]):
        assert start <= end and parent < index


def test_same_seed_same_inputs_other_seed_other_inputs():
    def sequence(seed: int) -> str:
        mix = inputs.library_mix(list(range(1, 241)), 64)
        return inputs.sequence_digest(inputs.draw_sequence(
            random.Random(f"{seed}:library-ops"), mix, 2_000))

    def chain(seed: int) -> str:
        text = inputs.corpus((120, 10, 10)).enzyme_text
        releases = inputs.ReleaseChain(text, seed, 0.05, 0.02)
        for _ in range(5):
            releases.advance()
        return releases.digest

    assert sequence(7) == sequence(7) and sequence(7) != sequence(11)
    assert chain(7) == chain(7) and chain(7) != chain(11)


def test_release_chain_is_stationary():
    text = inputs.corpus((200, 10, 10)).enzyme_text
    releases = inputs.ReleaseChain(text, 7, spec.UPDATE_SHARE,
                                   spec.REMOVE_SHARE)
    sizes = []
    for number in range(6):
        _, text, changed = releases.advance()
        sizes.append(text.count("\n//"))
        returning = releases.removals if number else 0
        assert changed == releases.updates + releases.removals + returning
    assert len(set(sizes)) == 1


def test_wrong_oracle_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(library, "oracle_for",
                        lambda texts, backend: lambda op: "not the answer")
    assert run.main(["--workload", spec.QUERY, *SMOKE]) == 1
    line = last_line(capsys)
    assert line["correct"] is False
    assert 0 < line["failed"] <= line["attempted"]


def _ledger(values: dict[str, list[float]], failed_share: float = 0.0):
    cells = {}
    for name, numbers in values.items():
        numbers = sorted(numbers)
        cells[name] = {"unit": "x", "home": True, "values": numbers,
                       "median": numbers[len(numbers) // 2]}
        if len(numbers) > 1:
            cells[name].update(q1=numbers[len(numbers) // 4],
                               q3=numbers[3 * len(numbers) // 4])
    return {"workloads": {"w": {"end_to_end": cells,
                                "failed_share": failed_share}}}


def test_compare_verdicts():
    declared = spec.load_benchmark()["end_to_end"]
    ops_bound = declared["ops_per_s"]["bound"]       # better higher
    join_bound = declared["join_p50_ms"]["bound"]    # better lower
    base = _ledger({"ops_per_s": [100.0], "join_p50_ms": [10.0]})
    same, worse = compare.compare(base, base)
    assert not worse and {row[-1] for row in same} == {"ok"}
    slower = _ledger({"ops_per_s": [100.0 * (1 - ops_bound) - 1],
                      "join_p50_ms": [10.0 * (1 + join_bound) - 0.1]})
    rows, worse = compare.compare(base, slower)
    assert worse
    assert {row[1]: row[-1] for row in rows} == {
        "ops_per_s": "worse", "join_p50_ms": "ok", "failed_share": "ok"}
    noisy = _ledger({"ops_per_s": [40.0, 70.0, 100.0, 130.0, 160.0],
                     "join_p50_ms": [10.0]})
    rows, worse = compare.compare(base, noisy)
    assert not worse
    assert {row[1]: row[-1] for row in rows}["ops_per_s"] == "unresolved"
    rows, worse = compare.compare(base, _ledger(
        {"ops_per_s": [100.0], "join_p50_ms": [10.0]}, failed_share=0.01))
    assert worse


def test_ledger_of_all_workloads_and_compare(tmp_path, capsys):
    out = tmp_path / "ledger.json"
    assert run.main(["--workload", "all", *SMOKE, "--repeat", "2",
                     "--traced", "--out", str(out)]) == 0
    ledger = json.loads(out.read_text())
    assert set(ledger["environment"]) >= {"nproc", "python", "sqlite",
                                          "commit"}
    assert list(ledger["workloads"]) == spec.WORKLOADS
    declared = spec.load_benchmark()
    for workload, entry in ledger["workloads"].items():
        assert entry["failed_share"] == 0
        assert set(entry["end_to_end"]) == set(declared["end_to_end"])
        for name, cell in entry["end_to_end"].items():
            assert cell["home"] == (workload in spec.HOME[name])
            assert len(cell["values"]) == 2 and "q1" in cell and "q3" in cell
        assert set(entry["per_layer"]) <= set(declared["per_layer"])
    capsys.readouterr()
    assert compare.main([str(out), str(out)]) == 0
    assert "worse" not in capsys.readouterr().out.split("verdict", 1)[1]
