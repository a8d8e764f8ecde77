"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They check that instance generation depends on the seed alone, that the
workload and metric names agree with BENCHMARK.json, the span arithmetic,
the tail percentile and a sample of the stored groebner-random answers.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_generation_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        first = [workloads.make_instance(workload, 7, i) for i in range(30)]
        again = [workloads.make_instance(workload, 7, i) for i in range(30)]
        other = [workloads.make_instance(workload, 8, i) for i in range(30)]
        warmup = [workloads.make_instance(workload, 7, i, "warmup") for i in range(30)]
        assert first == again
        assert first != other
        assert first != warmup


def test_groebner_instances_cycle_through_the_pool():
    pool = workloads.GROEBNER_POOL
    assert workloads.make_instance("groebner-random", 3, pool + 5) == (
        workloads.make_instance("groebner-random", 3, 5)
    )


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _ in spans.LAYER_METRICS
    ]
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_self_time_subtracts_direct_children():
    # instance [0, 10] > groebner [1, 5] > parse [2, 3]; volume [6, 9]
    trace = [
        ("instance", 0.0, 10.0, None, 0, None),
        ("lindiff.module_groebner", 1.0, 5.0, 0, 0, {"basis_size": 2, "max_coeff_bits": 3}),
        ("lindiff.parse_system", 2.0, 3.0, 1, 0, None),
        ("expsets.volume", 6.0, 9.0, 0, 0, {"candidates": 10}),
    ]
    assert spans.self_times(trace) == [3.0, 3.0, 1.0, 3.0]
    metrics, self_s = spans.layer_metrics(trace)
    assert metrics["lindiff.module_groebner.self_share"]["value"] == 30.0
    assert metrics["expsets.volume.candidates"]["value"] == 10
    assert metrics["lindiff.prolongation_dimension.calls"]["value"] == 0


def test_useful_ratio_counts_distinct_levels_per_instance():
    def call(instance, level):
        return ("lindiff.prolongation_dimension", 0.0, 1.0, None, instance,
                {"columns": 1, "level": level})

    trace = [call(0, 3), call(0, 3), call(0, 4), call(1, 3)]
    metrics, _ = spans.layer_metrics(trace)
    assert metrics["lindiff.prolongation_dimension.useful_ratio"]["value"] == 0.75


def test_tail_is_the_fixed_percentile():
    assert run.tail([float(i) for i in range(1000)]) == (949.0, 50)
    assert run.tail([float(i) for i in range(400)]) == (379.0, 20)


def test_stored_groebner_answers_agree_with_prolongation():
    seed = min(int(s) for s in json.loads(workloads.REFERENCE_FILE.read_text())["seeds"])
    reference = workloads.load_reference(seed)
    assert len(reference) == workloads.GROEBNER_POOL
    for index in range(5):
        inst = workloads.make_instance("groebner-random", seed, index)
        assert workloads.run_groebner(inst, reference) == "stored-reference"
        inst = workloads.make_instance("groebner-random", seed, index)
        workloads.run_groebner(inst, None)
        workloads.check_deferred(inst)


def test_wrong_answer_is_caught():
    inst = workloads.make_instance("groebner-random", 1, 0)
    bogus = [(9, 9, 9)] * workloads.GROEBNER_POOL
    try:
        workloads.run_groebner(inst, bogus)
    except workloads.WrongAnswer:
        return
    raise AssertionError("a wrong stored answer went unnoticed")
