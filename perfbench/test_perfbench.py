"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import clisession  # noqa: E402
import refarith  # noqa: E402
import workloads  # noqa: E402
from mwslice import fields  # noqa: E402
from run import SEGMENTS, Window, closed_loop  # noqa: E402


def _bytes(inputs) -> bytes:
    return json.dumps(inputs, sort_keys=True).encode()


@pytest.mark.parametrize("generate", [
    lambda seed: workloads.generate_filtration_grid(seed, count=500),
    lambda seed: list(itertools.islice(workloads.stream_bigfield_certs(seed), 60)),
    lambda seed: clisession.generate(seed, cycles=2),
], ids=["filtration_grid", "bigfield_certs", "cli_session"])
def test_same_seed_gives_byte_identical_inputs(generate):
    assert _bytes(generate(7)) == _bytes(generate(7))
    assert _bytes(generate(7)) != _bytes(generate(8))


@pytest.mark.parametrize("q", [9, 25, 27, 2187, 10007])
def test_reference_arithmetic_follows_the_library_conventions(q):
    ref = refarith.RefField(q)
    field = fields.finite_field(q)
    assert tuple(ref.modulus) == field.modulus
    assert ref.g == fields.multiplicative_generator(field).encoding


def test_in_process_workloads_pass_at_the_seed():
    for name, (stream, setup, request) in workloads.IN_PROCESS.items():
        inputs = list(itertools.islice(stream(5), 60))
        res = closed_loop(request, setup(), inputs, count=60)
        assert res["failures"] == [], name


def test_bigfield_requests_do_not_start_over():
    stream = workloads.stream_bigfield_certs(4)
    texts = [(r["field"], r["text"]) for r in itertools.islice(stream, 3000)]
    assert len(set(texts)) > 0.99 * len(texts)


def test_closed_loop_refills_instead_of_wrapping():
    stream = iter(range(100))
    seen = []

    def request(_state, inp):
        seen.append(inp["n"])
        return inp["n"]

    def refill():
        return [{"n": n, "expect": n} for n in itertools.islice(stream, 3)]

    res = closed_loop(request, {}, refill(), count=10, refill=refill)
    assert seen == list(range(10)) and res["failures"] == []


def test_wrong_expected_answer_is_counted_as_failed():
    inputs = list(itertools.islice(workloads.stream_bigfield_certs(3), 6))
    inputs[2]["expect"] = [True, "[g^1]*[g^2]", "0"]
    res = closed_loop(workloads.request_bigfield_certs, workloads.setup_bigfield_certs(),
                      inputs, count=6)
    assert len(res["latencies"]) == 6
    assert len(res["failures"]) == 1 and res["failures"][0].startswith("request 2:")


def test_raising_request_is_counted_as_failed():
    def request(_state, inp):
        raise ValueError(inp["text"])

    res = closed_loop(request, {}, [{"text": "boom", "expect": 1}], count=3)
    assert len(res["failures"]) == 3


@pytest.fixture
def session():
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"test-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        yield clisession.Session(ROOT, tmp, [sys.executable, "-m", "mwslice.cli"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_unexpected_exit_code_is_counted_as_failed(session):
    req = {"args": ["gw", "--field", "Fq(15)", "--form", "<1>"], "exit": 2}
    assert session.run(req)[1] is None
    reason = session.run(dict(req, exit=0))[1]
    assert reason is not None and reason.startswith("exit 2, expected 0")


@pytest.mark.parametrize("stdout", ["[1]", '{"result": {"N": 1}}', '{"result": [1]}'])
def test_output_of_the_wrong_shape_is_counted_as_failed(stdout):
    req = {"args": ["filtration"], "exit": 0, "result": {"N": 1}, "size": 2}
    reason = clisession.check(req, 0, stdout, "")
    assert reason is not None and reason.startswith("output of the wrong shape")


def test_cli_requests_pass_at_the_seed(session):
    for req in clisession.generate(5, cycles=1):
        assert session.run(req)[1] is None, req["class"]


def test_window_pauses_between_segments_off_the_clock():
    calls = []

    def pause():
        calls.append(time.perf_counter())
        time.sleep(0.05)

    window = Window(0.25, pause)
    started = time.perf_counter()
    while window.open():
        pass
    assert len(calls) == SEGMENTS - 1
    assert time.perf_counter() - started >= 0.25 + 0.05 * (SEGMENTS - 1)
    assert window.wall() < 0.25 + 0.04
