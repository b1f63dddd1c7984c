import gc
import json
import os
import re
import select
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import echosim
from echosim.backends import (
    MOCK_DIGEST_ITEMS,
    BackendSettings,
    MockBackend,
    RemoteChatBackend,
    mock_backend_rule,
    mock_summary_rule,
)
from echosim.config import config_from_dict
from echosim.errors import BackendError, ParameterError
from echosim.language import compress_long_term
from echosim.prompts import build_reflection_prompt, build_summary_prompt, heard_lines, parse_opinion_output
from echosim.runner import run
from loopback import CLOSE, DROP, MALFORMED, REFUSAL, STALL, LoopbackServer

CARD = ("Agent 0. Gender: male. Age: 33. Education: bachelor.\n"
        "Personality: curious, organized, spontaneous, cooperative, anxious.")
TOPIC = "Euthanasia should be legal."


def reflection_prompt(own, heard=(), nudge=None):
    block = "\n".join(heard_lines([f"(stance {b:+d}) text {j}" for j, b in enumerate(heard)]))
    return build_reflection_prompt(CARD, TOPIC, "", block, own, "current view", nudge)


class TestMockRule:
    def test_fixed_point_at_shared_extreme(self):
        out = parse_opinion_output(mock_backend_rule(reflection_prompt(2, heard=[2, 2])))
        assert out.belief == 2

    def test_mean_attraction_hand_case(self):
        # 0.7 * 0 + 0.3 * mean([2, 2]) = 0.6 -> rounds to 1
        out = parse_opinion_output(mock_backend_rule(reflection_prompt(0, heard=[2, 2])))
        assert out.belief == 1

    def test_nudge_pulls_extreme_one_step_toward_zero(self):
        out = parse_opinion_output(mock_backend_rule(reflection_prompt(2, heard=[2], nudge="note")))
        assert out.belief == 1
        neg = parse_opinion_output(mock_backend_rule(reflection_prompt(-2, nudge="note")))
        assert neg.belief == -1

    def test_nudge_ignores_moderate_agents(self):
        out = parse_opinion_output(mock_backend_rule(reflection_prompt(1, nudge="note")))
        assert out.belief == 1

    def test_no_exposure_keeps_belief(self):
        out = parse_opinion_output(mock_backend_rule(reflection_prompt(-1)))
        assert out.belief == -1

    def test_stale_stances_in_memory_are_not_exposures(self):
        prompt = build_reflection_prompt(CARD, TOPIC, "Agent 9: (stance +2) old extreme take", "", 0, "v")
        out = parse_opinion_output(mock_backend_rule(prompt))
        assert out.belief == 0  # nothing heard today

    def test_pure_function_of_prompt(self):
        prompt = reflection_prompt(1, heard=[-2, 0, 2])
        assert mock_backend_rule(prompt) == mock_backend_rule(prompt)

    def test_a_prompt_without_a_stance_value_is_rejected(self):
        with pytest.raises(ValueError, match="lacks a current stance value"):
            mock_backend_rule("== Your current view ==\nno number here")


class TestMockSummary:
    def test_digest_keeps_newest_items_within_budget(self):
        block = "\n".join(heard_lines([f"(stance +1) message {j}" for j in range(6)]))
        prompt = build_summary_prompt("old notes", block, 600)
        digest = mock_summary_rule(prompt)
        expected = "; ".join(f"Agent {j}: (stance +1) message {j}" for j in range(6)[-MOCK_DIGEST_ITEMS:])
        assert digest == expected
        assert len(digest) <= 600

    def test_budget_truncation(self):
        prompt = build_summary_prompt("", "- Agent 1: (stance 0) " + "x" * 400, 50)
        assert len(mock_summary_rule(prompt)) <= 50

    def test_a_prompt_without_a_budget_is_rejected(self):
        prompt = build_summary_prompt("", "- Agent 1: (stance 0) hi", 100)
        with pytest.raises(ValueError, match="lacks a notes budget"):
            mock_summary_rule(prompt.replace("at most 100 characters", "briefly"))

    def test_backend_dispatches_on_prompt_kind(self):
        backend = MockBackend()
        assert backend.name == "mock"
        summary = backend.complete(build_summary_prompt("", "- Agent 1: (stance 0) hi", 100), 64, 0.0)
        assert "BELIEF:" not in summary
        reply = backend.complete(reflection_prompt(0), 64, 0.7)
        assert reply.startswith("BELIEF:")


class FailingBackend:
    name = "failing"

    def complete(self, prompt, max_length, temperature):
        raise BackendError("wire down")


class TestCompression:
    def test_empty_day_empty_summary(self):
        assert compress_long_term(MockBackend(), "", "", 600, []) == ("", False)

    def test_empty_day_keeps_old_summary(self):
        assert compress_long_term(MockBackend(), "keep me", "", 600, []) == ("keep me", False)

    def test_mock_digest_matches_rule(self):
        texts = [f"(stance -1) note {j}" for j in range(5)]
        out, failed = compress_long_term(MockBackend(), "old", "\n".join(heard_lines(texts)), 600, texts)
        expected = "; ".join(f"Agent {j}: (stance -1) note {j}" for j in range(5)[-MOCK_DIGEST_ITEMS:])
        assert out == expected and failed is False

    def test_transport_failure_falls_back_to_truncation(self):
        out, failed = compress_long_term(FailingBackend(), "old summary", "- Agent 1: aaa\n- Agent 2: bbb", 18,
                                         ["aaa", "bbb"])
        assert out == "old summary aaa bb"
        assert failed is True
        assert len(out) <= 18

    def test_result_never_exceeds_budget(self):
        texts = ["(stance +2) " + "y" * 300] * 4
        out, _ = compress_long_term(MockBackend(), "z" * 500, "\n".join(heard_lines(texts)), 100, texts)
        assert len(out) <= 100


PROMPT = reflection_prompt(1, heard=[2])
ANSWER = mock_backend_rule(PROMPT)


@pytest.fixture
def server():
    with LoopbackServer() as server:
        yield server


def remote(server, backoff_base=0.0, scheme="http", **kwargs):
    settings = BackendSettings(kind="remote", base_url=server.url(scheme), model="test-model",
                               api_key_env="ECHOSIM_TEST_KEY", **kwargs)
    return RemoteChatBackend(settings, backoff_base=backoff_base)


UNSET = "base_url and model must be set for a remote backend"
NOT_HTTP = "base_url must be an absolute http or https URL with a host, got "


@pytest.mark.parametrize("field, value, message", [
    pytest.param("base_url", "", UNSET, id="base_url"),
    pytest.param("model", "", UNSET, id="model"),
    pytest.param("base_url", "api.example.test/v1", NOT_HTTP + "'api.example.test/v1'", id="no-scheme"),
    pytest.param("base_url", "ftp://host/v1", NOT_HTTP + "'ftp://host/v1'", id="ftp"),
    pytest.param("base_url", "http:///v1", NOT_HTTP + "'http:///v1'", id="no-host"),
    pytest.param("base_url", "http://host:99999/v1", NOT_HTTP + "'http://host:99999/v1'", id="bad-port"),
])
def test_a_remote_backend_needs_a_base_url_and_a_model(field, value, message):
    BackendSettings(kind="mock", **{field: value}).validate()  # a mock backend reads neither
    with pytest.raises(ParameterError, match=re.escape(message)):
        BackendSettings(kind="remote", **{field: value}).validate()


class TestRemoteBackend:
    def test_success_path(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "sk-test")
        out = remote(server).complete(PROMPT, 64, 0.7)
        assert out == ANSWER
        [request] = server.received
        assert request["path"] == "/v1/chat/completions"
        assert request["body"]["model"] == "test-model"
        assert request["body"]["max_tokens"] == 64
        assert request["headers"]["Authorization"] == "Bearer sk-test"

    def test_retries_transient_failures_then_succeeds(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        server.script = [DROP, 503]
        assert remote(server, max_retries=3).complete(PROMPT, 10, 0.0) == ANSWER
        assert len(server.received) == 3

    def test_gives_up_after_max_retries(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        server.script = [500] * 3
        with pytest.raises(BackendError, match="gave up after 3 attempts: HTTP 500"):
            remote(server, max_retries=2).complete(PROMPT, 10, 0.0)
        assert len(server.received) == 3

    def test_client_error_is_immediate(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        server.script = [401]
        with pytest.raises(BackendError, match="HTTP 401"):
            remote(server).complete(PROMPT, 10, 0.0)
        assert len(server.received) == 1

    def test_malformed_body_is_an_error(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        server.script = [MALFORMED]
        with pytest.raises(BackendError, match="malformed"):
            remote(server).complete(PROMPT, 10, 0.0)

    def test_a_completion_whose_content_is_not_a_string_is_malformed(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        server.script = [REFUSAL]
        with pytest.raises(BackendError, match="malformed completion response: content is None"):
            remote(server).complete(PROMPT, 10, 0.0)
        assert len(server.received) == 1  # not retried, like any other malformed reply

    def test_missing_key_fails_before_any_request(self, monkeypatch, server):
        monkeypatch.delenv("ECHOSIM_TEST_KEY", raising=False)
        with pytest.raises(BackendError, match="ECHOSIM_TEST_KEY"):
            remote(server)
        assert server.received == [] and server.connections == []

    @pytest.mark.parametrize("key", ["abc\r", "abc\n", "\u201cabc\u201d"], ids=["cr", "lf", "curly-quotes"])
    def test_a_key_a_header_cannot_carry_fails_before_any_request(self, monkeypatch, server, key):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", key)
        with pytest.raises(BackendError, match="ECHOSIM_TEST_KEY holds a character that is not printable") as info:
            remote(server)
        assert "abc" not in str(info.value)
        assert server.received == [] and server.connections == []


def record_sleeps(monkeypatch):
    sleeps = []
    monkeypatch.setattr("echosim.backends.time.sleep", sleeps.append)
    return sleeps


def jitter_at_its_bound(monkeypatch):
    """Make every jittered backoff sleep its upper bound, so sleeps are exact."""
    monkeypatch.setattr("echosim.backends.random.uniform", lambda low, high: high)


class TestBackoffJitter:
    def test_each_backoff_lies_within_its_full_jitter_bound(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        sleeps = record_sleeps(monkeypatch)
        backend = remote(server, max_retries=4, backoff_base=0.5)
        for _ in range(20):
            server.script = [500] * 5
            with pytest.raises(BackendError, match="gave up"):
                backend.complete(PROMPT, 10, 0.0)
        assert len(sleeps) == 20 * 4
        bounds = [0.5, 1.0, 2.0, 4.0] * 20
        assert all(0.0 <= s <= bound for s, bound in zip(sleeps, bounds))
        assert len(set(sleeps[::4])) > 1  # the first backoff is drawn anew on each call

    def test_retry_after_is_honoured_exactly(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        sleeps = record_sleeps(monkeypatch)
        server.script = [(429, {"Retry-After": "2"})]
        assert remote(server, backoff_base=0.5).complete(PROMPT, 10, 0.0) == ANSWER
        assert sleeps == [2.0]


class TestRetryAfter:
    @pytest.mark.parametrize("status", [429, 503])
    def test_numeric_header_replaces_backoff(self, monkeypatch, server, status):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        sleeps = record_sleeps(monkeypatch)
        jitter_at_its_bound(monkeypatch)
        server.script = [(status, {"Retry-After": "7"}), 500]
        out = remote(server, max_retries=3, backoff_base=0.5).complete(PROMPT, 10, 0.0)
        assert out == ANSWER
        assert sleeps == [7.0, 1.0]  # the header, then the backoff bound of attempt 2

    @pytest.mark.parametrize("status, value", [
        (429, "Wed, 21 Oct 2026 07:28:00 GMT"),  # an HTTP date is not honoured
        (503, "-3"),
        (500, "7"),  # only 429 and 503 carry a usable Retry-After
    ])
    def test_other_headers_fall_back_to_backoff(self, monkeypatch, server, status, value):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        sleeps = record_sleeps(monkeypatch)
        jitter_at_its_bound(monkeypatch)
        server.script = [(status, {"Retry-After": value})]
        assert remote(server, backoff_base=0.5).complete(PROMPT, 10, 0.0) == ANSWER
        assert sleeps == [0.5]

    @pytest.mark.parametrize("status, value", [(429, "1e300"), (503, "86400")])
    def test_a_longer_wait_than_the_timeout_is_cut_to_the_timeout(self, monkeypatch, server, status, value):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        sleeps = record_sleeps(monkeypatch)
        server.script = [(status, {"Retry-After": value})]
        assert remote(server, timeout=0.5).complete(PROMPT, 10, 0.0) == ANSWER
        assert sleeps == [0.5]

    def test_no_sleep_after_the_last_attempt(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        sleeps = record_sleeps(monkeypatch)
        server.script = [(429, {"Retry-After": "7"})] * 2
        with pytest.raises(BackendError, match="gave up"):
            remote(server, max_retries=1).complete(PROMPT, 10, 0.0)
        assert sleeps == [7.0]


class TestConnections:
    def test_calls_at_once_get_distinct_connections_that_are_reused(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        backend = remote(server)
        assert backend.name == "remote:test-model"
        barrier = threading.Barrier(2, timeout=5)
        server.script = [barrier, barrier]  # neither is answered until both are in flight
        threads = [threading.Thread(target=backend.complete, args=(PROMPT, 10, 0.0)) for _ in range(2)]
        assert server.connections == []  # connections are opened on first use
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert not barrier.broken and len(server.connections) == 2
        assert backend.complete(PROMPT, 10, 0.0) == ANSWER  # on this thread, which made neither connection
        assert len(server.connections) == 2
        calls = Counter(request["client"] for request in server.received)
        assert sorted(calls.values()) == [1, 2] and set(calls) == set(server.connections)

    def test_serial_calls_on_one_thread_reuse_one_connection(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        backend = remote(server)
        for _ in range(5):
            assert backend.complete(PROMPT, 10, 0.0) == ANSWER
        assert len(server.received) == 5 and len(server.connections) == 1

    def test_after_a_dropped_connection_the_next_attempt_opens_a_new_one(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        server.script = [DROP]
        assert remote(server).complete(PROMPT, 10, 0.0) == ANSWER
        assert len(server.connections) == 2
        assert [request["client"] for request in server.received] == server.connections

    def test_a_stall_past_the_timeout_is_a_transport_error_that_is_retried(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        server.script = [STALL]
        assert remote(server, timeout=0.2).complete(PROMPT, 10, 0.0) == ANSWER
        assert len(server.received) == 2 and len(server.connections) == 2

    def test_a_connection_the_server_closed_while_idle_is_reopened(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        server.script = [CLOSE]
        backend = remote(server, max_retries=0)
        assert backend.complete(PROMPT, 10, 0.0) == ANSWER
        assert server.wait_closed(1)
        assert select.select([backend._idle[-1].sock], [], [], 5)[0]  # the close has reached the client
        assert backend.complete(PROMPT, 10, 0.0) == ANSWER  # no attempt is spent on the dead connection
        assert len(server.received) == 2 and len(server.connections) == 2

    def test_a_dropped_backend_closes_its_connections(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        backends = [remote(server) for _ in range(3)]
        for backend in backends:  # on this thread, which outlives every one of them
            assert backend.complete(PROMPT, 10, 0.0) == ANSWER
        del backends, backend
        gc.collect()
        assert len(server.connections) == 3 and server.wait_closed(3)

    def test_https_to_a_plain_http_server_is_a_transport_error(self, monkeypatch, server):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        with pytest.raises(BackendError, match="gave up after 2 attempts: .*SSL"):
            remote(server, scheme="https", max_retries=1).complete(PROMPT, 10, 0.0)
        assert server.received == [] and len(server.connections) == 2


def test_a_remote_run_against_the_mock_rules_matches_a_mock_run(tmp_path, monkeypatch, server):
    monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
    mock_config = {"n": 30, "days": 4, "seed": 3, "engine": "llm", "graph": {"kind": "scale_free"},
                   "nudge": {"kind": "active"}, "llm": {"max_in_flight": 4}}
    backend = {"kind": "remote", "base_url": server.url(), "api_key_env": "ECHOSIM_TEST_KEY"}
    mock = run(config_from_dict(mock_config), tmp_path / "mock").run_dir
    remote_run = run(config_from_dict({**mock_config, "backend": backend}), tmp_path / "remote").run_dir
    for name in ("trajectory.jsonl", "transcript.jsonl", "metrics.csv", "projection.csv",
                 "population.txt", "graph.txt"):
        assert (remote_run / name).read_bytes() == (mock / name).read_bytes(), name
    assert '"kind": "nudge"' in (mock / "transcript.jsonl").read_text()
    assert len(server.received) > 30 * 4 and len(server.connections) > 1  # through the worker pool


@pytest.mark.parametrize("days", [4, 12])
def test_a_pooled_remote_run_opens_at_most_max_in_flight_connections(tmp_path, monkeypatch, server, days):
    # the language engine starts a new worker pool each day; the backend's connections outlive them
    monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
    config = {"n": 30, "days": days, "seed": 3, "engine": "llm", "llm": {"max_in_flight": 4},
              "backend": {"kind": "remote", "base_url": server.url(), "api_key_env": "ECHOSIM_TEST_KEY"}}
    run(config_from_dict(config), tmp_path / "run")
    assert len(server.received) > 30 * days and 1 < len(server.connections) <= 4
    assert server.wait_closed(len(server.connections))


def test_a_serial_remote_run_closes_its_connection_when_it_returns(tmp_path, monkeypatch, server):
    monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
    config = {"n": 10, "days": 2, "seed": 3, "engine": "llm", "llm": {"max_in_flight": 1},
              "backend": {"kind": "remote", "base_url": server.url(), "api_key_env": "ECHOSIM_TEST_KEY"}}
    run(config_from_dict(config), tmp_path / "run")
    assert len(server.connections) == 1  # the calls are serial, so each finds the last one's connection idle
    assert server.wait_closed(1)


def test_a_run_through_null_completions_keeps_the_belief_and_truncates_the_summary(tmp_path, monkeypatch, server):
    monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
    n = 10
    config = {"n": n, "days": 1, "seed": 3, "engine": "llm", "llm": {"max_in_flight": 1},
              "backend": {"kind": "remote", "base_url": server.url(), "api_key_env": "ECHOSIM_TEST_KEY"}}
    # serial calls: agent 0's reflection and its retries, the other reflections, then agent 0's compression
    server.script = [REFUSAL] * 3 + [None] * (n - 1) + [REFUSAL]
    run_dir = run(config_from_dict(config), tmp_path / "run").run_dir
    events = [json.loads(line) for line in (run_dir / "transcript.jsonl").read_text().splitlines()]
    refused = "transport_error:malformed completion response: content is None"
    flagged = [(e["agent"], e["payload"]) for e in events if e["kind"] == "reflection" and e["payload"] != "ok"]
    assert flagged == [(0, ";".join([refused] * 3 + ["kept_previous_belief"])),
                       (0, "summary_transport_error;used_truncation_fallback")]
    assert not [e for e in events if e["agent"] == 0 and e["kind"] == "update"]


def test_importing_echosim_leaves_http_client_and_ssl_unloaded():
    # only the remote backend needs them, and together they take tens of milliseconds to import
    code = "import sys, echosim; sys.exit('http.client' in sys.modules or 'ssl' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(echosim.__file__).resolve().parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


LAZY_IMPORT_CHECK = """
import sys, tempfile
import echosim

LAYER = ("yaml", "echosim.runner", "echosim.layout", "echosim.metrics")
cfg = echosim.resolve_config(overrides={"n": 12, "days": 3, "engine": "llm"})
cfg.validate()
g = echosim.generate_graph(cfg.graph, echosim.component_rng(cfg.seed, "graph"))
population = echosim.init_population(cfg.n, cfg.topic, True, echosim.component_rng(cfg.seed, "population"))
echosim.run_llm(g, population, echosim.MockBackend(), cfg.llm, cfg.nudge, cfg.days, echosim.component_rng(3, "engine"))
assert not [name for name in LAYER if name in sys.modules], [name for name in LAYER if name in sys.modules]

for module in ("runner", "layout", "metrics"):
    assert getattr(echosim, module) is sys.modules["echosim." + module]
    assert module in dir(echosim)
assert echosim.runner.component_rng is echosim.component_rng  # one stream table, in config
for name, module in {"compare": "runner", "run": "runner", "sweep": "runner",
                     "force_layout": "layout", "MetricsSnapshot": "metrics", "deltas": "metrics",
                     "global_disagreement": "metrics", "nci": "metrics", "polarization": "metrics",
                     "snapshot": "metrics"}.items():
    assert getattr(echosim, name) is vars(sys.modules["echosim." + module])[name], name
    assert name in dir(echosim), name
star = {}
exec("from echosim import *", star)
assert star["run"] is echosim.run and star["generate_graph"] is echosim.generate_graph
try:
    echosim.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("echosim.no_such_name resolved")
assert "yaml" not in sys.modules  # reading the run-directory layer's names imports no PyYAML

with tempfile.TemporaryDirectory() as out:
    echosim.run(echosim.resolve_config(overrides={"n": 12, "days": 3}), out)
assert "yaml" in sys.modules  # the parent rendered config.yaml, not the writer child
"""


def test_importing_echosim_leaves_the_run_directory_layer_and_yaml_unloaded_until_reached():
    # a caller that drives the engines directly never writes a run directory, so never needs them
    env = {**os.environ, "PYTHONPATH": str(Path(echosim.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-W", "error", "-c", LAZY_IMPORT_CHECK], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
