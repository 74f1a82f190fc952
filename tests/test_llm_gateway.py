"""Gateway tests: yes/no parsing, scripted replies, HTTP protocol and retries."""

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import YES_NO_CORPUS
from depinsim.agents import DecisionContext, LlmPolicy
from depinsim.engine import decode
from depinsim.llm_gateway import (
    AuditLog,
    BackendUnavailableError,
    BatchReplies,
    CompletionBatch,
    CompletionRequest,
    HttpBackend,
    LlmSettings,
    ProtocolError,
    ScriptedBackend,
    build_backend,
    parse_yes_no,
)


class TestParseYesNo:
    @pytest.mark.parametrize("text,expected", YES_NO_CORPUS)
    def test_corpus(self, text, expected):
        assert parse_yes_no(text) is expected

    def test_none_input_is_parse_failure(self):
        assert parse_yes_no(None) is None

    @given(st.text(max_size=200))
    def test_total_and_boundary_correct(self, text):
        # Oracle: first whitespace/punctuation-delimited word token.
        verdict = parse_yes_no(text)
        tokens = [t.casefold() for t in re.findall(r"\w+", text)]
        first = next((t for t in tokens if t in ("yes", "no")), None)
        expected = None if first is None else first == "yes"
        assert verdict is expected

    def test_stable_under_repetition(self):
        for text, _ in YES_NO_CORPUS:
            assert parse_yes_no(text) is parse_yes_no(text)


class TestScriptedBackend:
    def test_exact_match_wins(self):
        backend = ScriptedBackend({"ping": "yes", "*": "no"})
        assert backend.complete(CompletionRequest(prompt="ping")).text == "yes"

    def test_glob_pattern(self):
        backend = ScriptedBackend({"*enter*": "yes"})
        response = backend.complete(CompletionRequest(prompt="Should the node enter the system?"))
        assert response.text == "yes"
        assert response.backend == "scripted"

    def test_default_reply(self):
        backend = ScriptedBackend({"*enter*": "yes", "*": "no idea"})
        assert backend.complete(CompletionRequest(prompt="unrelated")).text == "no idea"

    def test_callable_script(self):
        backend = ScriptedBackend(lambda prompt: prompt[::-1])
        assert backend.complete(CompletionRequest(prompt="abc")).text == "cba"

    def test_deterministic(self):
        backend = ScriptedBackend({"*": "Yes."})
        req = CompletionRequest(prompt="anything")
        assert backend.complete(req).text == backend.complete(req).text


class TestCompletionRequestValidation:
    @pytest.mark.parametrize(
        "prompt, settings, message",
        [
            ("", {}, "prompt must be non-empty"),
            ("a", {"max_tokens": 0}, "max_tokens must be >= 1, got 0"),
            ("a", {"temperature": -0.1}, "temperature must be >= 0, got -0.1"),
        ],
    )
    def test_batch_raises_as_a_request_does(self, prompt, settings, message):
        with pytest.raises(ValueError, match=message):
            CompletionBatch(["ok", prompt], **settings)
        with pytest.raises(ValueError, match=message):
            CompletionRequest(prompt, **settings)

    def test_empty_prompt(self):
        with pytest.raises(ValueError):
            CompletionRequest(prompt="")

    def test_max_tokens(self):
        with pytest.raises(ValueError):
            CompletionRequest(prompt="x", max_tokens=0)

    def test_temperature(self):
        with pytest.raises(ValueError):
            CompletionRequest(prompt="x", temperature=-0.1)


class _StubHandler(BaseHTTPRequestHandler):
    """OpenAI-compatible completions stub; behaviour set per server."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.server.requests.append({"path": self.path, "body": body, "headers": dict(self.headers)})
        status = self.server.statuses.pop(0) if self.server.statuses else self.server.status
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if status != 200 and self.server.retry_after is not None:
            self.send_header("Retry-After", self.server.retry_after)
        self.end_headers()
        if self.server.raw_payload is not None:
            self.wfile.write(self.server.raw_payload)
        elif status == 200:
            self.wfile.write(json.dumps({"choices": [{"text": self.server.reply}]}).encode())
        else:
            self.wfile.write(b'{"error": "boom"}')

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    server.requests = []
    server.status = 200
    server.statuses = []  # served first, one per request, before `status`
    server.retry_after = None
    server.reply = "No."
    server.raw_payload = None
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def sleeps(monkeypatch):
    """The backend's retry waits, recorded instead of slept."""
    waits = []
    monkeypatch.setattr("depinsim.llm_gateway.time.sleep", waits.append)
    return waits


class TestHttpBackend:
    def test_passthrough(self, stub_server):
        endpoint = f"http://127.0.0.1:{stub_server.server_port}"
        backend = HttpBackend(endpoint, api_key="sk-test", timeout=5.0)
        response = backend.complete(CompletionRequest(prompt="Should the node exit?", max_tokens=4))
        assert response.text == "No."
        assert response.backend == "http"
        assert response.latency >= 0.0
        sent = stub_server.requests[0]
        assert sent["path"] == "/v1/completions"
        assert sent["body"] == {
            "model": "EleutherAI/gpt-neo-125M",
            "prompt": "Should the node exit?",
            "max_tokens": 4,
            "temperature": 0.0,
        }
        assert sent["headers"]["Authorization"] == "Bearer sk-test"

    def test_non_2xx_raises_protocol_error(self, stub_server):
        stub_server.status = 400
        backend = HttpBackend(f"http://127.0.0.1:{stub_server.server_port}", timeout=5.0)
        with pytest.raises(ProtocolError) as err:
            backend.complete(CompletionRequest(prompt="hello"))
        assert err.value.status == 400
        assert len(stub_server.requests) == 1  # client errors are not retried

    @pytest.mark.parametrize("status", [429, 500, 503])
    def test_transient_status_is_retried(self, stub_server, sleeps, status):
        stub_server.statuses = [status]
        backend = HttpBackend(f"http://127.0.0.1:{stub_server.server_port}", timeout=5.0)
        assert backend.complete(CompletionRequest(prompt="hello")).text == "No."
        assert len(stub_server.requests) == 2
        assert sleeps == [0.5]

    def test_exhausted_budget_raises_protocol_error(self, stub_server, sleeps):
        stub_server.status = 503
        backend = HttpBackend(f"http://127.0.0.1:{stub_server.server_port}", timeout=5.0, retries=2)
        with pytest.raises(ProtocolError) as err:
            backend.complete(CompletionRequest(prompt="hello"))
        assert err.value.status == 503
        assert len(stub_server.requests) == 3
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("header,delay", [("2", 2.0), ("120", 5.0), ("Wed, 21 Oct 2015 07:28:00 GMT", 0.5)])
    def test_retry_after_is_honoured_up_to_the_timeout(self, stub_server, sleeps, header, delay):
        stub_server.statuses = [503]
        stub_server.retry_after = header
        backend = HttpBackend(f"http://127.0.0.1:{stub_server.server_port}", timeout=5.0)
        assert backend.complete(CompletionRequest(prompt="hello")).text == "No."
        assert sleeps == [delay]  # an HTTP-date falls back to the backoff

    def test_unreachable_endpoint_exhausts_retries(self, sleeps):
        backend = HttpBackend("http://127.0.0.1:1", timeout=0.2, retries=2)
        with pytest.raises(BackendUnavailableError, match="3 attempts"):
            backend.complete(CompletionRequest(prompt="hello"))
        assert sleeps == [0.5, 1.0]

    def test_malformed_body_is_protocol_error(self, stub_server):
        stub_server.raw_payload = b'{"unexpected": true}'
        backend = HttpBackend(f"http://127.0.0.1:{stub_server.server_port}", timeout=5.0)
        with pytest.raises(ProtocolError, match="malformed completion body"):
            backend.complete(CompletionRequest(prompt="hello"))

    @pytest.mark.parametrize("text", ["null", "5", '["yes"]'], ids=["null", "number", "list"])
    def test_non_string_completion_text_is_protocol_error(self, stub_server, text):
        stub_server.raw_payload = b'{"choices": [{"text": %s}]}' % text.encode()
        backend = HttpBackend(f"http://127.0.0.1:{stub_server.server_port}", timeout=5.0)
        with pytest.raises(ProtocolError, match="malformed completion body") as err:
            backend.complete(CompletionRequest(prompt="hello"))
        assert err.value.status == 200
        assert len(stub_server.requests) == 1  # a malformed answer is not retried


def _batch(*prompts):
    return CompletionBatch(list(prompts), max_tokens=4)


class TestHttpBackendBatch:
    """`complete_batch` against the stub: one POST per prompt, in order."""

    @pytest.fixture
    def backend(self, stub_server, sleeps):
        return HttpBackend(f"http://127.0.0.1:{stub_server.server_port}", timeout=5.0)

    def test_one_request_per_prompt_in_order(self, stub_server, backend):
        replies = backend.complete_batch(_batch("a", "b", "c"))
        assert (replies.texts, replies.backend) == (["No."] * 3, "http")
        assert len(replies.latencies) == 3 and all(latency > 0 for latency in replies.latencies)
        assert [sent["body"] for sent in stub_server.requests] == [
            {"model": "EleutherAI/gpt-neo-125M", "prompt": prompt, "max_tokens": 4, "temperature": 0.0}
            for prompt in ("a", "b", "c")
        ]

    def test_transient_status_retries_only_that_request(self, stub_server, backend):
        stub_server.statuses = [200, 503]
        assert len(backend.complete_batch(_batch("a", "b", "c")).texts) == 3
        assert [sent["body"]["prompt"] for sent in stub_server.requests] == ["a", "b", "b", "c"]

    def test_failure_carries_the_replies_before_it(self, stub_server, backend):
        stub_server.statuses = [200, 200, 400]
        with pytest.raises(ProtocolError) as err:
            backend.complete_batch(_batch("a", "b", "c", "d"))
        assert err.value.answered.texts == ["No.", "No."]
        assert len(err.value.answered.latencies) == 2
        assert len(stub_server.requests) == 3  # nothing is sent after the failure

    def test_empty_batch_sends_nothing(self, stub_server, backend):
        assert backend.complete_batch(CompletionBatch([])) == BatchReplies([], [], "http")
        assert stub_server.requests == []

    def test_failed_batch_is_audited_up_to_the_failure_as_scalar_calls_are(self, stub_server, backend, tmp_path):
        costs, tolerances = np.array([1000.0, 2000.0, 3000.0]), np.full(3, 0.5)
        logs = []
        for route in ("batch", "scalar"):
            stub_server.statuses = [200, 200, 400]
            log = AuditLog(tmp_path / f"{route}.jsonl")
            policy = LlmPolicy(backend, audit_log=log)
            with pytest.raises(ProtocolError):
                if route == "batch":
                    policy.decide_exits(1500.0, costs, tolerances, 1)
                else:
                    for cost, tolerance in zip(costs.tolist(), tolerances.tolist()):
                        policy.decide_exit(DecisionContext(1500.0, cost, tolerance, 1))
            logs.append([{k: v for k, v in json.loads(line).items() if k != "latency_s"}
                         for line in log.path.read_text().splitlines()])
        assert len(logs[0]) == 2
        assert logs[0] == logs[1]


class TestScriptedBatch:
    def test_batch_answers_in_order_as_single_calls_do(self):
        backend = ScriptedBackend({"*enter*": "yes", "*exit*": "no", "*": "?"})
        prompts = ["exit now", "enter now", "other"]
        replies = backend.complete_batch(CompletionBatch(prompts))
        single = [backend.complete(CompletionRequest(prompt=p)).text for p in prompts]
        assert replies.texts == single == ["no", "yes", "?"]
        assert len(replies.latencies) == 3 and len(set(replies.latencies)) == 1  # one timing pair per batch
        assert backend.complete_batch(CompletionBatch([])).texts == []


class TestAuditLog:
    def test_records_json_lines(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        backend = ScriptedBackend({"*": "yes"})
        batch = CompletionBatch(["Should the node enter?"])
        replies = backend.complete_batch(batch)
        log.record_batch(batch, replies)
        log.record_batch(batch, replies)
        lines = (tmp_path / "audit.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert entry["prompt"] == "Should the node enter?"
        assert entry["response"] == "yes"
        assert entry["backend"] == "scripted"
        assert entry["latency_s"] >= 0.0

    @pytest.mark.parametrize("path,error", [("missing/audit.jsonl", "directory missing does not exist"),
                                            (".", "is a directory")])
    def test_path_is_checked_when_the_log_is_built(self, tmp_path, monkeypatch, path, error):
        # A library caller gets the check the CLI makes at load, not a failed month when the first line is written.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match=f"audit_log {re.escape(path)}.* {error}"):
            AuditLog(path)
        assert list(tmp_path.iterdir()) == []

    def test_batch_writes_the_lines_single_records_write(self, tmp_path, monkeypatch):
        backend = ScriptedBackend({"*enter*": "yes", "*": "no"})
        batch = CompletionBatch(["enter?", "exit?", "ünïcode"], model_name="m")
        replies = backend.complete_batch(batch)
        single = AuditLog(tmp_path / "single.jsonl")
        for prompt, text, latency in zip(batch.prompts, replies.texts, replies.latencies):
            single.record_batch(CompletionBatch([prompt], model_name="m"), BatchReplies([text], [latency], "scripted"))
        opened = []
        monkeypatch.setattr("builtins.open", lambda *a, _open=open, **k: opened.append(a[0]) or _open(*a, **k))
        batched = AuditLog(tmp_path / "batched.jsonl")
        batched.record_batch(batch, replies)
        batched.record_batch(batch, BatchReplies([], [], "scripted"))
        assert opened == [batched.path]  # once per non-empty batch
        assert batched.path.read_text(encoding="utf-8") == single.path.read_text(encoding="utf-8")


class TestBuildBackend:
    def test_scripted_from_inline_script(self):
        backend = build_backend(LlmSettings(backend="scripted", script={"*": "yes"}))
        assert isinstance(backend, ScriptedBackend)

    def test_scripted_from_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"*enter*": "yes"}))
        backend = build_backend(LlmSettings(backend="scripted", script_file=str(path)))
        assert backend.complete(CompletionRequest(prompt="enter please")).text == "yes"

    @pytest.mark.parametrize("content", ['{"*": 5}', '["a"]', '{"*": null}', '{"*": "yes"'])
    def test_scripted_file_must_hold_a_string_map(self, tmp_path, content):
        path = tmp_path / "script.json"
        path.write_text(content)
        with pytest.raises(ValueError, match="llm.script_file"):
            build_backend(LlmSettings(backend="scripted", script_file=str(path)))

    def test_script_with_script_file_is_rejected(self, tmp_path):
        # Both set used to drop the inline script without a word: the file's "yes" answered.
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"*": "yes"}))
        with pytest.raises(ValueError, match="llm.script cannot be combined with script_file"):
            decode(LlmSettings(), {"script": {"*": "no"}, "script_file": str(path)}, "llm.")
        with pytest.raises(ValueError, match="script_file"):
            LlmSettings(script={"*": "no"}, script_file=str(path))

    def test_scripted_requires_a_script(self):
        with pytest.raises(ValueError):
            build_backend(LlmSettings(backend="scripted"))

    def test_http_requires_endpoint(self, monkeypatch):
        monkeypatch.delenv("DEPIN_LLM_ENDPOINT", raising=False)
        with pytest.raises(ValueError):
            build_backend(LlmSettings(backend="http"))

    def test_http_endpoint_from_env(self, monkeypatch):
        monkeypatch.setenv("DEPIN_LLM_ENDPOINT", "http://example.test")
        monkeypatch.setenv("DEPIN_LLM_KEY", "sk-env")
        backend = build_backend(LlmSettings(backend="http"))
        assert backend.url == "http://example.test/v1/completions"
        assert backend.api_key == "sk-env"

    @pytest.mark.parametrize("endpoint", ["localhost:8000", "127.0.0.1:8000", "ftp://example.test", "http://", "",
                                          "http://127.0.0.1:99999", "http://127.0.0.1:x", "http://[::1"])
    def test_http_endpoint_must_be_an_http_url_with_a_host(self, monkeypatch, endpoint):
        # Such an endpoint would fail every request at month 1, after the retries' backoff: it is rejected at load.
        monkeypatch.setenv("DEPIN_LLM_ENDPOINT", endpoint)
        for settings in (LlmSettings(backend="http", endpoint=endpoint), LlmSettings(backend="http")):
            with pytest.raises(ValueError, match=re.escape(repr(endpoint)) if endpoint else "needs an endpoint"):
                build_backend(settings)
        with pytest.raises(ValueError, match=re.escape(repr(endpoint))):
            HttpBackend(endpoint)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            build_backend(LlmSettings(backend="magic"))

    def test_unknown_settings_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: llm.scripts"):
            decode(LlmSettings(), {"backend": "scripted", "scripts": {}}, "llm.")
