"""Uniform completion interface over two backends.

ScriptedBackend maps prompts to canned replies for reproducible tests;
HttpBackend speaks the OpenAI-compatible completions protocol.  Both answer
one `CompletionRequest` (`complete`) with a `CompletionResponse`, and one
`CompletionBatch` -- a prompt list sharing one set of settings -- with one
`BatchReplies` record of the reply texts and per-prompt latencies, in prompt
order (`complete_batch`).  parse_yes_no turns a reply into a verdict without
ever matching inside longer words.
"""

from __future__ import annotations

import fnmatch
import json
import os
import re
import reprlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union
from urllib.parse import urlsplit

from .bounds import check_range, check_ranges, config_field, read_json

ENDPOINT_ENV = "DEPIN_LLM_ENDPOINT"
API_KEY_ENV = "DEPIN_LLM_KEY"

DEFAULT_MODEL = "EleutherAI/gpt-neo-125M"
BACKENDS = ("scripted", "http")  # the values of llm.backend
BACKOFF = 0.5  # seconds before HttpBackend's first retry; each further retry waits twice as long


class GatewayError(Exception):
    """Base class for completion-backend failures.

    `answered` holds the `BatchReplies` a `complete_batch` call received,
    in prompt order, before the prompt that failed; None outside a batch.
    """

    answered: Optional["BatchReplies"] = None


class BackendUnavailableError(GatewayError):
    """Transport failed after exhausting the retry budget."""


class ProtocolError(GatewayError):
    """The endpoint answered, but not with a usable completion."""

    def __init__(self, status: int, body_excerpt: str):
        super().__init__(f"completion endpoint returned status {status}: {body_excerpt}")
        self.status = status
        self.body_excerpt = body_excerpt


def _check_request(prompts: Sequence[str], max_tokens: int, temperature: float) -> None:
    if not all(prompts):
        raise ValueError("prompt must be non-empty")
    check_range(LlmSettings, "max_tokens", max_tokens)  # NaN and inf fail here, not when a request body is encoded
    check_range(LlmSettings, "temperature", temperature)


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    max_tokens: int = 8
    temperature: float = 0.0  # 0 for determinism
    model_name: str = DEFAULT_MODEL

    def __post_init__(self):
        _check_request((self.prompt,), self.max_tokens, self.temperature)


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    latency: float  # seconds taken by the call that produced it
    backend: str  # "scripted" | "http"


@dataclass(frozen=True)
class CompletionBatch:
    """Prompts asked with one set of settings, checked once as a `CompletionRequest` is."""

    prompts: Sequence[str]
    max_tokens: int = CompletionRequest.max_tokens
    temperature: float = CompletionRequest.temperature
    model_name: str = DEFAULT_MODEL

    def __post_init__(self):
        _check_request(self.prompts, self.max_tokens, self.temperature)


@dataclass(frozen=True)
class BatchReplies:
    """A batch's reply texts and latencies, one each per answered prompt in prompt order."""

    texts: Sequence[str]
    latencies: Sequence[float]  # seconds per prompt; a scripted batch gives each its whole time
    backend: str  # "scripted" | "http"


class ScriptedBackend:
    """Deterministic stand-in for a language-model endpoint.

    `script` may be a mapping from prompts (exact strings or fnmatch
    patterns, checked in insertion order) to replies, or a callable
    computing the reply from the prompt.  Unmatched prompts get "", so a
    catch-all reply is a last "*" pattern.
    """

    name = "scripted"

    def __init__(self, script: Union[Mapping[str, str], Callable[[str], str], None] = None):
        self._table = dict(script) if script is not None and not callable(script) else {}
        self._reply: Callable[[str], str] = script if callable(script) else self._lookup

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        start = time.perf_counter()
        text = self._reply(request.prompt)
        return CompletionResponse(text=text, latency=time.perf_counter() - start, backend=self.name)

    def complete_batch(self, batch: CompletionBatch) -> BatchReplies:
        """One reply per prompt, in order; each latency is the whole batch's."""
        start = time.perf_counter()
        texts = list(map(self._reply, batch.prompts))
        latency = time.perf_counter() - start
        return BatchReplies(texts=texts, latencies=[latency] * len(texts), backend=self.name)

    def _lookup(self, prompt: str) -> str:
        if prompt in self._table:
            return self._table[prompt]
        for pattern, reply in self._table.items():
            if fnmatch.fnmatchcase(prompt, pattern):
                return reply
        return ""


class HttpBackend:
    """OpenAI-compatible completions client with a bounded retry budget.

    `complete_batch` sends one `complete` per prompt, in order, and each
    attempt is one POST through `urllib.request` on a fresh connection.
    Transport failures, 429 and 5xx answers are retried with exponential
    backoff, or after the answer's delta-seconds Retry-After (capped at the
    timeout).  Once the budget is spent a transport failure surfaces as
    BackendUnavailableError and a 429/5xx as ProtocolError; any other
    non-2xx answer, a 307 or 308 redirect of the POST included, raises
    ProtocolError immediately.  `timeout` and `retries` must lie in the
    ranges `LlmSettings` declares for them.
    """

    name = "http"

    def __init__(self, endpoint: str, api_key: Optional[str] = None, timeout: float = 10.0, retries: int = 2):
        try:
            parts = urlsplit(endpoint)
            parts.port  # raises on a port that is not an integer from 0 to 65535
        except ValueError as err:
            raise ValueError(f"endpoint {endpoint!r} is not a URL: {err}") from None
        if "@" in parts.netloc:  # not echoed: it holds a secret
            raise ValueError("endpoint must not hold credentials (user:password@); use llm.api_key instead")
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL with a host, got {endpoint!r}")
        if re.search(r"[^!-~]|[?#]", endpoint):  # http.client sends printable ASCII; "/v1/completions" is appended
            raise ValueError(f"endpoint must be a base URL of printable ASCII, without spaces, a query or a "
                             f"fragment (percent-encode other characters), got {endpoint!r}")
        if api_key and re.search(r"[^!-~]", api_key):  # not echoed: it is a secret
            raise ValueError("api_key must be printable ASCII without spaces: it is sent as a bearer token")
        check_range(LlmSettings, "timeout", timeout)
        check_range(LlmSettings, "retries", retries)
        import http.client
        import urllib.request  # here, not at module level: heuristic and scripted runs never load the HTTP stack

        self._urllib = urllib.request
        # URLError, timeouts and resets are OSErrors; IncompleteRead and BadStatusLine are HTTPExceptions.
        self._transport_errors = (OSError, http.client.HTTPException)
        self.url = endpoint.rstrip("/") + "/v1/completions"
        self.api_key = api_key
        self.timeout = timeout
        self.retries = retries

    def complete_batch(self, batch: CompletionBatch) -> BatchReplies:
        """One reply per prompt, in order; a failure carries the replies before it as `answered`."""
        texts: List[str] = []
        latencies: List[float] = []
        for prompt in batch.prompts:
            request = CompletionRequest(prompt, batch.max_tokens, batch.temperature, batch.model_name)
            try:
                response = self.complete(request)
            except GatewayError as err:
                err.answered = BatchReplies(texts=texts, latencies=latencies, backend=self.name)
                raise
            texts.append(response.text)
            latencies.append(response.latency)
        return BatchReplies(texts=texts, latencies=latencies, backend=self.name)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        payload = {
            "model": request.model_name,
            "prompt": request.prompt,
            "max_tokens": request.max_tokens,
            "temperature": request.temperature,
        }
        body = json.dumps(payload, allow_nan=False).encode()
        start = time.perf_counter()
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                status, reply_headers, reply = self._post(body)
            except self._transport_errors as err:
                last_error = err
                if attempt < self.retries:
                    time.sleep(BACKOFF * 2**attempt)
                continue
            if (status == 429 or status >= 500) and attempt < self.retries:
                time.sleep(self._retry_delay(reply_headers, attempt))
                continue
            reply_text = reply.decode("utf-8", "replace")
            if not 200 <= status < 300:
                raise ProtocolError(status, reply_text[:200])
            try:
                text = json.loads(reply_text)["choices"][0]["text"]
            except (ValueError, KeyError, IndexError, TypeError):
                text = None
            if not isinstance(text, str):  # a null, number or list text is no completion either
                raise ProtocolError(status, f"malformed completion body: {reply_text[:200]}")
            return CompletionResponse(text=text, latency=time.perf_counter() - start, backend=self.name)
        raise BackendUnavailableError(
            f"{self.url} unreachable after {self.retries + 1} attempts: {last_error}"
        )

    def _post(self, body: bytes):
        """One attempt on a fresh connection: the answer's status, headers and body, whatever its status."""
        # A proxy rewrites the request, so each attempt builds its own.
        request = self._urllib.Request(self.url, data=body, headers={"Content-Type": "application/json"})
        if self.api_key:  # unredirected: a redirect, which urllib follows as a GET, never carries the token
            request.add_unredirected_header("Authorization", f"Bearer {self.api_key}")
        try:
            with self._urllib.urlopen(request, timeout=self.timeout) as resp:
                return resp.status, resp.headers, resp.read()
        except self._urllib.HTTPError as err:  # urlopen raises a non-2xx answer; reading its body may still fail
            with err:
                return err.code, err.headers, err.read()

    def _retry_delay(self, headers, attempt: int) -> float:
        """Seconds to wait before retrying a 429/5xx answer (RFC 9110 §10.2.3)."""
        retry_after = headers.get("Retry-After", "").strip()
        if retry_after.isascii() and retry_after.isdigit():
            return min(float(retry_after), self.timeout)
        return BACKOFF * 2**attempt


_YES_NO = re.compile(r"\b(yes|no)\b", re.IGNORECASE)


def parse_yes_no(text: str) -> Optional[bool]:
    """First standalone 'yes'/'no' token in `text`, or None if neither occurs.

    Word-boundary matching only: 'nothing' and 'yesterday' never count.
    Parse failure is a value (None), not an exception.
    """
    match = _YES_NO.search(text or "")
    if match is None:
        return None
    return match.group(1).lower() == "yes"


class AuditLog:
    """Append-only JSON-lines record of every prompt/response exchange.

    The path is checked when the log is built: its directory must exist and it must not name a directory.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        if not self.path.parent.is_dir():
            raise ValueError(f"audit_log {path}: directory {self.path.parent} does not exist")
        if self.path.is_dir():
            raise ValueError(f"audit_log {path} is a directory")

    def record_batch(self, batch: CompletionBatch, replies: BatchReplies) -> None:
        """Append one line per reply, opening the file once; no replies write nothing.

        Reply i answers `batch.prompts[i]`; a failed batch's `answered`
        replies cover only the prompts before the failure.  JSON leaves a lone surrogate raw in a
        string and UTF-8 cannot encode it, so it is written as its backslash escape, its JSON escape.
        A high surrogate directly followed by a low one is written as two escapes (`\\ud83d\\ude00`),
        which JSON defines as one character: that line reads back as U+1F600.  Only a Python caller
        can hand in such a pair, since JSON input decodes it to one character first.
        """
        answered = batch.prompts[:len(replies.texts)]
        lines = [
            json.dumps({"prompt": prompt, "model": batch.model_name, "response": text,
                        "backend": replies.backend, "latency_s": latency}, ensure_ascii=False) + "\n"
            for prompt, text, latency in zip(answered, replies.texts, replies.latencies, strict=True)
        ]
        if lines:
            with open(self.path, "a", encoding="utf-8", errors="backslashreplace") as fh:
                fh.writelines(lines)


@dataclass(frozen=True)
class LlmSettings:
    """Backend configuration as read from the run-config file."""

    backend: str = config_field("scripted", f"completion backend: {' | '.join(BACKENDS)}")
    script: Optional[Dict[str, str]] = config_field(None, "inline prompt-pattern -> reply map (scripted)")
    script_file: Optional[str] = config_field(None, "JSON file with the scripted reply map")
    endpoint: Optional[str] = config_field(None, f"completions endpoint base URL (or ${ENDPOINT_ENV})")
    api_key: Optional[str] = config_field(None, f"bearer token (or ${API_KEY_ENV})")
    model_name: str = config_field(DEFAULT_MODEL, "model identifier sent to the endpoint")
    max_tokens: int = config_field(CompletionRequest.max_tokens, "completion length limit", "[1, inf)")
    temperature: float = config_field(
        CompletionRequest.temperature, "sampling temperature (0 for determinism)", "[0, inf)")
    timeout: float = config_field(
        10.0, "seconds for each connect and each read of one HTTP attempt, not a whole request; "
        "each prompt's retries add backoff (at most about 511 s at retries 10); a batch has no total bound",
        "(0, 86400]")
    # A socket timeout is at most about 9.2e9 s (int64 nanoseconds); one day is far inside it.
    # Ten retries bound the backoff to 1023 times BACKOFF, about 511 s per prompt.
    retries: int = config_field(2, "retries after a transport failure, 429 or 5xx", "[0, 10]")

    def __post_init__(self):
        check_ranges(self)
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {', '.join(BACKENDS)}, got {self.backend!r}")
        if self.script is not None and self.script_file is not None:
            raise ValueError("script cannot be combined with script_file; keep one of them")


def build_backend(settings: LlmSettings):
    """Construct the configured backend, resolving endpoint/key from env."""
    if settings.backend == "scripted":
        script = settings.script
        if settings.script_file:
            try:
                script = read_json(settings.script_file)
            except json.JSONDecodeError as err:
                raise ValueError(f"llm.script_file {settings.script_file} is not JSON: {err}") from None
            if not (isinstance(script, dict) and all(isinstance(v, str) for v in script.values())):
                raise ValueError(f"llm.script_file {settings.script_file} must hold a JSON object "
                                 f"of string -> string, got {reprlib.repr(script)}")
        if script is None:
            raise ValueError("scripted llm backend needs a script or script_file")
        return ScriptedBackend(script)
    endpoint = settings.endpoint or os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise ValueError(f"http llm backend needs an endpoint (config or ${ENDPOINT_ENV})")
    api_key = settings.api_key or os.environ.get(API_KEY_ENV)
    return HttpBackend(
        endpoint,
        api_key=api_key,
        timeout=settings.timeout,
        retries=settings.retries,
    )
