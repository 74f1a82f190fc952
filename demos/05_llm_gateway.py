#!/usr/bin/env python3
"""The completion gateway: prompts, scripted replies, parsing, fallbacks.

Decision prompts are plain English with the numbers substituted in; any
backend that answers with a standalone 'yes' or 'no' plugs in.  Set
DEPIN_LLM_ENDPOINT (and optionally DEPIN_LLM_KEY) to exercise a live
OpenAI-compatible endpoint at the end.
"""

import os

from depinsim import (
    CompletionRequest,
    DecisionContext,
    HttpBackend,
    LlmPolicy,
    ScriptedBackend,
    parse_yes_no,
    render_entry_prompt,
    render_exit_prompt,
)
from depinsim.llm_gateway import ENDPOINT_ENV, API_KEY_ENV

ctx = DecisionContext(global_revenue=160_000.0, node_cost=1000.0, tolerance=0.5, month=1)
print("-- prompt templates --")
print(" ", render_entry_prompt(ctx))
print(" ", render_exit_prompt(ctx))

print("\n-- scripted backend --")
backend = ScriptedBackend({"*enter the system*": "yes", "*exit the system*": "No."})
for prompt in (render_entry_prompt(ctx), render_exit_prompt(ctx)):
    reply = backend.complete(CompletionRequest(prompt=prompt)).text
    print(f"  reply {reply!r:<8} -> verdict {parse_yes_no(reply)}")

print("\n-- parse robustness --")
for text in ("Yes, the node should enter.", " NO", "nothing doing", "yesterday", "Unknown"):
    print(f"  {text!r:<32} -> {parse_yes_no(text)}")

print("\n-- fallback accounting --")
policy = LlmPolicy(ScriptedBackend({"*": "inscrutable"}))
verdict = policy.decide_entry(ctx)
print(f"  unparseable reply fell back to heuristic verdict {verdict}; "
      f"fallback_count={policy.fallback_count}")

endpoint = os.environ.get(ENDPOINT_ENV)
if endpoint:
    print(f"\n-- live endpoint {endpoint} --")
    live = HttpBackend(endpoint, api_key=os.environ.get(API_KEY_ENV))
    response = live.complete(CompletionRequest(prompt=render_entry_prompt(ctx)))
    print(f"  raw reply   : {response.text!r} ({response.latency * 1000:.0f} ms)")
    print(f"  verdict     : {parse_yes_no(response.text)}")
else:
    print(f"\n(set {ENDPOINT_ENV} to demo a live OpenAI-compatible endpoint)")
