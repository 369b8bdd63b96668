"""Per-layer timing by wrapping treedecode's public functions from outside.

``Tracer.install`` replaces each function listed in ``SPANS`` (and every
other ``treedecode`` module's binding of the same object, since the CLI
imports functions by name) with a wrapper that times the call. Spans are
aggregated as they close instead of being stored one by one, because the
tie-break key alone runs tens of thousands of times per repetition. A span's
self time is its duration minus the time of the spans it encloses, so
self times of different layers never count the same interval twice.
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute or Class.method, span name)
SPANS = (
    ("treedecode.decoding", "sequence_sort_key", "decoding.sort_key"),
    ("treedecode.decoding", "dynamic_vocabulary", "decoding.vocab"),
    ("treedecode.decoding", "step", "decoding.step"),
    ("treedecode.decoding", "restricted_log_softmax", "decoding.softmax"),
    ("treedecode.decoding", "constrained_beam_search", "decoding.beam"),
    ("treedecode.decoding", "unconstrained_decode", "decoding.beam"),
    ("treedecode.scorers", "UniformScorer.score", "scorers.score"),
    ("treedecode.scorers", "OracleScorer.score", "scorers.score"),
    ("treedecode.scorers", "RandomScorer.score", "scorers.score"),
    ("treedecode.scorers", "BigramScorer.score", "scorers.score"),
    ("treedecode.scorers", "BigramScorer.load", "scorers.load"),
    ("treedecode.scorers", "fit_bigram_scorer", "scorers.fit"),
    ("treedecode.corpus", "read_jsonl", "corpus.read"),
    ("treedecode.corpus", "read_documents", "corpus.read"),
    ("treedecode.corpus", "write_jsonl", "corpus.write"),
    ("treedecode.linearizer", "linearize", "linearizer.linearize"),
    ("treedecode.taxonomy", "parse_taxonomy", "taxonomy.parse"),
    ("treedecode.taxonomy", "Taxonomy.is_consistent", "taxonomy.is_consistent"),
    ("treedecode.metrics", "evaluate", "metrics.evaluate"),
    ("treedecode.metrics", "confusion_counts", "metrics.confusion_counts"),
)

# Layers reported as self seconds, by span name.
TIMED = (
    "decoding.sort_key", "decoding.step", "decoding.vocab", "decoding.softmax", "scorers.score",
    "scorers.load", "scorers.fit", "corpus.read", "corpus.write", "linearizer.linearize",
    "taxonomy.parse", "taxonomy.is_consistent", "metrics.evaluate", "metrics.confusion_counts",
)


def _tokens_of(result) -> int:
    # constrained_beam_search returns the ranked list, unconstrained_decode one sequence.
    top = result[0] if isinstance(result, list) else result
    return len(top.tokens)


class Tracer:
    """Aggregated spans and counters for one traced pipeline repetition at a time."""

    def __init__(self):
        self._open: list[float] = []  # time covered by child spans, one entry per open span
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.vocab_max = 0
        self.beam_ms: list[float] = []

    def _after(self, name: str, args: tuple, result, seconds: float) -> None:
        if name == "decoding.vocab":
            self.counts["vocab_size"] += len(result)
            self.vocab_max = max(self.vocab_max, len(result))
        elif name == "scorers.score":
            self.counts["candidates"] += len(args[3])
        elif name == "decoding.beam":
            self.beam_ms.append(seconds * 1000.0)
            self.counts["output_tokens"] += _tokens_of(result)

    def wrap(self, name: str, function):
        open_spans = self._open
        after = self._after if name in ("decoding.vocab", "scorers.score", "decoding.beam") else None

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self.self_s[name] += seconds - open_spans.pop()
                if open_spans:
                    open_spans[-1] += seconds
                self.calls[name] += 1
            if after is not None:
                after(name, args, result, seconds)
            return result

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "treedecode" or n.startswith("treedecode.")]
        for module_name, attribute, name in SPANS:
            module = sys.modules[module_name]
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    self._patch(owner, method, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._patch(owner, method, self.wrap(name, raw))
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(name, original)
            for other in modules:
                for bound_name, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, bound_name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def layers(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset."""
        calls, counts = self.calls, self.counts
        expansions = calls["decoding.step"]
        metrics = {f"{name}_s": self.self_s[name] for name in TIMED}
        metrics.update({
            "decoding.sort_key_calls": calls["decoding.sort_key"],
            "decoding.vocab_calls_per_expansion": calls["decoding.vocab"] / expansions if expansions else 0.0,
            "decoding.vocab_size_mean": counts["vocab_size"] / calls["decoding.vocab"] if calls["decoding.vocab"] else 0.0,
            "decoding.vocab_size_max": self.vocab_max,
            "decoding.output_tokens_mean": counts["output_tokens"] / calls["decoding.beam"] if calls["decoding.beam"] else 0.0,
            "decoding.beam_self_s": self.self_s["decoding.beam"],
            "decoding.softmax_calls": calls["decoding.softmax"],
            "scorers.score_calls": calls["scorers.score"],
            "scorers.candidates_scored": counts["candidates"],
            "decoding.kept_share": calls["scorers.score"] / counts["candidates"] if counts["candidates"] else 0.0,
        })
        return metrics

