"""The clock every gated time of the benchmark is read from.

Times are CPU seconds, not wall seconds. The pipeline is single-threaded
(``--workers 1``) and its files sit in the page cache, so on an idle
machine the two agree to within a percent. On a shared host wall time
also counts the time the process waits for a core, which other tenants'
load decides; CPU time leaves that out. Reaped child processes are
included, so work moved into a subprocess is still counted.

CPU time still follows the host: on a 2-CPU virtual machine, what other
tenants ran on the same cores and caches made the same repetition take
anywhere from 0.41 to 0.77 CPU seconds within one minute. So every timed
piece of work is bracketed by ``calibration``, a fixed pure-Python beam
search that imports nothing from ``treedecode``, and reported in
*reference seconds*: its CPU time times ``REFERENCE_S`` over the
calibration's CPU time measured next to it. That is the time the work
would take on a machine that runs the calibration in exactly
``REFERENCE_S``; on the virtual machine above, reference and CPU seconds
roughly agree. Interference slows both alike, so the ratio holds still.
"""

from __future__ import annotations

import math
import random
import resource
import time

REFERENCE_S = 0.1  # calibration CPU seconds on the reference machine

_NODES, _FANOUT, _DOCS, _STEPS, _BEAM = 400, 60, 64, 8, 4
# Integer keys, so the calibration's cost does not depend on the per-process
# string hash seed, as the pipeline's does.
_rng = random.Random(0)
_TABLE = [{succ: _rng.random() for succ in _rng.sample(range(_NODES), _FANOUT)} for _ in range(_NODES)]


def cpu_seconds() -> float:
    """CPU seconds used so far by this process, its threads and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _beam_search() -> float:
    """Beam search over a seeded bigram table: dict lookups, tuples, a softmax and a keyed sort per step."""
    total = 0.0
    for doc in range(_DOCS):
        beams = [((doc,), 0.0)]
        for _ in range(_STEPS):
            expanded = []
            for prefix, logprob in beams:
                row = _TABLE[prefix[-1]]
                vocab = [token for token in row if token not in prefix]
                peak = max(row[token] for token in vocab)
                log_norm = math.log(math.fsum(math.exp(row[token] - peak) for token in vocab))
                expanded += [(prefix + (token,), logprob + row[token] - peak - log_norm) for token in vocab]
            expanded.sort(key=lambda item: (-item[1], item[0]))
            beams = expanded[:_BEAM]
        total += beams[0][1]
    return total


def calibration() -> float:
    """CPU seconds of one run of the fixed calibration workload, about 0.1 s on the machine above."""
    start = cpu_seconds()
    _beam_search()
    return cpu_seconds() - start


def reference_seconds(seconds: float, calibration_seconds: float) -> float:
    """CPU ``seconds`` rescaled to the speed at which the calibration takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / calibration_seconds
