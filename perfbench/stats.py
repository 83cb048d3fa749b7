"""Statistics for the benchmark harness: the percentile rule, pass time
from per-part medians, span self time, and trace coverage. Pure functions; perfbench/test_stats.py tests them.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-quantile of values (0 < q < 1), or None when fewer
    than MIN_BEYOND samples lie beyond it."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))  # 1-based rank of the reported sample
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def samples_needed(q):
    """Smallest sample count for which percentile(values, q) is reported."""
    n = 1
    while n - max(1, math.ceil(q * n)) < MIN_BEYOND:
        n += 1
    return n


def median(values, default=0.0):
    return statistics.median(values) if values else default


def pass_seconds(parts):
    """One pass, from {part: [seconds per round]}: the sum over the parts
    (the designs of a flow pass, or a client block) of each part's median,
    so a slow round of one part is outvoted by that part's other rounds.
    None when nothing was measured."""
    return sum(statistics.median(v) for v in parts.values()) if parts else None


def _union_length(intervals, lo, hi):
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(events):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover. events: dicts with ts, dur (microseconds)
    and args.id / args.parent. Returns {span id: self time in us}."""
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    out = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        kids = [(c["ts"], c["ts"] + c["dur"]) for c in children.get(e["args"]["id"], [])]
        out[e["args"]["id"]] = e["dur"] - _union_length(kids, start, end)
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def descendants_of_roots(events, root_name):
    """Spans under (and including) the spans named root_name."""
    by_id = {e["args"]["id"]: e for e in events}
    keep = []
    for e in events:
        node = e
        while node is not None and node["name"] != root_name:
            node = by_id.get(node["args"]["parent"])
        if node is not None:
            keep.append(e)
    return keep


def layer_self_ms(events, root_name="bench.pass"):
    """Self time per layer, in ms per root span, over the spans under the
    root spans. The roots' own self time is the harness's ("bench")."""
    scoped = descendants_of_roots(events, root_name)
    roots = sum(1 for e in scoped if e["name"] == root_name)
    if roots == 0:
        return {}
    own = self_times(scoped)
    out = {}
    for e in scoped:
        layer = layer_of(e["name"])
        out[layer] = out.get(layer, 0.0) + own[e["args"]["id"]] / 1000.0
    return {layer: total / roots for layer, total in out.items()}


def coverage(events, root_name="bench.pass"):
    """Per root span: the share of its duration covered by its child spans."""
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    out = []
    for e in events:
        if e["name"] != root_name or e["dur"] <= 0:
            continue
        start, end = e["ts"], e["ts"] + e["dur"]
        kids = [(c["ts"], c["ts"] + c["dur"]) for c in children.get(e["args"]["id"], [])]
        out.append(_union_length(kids, start, end) / e["dur"])
    return out
