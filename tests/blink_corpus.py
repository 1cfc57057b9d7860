"""Seeded synthetic EAR corpus for the blink tests.

The shipped classifier (``data/default_blink_classifier.json``) is trained
on this corpus; ``test_blink.py`` holds the recipe, and the acceptance
tests measure detection quality on it.
"""

import numpy as np

from speechrig.blink import trace_windows


def gen_blink_traces(seed: int, n_traces: int = 200, length: int = 400):
    """Synthetic EAR traces with known blink events, plus distractors.

    Each trace holds a noisy drifting baseline, a few raised-cosine blink
    dips (the ground-truth events are the frames of substantial closure),
    single-frame dropouts, and occasionally a long shallow squint. The
    distractors are the cases a bare threshold detector gets wrong.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_traces):
        base = rng.uniform(0.26, 0.34)
        t = np.arange(length)
        drift = 0.01 * np.sin(2.0 * np.pi * t / rng.uniform(80, 160) + rng.uniform(0, 2 * np.pi))
        trace = base + drift + rng.normal(0.0, rng.uniform(0.002, 0.006), length)

        occupied = np.zeros(length, dtype=bool)

        def reserve(lo, hi, margin=8):
            lo_m, hi_m = max(lo - margin, 0), min(hi + margin, length)
            if occupied[lo_m:hi_m].any():
                return False
            occupied[lo_m:hi_m] = True
            return True

        events = []
        for _ in range(int(rng.integers(2, 7))):
            dur = int(rng.integers(3, 11))
            start = int(rng.integers(10, length - dur - 10))
            if not reserve(start, start + dur):
                continue
            depth = rng.uniform(0.02, 0.08)
            w = np.sin(np.pi * (np.arange(dur) + 1.0) / (dur + 1.0)) ** 2
            trace[start:start + dur] = trace[start:start + dur] * (1.0 - w) + depth * w
            closed = np.flatnonzero(w >= 0.5)
            events.append((start + int(closed[0]), start + int(closed[-1])))

        for _ in range(int(rng.integers(0, 4))):
            pos = int(rng.integers(10, length - 10))
            if reserve(pos, pos + 1):
                trace[pos] = rng.uniform(0.03, 0.09)

        if rng.random() < 0.3:
            dur = int(rng.integers(25, 41))
            start = int(rng.integers(10, length - dur - 10))
            if reserve(start, start + dur):
                w = np.sin(np.pi * (np.arange(dur) + 1.0) / (dur + 1.0)) ** 2
                dip = base * rng.uniform(0.55, 0.7)
                trace[start:start + dur] = trace[start:start + dur] * (1.0 - w) + \
                    np.maximum(dip, trace[start:start + dur] * 0.6) * w

        out.append((trace, sorted(events)))
    return out


def training_windows_from_traces(traces, rng=None, neg_per_pos: float = 3.0):
    """Windows and frame labels for classifier training.

    Frames inside a ground-truth event are positives; negatives are
    subsampled to roughly neg_per_pos per positive to balance the hinge.
    """
    rng = rng or np.random.default_rng(0)
    xs, ys = [], []
    for trace, events in traces:
        wins = trace_windows(trace)
        labels = np.zeros(len(trace), dtype=np.int64)
        for s, e in events:
            labels[s:e + 1] = 1
        pos = np.flatnonzero(labels == 1)
        neg = np.flatnonzero(labels == 0)
        take = min(neg.size, max(1, int(round(neg_per_pos * max(pos.size, 1)))))
        neg = rng.choice(neg, size=take, replace=False)
        keep = np.concatenate([pos, neg])
        xs.append(wins[keep])
        ys.append(labels[keep])
    return np.vstack(xs), np.concatenate(ys)
