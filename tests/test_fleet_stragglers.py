"""The fleet engine's straggler rule against the sweep it replaced.

``FleetEngine._sweep_candidates`` resolves each straggler candidate from
the process that queued it and the later processes of that process's
machine.  The global lexsort sweep it replaced is kept verbatim as
:func:`reference_cluster.sweep_candidates`; both must emit the same
candidates on every input the engine can produce:

* each machine's processes follow one another, and a start may equal
  the previous end (a zero or one-ulp gap);
* process ids rise with time on each machine, interleaved across
  machines as onset waves assign them;
* a candidate fires at or after its own process's start: at an offset
  (zero too, which a vanishing symptom window can round to),
  exactly on an end or on a later start of its machine, one ulp from
  one, or one to three processes later.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_cluster import sweep_candidates
from repro.cluster.fleet import FleetEngine

DAY = 86_400.0


def _after(draw, t: float, kinds) -> float:
    """``t`` moved on by a gap of one of ``kinds``."""
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return t
    if kind == "ulp":
        return float(np.nextafter(t, np.inf))
    if kind == "seconds":
        return t + draw(st.floats(1.0, 900.0))
    return t + draw(st.floats(1.0, 5.0)) * DAY


@st.composite
def fleets(draw):
    """``(start, end, machine)`` per process id, and each machine's
    process ids in time order."""
    chains = []
    for _machine in range(draw(st.integers(1, 6))):
        t = draw(st.sampled_from([0.0, 3.0 * DAY]))
        chain = []
        for _ in range(draw(st.integers(0, 5))):
            start = _after(draw, t, ["zero", "ulp", "seconds", "days"])
            t = _after(draw, start, ["ulp", "seconds", "days"])
            chain.append((start, t))
        chains.append(chain)
    # One machine label per process, in the order onsets got their ids;
    # a machine's k-th label takes its k-th process.
    labels = draw(st.permutations(
        [m for m, chain in enumerate(chains) for _ in chain]
    ))
    taken = [0] * len(chains)
    rows, ids = [], [[] for _ in chains]
    for machine in labels:
        start, end = chains[machine][taken[machine]]
        taken[machine] += 1
        ids[machine].append(len(rows))
        rows.append((start, end, machine))
    return rows, ids


@st.composite
def sweep_inputs(draw):
    rows, ids = draw(fleets())
    start_t = np.array([r[0] for r in rows], dtype=np.float64)
    end_t = np.array([r[1] for r in rows], dtype=np.float64)
    interval_m = np.array([r[2] for r in rows], dtype=np.int64)
    cand_t, cand_p = [], []
    if rows:
        for _ in range(draw(st.integers(0, 12))):
            p = draw(st.integers(0, len(rows) - 1))
            chain = ids[interval_m[p]]
            later = chain[chain.index(p):]
            # The process the fire time is placed against: p itself or
            # one to three processes later, past the chain's end too.
            k = draw(st.integers(0, 3))
            q = later[min(k, len(later) - 1)]
            how = draw(st.sampled_from(
                ["offset", "end", "start", "near", "inside", "gap"]
            ))
            if how == "offset":
                t = start_t[p] + draw(st.sampled_from(
                    [0.0, 1.0, 30.0, 120.0, 900.0, 2.0 * DAY]
                ))
            elif how == "end":
                t = end_t[q]
            elif how == "start":
                t = start_t[q] if q != p else end_t[p]
            elif how == "near":
                edge = draw(st.sampled_from([end_t[q], start_t[q]]))
                t = np.nextafter(edge, draw(st.sampled_from([-np.inf, np.inf])))
                t = max(t, start_t[p])
            elif how == "inside":
                t = start_t[q] + draw(st.floats(0.0, 1.0)) * (end_t[q] - start_t[q])
            else:
                t = end_t[q] + draw(st.sampled_from([0.5, 60.0, DAY]))
            cand_t.append(float(t))
            cand_p.append(p)
    return (
        np.array(cand_t, dtype=np.float64),
        np.array(cand_p, dtype=np.int64),
        start_t, end_t, interval_m,
    )


class TestStragglerRule:
    @given(inputs=sweep_inputs())
    @settings(max_examples=400, deadline=None)
    def test_rule_equals_reference_sweep(self, inputs):
        cand_t, cand_p, start_t, end_t, interval_m = inputs
        assert np.all(cand_t >= start_t[cand_p])
        emitted = FleetEngine._sweep_candidates(
            cand_t, cand_p, start_t, end_t, interval_m
        )
        expected = sweep_candidates(
            cand_t, interval_m[cand_p], start_t, end_t, interval_m
        )
        assert emitted.dtype == bool
        assert np.array_equal(emitted, expected)

    def test_ties_are_dropped(self):
        """Strictly inside: a candidate on a start or an end, or inside
        a one-ulp interval, is dropped; one inside a later process of
        its machine, not another machine's, is emitted."""
        ulp_end = float(np.nextafter(20.0, np.inf))
        start_t = np.array([0.0, 10.0, 10.0, 20.0, 30.0])
        end_t = np.array([10.0, 15.0, 20.0, ulp_end, 40.0])
        machines = np.array([0, 1, 0, 0, 0], dtype=np.int64)
        cases = [  # (fire time, queuing process, emitted)
            (0.0, 0, False),    # its own start
            (5.0, 0, True),
            (10.0, 0, False),   # its end, which is the next start
            (12.0, 0, True),    # inside process 2
            (12.0, 1, True),
            (15.0, 1, False),   # machine 1 has no later process
            (20.0, 0, False),   # process 2's end, process 3's start
            (ulp_end, 2, False),
            (25.0, 0, False),   # a gap
            (35.0, 0, True),    # three processes on
        ]
        emitted = FleetEngine._sweep_candidates(
            np.array([c[0] for c in cases]),
            np.array([c[1] for c in cases], dtype=np.int64),
            start_t, end_t, machines,
        )
        assert emitted.tolist() == [c[2] for c in cases]
