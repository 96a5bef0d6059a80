"""The answer key every workload is scored against.

Full score vectors come from single-threaded ``sw_score_packed`` on the
unsharded database, outside any timed window; a seeded sample of pairs is
re-scored with the scalar ``sw_score`` reference so the key itself is
anchored to the recurrence, not to the kernel under test.
"""

from __future__ import annotations

import numpy as np

from measure import clock

from repro.align import default_scheme, sw_score, sw_score_packed
from repro.sequences import PackedDatabase

#: Hit-list depth of every pool and service the harness starts.
TOP_HITS = 5
#: Scalar re-scoring budget (DP cells) of the spot check.
_SPOT_CHECK_CELLS = 120_000
#: Passes over the query set are repeated until this much time is spent.
_PASS_BUDGET_S = 0.5


class OracleError(AssertionError):
    """The packed kernel disagreed with the scalar reference."""


def hit_pairs(hits) -> list[list]:
    """``[[subject_id, score], ...]`` from engine ``Hit`` objects."""
    return [[h.subject_id, int(h.score)] for h in hits]


class Oracle:
    """Expected top-k hit lists (ids, scores, tie order) per query."""

    def __init__(self, database, queries, top: int = TOP_HITS):
        self.database = database
        self.queries = list(queries)
        self.scheme = default_scheme()
        packed = PackedDatabase.from_database(database)
        ids = [s.id for s in database]
        self.expected: list[list[list]] = []
        #: Best wall of a single-threaded pass over the whole query set:
        #: the bare-kernel rate the area lower bound is built from.  Short
        #: passes are repeated, because one of them is too brief to time.
        self.pass_seconds = float("inf")
        spent = 0.0
        while spent < _PASS_BUDGET_S:
            started = clock()
            self.scores = [sw_score_packed(q, packed, self.scheme) for q in self.queries]
            elapsed = clock() - started
            self.pass_seconds = min(self.pass_seconds, elapsed)
            spent += elapsed
        for scores in self.scores:
            order = sorted(range(len(ids)), key=lambda i: (-int(scores[i]), ids[i]))
            self.expected.append([[ids[i], int(scores[i])] for i in order[:top]])
        self.cells = [len(q) * database.total_residues for q in self.queries]

    @property
    def kernel_gcups(self) -> float:
        return sum(self.cells) / self.pass_seconds / 1e9

    def spot_check(self, seed: int) -> int:
        """Re-score a seeded sample of (query, subject) pairs with the
        scalar reference; returns the number of pairs checked."""
        rng = np.random.default_rng(seed)
        pairs = {
            (int(rng.integers(len(self.queries))), int(rng.integers(len(self.database))))
            for _ in range(48)
        }
        checked = spent = 0
        # Cheapest pairs first, so the budget buys the most pairs.
        for qi, si in sorted(
            pairs, key=lambda p: len(self.queries[p[0]]) * len(self.database[p[1]])
        ):
            cost = len(self.queries[qi]) * len(self.database[si])
            if checked >= 3 and spent + cost > _SPOT_CHECK_CELLS:
                break
            want = sw_score(self.queries[qi], self.database[si], self.scheme)
            got = int(self.scores[qi][si])
            if want != got:
                raise OracleError(
                    f"sw_score_packed gave {got}, scalar sw_score {want} for "
                    f"query {qi} vs subject {si}"
                )
            checked += 1
            spent += cost
        return checked

    def matches(self, query_index: int, hits) -> bool:
        """Exact match of a reported hit list (``[[id, score], ...]``)."""
        return [list(h) for h in hits] == self.expected[query_index]

    def matches_beside_writes(self, query_index: int, hits, prefix: str) -> bool:
        """The read rule while a mutator appends and retires records.

        Hits on the mutator's own records (ids starting with *prefix*)
        are dropped; what is left must be a prefix of the base answer,
        and the list as reported must still be ordered by score.
        """
        hits = [list(h) for h in hits]
        scores = [h[1] for h in hits]
        if scores != sorted(scores, reverse=True):
            return False
        base = [h for h in hits if not str(h[0]).startswith(prefix)]
        return base == self.expected[query_index][: len(base)]
