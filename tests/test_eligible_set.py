"""The real-time request set: the flat ``elig_*`` kernels on a bare FlatState.

Section V's calendar-queue variant -- requests wait in a future heap
keyed by eligible time and mature into a ready heap keyed by deadline --
checked case by case and against a dict model of the requests.  The
kernels are whichever this process runs: compiled, or pure under
``REPRO_NO_COMPILED=1`` (tier-1 runs both legs).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flatstate import (
    FlatState,
    elig_check,
    elig_contains,
    elig_insert,
    elig_min_eligible,
    elig_query,
    elig_remove,
    elig_update,
)


def fresh(n=4):
    """A bare FlatState with ``n`` allocated slots (no façade objects)."""
    state = FlatState(n)
    return state, [state.alloc(None) for _ in range(n)]


def query(state, now):
    """``(slot, eligible, deadline)`` of the answer at ``now``, or None."""
    slot = elig_query(state, now)
    if slot < 0:
        return None
    return slot, state.req_e[slot], state.req_d[slot]


def count(state):
    return len(state.efut_key) + len(state.erdy_key)


class TestCalendarEligibleSet:
    def test_not_eligible_before_time(self):
        state, (a, *_) = fresh()
        elig_insert(state, a, 5.0, 6.0)
        assert query(state, 4.0) is None
        assert query(state, 5.0) == (a, 5.0, 6.0)

    def test_min_deadline_among_matured(self):
        state, (late, early, *_) = fresh()
        elig_insert(state, late, 0.0, 10.0)
        elig_insert(state, early, 1.0, 2.0)
        assert query(state, 0.5)[0] == late
        assert query(state, 1.0)[0] == early

    def test_remove_from_either_stage(self):
        state, (future, ready, *_) = fresh()
        elig_insert(state, future, 10.0, 20.0)
        elig_insert(state, ready, 0.0, 5.0)
        query(state, 1.0)  # matures "ready"
        assert state.erdy_pos[ready] != -1 and state.efut_pos[future] != -1
        elig_remove(state, ready)
        elig_remove(state, future)
        assert count(state) == 0
        elig_check(state)

    def test_update(self):
        state, (a, *_) = fresh()
        elig_insert(state, a, 0.0, 5.0)
        query(state, 0.0)
        elig_update(state, a, 3.0, 1.0)
        assert query(state, 2.0) is None
        assert query(state, 3.0)[0] == a

    def test_min_eligible(self):
        state, (a, b, *_) = fresh()
        assert elig_min_eligible(state) is None
        elig_insert(state, a, 7.0, 9.0)
        assert elig_min_eligible(state) == 7.0
        elig_insert(state, b, 2.0, 3.0)
        assert elig_min_eligible(state) == 2.0

    def test_duplicate_rejected(self):
        state, (a, *_) = fresh()
        elig_insert(state, a, 0.0, 1.0)
        with pytest.raises(ValueError):
            elig_insert(state, a, 2.0, 3.0)
        query(state, 0.0)  # matured: still present, still refused
        with pytest.raises(ValueError):
            elig_insert(state, a, 2.0, 3.0)
        assert (state.req_e[a], state.req_d[a]) == (0.0, 1.0)

    def test_contains_len(self):
        state, (a, b, *_) = fresh()
        elig_insert(state, a, 0.0, 1.0)
        assert elig_contains(state, a) and not elig_contains(state, b)
        assert count(state) == 1


class TestBasics:
    def test_remove(self):
        state, (a, b, *_) = fresh()
        elig_insert(state, a, 0.0, 1.0)
        elig_insert(state, b, 0.0, 2.0)
        elig_remove(state, a)
        assert not elig_contains(state, a)
        assert query(state, 0.0)[0] == b
        with pytest.raises(KeyError):
            elig_remove(state, a)

    def test_update_deadline_only(self):
        state, (a, b, *_) = fresh()
        elig_insert(state, a, 0.0, 5.0)
        elig_insert(state, b, 0.0, 3.0)
        elig_update(state, a, 0.0, 1.0)
        assert query(state, 0.0)[0] == a

    def test_deadline_tie_goes_to_oldest(self):
        state, (first, second, *_) = fresh()
        elig_insert(state, first, 0.0, 4.0)
        elig_insert(state, second, 0.0, 4.0)
        assert query(state, 0.0)[0] == first

    def test_single_request(self):
        state, (a, *_) = fresh()
        elig_insert(state, a, 1.0, 5.0)
        assert elig_min_eligible(state) == 1.0
        assert query(state, 0.5) is None  # not yet eligible
        assert query(state, 1.0) == (a, 1.0, 5.0)

    def test_min_deadline_among_eligible_only(self):
        state, (early_late, late_early, *_) = fresh()
        elig_insert(state, early_late, 0.0, 10.0)
        elig_insert(state, late_early, 5.0, 1.0)
        # At t=2 only early_late is eligible, despite its later deadline.
        assert query(state, 2.0)[0] == early_late
        # At t=5 late_early's smaller deadline wins.
        assert query(state, 5.0)[0] == late_early

    def test_update_rekeys_eligible(self):
        state, (a, *_) = fresh()
        elig_insert(state, a, 0.0, 1.0)
        elig_update(state, a, 7.0, 1.0)  # re-keyed before it ever matured
        assert query(state, 3.0) is None
        assert query(state, 7.0)[0] == a

    def test_duplicate_insert_rejected(self):
        state, (a, *_) = fresh()
        elig_insert(state, a, 0.0, 1.0)
        with pytest.raises(ValueError):
            elig_insert(state, a, 2.0, 3.0)


SLOTS = 12


@st.composite
def request_streams(draw):
    """Interleaved inserts/removes/updates and time-advancing queries,
    including inserts of present and removes of absent requests."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove", "update", "query"]),
                st.integers(0, SLOTS - 1),
                st.floats(0, 50, allow_nan=False),
                st.floats(0, 50, allow_nan=False),
            ),
            max_size=150,
        )
    )


class TestModel:
    @given(request_streams())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_model(self, ops):
        """Every answer equals a brute-force scan of a dict model.

        Deadlines are perturbed off each other: exact ties are ordered by
        maturation, which the model does not track.
        """
        state, slots = fresh(SLOTS)
        model = {}  # slot -> (eligible, deadline)
        matured = set()  # slots the last query moved to the ready stage
        used_deadlines = set()
        now = 0.0
        for op, index, eligible, deadline in ops:
            slot = slots[index]
            while deadline in used_deadlines:
                deadline += 1e-3
            if op == "insert":
                if slot in model:
                    with pytest.raises(ValueError):
                        elig_insert(state, slot, eligible, deadline)
                else:
                    elig_insert(state, slot, eligible, deadline)
                    model[slot] = (eligible, deadline)
                    used_deadlines.add(deadline)
            elif op in ("remove", "update"):
                if slot not in model:
                    with pytest.raises(KeyError):
                        if op == "remove":
                            elig_remove(state, slot)
                        else:
                            elig_update(state, slot, eligible, deadline)
                elif op == "remove":
                    elig_remove(state, slot)
                    del model[slot]
                    matured.discard(slot)
                else:
                    elig_update(state, slot, eligible, deadline)
                    model[slot] = (eligible, deadline)
                    matured.discard(slot)
                    used_deadlines.add(deadline)
            else:
                now += eligible / 10.0  # time only moves forward
                matured |= {s for s, (e, _) in model.items() if e <= now}
                due = {s: d for s, (e, d) in model.items() if e <= now}
                got = query(state, now)
                if not due:
                    assert got is None
                else:
                    want = min(due, key=due.__getitem__)
                    assert got == (want,) + model[want]
            elig_check(state)
            assert count(state) == len(model)
            assert all(elig_contains(state, s) == (s in model) for s in slots)
            if matured:
                want_min = min(model[s][0] for s in matured)
            elif model:
                want_min = min(e for e, _ in model.values())
            else:
                want_min = None
            assert elig_min_eligible(state) == want_min


@st.composite
def fixed_time_ops(draw):
    """Inserts/removes/updates of present and absent requests, with
    queries that all ask at one instant."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove", "update", "query"]),
                st.integers(0, 20),
                st.floats(0, 100, allow_nan=False),
                st.floats(0, 100, allow_nan=False),
            ),
            max_size=200,
        )
    )


class TestProperties:
    @given(fixed_time_ops(), st.floats(0, 100, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, ops, now):
        """Every query at ``now`` returns a request of least deadline among
        those eligible by then, with the eligible time and deadline it
        was last given.  Deadline ties are left in: any tied request is
        a right answer."""
        state, slots = fresh(21)
        model = {}  # slot -> (eligible, deadline)
        for op, index, eligible, deadline in ops:
            slot = slots[index]
            if op == "insert" and slot not in model:
                elig_insert(state, slot, eligible, deadline)
                model[slot] = (eligible, deadline)
            elif op == "remove" and slot in model:
                elig_remove(state, slot)
                del model[slot]
            elif op == "update" and slot in model:
                elig_update(state, slot, eligible, deadline)
                model[slot] = (eligible, deadline)
            elif op == "query":
                got = query(state, now)
                due = {s: d for s, (e, d) in model.items() if e <= now}
                if not due:
                    assert got is None
                else:
                    assert got is not None
                    got_slot, got_e, got_d = got
                    assert got_d == min(due.values())
                    assert model[got_slot] == (got_e, got_d)
            elig_check(state)
        # Once a query at ``now`` has matured every due request, the
        # earliest eligible time is the least over the whole set.
        query(state, now)
        if model:
            assert elig_min_eligible(state) == min(e for e, _ in model.values())
        else:
            assert elig_min_eligible(state) is None
