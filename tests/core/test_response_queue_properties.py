"""Stateful property tests of the fast response queue.

The queue's loose coupling to the cache (stamped anchors, generation
checks) has subtle failure modes under arbitrary interleavings of
enqueue / respond / expire / recycle.  This machine hammers those
interleavings and checks the safety properties the protocol depends on:

* a waiter is released at most once (no double redirects);
* releases carry the responding server (never -1); timeouts carry -1;
* anchors never leak: active + free == built <= capacity;
* a location object's stored index never resolves to an anchor owned by a
  different object (the hijack bug the stamps exist to prevent).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.crc32 import hash_name
from repro.core.location import LocationObject
from repro.core.response_queue import AccessMode, ResponseQueue


class ResponseQueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.q = ResponseQueue(anchors=4, period=0.133)
        self.now = 0.0
        self.locs = []
        for i in range(3):
            obj = LocationObject()
            obj.assign(f"/f{i}", hash_name(f"/f{i}"), c_n=0, t_a=0)
            self.locs.append(obj)
        self._next_waiter = 0
        self.outcomes: dict[int, list] = {}

    @rule(loc=st.integers(min_value=0, max_value=2), write=st.booleans())
    def enqueue(self, loc, write):
        wid = self._next_waiter
        self._next_waiter += 1
        mode = AccessMode.WRITE if write else AccessMode.READ
        out = self.q.add_waiter(self.locs[loc], mode, wid, self.now)
        self.outcomes[wid] = [] if out.accepted else ["rejected"]

    @rule(loc=st.integers(min_value=0, max_value=2), server=st.integers(min_value=0, max_value=5), wc=st.booleans())
    def respond(self, loc, server, wc):
        for w in self.q.on_response(self.locs[loc], server, write_capable=wc):
            assert w.server == server  # releases carry the responder
            self.outcomes[w.payload].append("released")

    @rule(dt=st.floats(min_value=0.0, max_value=0.2))
    def advance_and_expire(self, dt):
        self.now += dt
        for w in self.q.expire(self.now):
            assert w.server == -1  # timeouts carry no server
            self.outcomes[w.payload].append("expired")

    @rule(loc=st.integers(min_value=0, max_value=2))
    def recycle_location(self, loc):
        """The cache recycles the object's storage for a new file."""
        obj = self.locs[loc]
        obj.hide()
        obj.assign(f"/new{self._next_waiter}", hash_name("x"), c_n=0, t_a=0)

    @invariant()
    def each_waiter_finalized_at_most_once(self):
        for wid, events in self.outcomes.items():
            terminal = [e for e in events if e in ("released", "expired")]
            assert len(terminal) <= 1, f"waiter {wid} finalized twice: {events}"

    @invariant()
    def anchors_conserved(self):
        # Anchors are built on demand, never beyond the capacity of 4.
        assert self.q.active_anchors + len(self.q._free) == len(self.q._anchors)
        assert len(self.q._anchors) <= 4

    @invariant()
    def stored_indices_never_hijack(self):
        for obj in self.locs:
            for mode in (AccessMode.READ, AccessMode.WRITE):
                anchor = self.q._valid_anchor(obj, mode)
                if anchor is not None:
                    assert anchor.loc is obj
                    assert anchor.loc_generation == obj.generation


TestResponseQueueMachine = ResponseQueueMachine.TestCase
TestResponseQueueMachine.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None
)
