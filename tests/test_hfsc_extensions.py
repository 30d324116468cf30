"""Tests for the H-FSC extensions: upper limits, rt/ls splits,
virtual-time policies and the real-time-criterion ablation."""

import pytest

from helpers import drive, service_by
from repro.core.curves import ServiceCurve
from repro.core.errors import ConfigurationError
from repro.core.hfsc import HFSC
from repro.sim.packet import Packet


def lin(rate):
    return ServiceCurve.linear(rate)


class TestUpperLimit:
    def test_ul_caps_throughput(self):
        """A class with an upper-limit curve cannot exceed it, even alone."""
        sched = HFSC(1000.0)
        sched.add_class("capped", sc=lin(100.0), ul_sc=lin(200.0))
        arrivals = [(0.0, "capped", 50.0)] * 100
        served = drive(sched, arrivals, until=20.0)
        # Alone on a 1000 B/s link but capped at 200 B/s.
        assert service_by(served, "capped", 10.0) <= 200.0 * 10.0 + 50.0
        assert service_by(served, "capped", 10.0) >= 200.0 * 10.0 * 0.9

    def test_ul_makes_link_idle(self):
        """The link really idles below the cap (non-work-conserving)."""
        sched = HFSC(1000.0)
        sched.add_class("capped", sc=lin(100.0), ul_sc=lin(200.0))
        sched.enqueue(Packet("capped", 100.0), 0.0)
        sched.enqueue(Packet("capped", 100.0), 0.0)
        assert sched.dequeue(0.0) is not None
        # Second packet: fit time = 200 bytes / 200 B/s is in the future...
        assert sched.dequeue(0.1) is None
        ready = sched.next_ready_time(0.1)
        assert ready is not None and ready > 0.1
        assert sched.dequeue(ready) is not None

    def test_ul_does_not_break_siblings(self):
        """The capped class's unused bandwidth flows to its sibling."""
        sched = HFSC(1000.0)
        sched.add_class("capped", ls_sc=lin(500.0), ul_sc=lin(100.0))
        sched.add_class("free", ls_sc=lin(500.0))
        arrivals = [(0.0, "capped", 50.0)] * 200 + [(0.0, "free", 50.0)] * 400
        served = drive(sched, arrivals, until=20.0)
        assert service_by(served, "capped", 10.0) <= 100.0 * 10.0 + 100.0
        assert service_by(served, "free", 10.0) >= 8500.0

    def test_ul_with_greedy_rt_class(self):
        """Upper limit beats work conservation even with rt curves around."""
        sched = HFSC(1000.0)
        sched.add_class("capped", sc=lin(100.0), ul_sc=lin(150.0))
        sched.add_class("other", sc=lin(500.0))
        arrivals = [(0.0, "capped", 50.0)] * 100
        arrivals += [(0.0, "other", 50.0)] * 100  # drains by t=10
        served = drive(sched, arrivals, until=60.0)
        # After `other` drains, capped still cannot exceed 150 B/s.
        span = service_by(served, "capped", 30.0) - service_by(served, "capped", 10.0)
        assert span <= 150.0 * 20.0 + 100.0


class TestRtLsSplit:
    def test_rt_only_class_gets_no_excess(self):
        """An rt-only class is served exactly its curve; excess goes to the
        ls class (the ALTQ rsc/fsc semantics)."""
        sched = HFSC(1000.0)
        sched.add_class("rt_only", rt_sc=lin(200.0))
        sched.add_class("ls_class", ls_sc=lin(100.0))
        arrivals = [(0.0, "rt_only", 50.0)] * 200 + [(0.0, "ls_class", 50.0)] * 200
        served = drive(sched, arrivals, until=20.0)
        rt = service_by(served, "rt_only", 10.0)
        ls = service_by(served, "ls_class", 10.0)
        assert rt == pytest.approx(2000.0, rel=0.05)   # exactly its 200 B/s
        assert ls == pytest.approx(8000.0, rel=0.05)   # everything else

    def test_ls_only_class_has_no_deadline(self):
        sched = HFSC(1000.0)
        sched.add_class("ls", ls_sc=lin(100.0))
        sched.enqueue(Packet("ls", 50.0), 0.0)
        packet = sched.dequeue(0.0)
        assert packet.deadline is None

    def test_rt_plus_bigger_ls(self):
        """rt guarantee below the ls share: the E5/E7 'ftp' pattern."""
        sched = HFSC(1000.0)
        sched.add_class("mixed", rt_sc=lin(100.0), ls_sc=lin(900.0))
        sched.add_class("small", sc=lin(100.0))
        arrivals = [(0.0, "mixed", 50.0)] * 400 + [(0.0, "small", 50.0)] * 100
        served = drive(sched, arrivals, until=20.0)
        # mixed gets ~900, not just its rt 100.
        assert service_by(served, "mixed", 10.0) >= 8500.0


class TestVtPolicies:
    def _spread(self, policy):
        sched = HFSC(1000.0, vt_policy=policy, admission_control=False)
        for cid in range(6):
            sched.add_class(cid, ls_sc=lin(100.0 + 50.0 * cid))
        arrivals = []
        # Staggered activations so the joining vt matters.
        for cid in range(6):
            arrivals += [(0.5 * cid, cid, 100.0)] * 40
        served = drive(sched, arrivals, until=40.0)
        return served

    def test_all_policies_schedule_everything(self):
        for policy in ("mean", "min", "max"):
            served = self._spread(policy)
            assert len(served) == 240

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            HFSC(1000.0, vt_policy="median")

    def test_policies_place_joiner_between_min_and_max(self):
        """'min' lets a joining class start at the laggard's virtual time,
        'max' at the leader's, 'mean' halfway (Section IV-C).

        The sibling spread is driven up deliberately: a low-weight class
        jumps 2.0 virtual-time units per packet while its high-weight
        sibling moves 0.1 per packet; the joiner activates right after the
        low-weight class was served, when the spread is maximal.
        """
        def join_vt(policy):
            sched = HFSC(1000.0, vt_policy=policy, admission_control=False)
            sched.add_class("slow", ls_sc=lin(50.0))
            sched.add_class("fast", ls_sc=lin(1000.0))
            sched.add_class("late", ls_sc=lin(1000.0))
            for _ in range(5):
                sched.enqueue(Packet("slow", 100.0), 0.0)
            for _ in range(200):
                sched.enqueue(Packet("fast", 100.0), 0.0)
            now = 0.0
            while True:
                packet = sched.dequeue(now)
                now += packet.size / 1000.0
                if packet.class_id == "slow":
                    break
            sched.enqueue(Packet("late", 100.0), now)
            return sched["late"].vt

        vts = {p: join_vt(p) for p in ("min", "mean", "max")}
        assert vts["min"] < vts["mean"] < vts["max"]
        assert vts["mean"] == pytest.approx((vts["min"] + vts["max"]) / 2.0)


class TestRealtimeAblation:
    def test_without_rt_criterion_deep_leaf_delay_degrades(self):
        """Disabling the real-time criterion demonstrates its necessity:
        a deep leaf's delay becomes hierarchy-coupled (it must win the
        link-sharing descent at every level), while with the criterion on
        the Theorem-2 bound holds regardless of depth (Section IV-A)."""
        from repro.experiments import e7_depth

        link = e7_depth.LINK
        bound = e7_depth.AUDIO_DMAX + e7_depth.CROSS_PKT / link

        def audio_max_delay(realtime):
            sched = HFSC(link, admission_control=False, realtime=realtime)

            def add_interior(name, parent, rate):
                sched.add_class(name, parent=parent, ls_sc=lin(rate))

            def add_leaf(name, parent, rate, kind):
                if kind == "audio":
                    sched.add_class(
                        name, parent=parent,
                        sc=ServiceCurve.from_delay(
                            e7_depth.AUDIO_PKT, e7_depth.AUDIO_DMAX,
                            e7_depth.AUDIO_RATE,
                        ),
                    )
                else:
                    sched.add_class(
                        name, parent=parent,
                        rt_sc=lin(0.8 * rate), ls_sc=lin(rate),
                    )

            cross = e7_depth._build_topology(3, add_interior, add_leaf)
            served = drive(
                sched, e7_depth._arrivals(cross), until=e7_depth.HORIZON + 40.0
            )
            return max(p.delay for p in served if p.class_id == "audio")

        assert audio_max_delay(True) <= bound + 1e-9
        assert audio_max_delay(False) > bound

    def test_ablated_scheduler_still_shares_fairly(self):
        sched = HFSC(1000.0, realtime=False)
        sched.add_class("a", sc=lin(750.0))
        sched.add_class("b", sc=lin(250.0))
        arrivals = [(0.0, "a", 100.0)] * 200 + [(0.0, "b", 100.0)] * 200
        served = drive(sched, arrivals, until=20.0)
        ratio = service_by(served, "a", 20.0) / service_by(served, "b", 20.0)
        assert ratio == pytest.approx(3.0, rel=0.1)
