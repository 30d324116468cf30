"""Hierarchy presets, the JSON config schema, and backend building."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.hfsc import HFSC
from repro.schedulers.cbq import CBQScheduler
from repro.schedulers.hpfq import HPFQScheduler
from repro.schedulers.registry import resolution_order
from repro.serve.hierarchy import (
    HIERARCHY_PRESETS,
    build_scheduler,
    curve_from_doc,
    guaranteed_rate,
    hierarchy_from_file,
    hierarchy_preset,
    leaf_names,
    spec_from_doc,
)


class TestCurveDocs:
    def test_forms(self):
        assert curve_from_doc(100.0).m2 == 100.0
        c = curve_from_doc([200.0, 0.5, 100.0])
        assert (c.m1, c.d, c.m2) == (200.0, 0.5, 100.0)
        assert curve_from_doc({"rate": 50.0}).m2 == 50.0
        c = curve_from_doc({"m1": 10.0, "d": 1.0, "m2": 5.0})
        assert (c.m1, c.d, c.m2) == (10.0, 1.0, 5.0)
        c = curve_from_doc({"umax": 100.0, "dmax": 0.1, "rate": 500.0})
        assert c.m2 == 500.0

    def test_rejects_malformed(self):
        for bad in (True, [1.0, 2.0], {"m1": 1.0}, "fast", None):
            with pytest.raises(ConfigurationError):
                curve_from_doc(bad)

    def test_spec_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            spec_from_doc({"name": "a", "rate": 1.0, "color": "red"})
        with pytest.raises(ConfigurationError):
            spec_from_doc({"rate": 1.0})


class TestPresets:
    @pytest.mark.parametrize("name", sorted(HIERARCHY_PRESETS))
    def test_presets_build_under_hfsc(self, name):
        specs = hierarchy_preset(name, 10_000.0)
        sched = build_scheduler("hfsc", 10_000.0, specs)
        assert isinstance(sched, HFSC)
        assert len(leaf_names(specs)) >= 2
        sched.check_admission()  # every preset must be admissible

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            hierarchy_preset("nope", 1.0)

    def test_campus_has_the_paper_leaves(self):
        specs = hierarchy_preset("campus", 45e6 / 8)
        assert "cmu.video.lecture" in leaf_names(specs)
        assert len(leaf_names(specs)) == 8


class TestFileConfig:
    def test_roundtrip(self, tmp_path):
        doc = {
            "link_rate": 5000.0,
            "scheduler": "hfsc",
            "overload_policy": "reject",
            "classes": [
                {"name": "agency", "sc": {"rate": 5000.0}},
                {"name": "voice", "parent": "agency",
                 "sc": {"umax": 160.0, "dmax": 0.05, "rate": 640.0}},
                {"name": "data", "parent": "agency",
                 "ls_sc": [1000.0, 0.0, 1000.0], "ul_sc": {"rate": 4000.0}},
            ],
        }
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        config = hierarchy_from_file(str(path))
        assert config["link_rate"] == 5000.0
        assert config["overload_policy"] == "reject"
        sched = build_scheduler(
            "hfsc", config["link_rate"], config["specs"],
            overload_policy=config["overload_policy"],
        )
        assert sched.overload_policy == "reject"
        assert {c.name for c in sched.leaf_classes()} == {"voice", "data"}

    def test_missing_file_and_schema(self, tmp_path):
        with pytest.raises(ConfigurationError):
            hierarchy_from_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"link_rate": 1.0}))
        with pytest.raises(ConfigurationError):
            hierarchy_from_file(str(bad))


class TestBackends:
    def test_rate_backends_use_guaranteed_rate(self):
        specs = hierarchy_preset("e4", 45_000.0)
        for backend, cls in (("hpfq", HPFQScheduler), ("cbq", CBQScheduler)):
            sched = build_scheduler(backend, 45_000.0, specs)
            assert isinstance(sched, cls)

    def test_guaranteed_rate_prefers_explicit_rate(self):
        spec = spec_from_doc({"name": "a", "rate": 7.0, "sc": {"rate": 9.0}})
        assert guaranteed_rate(spec) == 7.0
        concave = spec_from_doc({"name": "b", "sc": [20.0, 0.1, 5.0]})
        assert guaranteed_rate(concave) == 5.0

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            build_scheduler("fq_codel", 1.0, hierarchy_preset("split", 1.0))

    def test_registry_builds_every_backend(self):
        from repro.schedulers.registry import BACKENDS

        specs = hierarchy_preset("campus", 45_000.0)
        for name in BACKENDS:
            sched = build_scheduler(name, 45_000.0, specs)
            assert sched.link_rate == 45_000.0, name

    def test_flat_backends_see_leaves_only(self):
        from repro.schedulers.registry import BACKENDS

        specs = hierarchy_preset("e4", 45_000.0)
        leaves = set(leaf_names(specs))
        for name, backend in BACKENDS.items():
            if backend.hierarchical or name == "fifo":
                continue
            sched = build_scheduler(name, 45_000.0, specs)
            assert set(sched._flows) == leaves, name

    def test_out_of_order_parents_resolve(self):
        specs = [
            spec_from_doc({"name": "leaf", "parent": "mid", "rate": 1.0}),
            spec_from_doc({"name": "mid", "parent": "top", "rate": 2.0}),
            spec_from_doc({"name": "top", "rate": 4.0}),
        ]
        sched = build_scheduler("hfsc", 10.0, specs)
        assert {c.name for c in sched.leaf_classes()} == {"leaf"}

    def test_unresolvable_parent(self):
        specs = [spec_from_doc({"name": "a", "parent": "ghost", "rate": 1.0})]
        with pytest.raises(ConfigurationError):
            build_scheduler("hfsc", 10.0, specs)

    @staticmethod
    def _quadratic_resolution_order(specs):
        """The implementation ``resolution_order`` replaced, as reference."""
        known = {None, "__root__"}
        pending = list(specs)
        ordered = []
        while pending:
            progress = [s for s in pending if s.parent in known]
            if not progress:
                names = ", ".join(repr(s.name) for s in pending)
                raise ConfigurationError(
                    f"unresolvable parents for classes: {names}")
            for spec in progress:
                ordered.append(spec)
                known.add(spec.name)
            pending = [s for s in pending if s not in ordered]
        return ordered

    @settings(max_examples=60, deadline=None)
    @given(fanout=st.lists(st.integers(1, 4), min_size=3, max_size=3),
           orphans=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_resolution_order_matches_the_quadratic_reference(
            self, fanout, orphans, seed):
        # A shuffled 3-level tree (root-level parents spelled both ways),
        # optionally with subtrees hanging off parents nobody declares.
        specs, level = [], [None]
        for depth, width in enumerate(fanout):
            level = [
                spec_from_doc({"name": f"{parent or 'top'}.{i}", "rate": 1.0,
                               **({"parent": parent} if parent else
                                  {"parent": "__root__"} if i % 2 else {})})
                for parent in level for i in range(width)
            ]
            specs.extend(level)
            level = [spec.name for spec in level]
        for i in range(orphans):
            specs.append(spec_from_doc(
                {"name": f"orphan{i}", "parent": f"ghost{i}", "rate": 1.0}))
            specs.append(spec_from_doc(
                {"name": f"orphan{i}.kid", "parent": f"orphan{i}", "rate": 1.0}))
        random.Random(seed).shuffle(specs)
        if orphans:
            with pytest.raises(ConfigurationError) as old:
                self._quadratic_resolution_order(specs)
            with pytest.raises(ConfigurationError) as new:
                resolution_order(specs)
            assert str(new.value) == str(old.value)
        else:
            assert [s.name for s in resolution_order(specs)] == [
                s.name for s in self._quadratic_resolution_order(specs)]
