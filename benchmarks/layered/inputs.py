"""Every input the benchmark feeds the program, generated from ``--seed``.

Hierarchy documents (the JSON ``repro serve --hierarchy FILE`` reads),
arrival schedules and flow tables.  The program under test never sees the
seed -- only these inputs.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

# -- hierarchies ---------------------------------------------------------------


def _lin(rate: float) -> Dict[str, float]:
    return {"rate": rate}


def campus_rt_doc(link_rate: float) -> Dict[str, Any]:
    """Fig. 1's campus tree (8 leaves, 3 levels) with the two lecture
    leaves on concave real-time curves and everything else link-sharing
    only, so both selection criteria run on every workload that uses it."""
    mbit = link_rate / 45.0

    def node(name, parent, mbits, rt=None):
        doc = {"name": name, "ls_sc": _lin(mbits * mbit)}
        if parent:
            doc["parent"] = parent
        if rt:
            doc["rt_sc"] = {"m1": rt * mbits * mbit, "d": 1e-4, "m2": mbits * mbit}
        return doc

    return {
        "link_rate": link_rate,
        "classes": [
            node("cmu", None, 25.0), node("pitt", None, 20.0),
            node("cmu.audio", "cmu", 2.0), node("cmu.video", "cmu", 10.0),
            node("cmu.data", "cmu", 13.0),
            node("cmu.video.lecture", "cmu.video", 8.0, rt=2.0),
            node("cmu.video.other", "cmu.video", 2.0),
            node("cmu.audio.lecture", "cmu.audio", 0.064, rt=4.0),
            node("cmu.audio.other", "cmu.audio", 1.9),
            node("pitt.audio", "pitt", 2.0), node("pitt.video", "pitt", 10.0),
            node("pitt.data", "pitt", 8.0),
        ],
    }


CAMPUS_LEAVES = (
    "cmu.video.lecture", "cmu.video.other", "cmu.audio.lecture",
    "cmu.audio.other", "cmu.data", "pitt.audio", "pitt.video", "pitt.data",
)

SHAPED_LINK = 512_000.0
SHAPED_SIZE = 256
SHAPED_UMAX = 256.0
SHAPED_DMAX = 0.004
SHAPED_DATA_PPS = 3000.0
SHAPED_PROBE_LOAD = 0.8


def shaped_doc() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Two agencies 60/40 on a 512 kB/s link, each with one concave
    real-time leaf (10% of the agency) and three link-sharing data leaves.

    Returns the hierarchy document and what the checks need: the
    ``(name, parent, weight)`` rows and per-leaf demands (bytes/s) for
    ``hierarchical_max_min``, and the real-time leaves.
    """
    classes: List[Dict[str, Any]] = []
    tree: List[Tuple[str, Any, float]] = []
    demands: Dict[str, float] = {}
    probes: Dict[str, float] = {}
    data_leaves: List[str] = []
    for agency, share in (("a", 0.6), ("b", 0.4)):
        rate = share * SHAPED_LINK
        classes.append({"name": agency, "ls_sc": _lin(rate)})
        tree.append((agency, None, rate))
        rt = f"{agency}.rt"
        rt_rate = 0.1 * rate
        classes.append({
            "name": rt, "parent": agency, "ls_sc": _lin(rt_rate),
            "rt_sc": {"umax": SHAPED_UMAX, "dmax": SHAPED_DMAX, "rate": rt_rate},
        })
        tree.append((rt, agency, rt_rate))
        probes[rt] = SHAPED_PROBE_LOAD * rt_rate / SHAPED_SIZE  # pkt/s
        demands[rt] = SHAPED_PROBE_LOAD * rt_rate
        for k in range(3):
            leaf = f"{agency}.d{k}"
            classes.append({"name": leaf, "parent": agency,
                            "ls_sc": _lin(0.3 * rate)})
            tree.append((leaf, agency, 0.3 * rate))
            data_leaves.append(leaf)
    per_leaf = SHAPED_DATA_PPS * SHAPED_SIZE / len(data_leaves)
    for leaf in data_leaves:
        demands[leaf] = per_leaf
    doc = {"link_rate": SHAPED_LINK, "classes": classes}
    return doc, {"tree": tree, "demands": demands, "probes": probes,
                 "data_leaves": data_leaves}


CONTROL_LINK = 1e7
CONTROL_GROUPS = 32
CONTROL_FAN = 32


def control_doc() -> Dict[str, Any]:
    """32 groups x 32 leaves; every fourth leaf also holds a (linear)
    real-time curve, so admission checks sum over 256 curves."""
    classes: List[Dict[str, Any]] = []
    group_rate = CONTROL_LINK / CONTROL_GROUPS
    leaf_rate = group_rate / CONTROL_FAN
    for g in range(CONTROL_GROUPS):
        classes.append({"name": f"g{g}", "ls_sc": _lin(group_rate)})
        for k in range(CONTROL_FAN):
            doc = {"name": f"g{g}.l{k}", "parent": f"g{g}",
                   "ls_sc": _lin(leaf_rate)}
            if (g * CONTROL_FAN + k) % 4 == 0:
                doc["rt_sc"] = _lin(leaf_rate / 2)
            classes.append(doc)
    return {"link_rate": CONTROL_LINK, "classes": classes}


KERNEL_LINK = 1e9
KERNEL_SIZES = (64, 128, 256, 512, 1024, 1500)


def kernel_doc(fans: Sequence[int]) -> Dict[str, Any]:
    """A three-level tree; every fourth leaf is concave rt+ls, all other
    classes link-sharing only."""
    a_fan, b_fan, c_fan = fans
    classes: List[Dict[str, Any]] = []
    leaf_rate = KERNEL_LINK / (a_fan * b_fan * c_fan)
    n = 0
    for a in range(a_fan):
        top = f"a{a}"
        classes.append({"name": top, "ls_sc": _lin(KERNEL_LINK / a_fan)})
        for b in range(b_fan):
            mid = f"{top}.b{b}"
            classes.append({"name": mid, "parent": top,
                            "ls_sc": _lin(KERNEL_LINK / (a_fan * b_fan))})
            for c in range(c_fan):
                doc = {"name": f"{mid}.c{c}", "parent": mid,
                       "ls_sc": _lin(leaf_rate)}
                if n % 4 == 0:
                    doc["rt_sc"] = {"m1": leaf_rate, "d": 0.01,
                                    "m2": leaf_rate / 2}
                classes.append(doc)
                n += 1
    return {"link_rate": KERNEL_LINK, "classes": classes}


def kernel_packets(seed: int, leaves: Sequence[str]) -> Tuple[Dict[str, float], List[str]]:
    """A packet size per leaf and the two-deep seeding order."""
    rng = random.Random(f"kernel/{seed}")
    sizes = {leaf: float(rng.choice(KERNEL_SIZES)) for leaf in leaves}
    order = list(leaves) * 2
    rng.shuffle(order)
    return sizes, order


# -- arrival schedules ----------------------------------------------------------
#
# A schedule is ``(offsets, flow_index, period)``: packet k is due at
# ``(k // len(offsets)) * period + offsets[k % len(offsets)]`` seconds
# after the start.  CBR is one period of sorted phases repeated; Poisson
# is a single "period" long enough for the whole run.


def flood_inputs(seed: int, flows: int = 32, rate: float = 80_000.0):
    """32 CBR flows with seeded phases, spread over the campus leaves."""
    rng = random.Random(f"flood/{seed}")
    leaves = list(CAMPUS_LEAVES)
    rng.shuffle(leaves)
    names = [f"{leaves[i % len(leaves)]}#{i}" for i in range(flows)]
    period = flows / rate
    phased = sorted((rng.random() * period, i) for i in range(flows))
    return names, ([p for p, _ in phased], [i for _, i in phased], period)


def shaped_inputs(seed: int, duration: float, info: Dict[str, Any],
                  data_flows: int = 24):
    """Poisson best-effort flows over the data leaves plus one CBR probe
    flow per real-time leaf; returns names, schedule and the probe flows'
    indices."""
    rng = random.Random(f"shaped/{seed}")
    leaves = info["data_leaves"]
    names = [f"{leaves[i % len(leaves)]}#{i}" for i in range(data_flows)]
    events: List[Tuple[float, int]] = []
    per_flow = SHAPED_DATA_PPS / data_flows
    for i in range(data_flows):
        t = rng.expovariate(per_flow)
        while t < duration:
            events.append((t, i))
            t += rng.expovariate(per_flow)
    probe_index: List[int] = []
    for leaf, pps in sorted(info["probes"].items()):
        index = len(names)
        names.append(f"{leaf}#p")
        probe_index.append(index)
        t = rng.random() / pps
        while t < duration:
            events.append((t, index))
            t += 1.0 / pps
    events.sort()
    return (names,
            ([t for t, _ in events], [i for _, i in events], float("inf")),
            probe_index)


def control_inputs(seed: int, flows: int = 16, rate: float = 500.0):
    """Light CBR probe traffic over seeded leaves of the control tree."""
    rng = random.Random(f"control/{seed}")
    picks = rng.sample(range(CONTROL_GROUPS * CONTROL_FAN), flows)
    names = [f"g{p // CONTROL_FAN}.l{p % CONTROL_FAN}#{i}"
             for i, p in enumerate(picks)]
    period = flows / rate
    phased = sorted((rng.random() * period, i) for i in range(flows))
    return names, ([p for p, _ in phased], [i for _, i in phased], period)
