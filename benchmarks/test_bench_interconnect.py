"""E14 (extension) — Interconnect sensitivity: the Figure-1 omission.

The paper omits networking from Figure 1 "due to the lack of production
carbon-emission reports".  This bench bounds what the omission could
mean: under LOW/MID/HIGH interconnect assumptions, how much embodied
carbon would a fat-tree fabric add to each Figure-1 system, and how far
would the reported shares move?

Expected shape: the network adds a single-digit-to-double-digit share,
and the paper's qualitative conclusions (GPU dominance on Juwels
Booster, memory+storage ~half) survive every scenario — i.e. the
omission is material but not story-breaking.
"""

import pytest

from benchmarks.conftest import report
from repro import units
from repro.embodied import (
    HAWK,
    JUWELS_BOOSTER,
    SUPERMUC_NG,
    figure1_share_with_network,
    interconnect_carbon_kg,
)
from repro.embodied.interconnect import HIGH, LOW, MID

SYSTEMS = (JUWELS_BOOSTER, SUPERMUC_NG, HAWK)
SCENARIOS = (LOW, MID, HIGH)


def sensitivity():
    return {
        (system.name, sc.name): figure1_share_with_network(system, sc)
        for system in SYSTEMS for sc in SCENARIOS
    }


def test_bench_interconnect(benchmark):
    shares = benchmark(sensitivity)

    for (name, sc), s in shares.items():
        assert sum(s.values()) == pytest.approx(1.0)
        # material but bounded
        assert 0.005 < s["network"] < 0.40, (name, sc)

    # qualitative conclusions survive every scenario
    for sc in SCENARIOS:
        jb = shares[("Juwels Booster", sc.name)]
        assert jb["gpu"] == max(jb["gpu"], jb["cpu"], jb["memory"],
                                jb["storage"])
        ng = shares[("SuperMUC-NG", sc.name)]
        assert 0.35 < ng["memory"] + ng["storage"] < 0.65

    lines = [f"{'system':16s} {'scenario':>8s} {'network share':>14s} "
             f"{'mem+sto share':>14s}"]
    for system in SYSTEMS:
        for sc in SCENARIOS:
            s = shares[(system.name, sc.name)]
            lines.append(f"{system.name:16s} {sc.name:>8s} "
                         f"{s['network'] * 100:13.1f}% "
                         f"{(s['memory'] + s['storage']) * 100:13.1f}%")
    lines.append("")
    n_nodes = SUPERMUC_NG.n_cpus // 2
    fabric_t = {sc.name: interconnect_carbon_kg(n_nodes, sc)
                / units.KG_PER_TONNE for sc in SCENARIOS}
    lines.append(f"SuperMUC-NG fabric ({n_nodes} nodes): "
                 + ", ".join(f"{name} {t:.0f} t"
                             for name, t in fabric_t.items()))
    report("E14 — interconnect sensitivity (the Fig. 1 omission)",
           "\n".join(lines))
