"""Compose EXPERIMENTS.md from benchmark results.

Reads the row dumps the benchmark harness writes to
``benchmarks/results/*.json`` and renders the paper-vs-measured record
for every figure.  Run after ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"


def load(name: str) -> list:
    path = RESULTS / f"{name}.json"
    if not path.exists():
        return []
    with open(path) as handle:
        return json.load(handle)


def _fmt_bytes(value: float) -> str:
    if value >= 1024 * 1024:
        return f"{value / (1024 * 1024):.1f} MB"
    if value >= 1024:
        return f"{value / 1024:.1f} KB"
    return f"{value:.0f} B"


def section(title: str, paper: str, measured: list, notes: str = "") -> str:
    out = [f"### {title}\n", f"**Paper:** {paper}\n", "**Measured:**\n"]
    out.extend(f"- {line}" for line in measured)
    if notes:
        out.append(f"\n*Notes:* {notes}")
    out.append("")
    return "\n".join(out)


def fig07() -> str:
    rows = load("fig07_iblt_decode_rate")
    lines = []
    for denom in (24, 240, 2400):
        worst = max((r["failure_rate"] for r in rows
                     if r["scheme"] == "optimal"
                     and abs(r["target_failure"] - 1 / denom) < 1e-12),
                    default=None)
        if worst is not None:
            lines.append(f"optimal params @ target 1/{denom}: worst observed "
                         f"failure rate {worst:.4f}")
    static_max = max((r["failure_rate"] for r in rows
                      if r["scheme"] == "static"), default=0)
    lines.append(f"static (k=4, tau=1.5): worst failure rate {static_max:.2f}")
    return section(
        "Fig. 7 — IBLT decode failure rate (static vs optimal)",
        "static parameters miss the desired rates badly for small j; "
        "Algorithm 1's parameters always meet 1/24, 1/240, 1/2400.",
        lines)


def fig10() -> str:
    rows = load("fig10_iblt_size")
    lines = []
    for denom in (24, 240, 2400):
        series = [r for r in rows if r["scheme"] == "optimal"
                  and abs(r["target_failure"] - 1 / denom) < 1e-12]
        if series:
            tail = series[-1]
            lines.append(f"target 1/{denom}: j=1000 needs {tail['cells']} "
                         f"cells (tau={tail['cells'] / 1000:.2f})")
    return section(
        "Fig. 10 — size of optimal IBLTs",
        "cells grow linearly in j with discretization bumps at small j; "
        "stricter decode targets cost more cells.",
        lines)


def fig11() -> str:
    rows = load("fig11_pingpong")
    lines = []
    for j in (10, 20, 50, 100):
        single = next((r for r in rows if r["j"] == j
                       and r["scheme"] == "single"), None)
        paired = next((r for r in rows if r["j"] == j
                       and r["scheme"] == "pingpong"
                       and r["sibling"] == j), None)
        if single and paired:
            lines.append(f"j={j}: single {single['failure_rate']:.4f} -> "
                         f"ping-pong {paired['failure_rate']:.4f}")
    return section(
        "Fig. 11 — ping-pong decoding",
        "a same-size sibling IBLT drops the failure rate to ~(1/240)^2; "
        "smaller siblings still help.",
        lines)


def fig12() -> str:
    rows = load("fig12_bch_deployment")
    lines = [
        f"n={r['n']}: graphene {_fmt_bytes(r['graphene_bytes'])} vs "
        f"XThin* {_fmt_bytes(r['xthin_star_bytes'])}"
        for r in rows if r["n"] in (500, 2000, 5000)
    ]
    fails = sum(r["failures"] for r in rows)
    trials = sum(r["trials"] for r in rows)
    lines.append(f"decode failures: {fails}/{trials} "
                 f"(deployment: 46/15647)")
    return section(
        "Fig. 12 — BCH deployment shape (Protocol 1 vs XThin*)",
        "XThin* grows ~8 B/txn; Graphene grows much slower "
        "(~39 KB vs a few KB at 4500 txns).",
        lines,
        "simulated: deployment replaced by Monte-Carlo at matching (n, m); "
        "see DESIGN.md substitutions.")


def fig13() -> str:
    rows = load("fig13_ethereum")
    lines = [
        f"n={r['n']}: graphene {_fmt_bytes(r['graphene_bytes'])} "
        f"(incl. {_fmt_bytes(r['ordering_bytes'])} ordering) vs full "
        f"{_fmt_bytes(r['full_block_bytes'])} vs ideal 8B/txn "
        f"{_fmt_bytes(r['ideal_8B_bytes'])}"
        for r in rows if r["n"] in (100, 400, 1000)
    ]
    return section(
        "Fig. 13 — Ethereum shape (Protocol 1 vs full blocks, m=60k)",
        "Graphene (with ordering info) is a small fraction of full "
        "blocks and tracks the idealized 8 B/txn line within a small "
        "factor.",
        lines,
        "simulated: historic Geth replay replaced by synthetic blocks "
        "with the mempool pinned at 60,000 txns.")


def fig14() -> str:
    rows = load("fig14_size_vs_mempool")
    lines = []
    for n in (200, 2000, 10000):
        row = next((r for r in rows
                    if r["n"] == n and r["multiple"] == 1.0), None)
        if row:
            ratio = row["graphene_bytes"] / row["compact_blocks_bytes"]
            lines.append(
                f"n={n}, multiple=1: graphene "
                f"{_fmt_bytes(row['graphene_bytes'])} vs CB "
                f"{_fmt_bytes(row['compact_blocks_bytes'])} ({ratio:.0%})")
    return section(
        "Fig. 14 — Protocol 1 size vs Compact Blocks",
        "substantial advantage that improves with block size; cost grows "
        "sublinearly in extra mempool transactions.",
        lines)


def fig15() -> str:
    rows = load("fig15_p1_decode_rate")
    worst = max((r["failure_rate"] for r in rows), default=0.0)
    return section(
        "Fig. 15 — Protocol 1 decode failure rate",
        "observed failure rate at or below the 1/240 target everywhere.",
        [f"worst observed failure rate: {worst:.4f} "
         f"(target {1 / 240:.4f})"])


def fig16() -> str:
    rows = load("fig16_p2_decode_rate")
    lines = [
        f"n={r['n']}, fraction={r['fraction']}: without ping-pong "
        f"{r['failure_without_pingpong']:.3f}, with "
        f"{r['failure_with_pingpong']:.3f}"
        for r in rows
    ]
    return section(
        "Fig. 16 — Protocol 2 decode rate (ping-pong)",
        "decode rate far exceeds target; ping-pong pushes failures "
        "toward zero.",
        lines)


def fig17() -> str:
    rows = load("fig17_p2_size_by_part")
    lines = []
    for n in (200, 2000, 10000):
        row = next((r for r in rows
                    if r["n"] == n and r["fraction"] == 0.6), None)
        if row:
            lines.append(
                f"n={n}, fraction=0.6: graphene "
                f"{_fmt_bytes(row['graphene_total'])} "
                f"(S {_fmt_bytes(row['bloom_s'])}, I "
                f"{_fmt_bytes(row['iblt_i'])}, R "
                f"{_fmt_bytes(row['bloom_r'])}, J "
                f"{_fmt_bytes(row['iblt_j'])}) vs CB "
                f"{_fmt_bytes(row['compact_blocks_bytes'])}")
    return section(
        "Fig. 17 — Protocol 2 cost by message type",
        "Graphene Extended significantly smaller than Compact Blocks; "
        "gains increase with block size.",
        lines)


def fig18() -> str:
    rows = load("fig18_mempool_sync")
    lines = []
    for n in (200, 2000, 10000):
        row = next((r for r in rows
                    if r["n"] == n and r["fraction_common"] == 0.4), None)
        if row:
            ratio = row["graphene_bytes"] / row["compact_blocks_bytes"]
            lines.append(
                f"n=m={n}, 40% common: graphene "
                f"{_fmt_bytes(row['graphene_bytes'])} vs CB "
                f"{_fmt_bytes(row['compact_blocks_bytes'])} ({ratio:.0%})")
    return section(
        "Fig. 18 — mempool synchronization (m = n special case)",
        "Graphene beats Compact Blocks across overlap fractions; "
        "advantage grows with mempool size.",
        lines)


def fig19() -> str:
    rows = load("fig19_theorem2")
    worst = min((r["bound_holds_rate"] for r in rows), default=1.0)
    return section(
        "Fig. 19 — Theorem 2 validation (x* <= x)",
        "bound holds with frequency >= beta = 239/240 everywhere.",
        [f"worst observed holding rate: {worst:.4f} "
         f"(target {239 / 240:.4f})"])


def fig20() -> str:
    rows = load("fig20_theorem3")
    worst = min((r["bound_holds_rate"] for r in rows), default=1.0)
    return section(
        "Fig. 20 — Theorem 3 validation (y* >= y)",
        "bound holds with frequency >= beta = 239/240 everywhere.",
        [f"worst observed holding rate: {worst:.4f} "
         f"(target {239 / 240:.4f})"])


def sec51() -> str:
    rows = load("sec51_bloom_comparison")
    lines = [
        f"n={r['n']}: graphene {_fmt_bytes(r['graphene_bytes'])}, "
        f"bloom-only {_fmt_bytes(r['bloom_only_bytes'])}, CB(6B) "
        f"{_fmt_bytes(r['compact_blocks_bytes'])}, info floor "
        f"{_fmt_bytes(r['info_bound_bytes'])}"
        for r in rows if r["n"] in (100, 1000, 10000)
    ]
    return section(
        "§5.1 / Theorem 4 — Graphene vs optimal Bloom filter alone",
        "Graphene wins by Omega(n log n) bits; simple solutions can win "
        "below n ~ 50-100.",
        lines)


def sec532() -> str:
    rows = load("sec532_difference_digest")
    lines = [
        f"n={r['n']}, fraction={r['fraction']}: digest "
        f"{_fmt_bytes(r['difference_digest_bytes'])} vs graphene "
        f"{_fmt_bytes(r['graphene_bytes'])} "
        f"({r['difference_digest_bytes'] / r['graphene_bytes']:.1f}x)"
        for r in rows
    ]
    return section(
        "§5.3.2 — Difference Digest (IBLT-only)",
        "several times more expensive than Graphene.",
        lines)


def sec61() -> str:
    rows = load("sec61_attacks")
    if not rows:
        return section("§6.1 — attack resilience", "", [])
    row = rows[0]
    return section(
        "§6.1 — attack resilience",
        "manufactured collisions always defeat XThin and Compact "
        "Blocks; Graphene fails only with probability f_S * f_R; "
        "malformed IBLTs are detected.",
        [f"xthin failures: {row['xthin_failures']}/{row['trials']}",
         f"compact blocks failures: "
         f"{row['compact_blocks_failures']}/{row['trials']}",
         f"CB+siphash failures: {row['cb_siphash_failures']}/{row['trials']}",
         f"graphene failures: {row['graphene_failures']}/{row['trials']} "
         f"(analytic f_S*f_R = {row['graphene_analytic_fs_fr']:.5f})"])


def extensions() -> str:
    parts = ["## Extensions (motivation made operational)\n"]
    fork = load("extension_fork_rate")
    if fork:
        by_key = {(r["protocol"], r["n"]): r["fork_probability"]
                  for r in fork}
        if ("graphene", 4000) in by_key and ("full_block", 4000) in by_key:
            parts.append(
                f"- **Analytic fork rate** (4000-txn blocks, slow links): "
                f"graphene {by_key[('graphene', 4000)]:.3%} vs full blocks "
                f"{by_key[('full_block', 4000)]:.3%}.")
    mining = load("extension_mining_forks")
    if mining:
        by_proto = {r["protocol"]: r for r in mining}
        if "graphene" in by_proto and "full_block" in by_proto:
            parts.append(
                f"- **Empirical mining** (40 blocks, stressed network): "
                f"graphene {by_proto['graphene']['stale_blocks']} stale "
                f"blocks vs full blocks "
                f"{by_proto['full_block']['stale_blocks']} "
                f"({by_proto['full_block']['fork_rate']:.1%} fork rate).")
    cpi = load("extension_cpisync")
    if cpi:
        big = cpi[-1]
        parts.append(
            f"- **CPISync vs IBLT** (diff {big['diff']}): "
            f"{big['cpisync_bytes']} B vs {big['iblt_bytes']} B on the "
            f"wire, but {big['cpisync_seconds'] / max(big['iblt_seconds'], 1e-9):.0f}x "
            "the CPU — the section 2.1 balance.")
    parts.append("")
    return "\n".join(parts)


def ablations() -> str:
    parts = ["## Ablations\n"]
    cell = load("ablation_cell_size")
    if cell:
        parts.append("- **IBLT cell width r** (8-20 B): optimal `a` falls "
                     "as r grows (Eq. 3's 1/r), total cost varies "
                     f"{max(c['total_bytes'] for c in cell) / min(c['total_bytes'] for c in cell) - 1:.0%}.")
    disc = load("ablation_discrete_search")
    if disc:
        worst = max(r["penalty"] for r in disc)
        parts.append(f"- **Eq. 3 vs discrete search**: closed form costs up "
                     f"to {worst:.0%} extra (paper: up to 20% for a < 100).")
    beta = load("ablation_beta")
    if beta:
        spread = beta[-1]["avg_bytes"] / beta[0]["avg_bytes"] - 1
        parts.append(f"- **beta** (1-1/24 .. 1-1/2400): stricter assurance "
                     f"costs {spread:.0%} more bytes, buys fewer failures.")
    kk = load("ablation_k")
    if kk:
        parts.append("- **k hash functions**: best k in the searched band; "
                     "large j prefers small k (see results/ablation_k.json).")
    parts.append("")
    return "\n".join(parts)


def perf_notes() -> str:
    parts = ["## Performance (PDS hot path)\n"]
    rows = load("perf_pds")
    if rows:
        by_key = {(r["case"], r["n"]): r["speedup"] for r in rows}
        bd = by_key.get(("iblt_build_decode", 2000))
        e2e = by_key.get(("protocol1_session", 2000))
        if bd and e2e:
            parts.append(
                f"- **Columnar/batch PDS layer vs scalar reference "
                f"implementations** (same process, same machine): "
                f"{bd:.1f}x on IBLT build+decode and {e2e:.1f}x on an "
                f"end-to-end Protocol 1 session at n=2000.  Full table: "
                f"[BENCH_PDS.json](BENCH_PDS.json) "
                f"(regenerate with `make perf`, guard with "
                f"`make perf-check`).")
        enc = by_key.get(("riblt_encode", 2000))
        rec = by_key.get(("riblt_reconcile", 2000))
        if enc and rec:
            parts.append(
                f"- **Rateless IBLT batch kernel vs its scalar walk** "
                f"(same process): {enc:.1f}x generating the first 256 "
                f"coded symbols over 2000 keys, {rec:.1f}x on a whole "
                f"reconciliation of a 100-key difference on the "
                f"Protocol 3 window schedule.")
    parts.append("")
    return "\n".join(parts)


def propagation_notes() -> str:
    parts = ["## Propagation at scale (1000-node runs)\n"]
    rows = load("net_propagation")
    for row in rows:
        p = row["params"]
        prop = row["propagation"]
        parts.append(
            f"- **{row['case']}** ({p['nodes']} nodes, {p['blocks']} "
            f"blocks every {p['interval']:.0f} s over a seeded "
            f"scale-free topology with geo-distance links): delay "
            f"p50 {prop['p50']:.2f} s / p90 {prop['p90']:.2f} s / "
            f"p99 {prop['p99']:.2f} s, fork rate {prop['fork_rate']:.1%}, "
            f"coverage {prop['coverage']:.0%}, "
            f"{_fmt_bytes(prop['wire_bytes'])} on the wire; "
            f"{row['ops_per_s']:,.0f} simulator events/s "
            f"({row['s_per_block']:.3f} s wall per block).")
    if rows:
        parts.append(
            "\n*Notes:* full node stack (graphene relay, recovery, "
            "telemetry) on the event simulator core; every relay "
            "keeps its per-message events at every node count.  "
            "Regenerate with "
            "`python benchmarks/bench_net.py`, guard with "
            "`make perf-net` ([BENCH_NET.json](BENCH_NET.json)).")
    parts.append("")
    return "\n".join(parts)


def main() -> int:
    body = [
        "# EXPERIMENTS — paper vs measured\n",
        "Every figure in the paper's evaluation (it has no numbered "
        "tables) is regenerated by one benchmark under `benchmarks/`; "
        "this file summarizes the most recent run "
        "(`pytest benchmarks/ --benchmark-only`).  Raw series live in "
        "`benchmarks/results/*.json`.  Absolute byte counts differ from "
        "the paper (simulated substrate, slightly different header "
        "accounting); the comparisons below are about *shape*: who wins, "
        "by what factor, and where the crossovers sit.\n",
        fig07(), fig10(), fig11(), fig12(), fig13(), fig14(), fig15(),
        fig16(), fig17(), fig18(), fig19(), fig20(), sec51(), sec532(),
        sec61(), ablations(), extensions(), perf_notes(),
        propagation_notes(),
    ]
    out = ROOT / "EXPERIMENTS.md"
    out.write_text("\n".join(body))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
