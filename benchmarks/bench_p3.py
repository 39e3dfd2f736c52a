"""Protocol 3 head-to-head: the rateless relay vs every alternative.

Where Figs. 14 and 18 plot Protocol 1 against Compact Blocks, this
suite pits **Protocol 3** (Bloom filter S + rateless coded-symbol
stream, no difference estimate) against:

* **Protocol 1/2** -- the classic Graphene session on the identical
  scenario (protocol 2 whenever 1's IBLT fails to decode);
* **oracle P1** -- Protocol 1 with its IBLT sized from the *observed*
  number of Bloom false positives instead of the Chernoff bound ``a*``.
  No real peer can build this (it requires knowing the answer), so it
  lower-bounds what an estimate-based protocol could ever spend;
* **CPISync** -- a characteristic-polynomial digest sized for the true
  difference, the near-information-theoretic floor for the
  reconciliation structure alone (section 2.1's trade-off).

The acceptance bound this suite enforces (and ``BENCH_P3.json`` pins
in CI via ``scripts/check_perf.py --suite p3``): across the Fig. 14
grid, Protocol 3's total bytes stay within ``RATIO_BOUND`` (2.5x) of
the oracle-sized Protocol 1 relay, and the rateless relay never falls
back (``protocol_used == 3`` and ``success`` on every trial).  A
mempool sync may *give up*: at a difference in the thousands a 16-bit
checksum passes a false pure cell about once in fifteen streams, the
key peels twice and the decoder rejects the stream (paper 6.1).  That
is counted per row (``p3_gave_up``) and bounded by ``GAVE_UP_BOUND``
(which carries the measurement), not asserted away -- which trials
trip it is a draw of the hash family.

Every Fig. 14 cell ships the whole block to a mempool that holds it, so
the stream decodes from the opening and the receiver's window schedule
never runs.  The **partly-missing rows** (``kind == "missing"``: n in
{200, 2000}, mempool multiple 1, the receiver holding 95 % / 80 % of the
block) are where it does: they record Protocol 3's bytes and round
trips beside the classic session's (Protocol 1, then 2, then the
fetch).  Since protocol version 3 the one continuation carries filter R
and the answer the transactions that miss it, and this regime is a
gate: a row fails unless Protocol 3 spends no more bytes than the
classic chain and no more round trips (``ROUNDTRIP_SLACK``), and never
averages more than opening + one continuation + fetch
(``ROUNDTRIP_BOUND``).  The Fig. 18 sync rows are where Protocol 3 still
loses (it would need the sender-side filter F of section 3.3.2 as
well); ``SYNC_RATIO_BOUNDS`` holds each at its committed ratio so the
loss is at least not allowed to grow.

Every number here is deterministic byte and message accounting under
fixed seeds (no wall clock), so the committed baseline compares exactly
across machines.
"""

from __future__ import annotations

from repro.chain.scenarios import (
    make_block_scenario,
    make_sync_scenario,
    mempool_multiple_to_extra,
)
from repro.core.mempool_sync import synchronize_mempools
from repro.core.params import GrapheneConfig
from repro.core.protocol1 import build_protocol1
from repro.core.session import BlockRelaySession
from repro.pds.cpisync import cpisync_size_bytes
from repro.pds.iblt import IBLT_HEADER_BYTES
from repro.pds.param_table import default_param_table

#: Fig. 14 grid (block size x mempool multiple), 3 trials per cell.
RELAY_NS = (200, 2000, 10000)
RELAY_MULTIPLES = (0.5, 1.0, 2.0, 4.0)

#: Fig. 18 grid (mempool size x fraction of content in common).
SYNC_NS = (200, 2000)
SYNC_FRACTIONS = (0.2, 0.6, 1.0)

#: Partly-missing relays (block size x share of the block held).
MISSING_NS = (200, 2000)
MISSING_FRACTIONS = (0.95, 0.8)
MISSING_TRIALS = 10

TRIALS = 3
SEED = 314

#: The acceptance bound: P3 bytes-per-delta within this factor of the
#: oracle-sized Protocol 1 relay, per Fig. 14 cell.  (Both protocols
#: repair the same scenario difference, so the per-delta ratio is the
#: total-bytes ratio.)
RATIO_BOUND = 2.5

#: Rateless mempool syncs allowed to give up, per Fig. 18 cell (of
#: ``TRIALS``).  Measured at the worst cell (n = 2000, 20 % in common,
#: scenario seeds 9000..9059): 3 of 60, and 6 of 60 under the SHA-256
#: family of protocol version 1 -- so two of three in one row is a
#: regression, one is a draw.
GAVE_UP_BOUND = 1

#: Round trips a partly-missing rateless relay may average.  Opening,
#: one continuation, fetch: 3; the receiver sizes that continuation
#: from its sweep (``Protocol3ReceiverState.target``) and 98 relays in
#: 100 need no second one, where half-growth sipping took 5.6.
ROUNDTRIP_BOUND = 3.5

#: Round trips a partly-missing rateless relay may average beyond the
#: classic chain's on the same scenarios.
ROUNDTRIP_SLACK = 0.1

#: ``ratio_vs_classic`` each sync row may reach: its committed value (+
#: ``SYNC_RATIO_SLACK``).  Bytes here are deterministic; a row that
#: moves past its bound is a protocol change.
SYNC_RATIO_BOUNDS = {
    "sync_n200_f0.2": 6.2468, "sync_n200_f0.6": 4.9075,
    "sync_n200_f1": 0.9384, "sync_n2000_f0.2": 12.5615,
    "sync_n2000_f0.6": 8.8739, "sync_n2000_f1": 0.94,
}
SYNC_RATIO_SLACK = 0.01


def _oracle_p1_bytes(scenario, outcome, config, table) -> tuple:
    """Total bytes of a Protocol 1 relay whose IBLT knew the answer.

    Rebuilds the Protocol 1 payload for the scenario, counts the Bloom
    filter's *actual* false positives (the difference the IBLT must
    repair), and swaps the shipped IBLT for one sized from that truth.
    Keeps the session's inv/getdata framing so the comparison is
    end-to-end total vs end-to-end total.
    """
    payload = build_protocol1(scenario.block.txs,
                              len(scenario.receiver_mempool), config)
    block_ids = {tx.txid for tx in scenario.block.txs}
    foreign = [tx.txid for tx in scenario.receiver_mempool
               if tx.txid not in block_ids]
    delta = int(sum(payload.bloom_s.contains_many(foreign))) if foreign else 0
    params = table.params_for(max(1, delta))
    oracle_iblt = IBLT_HEADER_BYTES + params.cells * config.cell_bytes
    framing = outcome.cost.inv + outcome.cost.getdata
    counts = payload.wire_size() - payload.bloom_bytes - payload.iblt_bytes
    return framing + payload.bloom_bytes + counts + oracle_iblt, delta


def bench_relay_cell(n: int, multiple: float, trials: int = TRIALS,
                     seed: int = SEED) -> dict:
    """One Fig. 14 cell: P1/2 vs P3 vs oracle P1 vs CPISync."""
    table = default_param_table(240)
    classic = BlockRelaySession(GrapheneConfig())
    rateless = BlockRelaySession(GrapheneConfig(protocol=3))
    extra = mempool_multiple_to_extra(n, multiple)
    agg = {"p1_bytes": 0, "p3_bytes": 0, "oracle_bytes": 0,
           "p3_riblt_bytes": 0, "cpisync_bytes": 0, "delta": 0}
    p2_fallbacks = 0
    for t in range(trials):
        scenario = make_block_scenario(
            n, extra, 1.0, seed=seed + 7919 * t + n + int(multiple * 13))

        p1 = classic.relay(scenario.block, scenario.receiver_mempool)
        assert p1.success, (n, multiple, t)
        if p1.protocol_used != 1:
            p2_fallbacks += 1

        p3 = rateless.relay(scenario.block, scenario.receiver_mempool)
        assert p3.success and p3.protocol_used == 3, (
            f"rateless relay fell back at n={n} multiple={multiple} "
            f"trial={t}: used protocol {p3.protocol_used}")

        oracle, delta = _oracle_p1_bytes(scenario, p1, classic.config, table)
        agg["p1_bytes"] += p1.cost.total()
        agg["p3_bytes"] += p3.cost.total()
        agg["p3_riblt_bytes"] += p3.cost.riblt
        agg["oracle_bytes"] += oracle
        agg["cpisync_bytes"] += cpisync_size_bytes(max(1, delta))
        agg["delta"] += delta
    row = {"case": f"relay_n{n}_x{multiple:g}", "kind": "relay",
           "n": n, "multiple": multiple, "trials": trials}
    row.update({key: round(value / trials, 2) for key, value in agg.items()})
    row["p2_fallbacks"] = p2_fallbacks
    row["ratio_vs_oracle"] = round(row["p3_bytes"] / row["oracle_bytes"], 4)
    return row


def _round_trips(outcome) -> float:
    """Messages that crossed the wire, in pairs: ``benchmarks/e2e``'s
    count (the ``inv`` crosses no transport on loopback)."""
    return sum(1 for event in outcome.events
               if event.command != "inv" and event.outcome != "timeout") / 2


def bench_missing_cell(n: int, fraction: float,
                       trials: int = MISSING_TRIALS, seed: int = SEED) -> dict:
    """One partly-missing cell: the classic session vs the rateless one."""
    classic = BlockRelaySession(GrapheneConfig())
    rateless = BlockRelaySession(GrapheneConfig(protocol=3))
    extra = mempool_multiple_to_extra(n, 1.0)
    agg = {"p1_bytes": 0, "p1_roundtrips": 0, "p3_bytes": 0,
           "p3_riblt_bytes": 0, "p3_roundtrips": 0}
    p2_fallbacks = 0
    for t in range(trials):
        scenario = make_block_scenario(
            n, extra, fraction, seed=seed + 7919 * t + n + int(fraction * 100))
        p1 = classic.relay(scenario.block, scenario.receiver_mempool)
        assert p1.success, (n, fraction, t)
        p2_fallbacks += p1.protocol_used != 1
        p3 = rateless.relay(scenario.block, scenario.receiver_mempool)
        assert p3.success and p3.protocol_used == 3, (n, fraction, t)
        agg["p1_bytes"] += p1.cost.total()
        agg["p1_roundtrips"] += _round_trips(p1)
        agg["p3_bytes"] += p3.cost.total()
        agg["p3_riblt_bytes"] += p3.cost.riblt
        agg["p3_roundtrips"] += _round_trips(p3)
    row = {"case": f"missing_n{n}_f{fraction:g}", "kind": "missing",
           "n": n, "multiple": 1.0, "fraction_held": fraction,
           "trials": trials}
    row.update({key: round(value / trials, 2) for key, value in agg.items()})
    row["p2_fallbacks"] = p2_fallbacks
    return row


def bench_sync_cell(n: int, fraction: float, trials: int = TRIALS,
                    seed: int = SEED) -> dict:
    """One Fig. 18 cell: mempool sync, classic vs rateless encoding."""
    classic = GrapheneConfig()
    rateless = GrapheneConfig(protocol=3)
    agg = {"p1_bytes": 0, "p3_bytes": 0, "p3_riblt_bytes": 0}
    gave_up = 0
    for t in range(trials):
        case_seed = seed + 2221 * t + n + int(fraction * 10)
        scenario = make_sync_scenario(n, fraction, seed=case_seed)
        p1 = synchronize_mempools(scenario.sender_mempool,
                                  scenario.receiver_mempool, classic,
                                  transfer_missing=False)
        assert p1.success, (n, fraction, t)

        scenario = make_sync_scenario(n, fraction, seed=case_seed)
        p3 = synchronize_mempools(scenario.sender_mempool,
                                  scenario.receiver_mempool, rateless,
                                  transfer_missing=False)
        if not p3.success:
            gave_up += 1
            continue
        assert p3.protocol_used == 3, (
            f"rateless sync fell back at n={n} fraction={fraction} "
            f"trial={t}: used protocol {p3.protocol_used}")
        agg["p1_bytes"] += p1.cost.total()
        agg["p3_bytes"] += p3.cost.total()
        agg["p3_riblt_bytes"] += p3.cost.riblt
    row = {"case": f"sync_n{n}_f{fraction:g}", "kind": "sync",
           "n": n, "fraction_common": fraction, "trials": trials,
           "p3_gave_up": gave_up}
    # Bytes are averaged over the trials both encodings completed, so
    # the ratio compares like with like.
    completed = max(1, trials - gave_up)
    row.update({key: round(value / completed, 2)
                for key, value in agg.items()})
    row["ratio_vs_classic"] = round(
        row["p3_bytes"] / row["p1_bytes"], 4) if row["p1_bytes"] else 0.0
    return row


def run_suite() -> list:
    """Run the three grids; deterministic rows keyed by ``case``."""
    rows = [bench_relay_cell(n, multiple)
            for n in RELAY_NS for multiple in RELAY_MULTIPLES]
    rows += [bench_sync_cell(n, fraction)
             for n in SYNC_NS for fraction in SYNC_FRACTIONS]
    rows += [bench_missing_cell(n, fraction)
             for n in MISSING_NS for fraction in MISSING_FRACTIONS]
    return rows


def check_bounds(rows: list) -> list:
    """Return violation strings for the suite's acceptance bounds."""
    problems = []
    for row in rows:
        if row["kind"] == "relay" and row["ratio_vs_oracle"] > RATIO_BOUND:
            problems.append(
                f"{row['case']}: P3 at {row['p3_bytes']} bytes is "
                f"x{row['ratio_vs_oracle']} the oracle-sized P1 "
                f"({row['oracle_bytes']} bytes), bound is {RATIO_BOUND}")
        if row["kind"] == "sync" and row["p3_gave_up"] > GAVE_UP_BOUND:
            problems.append(
                f"{row['case']}: rateless sync gave up on "
                f"{row['p3_gave_up']} of {row['trials']} trials, bound "
                f"is {GAVE_UP_BOUND}")
        if row["kind"] == "sync":
            bound = SYNC_RATIO_BOUNDS[row["case"]] * (1 + SYNC_RATIO_SLACK)
            if row["ratio_vs_classic"] > bound:
                problems.append(
                    f"{row['case']}: rateless sync at "
                    f"x{row['ratio_vs_classic']} the classic encoding, "
                    f"bound is x{bound:.4f}")
        if row["kind"] != "missing":
            continue
        if row["p3_roundtrips"] > ROUNDTRIP_BOUND:
            problems.append(
                f"{row['case']}: rateless relays average "
                f"{row['p3_roundtrips']} round trips, bound is "
                f"{ROUNDTRIP_BOUND}")
        if row["p3_bytes"] > row["p1_bytes"]:
            problems.append(
                f"{row['case']}: P3 at {row['p3_bytes']} bytes loses to "
                f"the classic chain's {row['p1_bytes']}")
        if row["p3_roundtrips"] > row["p1_roundtrips"] + ROUNDTRIP_SLACK:
            problems.append(
                f"{row['case']}: P3 takes {row['p3_roundtrips']} round "
                f"trips against the classic chain's "
                f"{row['p1_roundtrips']}")
    return problems


def write_results(rows, path=None) -> str:
    """Write the EXPERIMENTS.md source rows for the head-to-head."""
    import json
    from pathlib import Path
    if path is None:
        path = Path(__file__).resolve().parent / "results" / \
            "p3_head_to_head.json"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows, indent=1) + "\n")
    return str(path)


def test_p3_head_to_head(benchmark, record_rows):
    rows = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    record_rows("p3_head_to_head", rows)

    assert not check_bounds(rows)

    relay = [r for r in rows if r["kind"] == "relay"]
    # The stream alone never beats the characteristic-polynomial floor
    # (section 2.1: CPISync trades CPU for minimal size)...
    assert all(r["cpisync_bytes"] < r["p3_riblt_bytes"] for r in relay)
    # ...but end-to-end, P3 tracks the classic session: no cell pays
    # more than the oracle bound, and the advantage of skipping the
    # difference estimate shows as P3 staying within 2x of P1/2 overall.
    assert all(r["p3_bytes"] < 2.0 * r["p1_bytes"] for r in relay)


if __name__ == "__main__":
    import json
    suite = run_suite()
    print(json.dumps(suite, indent=1))
    problems = check_bounds(suite)
    for problem in problems:
        print("BOUND VIOLATION:", problem)
    print("wrote", write_results(suite))
    raise SystemExit(1 if problems else 0)
