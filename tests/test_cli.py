"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestRelay:
    def test_default_relay_succeeds(self, capsys):
        assert main(["relay", "--n", "200", "--extra", "200"]) == 0
        out = capsys.readouterr().out
        assert "graphene" in out
        assert "compact blocks" in out

    def test_breakdown_flag(self, capsys):
        main(["relay", "--n", "100", "--extra", "100", "--breakdown"])
        out = capsys.readouterr().out
        assert "bloom_s" in out

    def test_protocol2_path(self, capsys):
        assert main(["relay", "--n", "200", "--extra", "200",
                     "--fraction", "0.9"]) == 0
        assert "protocol 2" in capsys.readouterr().out

    def test_p3_flag(self, capsys):
        assert main(["relay", "--n", "200", "--extra", "200", "--p3",
                     "--breakdown"]) == 0
        out = capsys.readouterr().out
        assert "protocol 3" in out
        assert "riblt" in out

    def test_p3_flag_under_provisioned_receiver(self, capsys):
        # The regime that forces classic Graphene into the P2 fallback
        # never leaves protocol 3: the stream just runs longer.
        assert main(["relay", "--n", "200", "--extra", "200",
                     "--fraction", "0.8", "--p3"]) == 0
        assert "protocol 3" in capsys.readouterr().out


class TestSync:
    def test_sync_succeeds(self, capsys):
        assert main(["sync", "--n", "300", "--common", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "synchronized=True" in out

    def test_sync_p3_flag(self, capsys):
        assert main(["sync", "--n", "300", "--common", "0.5",
                     "--p3"]) == 0
        out = capsys.readouterr().out
        assert "protocol 3" in out
        assert "synchronized=True" in out


class TestIBLTParams:
    def test_table_lookup(self, capsys):
        assert main(["iblt-params", "--j", "50"]) == 0
        out = capsys.readouterr().out
        assert "cells=" in out and "k=" in out

    def test_other_denom(self, capsys):
        assert main(["iblt-params", "--j", "50", "--denom", "24"]) == 0

    def test_a_rate_with_no_table_is_refused(self, capsys):
        assert main(["iblt-params", "--j", "50", "--denom", "100000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "repro iblt-params: no IBLT parameter table ships for failure "
            "rate 1/100000")


class TestExperiment:
    def test_known_driver(self, capsys):
        assert main(["experiment", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "cells=" in out

    def test_json_output(self, capsys):
        assert main(["experiment", "fig10", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list) and rows

    def test_unknown_driver(self, capsys):
        assert main(["experiment", "nope"]) == 2
        assert "choose from" in capsys.readouterr().err


class TestAttack:
    def test_attack_summary(self, capsys):
        assert main(["attack", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "xthin" in out and "graphene" in out


class TestNetsim:
    def test_propagates(self, capsys):
        assert main(["netsim", "--nodes", "6", "--degree", "2",
                     "--block-size", "60"]) == 0
        out = capsys.readouterr().out
        assert "6/6 nodes" in out

    def test_full_block_protocol(self, capsys):
        assert main(["netsim", "--nodes", "4", "--degree", "2",
                     "--block-size", "40",
                     "--protocol", "full_block"]) == 0

    def test_non_finite_latency_is_refused(self, capsys):
        assert main(["netsim", "--nodes", "6", "--degree", "2",
                     "--block-size", "50", "--latency", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("repro netsim: latency must be finite and "
                                ">= 0, got nan\n")


class TestSim:
    """``repro sim PRESET`` with any view; the old commands are aliases."""

    def test_aliases_print_what_their_sim_form_prints(self, capsys):
        pairs = [(["trace", "--nodes", "6", "--summary", "--limit", "4"],
                  ["sim", "relay", "--nodes", "6", "--trace", "--summary",
                   "--limit", "4"]),
                 (["report", "--nodes", "6"],
                  ["sim", "relay", "--nodes", "6", "--report"]),
                 (["netsim", "--nodes", "6", "--block-size", "50"],
                  ["sim", "netsim", "--nodes", "6", "--block-size", "50"]),
                 (["net", "--nodes", "12", "--blocks", "2",
                   "--block-txns", "8"],
                  ["sim", "net", "--nodes", "12", "--blocks", "2",
                   "--block-txns", "8"])]
        for alias, canonical in pairs:
            assert main(alias) == 0
            first = capsys.readouterr().out
            assert main(canonical) == 0
            second = capsys.readouterr().out
            # The memo table counts since process start; compare the rest.
            cut = [out.split("process memos")[0] for out in (first, second)]
            assert cut[0] == cut[1], alias

    def test_a_multi_block_run_gets_the_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(["net", "--nodes", "30", "--blocks", "3",
                     "--block-txns", "8", "--report",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok   block_coverage: 30/30 nodes hold all 3 blocks" in out
        assert "FAIL" not in out
        report = json.loads(path.read_text())
        assert report["ok"] and report["context"]["blocks"] == 3
        assert "net_propagation_seconds" in json.dumps(report["metrics"])

    def test_a_one_block_run_gets_the_summary_and_the_trace(self, capsys,
                                                            tmp_path):
        path = tmp_path / "run.json"
        assert main(["sim", "netsim", "--nodes", "6", "--block-size", "40",
                     "--trace", "--summary", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graphene: 6/6 nodes hold the block in ")
        context = json.loads(path.read_text())["context"]
        assert context["coverage"] == 1.0 and context["nodes"] == 6

    def test_trace_options_need_the_trace_view(self, capsys):
        assert main(["report", "--nodes", "6", "--summary"]) == 1
        assert capsys.readouterr().err == (
            "repro report: --kind, --summary, --limit and --jsonl shape "
            "the --trace view\n")

    def test_verbose_is_the_multi_block_presets_cycle_lines(self, capsys):
        assert main(["net", "--nodes", "12", "--blocks", "2",
                     "--block-txns", "8", "--interval", "10", "--verbose",
                     "--trace", "--summary", "--limit", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # blocks + DRAIN / interval + 1 cycles, printed before the view.
        assert [line.split()[1] for line in lines[:6]] == [
            "0", "1", "2", "3", "4", "5"]
        assert lines[6].startswith("graphene: 12/12 nodes hold all 2 ")
        for argv in (["sim", "relay"], ["sim", "netsim"], ["netsim"],
                     ["trace"], ["report"]):
            with pytest.raises(SystemExit) as exit_:
                main([*argv, "--verbose"])
            assert exit_.value.code == 2
            assert "unrecognized arguments: --verbose" in (
                capsys.readouterr().err)

    @pytest.mark.parametrize("argv,error", [
        (["net", "--interval", "inf"],
         "interval must be finite and > 0, got inf"),
        (["net", "--interval", "nan"],
         "interval must be finite and > 0, got nan"),
        (["net", "--interval", "1e-300"],
         "200 blocks every 1e-300s need more than 1,000,000 cycles"),
        (["trace", "--nodes", "0"], "need at least 2 nodes, got 0"),
        (["trace", "--until", "-1"], "until must be >= 0, got -1.0"),
        (["trace", "--until", "nan"], "until must be >= 0, got nan"),
        (["report", "--sync-rounds", "-1"],
         "sync_rounds must be >= 0, got -1"),
        (["netsim", "--nodes", "1"], "need at least 2 nodes, got 1"),
    ])
    def test_bad_input_is_refused_before_the_run(self, capsys, argv, error):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro {argv[0]}: {error}\n"


class TestReport:
    def test_header_says_when_coverage_was_reached(self, capsys):
        """The header's first time is the last arrival of the block, not
        the horizon the run was driven to; the horizon follows it."""
        from repro.cli import _observed_run, build_parser

        argv = ["report", "--nodes", "8", "--until", "30"]
        run = _observed_run(build_parser().parse_args(argv))
        last = max(node.block_arrival[run.root] for node in run.nodes)
        assert main(argv) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert 0.0 < last < 30.0
        assert header.startswith(f"graphene: 8/8 nodes in {last:.3f}s "
                                 f"simulated, run to 30.000s (")


    def test_memo_table_shows_the_decode_memo_answering(self, capsys,
                                                         tmp_path):
        """After the outcome table, one row per module memo; on the
        default run every receiver after the first peels the difference
        the first one peeled, so ``_DECODE_CACHE`` hits.  ``--json``
        carries the same counts under ``memos``."""
        from repro.pds import iblt
        from repro.utils.memo import MODULE_MEMOS

        iblt._DECODE_CACHE.clear()
        path = tmp_path / "report.json"
        assert main(["report", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        table = out[out.index("process memos"):out.index("merkle helper:")]
        rows = {line.split()[0]: [int(cell) for cell in line.split()[1:]]
                for line in table.splitlines()[3:] if line.strip()}
        assert list(rows) == [name.removeprefix("repro.")
                              for name in MODULE_MEMOS]
        assert out.index("relay outcomes") < out.index("process memos")
        hits, misses, entries, pinned = rows["pds.iblt._DECODE_CACHE"]
        assert hits > 0 and misses > 0 and entries > 0 and pinned > 0
        memos = json.loads(path.read_text())["memos"]
        assert {name.removeprefix("repro."): [
                    counts[key] for key in ("hits", "misses", "entries",
                                            "pinned")]
                for name, counts in memos.items()} == rows


    def test_helper_line_follows_the_memo_table(self, capsys, tmp_path):
        """One line after the memo table counts the Merkle helper's
        split and inline trees and its starts; ``--json`` writes the
        same counts under ``merkle_helper``.  The default run's blocks
        are under the split threshold, so the run itself adds none."""
        from repro.chain import merkle
        from repro.obs import render_helper_line

        merkle.merkle_root_packed(bytes(32 * merkle._SPLIT_MIN))
        before = merkle.helper_stats()
        path = tmp_path / "report.json"
        assert main(["report", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        lines = out[out.index("process memos"):
                    out.index("invariants:")].strip().splitlines()
        counts = json.loads(path.read_text())["merkle_helper"]
        assert counts == before == merkle.helper_stats()
        assert lines[-1] == render_helper_line(counts)
        assert lines[-1].startswith("merkle helper: ")
        assert counts["starts"] <= 1

class TestTrace:
    def test_header_says_when_coverage_was_reached(self, capsys):
        """As in ``repro report``: the last arrival of the block first,
        then the horizon the run was driven to."""
        from repro.cli import _observed_run, build_parser

        argv = ["trace", "--nodes", "8", "--until", "30", "--summary"]
        run = _observed_run(build_parser().parse_args(argv))
        last = max(node.block_arrival[run.root] for node in run.nodes)
        assert main(argv) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert 0.0 < last < 30.0
        assert header == (f"graphene: 8/8 nodes hold the block in "
                          f"{last:.3f}s simulated, run to 30.000s; "
                          f"{len(run.tracer.spans())} spans")


class TestPeerJSON:
    """``repro peer --json`` against a live socket server.

    The JSON document is the machine-readable record of the fetch; on
    the abandon rung it must still carry the recovery marks and the
    bytes spent before giving up (a regression: the single-connection
    serializer used to drop ``escalated``/``abandoned``/``marks``)."""

    def _serve_in_thread(self, scenario, drop=None):
        import asyncio
        import threading

        from repro.net.peer import BlockServer

        started = threading.Event()
        stop = threading.Event()
        port_box: list = []

        def run_server():
            async def run():
                server = BlockServer(scenario.block, drop=drop)
                port_box.append(await server.start("127.0.0.1", 0))
                started.set()
                while not stop.is_set():
                    await asyncio.sleep(0.02)
                await server.close()

            asyncio.run(run())

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        assert started.wait(5.0), "server thread never came up"
        return port_box[0], stop, thread

    def test_success_json_has_recovery_fields(self, capsys):
        from repro.chain.scenarios import make_block_scenario

        sc = make_block_scenario(n=60, extra=60, fraction=1.0, seed=9)
        port, stop, thread = self._serve_in_thread(sc)
        try:
            rc = main(["peer", "--port", str(port), "--n", "60",
                       "--extra", "60", "--seed", "9", "--json"])
        finally:
            stop.set()
            thread.join(5.0)
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["success"] is True
        assert doc["abandoned"] is False
        assert doc["escalated"] is False
        assert doc["via_fullblock"] is False
        assert [m["name"] for m in doc["marks"]] == ["done"]

    def test_abandon_json_carries_marks_and_partial_cost(self, capsys):
        from repro.chain.scenarios import make_block_scenario

        sc = make_block_scenario(n=60, extra=60, fraction=1.0, seed=9)
        blackhole = {"getdata": 10 ** 9, "graphene_p2_request": 10 ** 9,
                     "graphene_p3_request": 10 ** 9,
                     "getdata_shortids": 10 ** 9, "getdata_block": 10 ** 9}
        port, stop, thread = self._serve_in_thread(sc, drop=blackhole)
        try:
            rc = main(["peer", "--port", str(port), "--n", "60",
                       "--extra", "60", "--seed", "9", "--json",
                       "--timeout-base", "0.1", "--max-retries", "1"])
        finally:
            stop.set()
            thread.join(5.0)
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["success"] is False
        assert doc["abandoned"] is True
        assert doc["escalated"] is True
        assert doc["timeouts"] >= 1
        # The marks narrate the ladder: escalation(s), then the abandon.
        names = [m["name"] for m in doc["marks"]]
        assert "abandon" in names and "escalate" in names
        # Partial cost: the getdata bytes burned before giving up are
        # still accounted, not zeroed out by the failure.
        assert sum(doc["cost"].values()) > 0
        assert doc["events"], "abandoned fetch still reports its events"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_infinite_timeout_base_is_refused_before_dialing(self, capsys):
        # Port 1 is never dialed: the policy is refused first.
        assert main(["peer", "--port", "1", "--timeout-base", "inf"]) == 1
        captured = capsys.readouterr()
        assert "connected" not in captured.out
        assert captured.err == ("repro peer: timeout_base must be finite "
                                "and > 0, got inf\n")
