# Entry points for the Graphene reproduction. `make ci` is the gate a
# commit must pass: the tier-1 test suite, the PDS perf guard, the
# relay-throughput perf guard (baseline compare + profile budget), the
# network-scale perf guard (100/1000-node propagation vs BENCH_NET),
# the Protocol 3 byte-accounting guard (head-to-head vs BENCH_P3),
# the figure ledger (every figure driver's rows vs BENCH_FIGS),
# the end-to-end network smoke test plus its run-report invariants,
# the two-process socket relay smoke (byte parity with loopback), the
# four-process mesh smoke (3 servers, failover, N:1 run-report
# invariants), every other CLI subcommand once, the fixed-seed fuzz
# smoke, the docs check (executable snippets, every example, and the
# call census's static gate), and the end-to-end benchmark's smoke
# (spec limits plus a traced --quick pass over every workload).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test perf perf-check perf-update perf-relay perf-relay-update \
	perf-net perf-net-update perf-p3 perf-p3-update perf-figs \
	perf-figs-update profile-relay bench bench-smoke smoke smoke-socket \
	smoke-mesh smoke-cli report-check fuzz-smoke fuzz docs-check census ci

test:
	$(PYTHON) -m pytest -x -q

smoke:
	$(PYTHON) scripts/smoke_net.py

smoke-socket:
	$(PYTHON) scripts/smoke_socket.py

smoke-mesh:
	$(PYTHON) scripts/smoke_mesh.py
	$(PYTHON) scripts/check_run_report.py --profile mesh \
		--report results/mesh_report.json

smoke-cli:
	$(PYTHON) scripts/smoke_cli.py

report-check: smoke
	$(PYTHON) scripts/check_run_report.py

docs-check:
	$(PYTHON) scripts/check_docs_snippets.py
	$(PYTHON) scripts/census.py --check

# Regenerates docs/CENSUS.md by running every `make ci` stage but the
# tests under a call hook (about a minute).
census:
	$(PYTHON) scripts/census.py

fuzz-smoke:
	$(PYTHON) scripts/fuzz_smoke.py

fuzz:
	$(PYTHON) -m repro fuzz --seed 0 --cases 2000

perf:
	$(PYTHON) -m pytest benchmarks/bench_perf_pds.py --benchmark-only -q

perf-check:
	$(PYTHON) scripts/check_perf.py

perf-update:
	$(PYTHON) scripts/check_perf.py --update

perf-relay:
	$(PYTHON) scripts/check_perf.py --suite relay
	$(PYTHON) benchmarks/profile_relay.py --check

perf-relay-update:
	$(PYTHON) scripts/check_perf.py --suite relay --update

perf-net:
	$(PYTHON) scripts/check_perf.py --suite net

perf-net-update:
	$(PYTHON) scripts/check_perf.py --suite net --update

perf-p3:
	$(PYTHON) scripts/check_perf.py --suite p3

perf-p3-update:
	$(PYTHON) scripts/check_perf.py --suite p3 --update

perf-figs:
	$(PYTHON) scripts/check_perf.py --suite figs

perf-figs-update:
	$(PYTHON) scripts/check_perf.py --suite figs --update

profile-relay:
	$(PYTHON) benchmarks/profile_relay.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# PR 14 (the keyed-mixing hash family) deselects exactly one node: that
# test relies on scenario seed (2 << 20) + 710 tripping the *SHA-256*
# replay family, and nothing under benchmarks/e2e/ may change in a PR
# that claims a gain.  The property itself is forced, family-free, in
# tests/test_e2e_replay.py; the next benchmark PR re-pins or replaces
# the e2e test and drops this deselect (ROADMAP).
bench-smoke:
	$(PYTHON) -m pytest benchmarks/e2e/test_e2e_smoke.py -q \
		--deselect benchmarks/e2e/test_e2e_smoke.py::test_replay_survives_a_key_peeled_twice

ci: test perf-check perf-relay perf-net perf-p3 perf-figs report-check \
	smoke-socket smoke-mesh smoke-cli fuzz-smoke docs-check bench-smoke
