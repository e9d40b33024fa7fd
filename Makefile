.PHONY: all build test bench bench-smoke golden soak soak-smoke check lint fmt clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Golden-output gate: every experiment E1..E23 plus the small-world
# flood (e24smoke) runs and its stdout is diffed against
# bench/golden/<experiment>.out. Simulated output is deterministic, so any
# diff is a behaviour change: either a bug, or an intended change whose
# golden is regenerated with `make golden` and reviewed in the diff.
# E20 onward also leave BENCH_<experiment>.json behind for machine
# comparison. The micro suite (host timings, BENCH_micro.json) runs too
# but has no golden.
GOLDEN := e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e16 e17 e18 \
	e19 e20 e21 e22 e23 e24smoke
BENCH_EXE := ./_build/default/bench/main.exe

# Host time is the only nondeterministic output: E7's `host ms` column
# (a table row of four numbers and a PASS/FAIL cell) and E23's wall-clock
# total. This one sed masks exactly those cells, in the goldens and in
# every fresh run.
MASK_HOST := sed -E \
	-e '/^\| [0-9]+ +\| [0-9]+ +\| [0-9.]+ +\| [0-9.]+ +\| (PASS|FAIL) +\|$$/s/[0-9.]+( +\| (PASS|FAIL) +\|)$$/-\1/' \
	-e 's/[0-9]+\.[0-9]+s wall$$/N.Ns wall/'

bench-smoke:
	@dune build bench/main.exe
	@fail=0; for e in $(GOLDEN); do \
		$(BENCH_EXE) $$e | $(MASK_HOST) | diff -u bench/golden/$$e.out - || fail=1; \
	done; \
	if [ $$fail -ne 0 ]; then echo "bench-smoke: FAIL (output differs from bench/golden)"; exit 1; fi
	@$(BENCH_EXE) micro > /dev/null
	@echo "bench-smoke: OK ($(words $(GOLDEN)) experiments match bench/golden; micro ran clean)"

# Rewrite the goldens from the current build. Review the diff before
# committing it: a golden change is a behaviour change.
golden:
	@dune build bench/main.exe
	@for e in $(GOLDEN); do $(BENCH_EXE) $$e | $(MASK_HOST) > bench/golden/$$e.out; done
	@echo "golden: rewrote $(words $(GOLDEN)) files under bench/golden"

# Deterministic fault soak (DESIGN.md section 12, EXPERIMENTS.md E23).
# Every seed runs under every configuration that ships (default, classic
# window-1/no-lease, striped width 2; Soak.Driver.configs). soak-smoke is
# the CI gate: a handful of seeds, bounded ops, seconds not minutes; the
# subcommand exits non-zero on any invariant violation and prints a
# shrunken one-line repro for every failing seed. The full sweep is
# `make soak` (50 seeds x 2000 ops per configuration).
soak-smoke:
	@dune exec bench/main.exe -- soak --seeds 8 --ops 500
	@echo "soak-smoke: OK (8 seeds x 3 configurations, zero invariant violations)"

soak:
	dune exec bench/main.exe -- soak --seeds 50 --ops 2000

# Warning-as-error gate: a cold build must produce no compiler output at
# all. dune only prints warnings when it (re)compiles, so the gate cleans
# first; any surviving warning fails the target.
lint:
	@dune clean
	@out=$$(dune build 2>&1); \
	if [ -n "$$out" ]; then \
		printf '%s\n' "$$out"; \
		echo "lint: FAIL (build is not warning-clean)"; \
		exit 1; \
	else \
		echo "lint: OK (cold build is warning-clean)"; \
	fi

# Everything a change must pass before review: warning-clean build, tests,
# and (when ocamlformat is installed) formatting.
check: lint
	dune runtest
	$(MAKE) bench-smoke
	$(MAKE) soak-smoke
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping dune build @fmt"; \
	fi

fmt:
	dune build @fmt --auto-promote

clean:
	dune clean
