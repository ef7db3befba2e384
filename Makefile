# Makefile — build, test, and perf-trajectory targets.
#
# `make bench` runs the tracked hot-path micro-benchmarks and writes
# BENCH_PR$(PR).json with current numbers joined against $(BASELINE)
# (BENCH_SEED.json by default; pass BASELINE=BENCH_PR1.json to measure a
# PR against its predecessor), including per-benchmark speedups and the
# derived cross-benchmark ratios (the -ratio flags below). The run
# fails when any derived ratio drops more than $(MAXDROP)% below the
# baseline's recorded ratio (set MAXDROP=0 to disable the regression
# gate).
#
# `make lint` fails when `gofmt -l` lists any file, then builds the
# repo's custom vet tool (cmd/amglint, analyzers in internal/lint) and
# runs it over every package via `go vet -vettool`. Any diagnostic makes
# the run exit non-zero.
#
# `make check` is the CI gate: custom analyzers, vet everything (once
# more with GOARCH=arm64, a target the amd64 test runs never compile),
# vet and test the nested cmd/amgbench module (its own go.mod, so the
# root ./... patterns skip it), then run the determinism suite under the
# race detector (the worker-pool synchronization and the 1/2/8-worker
# bitwise contract in one pass).
#
# `make examples` runs every program under examples/ with `go run` and
# fails on the first non-zero exit (`go build ./...` only compiles them).
#
# `make fuzz FUZZTIME=30s` runs each of the seven fuzz targets (MIS-2
# validity and its output at 1/2/8 workers with and without the unrolled
# loops, CoarseGraph against its serial reference, the operator formats
# against CSR, SpGEMM product and smooth plans against their serial
# reference, Matrix.GraphWith on unsorted and duplicate rows against its
# serial reference, amgserve's request decoder and reply encoder against
# encoding/json) for FUZZTIME,
# starting from its checked-in corpus under testdata/fuzz. A failing input is
# written there too; commit it with the fix. Minimizing an input is
# capped at 2s (Go's default is 60s per new input), so a short run
# spends its time fuzzing.

PR ?= 1
BASELINE ?= BENCH_SEED.json
MAXDROP ?= 10
# Each benchmark runs BENCHCOUNT times and benchjson keeps the fastest
# repeat — scheduler/thermal noise only adds time, so min-of-N is what
# makes the $(MAXDROP) gate comparable across runs.
BENCHCOUNT ?= 3
# Benchmarks run at the machine's core count by default; override with
# BENCHPROCS=N to measure a different parallelism. benchjson records the
# value and refuses to compare against a baseline measured at a
# different GOMAXPROCS unless forced (pass FORCE=1).
BENCHPROCS ?= $(shell nproc)
FORCE ?=
FUZZTIME ?= 10s
BENCH_PATTERN := 'BenchmarkRepeatedMultiply|BenchmarkRepeatedRAP|BenchmarkCGJacobi$$|BenchmarkCGJacobiWorkspace|BenchmarkCGAMG$$|BenchmarkSpMVHot|BenchmarkSpMVSELL|BenchmarkVCycleApply|BenchmarkVCycleF64Apply|BenchmarkGSSweepApply|BenchmarkMIS2Repeated|BenchmarkAMGBuild$$|BenchmarkAMGRefresh$$|BenchmarkServeThroughput|BenchmarkSequentialSolves|BenchmarkServePrecisionF64|BenchmarkCGNoGuard|BenchmarkCGHealthGuard|BenchmarkCoarseGraph|BenchmarkMIS2Levels|BenchmarkGraphWith|BenchmarkSpGEMMGalerkin|BenchmarkNewSELL|BenchmarkSELLFillValues'

.PHONY: all build test race bench check lint fuzz benchsmoke examples

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	go build -o bin/amglint ./cmd/amglint
	go vet -vettool=$(CURDIR)/bin/amglint ./...

check: lint
	go vet ./...
	GOARCH=arm64 go vet ./...
	go -C cmd/amgbench vet ./...
	go -C cmd/amgbench test ./...
	go test -race -run 'Deterministic|Determinism|TestNoSIMDMatchesSIMD|TestGoldenDigestLaplace3D64|Bitwise|TestWorkspaceReuse|TestZeroRHS|TestMaxIterZero|ServeStress|Cancel|TestRefresh|TestPartition|TestCheck|TestFingerprint|TestHealth|TestEscalation|TestQuarantine|TestSolveEndpoint|FuzzProductPlan|FuzzGraphWith|TestRAPPlanReplayAcrossWorkers' ./...

examples:
	@for d in examples/*/; do echo "go run ./$$d"; go run ./$$d || exit 1; done

fuzz:
	go test -run '^$$' -fuzz '^FuzzMIS2$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/mis
	go test -run '^$$' -fuzz '^FuzzCoarseGraph$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/coarsen
	go test -run '^$$' -fuzz '^FuzzOperatorFormats$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/sparse
	go test -run '^$$' -fuzz '^FuzzProductPlan$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/sparse
	go test -run '^$$' -fuzz '^FuzzGraphWith$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/sparse
	go test -run '^$$' -fuzz '^FuzzSolveRequestDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./cmd/amgserve
	go test -run '^$$' -fuzz '^FuzzReplyEncode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./cmd/amgserve

bench:
	GOMAXPROCS=$(BENCHPROCS) go test -run '^$$' -bench $(BENCH_PATTERN) -benchtime=1s -count=$(BENCHCOUNT) . \
		| go run ./cmd/benchjson -baseline $(BASELINE) -label pr$(PR) \
			-ratio Resetup_vs_FullSetup=AMGBuild/AMGRefresh \
			-ratio SELL_vs_CSR=SpMVHot/SpMVSELL \
			-ratio Serve_vs_SequentialSolves=SequentialSolves/ServeThroughput \
			-ratio HealthGuard_vs_Plain=CGNoGuard/CGHealthGuard \
			-maxdrop $(MAXDROP) \
			$(if $(FORCE),-force,) \
			-out BENCH_PR$(PR).json

# benchsmoke runs every benchmark once (no timing fidelity) so the bench
# code itself cannot rot unnoticed; CI runs this on every push.
benchsmoke:
	go test -run '^$$' -bench . -benchtime=1x ./...
