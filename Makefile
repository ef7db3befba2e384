# Makefile — build, test, and perf-trajectory targets.
#
# `make bench` runs the tracked hot-path micro-benchmarks and writes
# BENCH_PR$(PR).json with current numbers joined against $(BASELINE)
# (BENCH_SEED.json by default; pass BASELINE=BENCH_PR1.json to measure a
# PR against its predecessor), including per-benchmark speedups and the
# derived SpMM-vs-separate-SpMV ratio. The run fails when any derived
# ratio drops more than $(MAXDROP)% below the baseline's recorded ratio
# (set MAXDROP=0 to disable the regression gate).
#
# `make lint` builds the repo's custom vet tool (cmd/amglint, analyzers
# in internal/lint) and runs it over every package via `go vet
# -vettool`. Any diagnostic makes the run exit non-zero.
#
# `make check` is the CI gate: custom analyzers, vet everything, vet
# and test the nested cmd/amgbench module (its own go.mod, so the root
# ./... patterns skip it), then run the determinism suite under the race
# detector (the worker-pool synchronization and the 1/2/8-worker bitwise
# contract in one pass).
#
# `make fuzz FUZZTIME=30s` runs each fuzz target (CoarseGraph against its
# serial reference, the operator formats against CSR, SpGEMM plans
# against Multiply) for FUZZTIME,
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
BENCH_PATTERN := 'BenchmarkRepeatedMultiply|BenchmarkRepeatedRAP|BenchmarkCGJacobi$$|BenchmarkCGJacobiWorkspace|BenchmarkCGBatch8Jacobi|BenchmarkSpMVHot|BenchmarkSpMVSELL|BenchmarkSpMM8|BenchmarkSpMV8Separate|BenchmarkVCycleApply|BenchmarkVCycleF64Apply|BenchmarkVCycleF32Apply|BenchmarkGSSweepApply|BenchmarkMIS2Repeated|BenchmarkAMGBuild$$|BenchmarkAMGRefresh$$|BenchmarkServeThroughput|BenchmarkSequentialSolves|BenchmarkShardedServe|BenchmarkSingleHierarchyServe|BenchmarkServePrecisionF64|BenchmarkServePrecisionF32|BenchmarkCGNoGuard|BenchmarkCGHealthGuard'

.PHONY: all build test race bench check lint fuzz benchsmoke

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

lint:
	go build -o bin/amglint ./cmd/amglint
	go vet -vettool=$(CURDIR)/bin/amglint ./...

check: lint
	go vet ./...
	go -C cmd/amgbench vet ./...
	go -C cmd/amgbench test ./...
	go test -race -run 'Deterministic|Bitwise|TestWorkspaceReuse|TestZeroRHS|TestMaxIterZero|ServeStress|Cancel|TestSharded|TestRefresh|TestPartition|TestCheck|TestFingerprint|TestF32|TestParsePrecision|TestHealth|TestEscalation|TestQuarantine|TestSolveEndpoint' ./...

fuzz:
	go test -run '^$$' -fuzz '^FuzzCoarseGraph$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/coarsen
	go test -run '^$$' -fuzz '^FuzzOperatorFormats$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/sparse
	go test -run '^$$' -fuzz '^FuzzProductPlan$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/sparse

bench:
	GOMAXPROCS=$(BENCHPROCS) go test -run '^$$' -bench $(BENCH_PATTERN) -benchtime=1s -count=$(BENCHCOUNT) . \
		| go run ./cmd/benchjson -baseline $(BASELINE) -label pr$(PR) \
			-ratio SpMM8_vs_8xSpMV=SpMV8Separate/SpMM8 \
			-ratio Resetup_vs_FullSetup=AMGBuild/AMGRefresh \
			-ratio SELL_vs_CSR=SpMVHot/SpMVSELL \
			-ratio Serve_vs_SequentialSolves=SequentialSolves/ServeThroughput \
			-ratio Sharded_vs_Single=SingleHierarchyServe/ShardedServe \
			-ratio VCycleF32_vs_F64=VCycleF64Apply/VCycleF32Apply \
			-ratio ServeF32_vs_F64=ServePrecisionF64/ServePrecisionF32 \
			-ratio HealthGuard_vs_Plain=CGNoGuard/CGHealthGuard \
			-maxdrop $(MAXDROP) \
			$(if $(FORCE),-force,) \
			-out BENCH_PR$(PR).json

# benchsmoke runs every benchmark once (no timing fidelity) so the bench
# code itself cannot rot unnoticed; CI runs this on every push.
benchsmoke:
	go test -run '^$$' -bench . -benchtime=1x ./...
