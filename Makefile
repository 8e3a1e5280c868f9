# Standard verify entrypoint: `make check` is what CI (and humans) run.
GO ?= go
# Each PR writes its own trajectory file so earlier ones stay comparable.
BENCH ?= BENCH_PR16.json

.PHONY: check fmt vet build test harness race fuzz-seeds fuzz bench cover loc loc-delta placerd trace-demo fleet-demo chaos-demo placertop-demo golden

check: fmt vet build test harness race fuzz-seeds

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench/ is its own module (replace repro => ../), so the root
# `go build ./...` never compiles it: vet and test it here so a change to the
# engine's exported API cannot break the benchmark unnoticed.
harness:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The job manager (now including the durable store and result cache), the
# checkpoint codec, the durable-file layer, telemetry, engine cancellation,
# the numerical-health guard, and the fault injection harness must be clean
# under the race detector; the placer suite includes the observed
# cancel-vs-checkpoint race test, the service suite includes the
# kill-and-recover, panic-isolation, and cache-hit tests, the fleet suite
# includes the journal crash-recovery and cancel-vs-dispatch/steal race
# tests, the durable suite races writers on one path, the ecocache/netlist suites
# cover the concurrent cache and content hashing the ECO fast path keys on,
# the placertop suite tails live trajectories through a coordinator, and the
# experiments suite runs the design pool that places designs concurrently.
race:
	$(GO) test -race ./internal/service/... ./internal/placer/... \
		./internal/checkpoint/... ./internal/durable/... ./internal/density/... \
		./internal/wirelength/... \
		./internal/obs/... ./internal/guard/... ./internal/faultinject/... \
		./internal/fleet/... ./internal/retry/... ./internal/chaos/... \
		./internal/ecocache/... ./internal/netlist/... ./internal/placertop/... \
		./internal/experiments/...

# fuzz-seeds replays the fuzz seed corpora as regular tests (regression
# mode, no exploration) so `make check` keeps the known-hostile Bookshelf
# inputs, the content-hash invariance properties and the torn and corrupt
# record streams covered without the open-ended fuzzing time.
fuzz-seeds:
	$(GO) test -run=FuzzParse ./internal/bookshelf/
	$(GO) test -run=FuzzContentHashInvariance ./internal/netlist/
	$(GO) test -run=FuzzReadStream ./internal/durable/

# fuzz explores: feed the Bookshelf parsers random inputs for a bounded time.
# Any crasher is written to internal/bookshelf/testdata/fuzz/ — commit it as
# a permanent regression seed after fixing.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/bookshelf/

# bench refreshes the machine-readable perf trajectory: every benchmark runs
# once and $(BENCH) records ns/op + allocs/op per benchmark. benchjson is
# prebuilt and packages run serially (-p 1) so neither the converter's
# compile nor another package's build steals cycles from a measured
# iteration — at -benchtime=1x on a small machine that contention is visible
# in the numbers.
bench:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -p 1 -bench=. -benchtime=1x -run='^$$' ./... | ./bin/benchjson > $(BENCH)
	@echo "wrote $(BENCH)"

# cover writes an aggregate coverage profile and prints the per-package
# summary; open cover.html for the annotated source.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
	$(GO) tool cover -html=cover.out -o cover.html
	@echo "wrote cover.out and cover.html"

# loc prints the non-test Go line count of the tracked sources, perfbench/
# excluded: the size figure each change reports next to its benchmark.
loc:
	@git ls-files -- '*.go' ':!:perfbench/**' ':!:*_test.go' | xargs cat | wc -l

# loc-delta prints the non-test Go lines (perfbench/ excluded) added, removed
# and net between BASE and the working tree, e.g. `make loc-delta
# BASE=HEAD^1`. Like loc, it counts a new file once git tracks it. An unknown
# BASE fails with git's error instead of printing zeros.
BASE ?= HEAD^1
loc-delta:
	@stat=$$(git diff --numstat $(BASE) -- '*.go' ':!:perfbench/**' ':!:*_test.go') && \
		echo "$$stat" | awk '{ a += $$1; r += $$2 } END { printf "+%d -%d net %+d non-test Go lines since $(BASE)\n", a, r, a - r }'

placerd:
	$(GO) build -o bin/placerd ./cmd/placerd

# trace-demo places a small synthetic design with span tracing on and leaves
# a Chrome trace behind: open trace-demo.trace.json in chrome://tracing or
# https://ui.perfetto.dev to see the per-iteration phase breakdown.
trace-demo:
	$(GO) run ./cmd/placer -cells 500 -iters 150 -model ME -skip-dp \
		-trace trace-demo.trace.json -log-level info
	@echo "open trace-demo.trace.json in chrome://tracing or ui.perfetto.dev"

# fleet-demo boots a two-worker fleet (coordinator + two placerd nodes on a
# shared checkpoint root), drives a short placerload smoke through it, and
# merges the latency/affinity/steal report into $(BENCH) under "fleet_load".
# placerload merges into the file while `make bench` rewrites it, so run
# bench first when you want both in one file. Everything runs on localhost
# and tears down when the load finishes.
fleet-demo:
	$(GO) build -o bin/placercoord ./cmd/placercoord
	$(GO) build -o bin/placerd ./cmd/placerd
	$(GO) build -o bin/placerload ./cmd/placerload
	@mkdir -p /tmp/fleet-demo/a /tmp/fleet-demo/b
	@./bin/placercoord -addr 127.0.0.1:7878 & echo $$! > /tmp/fleet-demo/coord.pid; \
	sleep 0.3; \
	./bin/placerd -addr 127.0.0.1:8081 -coordinator http://127.0.0.1:7878 \
		-node-id demo-a -advertise http://127.0.0.1:8081 \
		-data-dir /tmp/fleet-demo/a -resume-root /tmp/fleet-demo & echo $$! > /tmp/fleet-demo/a.pid; \
	./bin/placerd -addr 127.0.0.1:8082 -coordinator http://127.0.0.1:7878 \
		-node-id demo-b -advertise http://127.0.0.1:8082 \
		-data-dir /tmp/fleet-demo/b -resume-root /tmp/fleet-demo & echo $$! > /tmp/fleet-demo/b.pid; \
	sleep 1.5; \
	./bin/placerload -coordinator http://127.0.0.1:7878 \
		-jobs 24 -concurrency 6 -designs 4 -cells 300 -iters 40 \
		-resubmit-ratio 0.5 -out $(BENCH); \
	rc=$$?; \
	kill $$(cat /tmp/fleet-demo/a.pid /tmp/fleet-demo/b.pid /tmp/fleet-demo/coord.pid) 2>/dev/null; \
	rm -rf /tmp/fleet-demo; \
	exit $$rc

# chaos-demo is the crash-recovery smoke: a journaled coordinator fronting
# two durable workers takes a placerload batch with fault injection on
# (-chaos) while the coordinator is kill -9'd mid-load and restarted on the
# same journal. The workers re-register through agent backoff, the journal
# replay re-adopts their jobs, and placerload -require-all-done exits
# non-zero if even one accepted job failed to reach "done" — the zero-loss
# assertion. The report lands in $(BENCH) under "fleet_load.chaos".
chaos-demo:
	$(GO) build -o bin/placercoord ./cmd/placercoord
	$(GO) build -o bin/placerd ./cmd/placerd
	$(GO) build -o bin/placerload ./cmd/placerload
	@rm -rf /tmp/chaos-demo && mkdir -p /tmp/chaos-demo/a /tmp/chaos-demo/b
	@./bin/placercoord -addr 127.0.0.1:7879 -journal /tmp/chaos-demo/journal \
		& echo $$! > /tmp/chaos-demo/coord.pid; \
	sleep 0.3; \
	./bin/placerd -addr 127.0.0.1:8083 -coordinator http://127.0.0.1:7879 \
		-node-id chaos-a -advertise http://127.0.0.1:8083 \
		-data-dir /tmp/chaos-demo/a -resume-root /tmp/chaos-demo & echo $$! > /tmp/chaos-demo/a.pid; \
	./bin/placerd -addr 127.0.0.1:8084 -coordinator http://127.0.0.1:7879 \
		-node-id chaos-b -advertise http://127.0.0.1:8084 \
		-data-dir /tmp/chaos-demo/b -resume-root /tmp/chaos-demo & echo $$! > /tmp/chaos-demo/b.pid; \
	sleep 1.5; \
	./bin/placerload -coordinator http://127.0.0.1:7879 \
		-jobs 12 -concurrency 4 -designs 12 -cells 500 -iters 800 \
		-chaos -chaos-seed 7 -require-all-done -timeout 5m -out $(BENCH) \
		& echo $$! > /tmp/chaos-demo/load.pid; \
	sleep 2; \
	echo "chaos-demo: kill -9 coordinator mid-load"; \
	kill -9 $$(cat /tmp/chaos-demo/coord.pid) 2>/dev/null; \
	sleep 2; \
	echo "chaos-demo: restarting coordinator on the same journal"; \
	./bin/placercoord -addr 127.0.0.1:7879 -journal /tmp/chaos-demo/journal \
		& echo $$! > /tmp/chaos-demo/coord.pid; \
	wait $$(cat /tmp/chaos-demo/load.pid); \
	rc=$$?; \
	kill $$(cat /tmp/chaos-demo/a.pid /tmp/chaos-demo/b.pid /tmp/chaos-demo/coord.pid) 2>/dev/null; \
	rm -rf /tmp/chaos-demo; \
	if [ $$rc -eq 0 ]; then echo "chaos-demo: zero job loss across coordinator kill"; \
	else echo "chaos-demo: FAILED (rc=$$rc)"; fi; \
	exit $$rc

# placertop-demo boots the same two-worker fleet, submits a couple of jobs,
# and prints one headless placertop frame (the -once snapshot mode) before
# tearing down — the quickest way to see the dashboard without a live
# deployment. For the interactive view, run the fleet yourself and
# `bin/placertop -addr http://127.0.0.1:7878`.
placertop-demo:
	$(GO) build -o bin/placercoord ./cmd/placercoord
	$(GO) build -o bin/placerd ./cmd/placerd
	$(GO) build -o bin/placertop ./cmd/placertop
	@mkdir -p /tmp/placertop-demo/a /tmp/placertop-demo/b
	@./bin/placercoord -addr 127.0.0.1:7878 & echo $$! > /tmp/placertop-demo/coord.pid; \
	sleep 0.3; \
	./bin/placerd -addr 127.0.0.1:8081 -coordinator http://127.0.0.1:7878 \
		-node-id demo-a -advertise http://127.0.0.1:8081 \
		-data-dir /tmp/placertop-demo/a & echo $$! > /tmp/placertop-demo/a.pid; \
	./bin/placerd -addr 127.0.0.1:8082 -coordinator http://127.0.0.1:7878 \
		-node-id demo-b -advertise http://127.0.0.1:8082 \
		-data-dir /tmp/placertop-demo/b & echo $$! > /tmp/placertop-demo/b.pid; \
	sleep 1.5; \
	for seed in 1 2 3; do \
		curl -s -X POST http://127.0.0.1:7878/v1/jobs -H 'X-Tenant: demo' -d '{"design":{"synth":{"cells":400,"seed":'$$seed'}},"model":"ME","placer":{"max_iters":200,"grid_x":32,"grid_y":32},"flow":{"gp_only":true}}' > /dev/null; \
	done; \
	sleep 2; \
	./bin/placertop -once -addr http://127.0.0.1:7878 -width 110 -height 30; \
	rc=$$?; \
	kill $$(cat /tmp/placertop-demo/a.pid /tmp/placertop-demo/b.pid /tmp/placertop-demo/coord.pid) 2>/dev/null; \
	rm -rf /tmp/placertop-demo; \
	exit $$rc

# golden re-renders the placertop golden frames after a deliberate layout
# change. Inspect the diff before committing: the goldens are the
# dashboard's bit-exact rendering contract.
golden:
	$(GO) test ./internal/placertop/ -run TestGoldenFrames -update
