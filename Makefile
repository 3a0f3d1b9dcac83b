# Local targets mirror the CI job (.github/workflows/ci.yml) exactly, so
# a green `make check` predicts a green required-checks run.

.PHONY: build test race lint vet fmt fuzz check bench

build:
	go build ./...

test:
	go test ./...

# The CI test tier: race detector + -short gating.
race:
	go test -race -short ./...

vet:
	go vet ./...

# Formatting gate, a required CI step: passes only when gofmt would
# change no file (`gofmt -l .` lists the offenders).
fmt:
	test -z "$$(gofmt -l .)"

# dmtvet: the repo's custom determinism/safety analyzers (internal/lint),
# a required CI step. Run it the same way CI does. Repeat runs are cheap:
# dmtvet caches its diagnostics keyed on the analyzer set, source file
# hashes and dependency export data, so an unchanged tree replays
# instantly (-nocache opts out).
lint:
	go run ./cmd/dmtvet ./...

# Fuzz the decoders and the differential textproc pin: first replay the
# committed seed corpora of the wire and realnet decoders, the textproc
# reference pin and the /v1/publish body parser (deterministic, what CI
# runs on every push), then a short live fuzzing smoke against
# ReadModelSet. Grow a corpus with
# -fuzztime as needed; new crashers land under the package's
# testdata/fuzz/ — commit them.
fuzz:
	go test ./internal/wire ./internal/realnet ./internal/textproc ./cmd/p2pserve -run 'Fuzz' -count=1
	go test ./internal/wire -run '^$$' -fuzz 'FuzzReadModelSet' -fuzztime 10s

check: fmt build vet lint race

# The repository's benchmark (BENCHMARK.json, perfbench/README.md): one
# run of each workload; the last stdout line of each is its result.
bench:
	bash perfbench/run.sh --workload interactive-cempar --seed 1 --seconds 25 --trace 0
	bash perfbench/run.sh --workload bulk-local --seed 1 --seconds 25 --trace 0
	bash perfbench/run.sh --workload publish-under-load --seed 1 --seconds 25 --trace 0
