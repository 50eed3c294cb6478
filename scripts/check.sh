#!/usr/bin/env bash
# Repo-wide verification: static analysis (go vet, then go vet with the
# hyperqlint suite as its vet tool), a full build, and the test suite under
# the race detector. CI and pre-commit entry point.
#
# CHECK_SHORT=1 runs only the static stage (both vet passes, the suppression
# budget and the build), skipping the race suite, the pool stress rerun, and
# the end-to-end smoke — quick enough for a pre-commit hook.
set -euo pipefail
cd "$(dirname "$0")/.."

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

go vet ./...

# hyperqlint: the project-specific analyzers (span lifecycle, lock-vs-I/O,
# frontend code registry, context propagation, wire error handling, plus the
# data-flow suite: resource leaks, SQL taint, sentinel comparisons, atomics
# discipline — see DESIGN.md §10 and §15), run by go vet over every package
# and its tests. Any diagnostic fails the build. go vet keeps the results in
# the Go build cache, so an unchanged package is not analyzed again.
go build -o "$tmpdir/hyperqlint" ./cmd/hyperqlint
go vet -vettool="$tmpdir/hyperqlint" ./...

# Suppression budget: every //hyperqlint:ignore is an audited deviation, and
# their number may only shrink unless scripts/lint_budget.txt is raised in
# the same change. Counts exclude internal/lint/ (the suite's own engine
# tests and fixtures suppress synthetic analyzers on purpose).
suppress_counts="$(git ls-files '*.go' ':!internal/lint/**' \
    | xargs grep -ho '//hyperqlint:ignore [a-z,]*' 2>/dev/null \
    | awk '{n=split($2,a,","); for(i=1;i<=n;i++) if (a[i] != "") c[a[i]]++} END{for(k in c) print k, c[k]}' \
    || true)"
budget_fail=0
while read -r analyzer count; do
    [[ -z "$analyzer" ]] && continue
    budget="$(awk -v a="$analyzer" '$1 == a {print $2}' scripts/lint_budget.txt)"
    if [[ -z "$budget" ]]; then
        echo "check.sh: //hyperqlint:ignore ${analyzer} has no budget line in scripts/lint_budget.txt (found ${count})" >&2
        budget_fail=1
    elif (( count > budget )); then
        echo "check.sh: suppression budget exceeded for ${analyzer}: ${count} > ${budget} (fix the finding or raise scripts/lint_budget.txt deliberately)" >&2
        budget_fail=1
    elif (( count < budget )); then
        echo "check.sh: suppression budget for ${analyzer} has headroom (${count} < ${budget}); ratchet scripts/lint_budget.txt down"
    fi
done <<<"$suppress_counts"
while read -r analyzer budget; do
    [[ -z "$analyzer" || "$analyzer" == \#* ]] && continue
    if ! grep -q "^${analyzer} " <<<"$suppress_counts"; then
        if (( budget > 0 )); then
            echo "check.sh: suppression budget for ${analyzer} has headroom (0 < ${budget}); ratchet scripts/lint_budget.txt down"
        fi
    fi
done < scripts/lint_budget.txt
if (( budget_fail )); then
    exit 1
fi

go build ./...

if [[ "${CHECK_SHORT:-0}" == "1" ]]; then
    echo "check.sh: CHECK_SHORT=1 — static stage clean, skipping tests and smoke"
    exit 0
fi

# The plain run covers every package, internal/odbc/faultdriver's own tests
# included: they pin the one pre-result fault step both request methods share.
go test -race -timeout 120s ./...

# Allocation gates, rerun without the race detector (its runtime changes
# allocation counts). Translate path (DESIGN.md §11): one uncached request
# through the full pipeline must fit the budgets in bench_test.go with the
# statistics registry on ("traced") and off ("nostats") — the same budget for
# both is the proof that steady-state recording allocates nothing.
go test -count=1 -v -run 'TestTracedTranslateAllocBudget' .

# Result path (DESIGN.md §12): tdf decode, cwp stream drain, result
# conversion and tdp row encoding must each cost a fixed number of
# allocations per batch, whatever the batch's row count — and, for a consumer
# that releases what it decodes, no datum slab at all. The ownership tests
# rerun here too: under the race detector sync.Pool drops Puts at random, so
# the gates skip themselves there and the recycled-memory tests retry.
go test -count=1 -run 'TestDecodeAllocsPerBatch|TestStreamDrainAllocsPerBatch|TestConvertAllocsPerBatch|TestRowAllocsPerBatch|TestDecodeIntoRecycledSlabMatchesReference|TestReleaseIsIdempotentAndSharedIsNoOp|TestDecodedSizeMatchesWalk|TestConvertOwnedInPlaceMatchesReference' \
    ./internal/tdf/ ./internal/wire/cwp/ ./internal/hyperq/ ./internal/wire/tdp/

# Small-request path (DESIGN.md §7, §9): a request that succeeds costs the
# resilient layer the same allocations whatever its SQL text (it is classified
# read-only only after a connection failure), and an uncontended pool lease
# arms no acquire timer. Both gates skip under the race detector.
go test -count=1 -run 'TestResilientSuccessAllocsIndependentOfSQL|TestUncontendedLeaseAllocatesNothing' \
    ./internal/odbc/ ./internal/odbc/pool/

# Decoder fuzz leg: the slab TDF decoder against the per-cell reference
# decoder kept in internal/tdf/reference_test.go — equal batches or both
# fail, never a panic, forged headers refused.
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/tdf/

# Connection-pool stress: rerun the 100-goroutine multiplex/pin/unpin storm
# under the race detector with fresh state (no cached result).
go test -race -count=1 -timeout 120s -run 'TestPoolStressRace' ./internal/odbc/pool/

# Streaming acceptance: rerun the mid-stream fault suite and the streaming
# e2e acceptance tests (backpressure bound, slow-client eviction, mid-stream
# backend death, mid-stream deadline, disconnect teardown, streamed-vs-buffered
# transcripts, a replicated backend streamed in both modes) under the race
# detector with fresh state.
go test -race -count=1 -timeout 300s -run 'TestResilientStream|TestStreamingBackpressureBoundsResultMemory|TestStreamingSlowClientEvicted|TestStreamingMidStreamBackendDeathFailsCleanly|TestStreamingDeadlineMidStreamFailsCleanly|TestStreamingClientDisconnectReleasesEverything|TestStreamingMatchesBufferedWireTranscripts|TestStreamingResultMemoryCapSheds|TestStreamingBackendProcessDeathSurfacesFailure|TestStreamingReplicatedMatchesBuffered' ./internal/odbc/ ./internal/hyperq/

# Batch ownership under concurrency (DESIGN.md §12): four sessions stream
# multi-batch results that are cast in place and released while a fifth
# collects, every response byte-compared with the DisableStreaming reference;
# and the fetch stage's hand-over from the session goroutine to the fetch
# goroutine at a stream's second batch, with cancellation at every event —
# ten times, because a batch released too early or handed out twice only shows
# when the scheduler lines the sessions up.
go test -race -count=10 -timeout 300s -run 'TestStreamingConcurrentSessionsMatchBuffered|TestResultFeed' ./internal/hyperq/

# Shadow-replay soak: capture a few hundred statements from both customer
# workloads through a live wire gateway, replay them at 10x against two
# backend profiles served over real sockets — once against identical
# profiles (the equivalence report must be clean) and once against a
# perturbed candidate (the report must pinpoint the drifted statement and
# cell) — and require zero leaked goroutines, all under the race detector
# with fresh state.
HYPERQ_REPLAY_SOAK=150 go test -race -count=1 -timeout 300s -run 'TestShadowReplayEndToEnd' ./internal/replay/

# End-to-end smoke: boot cloudsrv + hyperq (with the introspection endpoint,
# a replay-capture query log and an SLO), run three requests through bteq, and
# assert /metrics shows pipeline and SLO activity and the log one sequenced
# line per request.
# A second phase restarts the gateway with -pool-size 2 and oversubscribes it
# with 8 concurrent bteq clients exercising volatile-table pinning.
go build -o "$tmpdir" ./cmd/...
go run scripts/smoke.go -bin "$tmpdir"
