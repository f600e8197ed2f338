#!/usr/bin/env sh
# Workspace lint gate: formatting + clippy, both deny-by-default.
# Run from the repo root; part of the tier-1 flow alongside
# `cargo build --release && cargo test -q`.
set -eu

cd "$(dirname "$0")/.."

# The frontier driver (crates/core/src/engine/edge_map.rs) is the one
# place a push/pull direction is chosen; a heuristic decision built
# anywhere else in non-test core code is a hand-rolled loop coming back.
echo "== direction decisions stay in the engine =="
offenders=$(find crates/core/src -name '*.rs' \
    ! -path 'crates/core/src/engine/*' ! -name metrics.rs \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// && /DirectionDecision::heuristic\(/ {
            print FILENAME ":" FNR ": " $0
        }' {} +)
if [ -n "$offenders" ]; then
    echo "DirectionDecision::heuristic( outside engine/ and metrics.rs:"
    echo "$offenders"
    exit 1
fi

# `edge_map` is the one round loop, `scan_push` the one push driver of
# the streamed layouts and `scan_pull` their one pull driver, and the
# round's frontier the one definition of an active source: the second
# loop (`scan_map`), the per-cut push and pull drivers, PageRank's
# driver switch and a rule-side activity test are what this stage keeps
# from coming back.
echo "== one round loop, one scan driver, one activity definition =="
offenders=$(find crates/core/src -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// &&
            /scan_map\(|source_active|fn edge_push|fn grid_push_columns|fn grid_push_cells|PushDriver|fn edge_pull|fn grid_pull_|fn cells_pull|PullDriver/ {
            print FILENAME ":" FNR ": " $0
        }' {} +)
if [ -n "$offenders" ]; then
    echo "a second round loop, scan driver or activity test in crates/core/src:"
    echo "$offenders"
    exit 1
fi

# Granularity control is one rule: `edge_map` decides which rounds are
# small, against the one constant `INLINE_GRAIN`, and is the only caller
# of the pool's inline entry point; the engine keeps no pool of its own.
# A second caller, a second grain or a private pool under engine/ is a
# second scheduling rule coming back.
echo "== one inline rule =="
offenders=$(find crates/core/src -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// &&
            ((/run_inline\(/ && FILENAME != "crates/core/src/engine/edge_map.rs") ||
             (FILENAME ~ /^crates\/core\/src\/engine\// && /with_pool\(|ThreadPool::new\(/)) {
            print FILENAME ":" FNR ": " $0
        }' {} +)
grains=$(grep -rE 'const INLINE_GRAIN: usize =' crates src | wc -l)
if [ -n "$offenders" ] || [ "$grains" -ne 1 ]; then
    echo "expected run_inline( only in engine/edge_map.rs, no pool built under engine/,"
    echo "and one 'const INLINE_GRAIN' (found $grains); offending lines:"
    echo "$offenders"
    exit 1
fi

# Rounds belong to the engine: the serve tier states lane rules and
# hands every round to `edge_map`. A parallel region or a racy-slice
# write in non-test code under serve/ is a private round loop coming
# back.
echo "== serve waves stay on the engine's drivers =="
offenders=$(find crates/core/src/serve -name '*.rs' \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// &&
            /parallel_for\(|parallel_collect\(|WorkerLocal|UnsyncSlice/ {
            print FILENAME ":" FNR ": " $0
        }' {} +)
if [ -n "$offenders" ]; then
    echo "hand-rolled round machinery in crates/core/src/serve/ (rounds belong to the engine):"
    echo "$offenders"
    exit 1
fi

# The round loop and the lane rules are written against `EngineLayout`:
# a concrete layout type named in either file is a per-layout path
# coming back.
echo "== the round loop and the lane rules name no layout =="
offenders=$(awk 'FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*\/\// &&
        /Grid<|EdgeList<|AdjacencyList<|CcsrList<|DeltaList</ {
        print FILENAME ":" FNR ": " $0
    }' crates/core/src/serve/wave.rs crates/core/src/engine/edge_map.rs)
if [ -n "$offenders" ]; then
    echo "a concrete layout type in serve/wave.rs or engine/edge_map.rs:"
    echo "$offenders"
    exit 1
fi

# Connectivity is one concurrent union-find (`algo/wcc.rs`:
# `UnionFind::find`, plus the serial `reference` oracle's own): a `find`
# anywhere else in the product crates is a second forest coming back,
# and a `fetch_min` over a label array is label propagation coming
# back.
echo "== one union-find, no label propagation =="
offenders=$(find crates/*/src src -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// &&
            (/fn find\(/ || /label[a-z_]*(\[[^]]*\])?\.fetch_min\(/) {
            print FILENAME ":" FNR ": " $0
        }' {} +)
allowed=$(printf '%s\n' "$offenders" | grep -c '^crates/core/src/algo/wcc.rs:.*fn find(' || true)
others=$(printf '%s\n' "$offenders" | grep -v '^crates/core/src/algo/wcc.rs:.*fn find(' || true)
if [ -n "$others" ] || [ "$allowed" -ne 2 ]; then
    echo "expected exactly two 'fn find(' (UnionFind::find and reference's), both in"
    echo "crates/core/src/algo/wcc.rs, and no fetch_min over labels; found:"
    echo "$offenders"
    exit 1
fi

# The incremental engines solve from scratch with the batch kernels:
# `IncrementalPagerank` runs the pull kernel (`pagerank::pull_impl`) to
# a tolerance and `IncrementalBfs` runs `bfs::run`, for the initial
# answer and for a fallback alike. A private `solve` or `from_scratch`
# in non-test code under algo/ is a serial second solver coming back.
echo "== incremental engines solve with the batch kernels =="
offenders=$(find crates/core/src/algo -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// && /fn (solve|from_scratch)[<(]/ {
            print FILENAME ":" FNR ": " $0
        }' {} +)
if [ -n "$offenders" ]; then
    echo "a private from-scratch solver in crates/core/src/algo:"
    echo "$offenders"
    exit 1
fi

# All-active push sums (PageRank, SpMV) add into per-worker stripes
# with plain writes and reduce them once per round (`algo::Stripes`):
# the CAS rules (`PrPushAtomic`, `SpmvPushOp`), a `.fetch_add(` whose
# receiver is a name declared with an atomic-float type (the receiver
# may end the line before), or a `fetch_add` defined on the atomic
# floats themselves is a shared cache line per edge coming back. Each
# file is read twice: the first pass collects the declared names.
echo "== no CAS accumulation =="
offenders=$(find crates/core/src -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { pass++; in_tests = 0; prev = "" }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*\/\// { next }
        pass == 1 {
            rest = $0
            while (match(rest, /[a-z_][a-z0-9_]*:[^:;,=]*AtomicF(32|64)/)) {
                name = substr(rest, RSTART, RLENGTH)
                sub(/:.*/, "", name)
                floats[name] = 1
                rest = substr(rest, RSTART + RLENGTH)
            }
            next
        }
        /PrPushAtomic|SpmvPushOp/ { print FILENAME ":" FNR ": " $0 }
        /\.fetch_add\(/ {
            receiver = $0
            sub(/\.fetch_add\(.*/, "", receiver)
            if (receiver ~ /^[[:space:]]*$/) receiver = prev
            for (name in floats)
                if (receiver ~ ("(^|[^a-z0-9_])" name "([^a-z0-9_]|$)")) {
                    print FILENAME ":" FNR ": " $0
                    break
                }
        }
        { prev = $0 }' {} {} \;
    awk '!/^[[:space:]]*\/\// && /fn fetch_add\(/ { print FILENAME ":" FNR ": " $0 }' \
        crates/parallel/src/atomicf.rs)
if [ -n "$offenders" ]; then
    echo "CAS accumulation in crates/core/src or a fetch_add on the atomic floats:"
    echo "$offenders"
    exit 1
fi

# Capability is a type: a layout that can pull is a `PullLayout`, a rule
# that can pull a `PullAlgo`, and `edge_map` takes a pulling policy for
# such a pair only. The stand-ins this replaced — the `NoPull` stub, a
# `pull_round` / `pull_op` whose body is a panic, and the transposed
# second grid with its own `grid_pull_rows` driver — are what this stage
# keeps from coming back.
echo "== capability is a type =="
offenders=$(find crates examples tests -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0; in_fn = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*\/\// { next }
        /NoPull|grid_pull_rows|grid_pull_impl|\.transposed\(|tgrid/ {
            print FILENAME ":" FNR ": " $0
        }
        !in_fn && /fn (pull_round|pull_op)[<(]/ {
            in_fn = 1; opened = 0
            match($0, /^ */); close_brace = "^" substr($0, 1, RLENGTH) "}"
        }
        in_fn {
            if ($0 ~ /\{[[:space:]]*$/) opened = 1
            if (!opened && $0 ~ /;[[:space:]]*$/) { in_fn = 0; next }
            if (/panic!\(|unreachable!\(/) print FILENAME ":" FNR ": " $0
            if (opened && $0 ~ close_brace) in_fn = 0
        }' {} +)
if [ -n "$offenders" ]; then
    echo "a missing capability stood in for by a stub, a panic or a second grid:"
    echo "$offenders"
    exit 1
fi

# Instrumentation has one seam: every driver and kernel takes
# `&ExecCtx`, whose recorder is a trait object. A kernel generic over
# its recorder is a second instantiation of every layout x rule coming
# back, one that no benchmark workload times.
echo "== one execution context =="
offenders=$(find crates/core/src crates/cli/src -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && /ExecContext|DynProbe|DynRecorder|R: Recorder/ {
            print FILENAME ":" FNR ": " $0
        }' {} +)
if [ -n "$offenders" ]; then
    echo "a recorder-generic context in crates/core/src or crates/cli/src:"
    echo "$offenders"
    exit 1
fi

# The simulator is offline: the LLC model is fed by `egraph-bench`'s
# replays of the kernels' access order, never from inside the product.
# A probe handle, a simulated-address method, a metadata stride or a
# touch call in the product is a probed branch beside a plain loop
# coming back, and the core does not depend on the cache crate at all.
echo "== the simulator is offline =="
offenders=$(find crates/core/src crates/cli/src src examples -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && /MemProbe|NullProbe|live_probe|edge_sim_addr|META_BYTES|touch_edge|touch_src|touch_dst|\.probe\(/ {
            print FILENAME ":" FNR ": " $0
        }' {} +
    find crates/core/src -name '*.rs' ! -name tests.rs \
        -exec awk 'FNR == 1 { in_tests = 0 }
            /^#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests && /egraph_cachesim/ {
                print FILENAME ":" FNR ": " $0
            }' {} +)
if [ -n "$offenders" ]; then
    echo "the cache model fed from inside the product (crates/core/src, crates/cli/src, src, examples):"
    echo "$offenders"
    exit 1
fi

# The NUMA model is offline: a one-node host has nothing to decide with
# it, so the partitioner and locality model live with the Fig. 9/10
# experiments in `egraph-bench` (`crates/bench/src/numa.rs`), and the
# roadmap names its picks with the variant table's `VariantId`. A
# dependency on the topology crate, the model's module or a second set
# of layout / direction enums in the core is the modeled substrate
# coming back into the product.
echo "== the NUMA model is offline =="
offenders=$(grep -n 'egraph-numa' crates/core/Cargo.toml | sed 's|^|crates/core/Cargo.toml:|'
    find crates/core/src -name '*.rs' ! -name tests.rs \
        -exec awk 'FNR == 1 { in_tests = 0 }
            /^#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests && /egraph_numa|numa_sim|Topology|LayoutChoice|FlowChoice/ {
                print FILENAME ":" FNR ": " $0
            }' {} +)
if [ -n "$offenders" ]; then
    echo "the NUMA model or a second set of roadmap enums in egraph-core:"
    echo "$offenders"
    exit 1
fi

# A trace says each thing once: phase time lives only in its phase
# profiles, a step is recorded as its `IterStat`, and nothing is written
# that no producer fills. A breakdown copy of the phases, a span sink, a
# simulated-cache slot on a phase or a second iteration-record type is
# a second answer to the same question coming back. So is a second
# encoding of the document (the CSV codec and the format switch), a
# knob that decides whether a recorded number gates, and a second
# ledger of the bench binaries' numbers beside their own tables.
# (egraph-bench depends on egraph-cachesim by design: that pattern
# applies to the product crates only.)
echo "== a trace says each thing once =="
offenders=$(find crates/core/src crates/cli/src crates/bench/src -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// &&
            (/record_span|attach_simulated|trace\.breakdown|IterRecord/ ||
             /to_csv|from_csv|TraceFormat|trace-format|gate_serve_latency|serve-latency|\.headline\(|EGRAPH_PR/ ||
             (FILENAME !~ /^crates\/bench\// && /egraph_cachesim/)) {
            print FILENAME ":" FNR ": " $0
        }' {} +)
if [ -n "$offenders" ]; then
    echo "a second record of a trace fact in crates/core/src, crates/cli/src or crates/bench/src:"
    echo "$offenders"
    exit 1
fi

# The binary formats are the memory layout: the codec reads a file into
# the vector it returns and writes the bytes of the slice it is given,
# through the byte views of `pod.rs`. A per-field decode or encode call
# is the per-record loop (and the `bytes` stub) coming back; `unsafe` in
# a second file is a second place that has to be right about layout.
echo "== records move once =="
offenders=$(find crates/storage/src -name '*.rs' \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// &&
            /get_u32_le|get_f32_le|put_u32_le|put_f32_le|use bytes/ {
            print FILENAME ":" FNR ": " $0
        }' {} +)
if [ -n "$offenders" ]; then
    echo "a per-field codec call or the bytes crate in crates/storage/src:"
    echo "$offenders"
    exit 1
fi
unsafe_files=$(find crates/storage/src -name '*.rs' \
    -exec awk '!/^[[:space:]]*\/\// && /(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/ { print FILENAME }' {} + |
    sort -u)
if [ "$unsafe_files" != "crates/storage/src/pod.rs" ]; then
    echo "unsafe in crates/storage/src belongs to pod.rs alone; found it in:"
    echo "${unsafe_files:-(no file)}"
    exit 1
fi

# The compressed layout has one codec: a header byte per chunk, then
# gaps bit-packed at the chunk's one width and read through a safe
# zero-filled window. A byte-varint reader or writer, its 7-bit
# compaction or its windowed decoder in non-test core code is the second
# codec coming back; `unsafe` in the codec file is a padding invariant
# coming back.
echo "== one ccsr codec =="
offenders=$(find crates/core/src -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && tolower($0) ~ /varint|compact7|decode_varint_window/ {
            print FILENAME ":" FNR ": " $0
        }' {} +
    awk '/(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/ { print FILENAME ":" FNR ": " $0 }' \
        crates/core/src/layout/ccsr.rs)
if [ -n "$offenders" ]; then
    echo "a second ccsr codec in crates/core/src, or unsafe in layout/ccsr.rs:"
    echo "$offenders"
    exit 1
fi

# Builders partition the input they are given: the sorting strategies
# read the caller's borrowed edge array and get their offset table from
# the last level's histograms. A defensive copy in front of a sort, an
# offset table re-derived by searching the sorted array, or a recursive
# per-bucket sort beside the level routine of `crates/sort/src/radix.rs`
# is the copy + recursive sort + searched offsets coming back.
echo "== builders partition the input they are given =="
offenders=$(awk 'FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*\/\// && /edges\(\)\.to_vec\(\)|partition_point\(/ {
        print FILENAME ":" FNR ": " $0
    }' crates/core/src/preprocess.rs crates/bench/src/numa.rs
    find crates/sort/src -name '*.rs' \
        -exec awk '!/^[[:space:]]*\/\// &&
            /fn scatter_level_seq|fn sort_task|fn finish_small|fn copy_back_parallel/ {
            print FILENAME ":" FNR ": " $0
        }' {} +)
if [ -n "$offenders" ]; then
    echo "a copy of the input, searched offsets, or the MSD recursion in a builder or the NUMA partitioner:"
    echo "$offenders"
    exit 1
fi

# A build switch is an option a workload must measure, so every cargo
# feature is on this list: the test-only exhaustive tier and the two
# binaries' tracking-allocator switch. A new feature needs a measured
# reason and a line here. Architecture intrinsics and the deleted
# work-stealing scheduler are the two paths that left for want of one.
echo "== every build switch is listed =="
offenders=$(for manifest in crates/*/Cargo.toml; do
        awk -v krate="$(basename "$(dirname "$manifest")")" '
            /^\[/ { in_features = ($0 == "[features]"); next }
            in_features && /^[A-Za-z0-9_-]+[[:space:]]*=/ {
                key = $0
                sub(/[[:space:]]*=.*/, "", key)
                key = krate "/" key
                if (key != "testkit/exhaustive" && key != "cli/alloc-track" &&
                    key != "bench/alloc-track")
                    print FILENAME ":" FNR ": " $0
            }' "$manifest"
    done
    find crates/*/src -name '*.rs' \
        -exec awk '/std::arch|_mm_prefetch|is_x86_feature_detected|stealing_for/ {
            print FILENAME ":" FNR ": " $0
        }' {} +)
if [ -n "$offenders" ]; then
    echo "an unlisted cargo feature, an architecture intrinsic or stealing_for:"
    echo "$offenders"
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# The parallel and sort crates carry the unsafe worker-local / scatter
# kernels plus the scoped-pool pointers and lifetime-erased broadcast
# jobs: always try to run their unit tests under Miri. If the component
# is missing, attempt to install it; offline hosts fall back with a
# warning (the nightly CI workflow runs the same stage unconditionally).
if ! rustup component list --installed 2>/dev/null | grep -q '^miri'; then
    echo "== miri not installed; attempting 'rustup component add miri' =="
    rustup component add miri 2>/dev/null || true
fi
if rustup component list --installed 2>/dev/null | grep -q '^miri'; then
    echo "== cargo miri test (egraph-parallel, egraph-sort) =="
    cargo miri test -p egraph-parallel -p egraph-sort
else
    echo "WARNING: miri unavailable on this host (offline toolchain?);"
    echo "         the nightly CI workflow (.github/workflows/nightly.yml)"
    echo "         runs this stage unconditionally."
fi

echo "lint: OK"
