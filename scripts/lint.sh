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
# `IncrementalPagerank` sweeps block by block with PageRank's pull rule
# through `engine::vertex_pull` until a sweep's change is under the
# tolerance, and `IncrementalBfs` runs `bfs::run`, for the initial
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

# Delta reads hash nothing: `DeltaAdjacency::new` resolves every
# tombstone into ascending skip positions once, when the view is built,
# so a `HashMap`, `HashSet` or `.get(&` inside its `NeighborAccess` impl
# is a hashed read coming back. PageRank has one solve path: a batch
# re-solves with the pull kernel from the current ranks, so a
# `VecDeque`, `RepairSlot`, `REPAIR_EPS` or `fn repair` in
# algo/pagerank.rs is the residual-push repair coming back.
echo "== delta reads hash nothing; one PageRank solve path =="
offenders=$(awk '/^#\[cfg\(test\)\]/ { exit }
        /^impl.* NeighborAccess<E> for DeltaAdjacency<E>/ { in_impl = 1 }
        in_impl && /^}/ { in_impl = 0 }
        in_impl && !/^[[:space:]]*\/\// && /HashMap|HashSet|\.get\(&/ {
            print FILENAME ":" FNR ": " $0
        }' crates/core/src/layout/delta.rs
    awk '/^#\[cfg\(test\)\]/ { exit }
        !/^[[:space:]]*\/\// && /VecDeque|RepairSlot|REPAIR_EPS|fn repair[<(]/ {
            print FILENAME ":" FNR ": " $0
        }' crates/core/src/algo/pagerank.rs)
if [ -n "$offenders" ]; then
    echo "a hashed delta read or the PageRank repair in non-test code:"
    echo "$offenders"
    exit 1
fi

# A served answer costs its traversal: BFS levels are stored lane by
# lane and handed out as they are, SSSP rows are split into lanes in one
# sequential pass, and the checksum hashes whole words in independent
# streams. A `.step_by(` in non-test serve/wave.rs is the strided
# per-lane transpose coming back; a byte loop (`to_le_bytes`,
# `for byte`) inside `QueryValues::checksum` is the byte-serial hash
# coming back.
echo "== lanes leave a wave in one pass; answers hash by word =="
offenders=$(awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// && /\.step_by\(/ {
            print FILENAME ":" FNR ": " $0
        }' crates/core/src/serve/wave.rs
    awk '/^#\[cfg\(test\)\]/ { exit }
        /^impl QueryValues/ { in_impl = 1 }
        in_impl && /^}/ { in_impl = 0 }
        in_impl && /fn checksum\(/ { in_fn = 1 }
        in_fn && /^    }/ { in_fn = 0 }
        in_fn && !/^[[:space:]]*\/\// && /to_(le|be|ne)_bytes|for byte/ {
            print FILENAME ":" FNR ": " $0
        }' crates/core/src/serve/engine.rs)
if [ -n "$offenders" ]; then
    echo "a strided lane split or a byte-serial checksum:"
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

# One recorder on the context: a run's phases are records of the
# recorder `ExecCtx` carries, and the trace recorder owns the one group
# of hardware counters a traced run opens (`TraceRecorder::
# with_hardware_counters`). A phase profiler beside the recorder, a
# builder that attaches one, or a second `PerfCounters::open` is the
# second instrumentation handle coming back.
echo "== one recorder on the context =="
offenders=$(find crates/*/src -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// &&
            (/PhaseProfiler|\.profiler\(/ ||
             (/PerfCounters::open/ && FILENAME != "crates/core/src/telemetry.rs")) {
            print FILENAME ":" FNR ": " $0
        }' {} +)
if [ -n "$offenders" ]; then
    echo "a phase profiler, or hardware counters opened outside telemetry.rs, in non-test crates/*/src:"
    echo "$offenders"
    exit 1
fi

# Models live in egraph-bench: the LLC simulator, the NUMA machines and
# the SSD/HDD loading model stand in for the paper's hardware, so
# they sit beside the experiments that use them (`crates/bench/src/llc`,
# `numa`, `loading`) and no product crate links them. The LLC model is
# fed by `egraph-bench`'s replays of the kernels' access order: a probe
# handle, a simulated-address method, a metadata stride or a touch call
# in the product is a probed branch beside a plain loop coming back. A
# dependency on a model crate, the NUMA model's types or a second set of
# roadmap enums in the core, a non-dev dependency on `egraph-bench` in
# any other manifest, the medium presets or the overlap plan in
# `egraph-storage`, or a model re-exported by the umbrella crate is a
# modeled substrate coming back into the product.
echo "== models live in egraph-bench =="
offenders=$(find crates/core/src crates/cli/src src examples -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && /MemProbe|NullProbe|live_probe|edge_sim_addr|META_BYTES|touch_edge|touch_src|touch_dst|\.probe\(/ {
            print FILENAME ":" FNR ": " $0
        }' {} +
    grep -n 'egraph-numa\|egraph-cachesim' crates/core/Cargo.toml | sed 's|^|crates/core/Cargo.toml:|'
    find crates/core/src -name '*.rs' ! -name tests.rs \
        -exec awk 'FNR == 1 { in_tests = 0 }
            /^#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests && /egraph_cachesim|egraph_numa|numa_sim|Topology|LayoutChoice|FlowChoice/ {
                print FILENAME ":" FNR ": " $0
            }' {} +
    for manifest in Cargo.toml crates/*/Cargo.toml; do
        [ "$manifest" = crates/bench/Cargo.toml ] && continue
        awk '/^\[(target\..*\.)?dependencies\.egraph-bench\]$/ { print FILENAME ":" FNR ": " $0 }
            /^\[/ { in_deps = ($0 == "[dependencies]" || $0 ~ /^\[target\..*\.dependencies\]$/); next }
            in_deps && /^egraph-bench[[:space:]]*[.=]/ { print FILENAME ":" FNR ": " $0 }' "$manifest"
    done
    find crates/storage/src -name '*.rs' \
        -exec awk 'FNR == 1 { in_tests = 0 }
            /^#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests && !/^[[:space:]]*\/\// && /(^|[^[:alnum:]_])(Medium|OverlapPlan)([^[:alnum:]_]|$)/ {
                print FILENAME ":" FNR ": " $0
            }' {} +
    awk '!/^[[:space:]]*\/\// && /pub use .*(egraph_bench|egraph_cachesim|egraph_numa|cachesim|numa|llc|loading)/ {
            print FILENAME ":" FNR ": " $0
        }' src/lib.rs)
if [ -n "$offenders" ]; then
    echo "a model in the product (crates/core, crates/cli, crates/storage, src, examples or a manifest):"
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
# (The LLC model lives in egraph-bench: the cache-model pattern applies
# to the product crates only.)
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
    }' crates/core/src/preprocess.rs crates/bench/src/numa/mod.rs
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
# feature is on this list, which holds one: the test-only exhaustive
# tier. A new feature needs a measured reason and a line here.
# Architecture intrinsics, the deleted work-stealing scheduler and the
# tracking-allocator switch (the allocator is now always installed) are
# the paths that left for want of one.
echo "== every build switch is listed =="
offenders=$(for manifest in crates/*/Cargo.toml; do
        awk -v krate="$(basename "$(dirname "$manifest")")" '
            /^\[/ { in_features = ($0 == "[features]"); next }
            in_features && /^[A-Za-z0-9_-]+[[:space:]]*=/ {
                key = $0
                sub(/[[:space:]]*=.*/, "", key)
                key = krate "/" key
                if (key != "testkit/exhaustive")
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

# `run_variant` is the one public way to run an algorithm x layout x
# direction; the kernels behind it are crate-private. A top-level public
# per-layout wrapper in an algorithm file (`bfs::push`,
# `pagerank::grid_pull`, ...) or the `OneWay` adapter that served them
# is the second way coming back.
echo "== one way to run a variant =="
offenders=$(awk 'FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests &&
        /^pub fn (push|push_locked|pull|push_pull|edge_centric|grid|grid_push|grid_pull)[<(]/ {
        print FILENAME ":" FNR ": " $0
    }' crates/core/src/algo/bfs.rs crates/core/src/algo/pagerank.rs \
        crates/core/src/algo/spmv.rs crates/core/src/algo/sssp.rs crates/core/src/algo/wcc.rs
    grep -rn 'OneWay' crates || true)
if [ -n "$offenders" ]; then
    echo "a public per-layout kernel wrapper or OneWay (run through run_variant):"
    echo "$offenders"
    exit 1
fi

# The serve tier mutates the library's `DeltaGraph`, and an update line
# is read by the one JSON reader (`telemetry::json`), the way the daemon
# routes it. A log or a merge of the serve tier's own, or a scan for a
# quoted key outside that reader, is a second write path or a second
# reader coming back.
echo "== one mutable graph, one JSON reader =="
offenders=$(find crates/core/src crates/cli/src -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// &&
            ((FILENAME ~ /^crates\/core\/src\/serve\// && /DeltaLog|merge_into/) ||
             /(find|contains)\("\\"|format!\("\\"\{/) {
            print FILENAME ":" FNR ": " $0
        }' {} +)
if [ -n "$offenders" ]; then
    echo "a delta log or merge under serve/, or a quoted-key scan outside telemetry::json:"
    echo "$offenders"
    exit 1
fi

# An indexed layout's out- and in-direction live in one container,
# `layout::Sides` (`AdjacencyList`, `CcsrList` and `DeltaList` are
# aliases of it), and `PreparedGraph` caches one build per layout family
# and direction. An optional-direction field on another struct, or a
# three-slot cache keyed by out / in / both, is the second pair type or
# the rebuilt push-pull direction coming back.
echo "== a direction is named once =="
offenders=$(find crates/core/src -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0; in_struct = 0; in_sides = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*\/\// { next }
        /^(pub(\([a-z]+\))? )?struct [A-Za-z_]+.*\{[[:space:]]*$/ {
            in_struct = 1
            in_sides = ($0 ~ /struct Sides</)
        }
        in_struct && !in_sides && /^[[:space:]]+(pub(\([a-z]+\))? )?(out|inc|incoming): Option</ {
            print FILENAME ":" FNR ": " $0
        }
        /^}/ { in_struct = 0 }
        /\[OnceLock<.*;[[:space:]]*3\]/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$offenders" ]; then
    echo "a per-direction Option field outside layout::Sides, or a three-slot direction cache:"
    echo "$offenders"
    exit 1
fi

# A pool owns its instruments: its counters, fault plan and timeline
# tracks live in the pool's shared state, so two pools never mix their
# numbers and tests share no hidden state. The runtime keeps two kinds
# of process static only: the global pool itself (`POOL`) and the three
# thread-local cells that say which worker, region and scoped pool a
# thread is in. Any other `static` in non-test `crates/parallel/src` is
# process-wide instrument state coming back.
echo "== a pool owns its instruments =="
offenders=$(find crates/parallel/src -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?static[[:space:]]/ &&
            !/^    static (CURRENT_WORKER|SCOPED_POOL|REGION): Cell</ &&
            !/^static POOL: OnceLock<ThreadPool>/ {
            print FILENAME ":" FNR ": " $0
        }' {} +)
if [ -n "$offenders" ]; then
    echo "a process static outside the allowlist in non-test crates/parallel/src:"
    echo "$offenders"
    exit 1
fi

# Each number is measured once, by the clock or record that already
# takes it: a load's storage numbers come from the load `egraph run`
# times, a build's seconds from `metrics::timed` around `build`, and a
# counter window from `TraceRecorder`'s `reading`/`delta_since`. The
# storage counters, `build_timed`/`PreprocessStats` and egraph-perf's
# phase guard were second copies of those numbers (one of them wrong),
# and a `static` in non-test storage code is process-wide state coming
# back to hold one. egraph-perf's own `pub use counters::{` re-export is
# the one allowed `counters::`.
echo "== each number is measured once =="
offenders=$(find crates examples tests -name '*.rs' ! -name tests.rs \
    -exec awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// &&
            ((/build_timed|PreprocessStats|PhaseCounters|ReadTimer|unavailable_reasons|counters::/ &&
              !/^pub use counters::\{/) ||
             (FILENAME ~ /^crates\/storage\/src\// &&
              /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?static[[:space:]]/)) {
            print FILENAME ":" FNR ": " $0
        }' {} +)
if [ -n "$offenders" ]; then
    echo "a second measurement of a load, a build or a counter window, or a"
    echo "static in non-test crates/storage/src:"
    echo "$offenders"
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# The parallel and sort crates carry the unsafe worker-local / scatter
# kernels plus the scoped-pool pointers and lifetime-erased broadcast
# jobs: run their unit tests under Miri when it is installed. A lint run
# installs nothing; without Miri the stage warns and the nightly CI
# workflow, which installs it, runs the stage unconditionally.
if rustup component list --installed 2>/dev/null | grep -q '^miri'; then
    echo "== cargo miri test (egraph-parallel, egraph-sort) =="
    cargo miri test -p egraph-parallel -p egraph-sort
else
    echo "WARNING: miri unavailable on this host (offline toolchain?);"
    echo "         the nightly CI workflow (.github/workflows/nightly.yml)"
    echo "         runs this stage unconditionally."
fi

echo "lint: OK"
