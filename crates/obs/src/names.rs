//! Well-known metric names shared across the sortsynth crates.
//!
//! Instrumented code gets handles via `registry().counter(NAME, HELP)`; the
//! service calls [`register_well_known`] at startup so the exposition always
//! contains every family — a scraper sees `sortsynth_requests_total 0`
//! rather than a missing series before the first request arrives.

use std::sync::Arc;

use crate::metrics::{registry, Histogram, LATENCY_BUCKETS};

// --- request / service ---
/// Requests accepted into the admission queue.
pub const REQUESTS_TOTAL: &str = "sortsynth_requests_total";
/// Requests shed because the admission queue was full.
pub const REQUESTS_SHED_TOTAL: &str = "sortsynth_requests_shed_total";
/// End-to-end request latency (queue wait + execution), seconds.
pub const REQUEST_SECONDS: &str = "sortsynth_request_seconds";
/// Jobs currently waiting in the admission queue.
pub const QUEUE_DEPTH: &str = "sortsynth_queue_depth";
/// Jobs currently executing on workers.
pub const INFLIGHT_REQUESTS: &str = "sortsynth_inflight_requests";
/// Worker panics caught and converted to error replies.
pub const WORKER_PANICS_TOTAL: &str = "sortsynth_worker_panics_total";
/// Requests that joined an identical in-flight search instead of starting
/// their own.
pub const SINGLEFLIGHT_COALESCED_TOTAL: &str = "sortsynth_singleflight_coalesced_total";
/// Searches started by single-flight leaders.
pub const SEARCHES_STARTED_TOTAL: &str = "sortsynth_searches_started_total";

// --- cache ---
/// In-memory cache hits.
pub const CACHE_MEMORY_HITS_TOTAL: &str = "sortsynth_cache_memory_hits_total";
/// Disk-log hits promoted into memory.
pub const CACHE_DISK_HITS_TOTAL: &str = "sortsynth_cache_disk_hits_total";
/// Lookups that missed both tiers.
pub const CACHE_MISSES_TOTAL: &str = "sortsynth_cache_misses_total";
/// Entries inserted.
pub const CACHE_INSERTIONS_TOTAL: &str = "sortsynth_cache_insertions_total";
/// Entries evicted from the in-memory LRU.
pub const CACHE_EVICTIONS_TOTAL: &str = "sortsynth_cache_evictions_total";
/// Disk entries rejected by the verification gate.
pub const CACHE_VERIFY_REJECTED_TOTAL: &str = "sortsynth_cache_verify_rejected_total";
/// Latency of reading back the log frames a memory miss's directory lookup
/// found, seconds. Misses the directory rules out read no frame and are not
/// observed.
pub const CACHE_DISK_PROMOTION_SECONDS: &str = "sortsynth_cache_disk_promotion_seconds";

// --- verification ---
/// Gate admissions decided by a symbolic permutation certificate.
pub const VERIFY_SYMBOLIC_CERTIFIED_TOTAL: &str = "sortsynth_verify_symbolic_certified_total";
/// Gate rejections decided by a symbolic permutation refutation.
pub const VERIFY_SYMBOLIC_REFUTED_TOTAL: &str = "sortsynth_verify_symbolic_refuted_total";
/// Symbolic analyses that exceeded their budget inside the gate.
pub const VERIFY_SYMBOLIC_BAILOUT_TOTAL: &str = "sortsynth_verify_symbolic_bailout_total";
/// Gate decisions that fell back to the exhaustive permutation oracle.
pub const VERIFY_ORACLE_TOTAL: &str = "sortsynth_verify_oracle_total";
/// Cache recoveries that skipped re-verification via a valid checksum stamp.
pub const VERIFY_GATE_SKIPPED_TOTAL: &str = "sortsynth_verify_gate_skipped_total";
/// End-to-end gate latency, seconds.
pub const VERIFY_GATE_SECONDS: &str = "sortsynth_verify_gate_seconds";

// --- search ---
/// Search engine runs completed (any outcome).
pub const SEARCH_RUNS_TOTAL: &str = "sortsynth_search_runs_total";
/// States expanded across all searches.
pub const SEARCH_EXPANDED_TOTAL: &str = "sortsynth_search_expanded_total";
/// States generated across all searches.
pub const SEARCH_GENERATED_TOTAL: &str = "sortsynth_search_generated_total";
/// Searches that ended in `Outcome::Cancelled`.
pub const SEARCH_CANCELLED_TOTAL: &str = "sortsynth_search_cancelled_total";
/// States pruned by the dead-write cut.
pub const SEARCH_DEAD_WRITE_PRUNED_TOTAL: &str = "sortsynth_search_dead_write_pruned_total";
/// States pruned by the value-flow cut.
pub const SEARCH_VALUE_FLOW_PRUNED_TOTAL: &str = "sortsynth_search_value_flow_pruned_total";
/// Heuristic lookups that skipped the distance table.
pub const SEARCH_DISTANCE_TABLE_SKIPPED_TOTAL: &str =
    "sortsynth_search_distance_table_skipped_total";
/// States pruned by cost-bound cuts.
pub const SEARCH_CUT_PRUNED_TOTAL: &str = "sortsynth_search_cut_pruned_total";
/// States pruned by the viability filter.
pub const SEARCH_VIABILITY_PRUNED_TOTAL: &str = "sortsynth_search_viability_pruned_total";
/// Duplicate states dropped by the closed set.
pub const SEARCH_DEDUP_HITS_TOTAL: &str = "sortsynth_search_dedup_hits_total";
/// Search runs executed by the sharded parallel engine.
pub const SEARCH_PARALLEL_RUNS_TOTAL: &str = "sortsynth_search_parallel_runs_total";
/// Successors routed across shard boundaries in parallel searches.
pub const SEARCH_ROUTED_TOTAL: &str = "sortsynth_search_routed_total";
/// Open entries stolen by idle parallel workers.
pub const SEARCH_STEALS_TOTAL: &str = "sortsynth_search_steals_total";
/// Unique canonical states interned into search arenas.
pub const SEARCH_INTERNED_STATES_TOTAL: &str = "sortsynth_search_interned_states_total";
/// Expansions served entirely from already-reserved scratch capacity.
pub const SEARCH_SCRATCH_REUSED_TOTAL: &str = "sortsynth_search_scratch_reused_total";
/// Open entries discarded at pop as stale (reopened or bound-overtaken).
pub const SEARCH_STALE_POPS_TOTAL: &str = "sortsynth_search_stale_pops_total";
/// Empty-bucket cursor scans performed by bucketed open lists.
pub const SEARCH_BUCKET_SCANS_TOTAL: &str = "sortsynth_search_bucket_scans_total";
/// SWAR lane passes taken by batch expansion.
pub const SEARCH_SWAR_BATCHES_TOTAL: &str = "sortsynth_search_swar_batches_total";
/// Bytes of assignment storage held by the last run's state arena(s).
pub const SEARCH_ARENA_BYTES: &str = "sortsynth_search_arena_bytes";
/// Estimated resident search-bookkeeping bytes (arena + closed map +
/// per-node metadata) of the last run.
pub const SEARCH_RESIDENT_BYTES: &str = "sortsynth_search_resident_bytes";
/// Bytes held in external-memory spill segments by the last run.
pub const SEARCH_SPILLED_BYTES: &str = "sortsynth_search_spilled_bytes";
/// Spill segment files held by the last run.
pub const SEARCH_SPILL_SEGMENTS: &str = "sortsynth_search_spill_segments";
/// Frontier states spilled to disk segments.
pub const SEARCH_SPILLED_OPEN_TOTAL: &str = "sortsynth_search_spilled_open_total";
/// Closed-set entries evicted to sorted disk segments.
pub const SEARCH_SPILLED_CLOSED_TOTAL: &str = "sortsynth_search_spilled_closed_total";
/// Duplicates caught by delayed duplicate detection against spilled
/// closed segments.
pub const SEARCH_DDD_DEDUP_HITS_TOTAL: &str = "sortsynth_search_ddd_dedup_hits_total";
/// Frontier states restored from resume journals.
pub const SEARCH_RESUMED_FRONTIER_TOTAL: &str = "sortsynth_search_resumed_frontier_total";
/// Latency of spill segment writes, seconds.
pub const SEARCH_SPILL_WRITE_SECONDS: &str = "sortsynth_search_spill_write_seconds";
/// Latency of spill segment reads (frontier streams + DDD joins), seconds.
pub const SEARCH_SPILL_READ_SECONDS: &str = "sortsynth_search_spill_read_seconds";

// --- portfolio ---
/// Portfolio races executed (one per query reaching the executor).
pub const PORTFOLIO_RACES_TOTAL: &str = "sortsynth_portfolio_races_total";
/// Races that produced a verify-gated winner.
pub const PORTFOLIO_WIN_TOTAL: &str = "sortsynth_portfolio_win_total";
/// Arms that completed with a solution but lost the race (or were
/// out-raced before finishing verification).
pub const PORTFOLIO_LOSS_TOTAL: &str = "sortsynth_portfolio_loss_total";
/// Arms stopped early by race cancellation.
pub const PORTFOLIO_CANCELLED_TOTAL: &str = "sortsynth_portfolio_cancelled_total";
/// Candidate winners rejected by the static verification gate.
pub const PORTFOLIO_VERIFY_REJECTED_TOTAL: &str = "sortsynth_portfolio_verify_rejected_total";
/// Races whose first (policy-ranked) wave missed and widened to the rest.
pub const PORTFOLIO_WIDENED_TOTAL: &str = "sortsynth_portfolio_widened_total";
/// Time from race start to the first verified solution, seconds.
pub const PORTFOLIO_TTFS_SECONDS: &str = "sortsynth_portfolio_ttfs_seconds";

// --- introspection ---
/// Flight-recorder frames appended (across all recordings).
pub const RECORDER_FRAMES_TOTAL: &str = "sortsynth_recorder_frames_total";
/// Flight-recorder bytes written (headers + payloads).
pub const RECORDER_BYTES_TOTAL: &str = "sortsynth_recorder_bytes_total";
/// Flight-recorder segment rotations.
pub const RECORDER_ROTATIONS_TOTAL: &str = "sortsynth_recorder_rotations_total";
/// Watch streams opened against in-flight searches.
pub const WATCH_STREAMS_TOTAL: &str = "sortsynth_watch_streams_total";
/// Progress frames delivered to watch subscribers.
pub const WATCH_FRAMES_TOTAL: &str = "sortsynth_watch_frames_total";

// --- SAT / CEGIS ---
/// CDCL conflicts across all solver runs.
pub const SAT_CONFLICTS_TOTAL: &str = "sortsynth_sat_conflicts_total";
/// CDCL restarts across all solver runs.
pub const SAT_RESTARTS_TOTAL: &str = "sortsynth_sat_restarts_total";
/// Clauses learned across all solver runs.
pub const SAT_LEARNED_CLAUSES_TOTAL: &str = "sortsynth_sat_learned_clauses_total";
/// CEGIS refinement iterations across all synthesis calls.
pub const CEGIS_ITERATIONS_TOTAL: &str = "sortsynth_cegis_iterations_total";

/// The spill segment write-latency histogram (registered on first use).
pub fn search_spill_write_seconds() -> Arc<Histogram> {
    registry().histogram(
        SEARCH_SPILL_WRITE_SECONDS,
        "Spill segment write latency in seconds.",
        LATENCY_BUCKETS,
    )
}

/// The spill segment read-latency histogram (registered on first use).
pub fn search_spill_read_seconds() -> Arc<Histogram> {
    registry().histogram(
        SEARCH_SPILL_READ_SECONDS,
        "Spill segment read latency in seconds.",
        LATENCY_BUCKETS,
    )
}

/// The end-to-end request latency histogram (registered on first use).
pub fn request_seconds() -> Arc<Histogram> {
    registry().histogram(
        REQUEST_SECONDS,
        "End-to-end request latency in seconds.",
        LATENCY_BUCKETS,
    )
}

/// The time-to-first-verified-solution histogram (registered on first use).
pub fn portfolio_ttfs_seconds() -> Arc<Histogram> {
    registry().histogram(
        PORTFOLIO_TTFS_SECONDS,
        "Time from race start to the first verified solution, in seconds.",
        LATENCY_BUCKETS,
    )
}

/// The disk-promotion latency histogram (registered on first use).
pub fn cache_disk_promotion_seconds() -> Arc<Histogram> {
    registry().histogram(
        CACHE_DISK_PROMOTION_SECONDS,
        "Latency of reading back candidate disk-log frames on a memory miss, in seconds.",
        LATENCY_BUCKETS,
    )
}

/// The verification-gate latency histogram (registered on first use).
pub fn verify_gate_seconds() -> Arc<Histogram> {
    registry().histogram(
        VERIFY_GATE_SECONDS,
        "End-to-end verification-gate latency in seconds.",
        LATENCY_BUCKETS,
    )
}

/// Registers every well-known family in the default registry so the
/// Prometheus exposition is complete from the first scrape. Idempotent.
pub fn register_well_known() {
    let r = registry();
    r.counter(
        REQUESTS_TOTAL,
        "Requests accepted into the admission queue.",
    );
    r.counter(
        REQUESTS_SHED_TOTAL,
        "Requests shed because the admission queue was full.",
    );
    request_seconds();
    r.gauge(
        QUEUE_DEPTH,
        "Jobs currently waiting in the admission queue.",
    );
    r.gauge(INFLIGHT_REQUESTS, "Jobs currently executing on workers.");
    r.counter(
        WORKER_PANICS_TOTAL,
        "Worker panics caught and converted to error replies.",
    );
    r.counter(
        SINGLEFLIGHT_COALESCED_TOTAL,
        "Requests coalesced onto an identical in-flight search.",
    );
    r.counter(
        SEARCHES_STARTED_TOTAL,
        "Searches started by single-flight leaders.",
    );

    r.counter(CACHE_MEMORY_HITS_TOTAL, "In-memory cache hits.");
    r.counter(CACHE_DISK_HITS_TOTAL, "Disk-log hits promoted into memory.");
    r.counter(CACHE_MISSES_TOTAL, "Lookups that missed both cache tiers.");
    r.counter(CACHE_INSERTIONS_TOTAL, "Cache entries inserted.");
    r.counter(
        CACHE_EVICTIONS_TOTAL,
        "Entries evicted from the in-memory LRU.",
    );
    r.counter(
        CACHE_VERIFY_REJECTED_TOTAL,
        "Disk entries rejected by the verification gate.",
    );
    cache_disk_promotion_seconds();

    r.counter(
        VERIFY_SYMBOLIC_CERTIFIED_TOTAL,
        "Gate admissions decided by a symbolic permutation certificate.",
    );
    r.counter(
        VERIFY_SYMBOLIC_REFUTED_TOTAL,
        "Gate rejections decided by a symbolic permutation refutation.",
    );
    r.counter(
        VERIFY_SYMBOLIC_BAILOUT_TOTAL,
        "Symbolic analyses that exceeded their budget inside the gate.",
    );
    r.counter(
        VERIFY_ORACLE_TOTAL,
        "Gate decisions that fell back to the exhaustive permutation oracle.",
    );
    r.counter(
        VERIFY_GATE_SKIPPED_TOTAL,
        "Cache recoveries that skipped re-verification via a valid checksum stamp.",
    );
    verify_gate_seconds();

    r.counter(
        SEARCH_RUNS_TOTAL,
        "Search engine runs completed (any outcome).",
    );
    r.counter(
        SEARCH_EXPANDED_TOTAL,
        "States expanded across all searches.",
    );
    r.counter(
        SEARCH_GENERATED_TOTAL,
        "States generated across all searches.",
    );
    r.counter(
        SEARCH_CANCELLED_TOTAL,
        "Searches cancelled via SearchBudget.",
    );
    r.counter(
        SEARCH_DEAD_WRITE_PRUNED_TOTAL,
        "States pruned by the dead-write cut.",
    );
    r.counter(
        SEARCH_VALUE_FLOW_PRUNED_TOTAL,
        "States pruned by the value-flow cut.",
    );
    r.counter(
        SEARCH_DISTANCE_TABLE_SKIPPED_TOTAL,
        "Heuristic lookups that skipped the distance table.",
    );
    r.counter(SEARCH_CUT_PRUNED_TOTAL, "States pruned by cost-bound cuts.");
    r.counter(
        SEARCH_VIABILITY_PRUNED_TOTAL,
        "States pruned by the viability filter.",
    );
    r.counter(
        SEARCH_DEDUP_HITS_TOTAL,
        "Duplicate states dropped by the closed set.",
    );
    r.counter(
        SEARCH_PARALLEL_RUNS_TOTAL,
        "Search runs executed by the sharded parallel engine.",
    );
    r.counter(
        SEARCH_ROUTED_TOTAL,
        "Successors routed across shard boundaries.",
    );
    r.counter(
        SEARCH_STEALS_TOTAL,
        "Open entries stolen by idle parallel workers.",
    );
    r.counter(
        SEARCH_INTERNED_STATES_TOTAL,
        "Unique canonical states interned into search arenas.",
    );
    r.counter(
        SEARCH_SCRATCH_REUSED_TOTAL,
        "Expansions served from already-reserved scratch capacity.",
    );
    r.counter(
        SEARCH_STALE_POPS_TOTAL,
        "Open entries discarded at pop as stale (reopened or bound-overtaken).",
    );
    r.counter(
        SEARCH_BUCKET_SCANS_TOTAL,
        "Empty-bucket cursor scans performed by bucketed open lists.",
    );
    r.counter(
        SEARCH_SWAR_BATCHES_TOTAL,
        "SWAR lane passes taken by batch expansion.",
    );
    r.gauge(
        SEARCH_ARENA_BYTES,
        "Assignment bytes held by the last run's state arena(s).",
    );
    r.gauge(
        SEARCH_RESIDENT_BYTES,
        "Estimated resident search-bookkeeping bytes of the last run.",
    );
    r.gauge(
        SEARCH_SPILLED_BYTES,
        "Bytes held in external-memory spill segments by the last run.",
    );
    r.gauge(
        SEARCH_SPILL_SEGMENTS,
        "Spill segment files held by the last run.",
    );
    r.counter(
        SEARCH_SPILLED_OPEN_TOTAL,
        "Frontier states spilled to disk segments.",
    );
    r.counter(
        SEARCH_SPILLED_CLOSED_TOTAL,
        "Closed-set entries evicted to sorted disk segments.",
    );
    r.counter(
        SEARCH_DDD_DEDUP_HITS_TOTAL,
        "Duplicates caught by delayed duplicate detection.",
    );
    r.counter(
        SEARCH_RESUMED_FRONTIER_TOTAL,
        "Frontier states restored from resume journals.",
    );
    search_spill_write_seconds();
    search_spill_read_seconds();

    r.counter(
        PORTFOLIO_RACES_TOTAL,
        "Portfolio races executed (one per query reaching the executor).",
    );
    r.counter(
        PORTFOLIO_WIN_TOTAL,
        "Races that produced a verify-gated winner.",
    );
    r.counter(
        PORTFOLIO_LOSS_TOTAL,
        "Arms that completed a solution but lost the race.",
    );
    r.counter(
        PORTFOLIO_CANCELLED_TOTAL,
        "Arms stopped early by race cancellation.",
    );
    r.counter(
        PORTFOLIO_VERIFY_REJECTED_TOTAL,
        "Candidate winners rejected by the static verification gate.",
    );
    r.counter(
        PORTFOLIO_WIDENED_TOTAL,
        "Races whose first wave missed and widened to the remaining arms.",
    );
    portfolio_ttfs_seconds();

    r.counter(RECORDER_FRAMES_TOTAL, "Flight-recorder frames appended.");
    r.counter(RECORDER_BYTES_TOTAL, "Flight-recorder bytes written.");
    r.counter(
        RECORDER_ROTATIONS_TOTAL,
        "Flight-recorder segment rotations.",
    );
    r.counter(
        WATCH_STREAMS_TOTAL,
        "Watch streams opened against in-flight searches.",
    );
    r.counter(
        WATCH_FRAMES_TOTAL,
        "Progress frames delivered to watch subscribers.",
    );
    crate::profile::register_phase_counters();

    r.counter(
        SAT_CONFLICTS_TOTAL,
        "CDCL conflicts across all solver runs.",
    );
    r.counter(SAT_RESTARTS_TOTAL, "CDCL restarts across all solver runs.");
    r.counter(
        SAT_LEARNED_CLAUSES_TOTAL,
        "Clauses learned across all solver runs.",
    );
    r.counter(
        CEGIS_ITERATIONS_TOTAL,
        "CEGIS refinement iterations across all synthesis calls.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_families_appear_in_exposition() {
        register_well_known();
        register_well_known(); // idempotent
        let text = registry().render_prometheus();
        for name in [
            REQUESTS_TOTAL,
            REQUEST_SECONDS,
            QUEUE_DEPTH,
            CACHE_MISSES_TOTAL,
            VERIFY_SYMBOLIC_CERTIFIED_TOTAL,
            VERIFY_ORACLE_TOTAL,
            VERIFY_GATE_SKIPPED_TOTAL,
            VERIFY_GATE_SECONDS,
            SEARCH_EXPANDED_TOTAL,
            SEARCH_VALUE_FLOW_PRUNED_TOTAL,
            SEARCH_CANCELLED_TOTAL,
            SEARCH_STALE_POPS_TOTAL,
            SEARCH_BUCKET_SCANS_TOTAL,
            SEARCH_SWAR_BATCHES_TOTAL,
            SEARCH_RESIDENT_BYTES,
            SEARCH_SPILLED_BYTES,
            SEARCH_SPILL_SEGMENTS,
            SEARCH_SPILLED_OPEN_TOTAL,
            SEARCH_SPILLED_CLOSED_TOTAL,
            SEARCH_DDD_DEDUP_HITS_TOTAL,
            SEARCH_RESUMED_FRONTIER_TOTAL,
            SEARCH_SPILL_WRITE_SECONDS,
            SEARCH_SPILL_READ_SECONDS,
            RECORDER_FRAMES_TOTAL,
            WATCH_FRAMES_TOTAL,
            "sortsynth_phase_step_viability_nanos_total",
            SAT_CONFLICTS_TOTAL,
            CEGIS_ITERATIONS_TOTAL,
        ] {
            assert!(
                text.contains(&format!("# TYPE {name} ")),
                "missing family {name}"
            );
        }
    }
}
