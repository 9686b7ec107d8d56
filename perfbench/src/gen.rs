//! Seeded inputs: the 1000-entry cache log every run restarts over, and the
//! query stream of each workload.
//!
//! Everything here is a pure function of the seed, so one seed always
//! produces the same log bytes and the same queries. The program under test
//! only ever sees the generated queries.

use sortsynth_cache::KernelQuery;
use sortsynth_isa::IsaMode;

/// Entries in the seeded cache log.
pub const LOG_ENTRIES: usize = 1000;

/// The cheap machines `(n, scratch, ISA)`: their table plus search takes at
/// most a few milliseconds. The seeded log holds kernels for these only,
/// and `miss-small` rotates over them.
pub const CHEAP: [(u8, u8, IsaMode); 7] = [
    (2, 1, IsaMode::Cmov),
    (2, 2, IsaMode::Cmov),
    (2, 3, IsaMode::Cmov),
    (2, 1, IsaMode::MinMax),
    (2, 2, IsaMode::MinMax),
    (2, 3, IsaMode::MinMax),
    (3, 1, IsaMode::MinMax),
];

/// Log entry `i` carries `max_len = LOG_MAX_LEN + i`. Any bound at or above
/// a machine's optimum leaves the answer unchanged, so the bound only makes
/// the fingerprints distinct.
const LOG_MAX_LEN: u32 = 100;
/// `miss-small` bounds start here, far above every log bound, so a timed
/// query can never hit a log entry.
const MISS_MAX_LEN: u32 = 1_000_000;
/// Lowest bound of a `search-cold` query: every `max_len >= 21` runs the
/// identical n=4 cmp/cmov search.
const SEARCH_COLD_MAX_LEN: u32 = 21;
/// Lowest bound of a `table-cold` query (optimum 15, bound above it).
const TABLE_COLD_MAX_LEN: u32 = 16;
/// Range of the seeded offset added to every timed bound.
const OFFSET_RANGE: u64 = 100_000;

/// Stream tags, so the log and the workloads draw independent sequences
/// from one seed.
const LOG_STREAM: u64 = 0x6c6f_675f_7365_6564;
const WORKLOAD_STREAM: u64 = 0x776f_726b_6c6f_6164;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw from `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The paper's best configuration for one machine, with a length bound.
fn query(machine: (u8, u8, IsaMode), max_len: u32) -> KernelQuery {
    let (n, scratch, mode) = machine;
    KernelQuery {
        max_len: Some(max_len),
        ..KernelQuery::best(n, scratch, mode)
    }
}

/// One planned log entry: which cheap machine, its query, and the recorded
/// search time (seeded, so the log bytes do not depend on the clock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntryPlan {
    pub machine: usize,
    pub query: KernelQuery,
    pub search_millis: u64,
}

/// The seeded log: `LOG_ENTRIES` distinct queries over the cheap machines.
pub fn log_plan(seed: u64) -> Vec<LogEntryPlan> {
    let mut rng = Rng::new(seed ^ LOG_STREAM);
    (0..LOG_ENTRIES)
        .map(|i| {
            let machine = rng.below(CHEAP.len() as u64) as usize;
            LogEntryPlan {
                machine,
                query: query(CHEAP[machine], LOG_MAX_LEN + i as u32),
                search_millis: 1 + rng.below(9),
            }
        })
        .collect()
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Misses on n=4, 1 scratch, cmp/cmov: search-bound.
    SearchCold,
    /// Misses on n=4, 2 scratch, min/max: distance-table-bound.
    TableCold,
    /// Misses on the cheap machines: the durable cache's miss path.
    MissSmall,
    /// Memory-front hits on the recovered log entries.
    CacheHot,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SearchCold,
        Kind::TableCold,
        Kind::MissSmall,
        Kind::CacheHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SearchCold => "search-cold",
            Kind::TableCold => "table-cold",
            Kind::MissSmall => "miss-small",
            Kind::CacheHot => "cache-hot",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether every request of this workload misses the cache.
    pub fn is_cold(self) -> bool {
        self != Kind::CacheHot
    }

    /// Whether every request runs the same large search, so the engine's
    /// work counters must repeat exactly.
    pub fn fixed_work(self) -> bool {
        matches!(self, Kind::SearchCold | Kind::TableCold)
    }
}

/// A workload's query stream.
#[derive(Debug, Clone)]
pub struct Queries {
    kind: Kind,
    rng: Rng,
    offset: u32,
    rotation: [usize; CHEAP.len()],
    log: Vec<KernelQuery>,
    issued: u32,
}

impl Queries {
    pub fn new(kind: Kind, seed: u64) -> Queries {
        let mut rng = Rng::new(seed ^ WORKLOAD_STREAM);
        let offset = rng.below(OFFSET_RANGE) as u32;
        // Fisher-Yates over the cheap machines.
        let mut rotation = [0, 1, 2, 3, 4, 5, 6];
        for i in (1..rotation.len()).rev() {
            rotation.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let log = match kind {
            Kind::CacheHot => log_plan(seed).into_iter().map(|e| e.query).collect(),
            _ => Vec::new(),
        };
        Queries {
            kind,
            rng,
            offset,
            rotation,
            log,
            issued: 0,
        }
    }

    /// The next query. Cold workloads never repeat a query within a run.
    pub fn next_query(&mut self) -> KernelQuery {
        let k = self.issued;
        self.issued += 1;
        match self.kind {
            Kind::SearchCold => query((4, 1, IsaMode::Cmov), SEARCH_COLD_MAX_LEN + self.offset + k),
            Kind::TableCold => query(
                (4, 2, IsaMode::MinMax),
                TABLE_COLD_MAX_LEN + self.offset + k,
            ),
            Kind::MissSmall => {
                let machine = self.rotation[k as usize % CHEAP.len()];
                query(CHEAP[machine], MISS_MAX_LEN + self.offset + k)
            }
            Kind::CacheHot => {
                let i = self.rng.below(self.log.len() as u64) as usize;
                self.log[i].clone()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(log_plan(7), log_plan(7));
        assert_ne!(log_plan(7), log_plan(8));
        for kind in Kind::ALL {
            let mut a = Queries::new(kind, 42);
            let mut b = Queries::new(kind, 42);
            for _ in 0..50 {
                assert_eq!(a.next_query(), b.next_query());
            }
        }
    }

    #[test]
    fn log_fingerprints_are_distinct_and_cheap() {
        let plan = log_plan(3);
        let fingerprints: HashSet<u64> = plan.iter().map(|e| e.query.fingerprint()).collect();
        assert_eq!(fingerprints.len(), LOG_ENTRIES);
        assert!(plan.iter().all(|e| e.query.n <= 3));
    }

    #[test]
    fn timed_queries_are_disjoint_from_the_log() {
        for seed in [0, 1, 99, u64::MAX] {
            let log: HashSet<u64> = log_plan(seed)
                .iter()
                .map(|e| e.query.fingerprint())
                .collect();
            for kind in [Kind::SearchCold, Kind::TableCold, Kind::MissSmall] {
                let mut queries = Queries::new(kind, seed);
                let mut seen = HashSet::new();
                for _ in 0..5_000 {
                    let fp = queries.next_query().fingerprint();
                    assert!(!log.contains(&fp), "{} query in the log", kind.name());
                    assert!(seen.insert(fp), "{} query repeated", kind.name());
                }
            }
            let mut hot = Queries::new(Kind::CacheHot, seed);
            for _ in 0..5_000 {
                assert!(log.contains(&hot.next_query().fingerprint()));
            }
        }
    }

    #[test]
    fn miss_small_cycles_every_cheap_machine() {
        let mut queries = Queries::new(Kind::MissSmall, 5);
        let mut machines: Vec<(u8, u8, IsaMode)> = (0..CHEAP.len())
            .map(|_| {
                let q = queries.next_query();
                (q.n, q.scratch, q.mode)
            })
            .collect();
        machines.sort_by_key(|m| (m.0, m.1, m.2 == IsaMode::MinMax));
        let mut expected = CHEAP.to_vec();
        expected.sort_by_key(|m| (m.0, m.1, m.2 == IsaMode::MinMax));
        assert_eq!(machines, expected);
    }
}
