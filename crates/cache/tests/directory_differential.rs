//! Differential test of the durable cache's log directory.
//!
//! The reference is the cache as it was before the directory: a memory front
//! over a log that every memory miss re-reads in full (`disk::load`) and
//! searches from the back. Seeded random sequences of inserts, lookups,
//! evictions (capacity 2), compactions, reopens and appends made behind the
//! cache's back (as another process would) must serve the same entry — or
//! `None` — and leave the same `CacheStats` after every step.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use sortsynth_cache::{disk, CacheEntry, CacheStats, KernelCache, KernelQuery, ShardedLru};
use sortsynth_isa::{IsaMode, Machine};

/// Front capacity: one slot per shard, so queries sharing a shard evict
/// each other and lookups reach the log.
const CAPACITY: usize = 2;

/// The query pool: two machines, three length bounds each.
fn query(k: usize) -> KernelQuery {
    let n = 2 + (k % 2) as u8;
    let max_len = [None, Some(30), Some(31)][k / 2 % 3];
    KernelQuery {
        max_len,
        ..KernelQuery::best(n, 1, IsaMode::Cmov)
    }
}
const QUERIES: usize = 6;

/// An entry for pool query `k`: a correct bubble-network kernel, or (when
/// `bogus`) one the 0-1 gate refutes. `millis` tells versions apart.
fn entry(k: usize, millis: u64, bogus: bool) -> CacheEntry {
    let query = query(k);
    let machine = Machine::new(query.n, 1, IsaMode::Cmov);
    let text = if bogus {
        "mov s1 r1; mov r1 r2".to_string()
    } else {
        let mut blocks = Vec::new();
        for pass in 0..query.n - 1 {
            for u in 1..query.n - pass {
                let v = u + 1;
                blocks.push(format!(
                    "mov s1 r{u}; cmp r{u} r{v}; cmovg r{u} r{v}; cmovg r{v} s1"
                ));
            }
        }
        blocks.join("; ")
    };
    CacheEntry {
        query,
        program: machine.parse_program(&text).unwrap(),
        minimal_certified: false,
        search_millis: millis,
        gate_checksum: None,
    }
}

fn passes_gate(entry: &CacheEntry) -> bool {
    entry.query.is_valid() && sortsynth_verify::gate(&entry.query.machine(), &entry.program).is_ok()
}

/// The durable cache before the log directory, rebuilt from public parts.
struct Reference {
    dir: PathBuf,
    lru: ShardedLru,
    file: File,
    stats: CacheStats,
}

impl Reference {
    fn open(dir: &Path) -> Self {
        let (mut entries, mut load) = disk::load(dir).unwrap();
        let intact = entries.len();
        let mut skipped = 0;
        entries.retain(|e| {
            if e.gate_stamp_valid() {
                skipped += 1;
                return true;
            }
            passes_gate(e)
        });
        load.verify_rejected = (intact - entries.len()) as u64;
        load.verify_skipped = skipped;
        if load.rejected_tail || load.verify_rejected > 0 {
            disk::rewrite_atomic(dir, entries.iter()).unwrap();
        }
        let lru = ShardedLru::new(CAPACITY);
        for entry in entries {
            lru.insert(Arc::new(entry));
        }
        Reference {
            dir: dir.to_path_buf(),
            lru,
            file: disk::open_for_append(dir).unwrap(),
            stats: CacheStats {
                load,
                ..CacheStats::default()
            },
        }
    }

    fn get(&mut self, query: &KernelQuery) -> Option<CacheEntry> {
        if let Some(entry) = self.lru.get(query.fingerprint()) {
            if entry.query == *query {
                self.stats.memory_hits += 1;
                return Some((*entry).clone());
            }
        }
        let (entries, _) = disk::load(&self.dir).unwrap();
        if let Some(entry) = entries.into_iter().rev().find(|e| e.query == *query) {
            let stamped = entry.gate_stamp_valid();
            if stamped {
                self.stats.verify_skipped += 1;
            }
            if stamped || passes_gate(&entry) {
                self.lru.insert(Arc::new(entry.clone()));
                self.stats.disk_hits += 1;
                return Some(entry);
            }
            self.stats.verify_rejected += 1;
        }
        self.stats.misses += 1;
        None
    }

    fn insert(&mut self, mut entry: CacheEntry) -> bool {
        if !passes_gate(&entry) {
            self.stats.verify_rejected += 1;
            return false;
        }
        entry.gate_checksum = Some(entry.expected_gate_checksum());
        disk::append(&mut self.file, &entry).unwrap();
        self.lru.insert(Arc::new(entry));
        self.stats.insertions += 1;
        true
    }

    fn compact(&mut self) {
        let (entries, _) = disk::load(&self.dir).unwrap();
        let mut deduped: Vec<CacheEntry> = Vec::new();
        for entry in entries {
            if let Some(slot) = deduped
                .iter_mut()
                .find(|e| e.fingerprint() == entry.fingerprint())
            {
                *slot = entry;
            } else {
                deduped.push(entry);
            }
        }
        disk::rewrite_atomic(&self.dir, deduped.iter()).unwrap();
        self.file = disk::open_for_append(&self.dir).unwrap();
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            evictions: self.lru.evictions(),
            ..self.stats
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Insert a version of a pool query (a refuted kernel when `bogus`).
    Insert {
        k: usize,
        millis: u64,
        bogus: bool,
    },
    Get {
        k: usize,
    },
    Compact,
    Reopen,
    /// Append a frame through a second handle, as another process would.
    Foreign {
        k: usize,
        millis: u64,
        bogus: bool,
        stamped: bool,
    },
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..20, 0..QUERIES, 0u64..1000, any::<bool>()).prop_map(
        |(kind, k, millis, flag)| match kind {
            0..=4 => Op::Insert {
                k,
                millis,
                bogus: kind == 0 && flag,
            },
            5..=13 => Op::Get { k },
            14 => Op::Compact,
            15 => Op::Reopen,
            _ => Op::Foreign {
                k,
                millis,
                bogus: kind == 16 && flag,
                stamped: flag,
            },
        },
    )
}

fn fresh_dir(side: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sskc-diff-{side}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn foreign_append(dir: &Path, entry: &CacheEntry) {
    let mut file = disk::open_for_append(dir).unwrap();
    disk::append(&mut file, entry).unwrap();
}

fn run(ops: &[Op]) {
    let (cache_dir, reference_dir) = (fresh_dir("cache"), fresh_dir("ref"));
    let mut cache = KernelCache::open(&cache_dir, CAPACITY).unwrap();
    let mut reference = Reference::open(&reference_dir);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert { k, millis, bogus } => {
                let got = cache.insert(entry(k, millis, bogus)).is_ok();
                assert_eq!(
                    got,
                    reference.insert(entry(k, millis, bogus)),
                    "step {step}: {op:?}"
                );
            }
            Op::Get { k } => {
                let got = cache.get(&query(k)).map(|e| (*e).clone());
                assert_eq!(got, reference.get(&query(k)), "step {step}: {op:?}");
            }
            Op::Compact => {
                cache.compact().unwrap();
                reference.compact();
            }
            Op::Reopen => {
                drop(cache);
                cache = KernelCache::open(&cache_dir, CAPACITY).unwrap();
                reference = Reference::open(&reference_dir);
            }
            Op::Foreign {
                k,
                millis,
                bogus,
                stamped,
            } => {
                let mut frame = entry(k, millis, bogus);
                if stamped {
                    frame.gate_checksum = Some(frame.expected_gate_checksum());
                }
                foreign_append(&cache_dir, &frame);
                foreign_append(&reference_dir, &frame);
            }
        }
        assert_eq!(
            cache.stats(),
            reference.stats(),
            "stats after step {step}: {op:?}"
        );
    }
    drop(cache);
    fs::remove_dir_all(&cache_dir).unwrap();
    fs::remove_dir_all(&reference_dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn directory_serves_what_a_full_rescan_serves(ops in prop::collection::vec(op(), 1..80)) {
        run(&ops);
    }
}

#[test]
fn foreign_appends_after_open_are_served() {
    let ops: Vec<Op> = (0..QUERIES)
        .map(|k| Op::Foreign {
            k,
            millis: k as u64,
            bogus: false,
            stamped: k % 2 == 0,
        })
        .chain((0..QUERIES).map(|k| Op::Get { k }))
        .collect();
    run(&ops);
}
