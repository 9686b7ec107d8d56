//! `sortsynth_cache_disk_promotion_seconds` times reading frames back from
//! the log, so lookups the directory rules out must not observe it.
//!
//! The metrics registry is process-wide, which is why this check has a test
//! binary of its own.

use std::fs;

use sortsynth_cache::{disk, CacheEntry, KernelCache, KernelQuery};
use sortsynth_isa::{IsaMode, Machine};
use sortsynth_obs::names;

fn entry(max_len: u32) -> CacheEntry {
    let machine = Machine::new(2, 1, IsaMode::Cmov);
    let mut entry = CacheEntry {
        query: KernelQuery {
            max_len: Some(max_len),
            ..KernelQuery::best(2, 1, IsaMode::Cmov)
        },
        program: machine
            .parse_program("mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1")
            .unwrap(),
        minimal_certified: false,
        search_millis: 1,
        gate_checksum: None,
    };
    entry.gate_checksum = Some(entry.expected_gate_checksum());
    entry
}

#[test]
fn fresh_misses_read_no_frames() {
    let dir = std::env::temp_dir().join(format!("sskc-promotion-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let frames: Vec<CacheEntry> = (0..5_000).map(entry).collect();
    disk::rewrite_atomic(&dir, frames.iter()).unwrap();
    let cache = KernelCache::open(&dir, 4096).unwrap();
    let histogram = names::cache_disk_promotion_seconds();

    let before = histogram.count();
    for max_len in 5_000..6_000 {
        assert!(cache.get(&entry(max_len).query).is_none());
    }
    assert_eq!(cache.stats().misses, 1_000);
    assert_eq!(histogram.count(), before, "a fresh miss read a frame");

    // A frame appended behind the cache is read back on its first lookup.
    let mut other = disk::open_for_append(&dir).unwrap();
    disk::append(&mut other, &entry(6_000)).unwrap();
    assert!(cache.get(&entry(6_000).query).is_some());
    assert_eq!(histogram.count(), before + 1);
    fs::remove_dir_all(&dir).unwrap();
}
