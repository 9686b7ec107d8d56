//! Persistent, content-addressed kernel cache.
//!
//! Synthesizing a sorting kernel is expensive (seconds to hours as `n`
//! grows) while the result is tiny (tens of instructions), which makes the
//! synthesis service's workload ideal for a durable cache. This crate
//! provides:
//!
//! * [`KernelQuery`] — the canonical form of a synthesis request, with a
//!   64-bit content [fingerprint](KernelQuery::fingerprint) covering exactly
//!   the inputs that determine the answer (ISA, `n`, scratch count, length
//!   bound, and the non-optimality-preserving search toggles);
//! * [`CacheEntry`] — a solved query with its kernel and provenance;
//! * [`KernelCache`] — a sharded in-memory LRU front over an append-friendly
//!   on-disk log with per-entry checksums, crash-tolerant recovery, and
//!   atomic write-then-rename compaction (see [`disk`] for the format).
//!
//! # The log directory
//!
//! A memory-front miss must not cost a pass over the log: a service asks
//! for many kernels that are not cached yet. Next to its file handles, a
//! durable cache keeps a directory of the log with **one `u64` per frame**:
//! the top 24 bits of the frame's query fingerprint (its tag) above the
//! frame's 40-bit byte offset. It is a sorted array plus an unsorted tail of
//! at most 512 appends, merged in place, so it costs 8 bytes per frame and
//! a lookup is a binary search plus a scan of the tail.
//!
//! * **Candidates, newest first.** A lookup reads back the frames filed
//!   under the query's tag, newest first. The first one that passes every
//!   check recovery applies ([`disk::read_frame_at`]) and holds an equal
//!   query decides the lookup, through the gate-stamp or gate check. A tag
//!   shared with another query only costs a frame read; a frame corrupted
//!   after it was filed is skipped. No correctness property rests on the
//!   tag.
//! * **Catch-up.** Frames another process appends after open stay visible:
//!   each memory miss compares the file's length with the offset the
//!   directory has covered and files the new frames, each validated,
//!   stopping at the first bad one. A file that shrank is re-read in full.
//! * **Rebuilds.** Open, the open-time repair and [`KernelCache::compact`]
//!   rebuild the directory from the frame offsets they read or write, and
//!   re-open both handles.
//! * **Cost.** A miss the directory rules out costs one `stat` of the log
//!   and a binary search; it reads no frame. A log past 2^40 bytes refuses
//!   further inserts with [`io::ErrorKind::FileTooLarge`].
//!
//! Every kernel passes the static-verification gate
//! ([`sortsynth_verify::gate`]) before it can enter the cache: inserts,
//! recovery on open, and disk promotions all refuse programs that are
//! malformed for their query's machine or refuted on a 0-1 input. The gate
//! never rejects a correct kernel (the 0-1 check is necessary for
//! correctness on both ISAs), so a cache that only ever held genuine
//! synthesis results behaves identically — the gate exists to stop a
//! corrupted or hand-edited store from serving wrong kernels forever.
//!
//! ```
//! use sortsynth_cache::{CacheEntry, KernelCache, KernelQuery};
//! use sortsynth_isa::{IsaMode, Machine};
//!
//! let cache = KernelCache::in_memory(64);
//! let query = KernelQuery::best(2, 1, IsaMode::Cmov);
//! assert!(cache.get(&query).is_none());
//!
//! let machine = Machine::new(2, 1, IsaMode::Cmov);
//! let program = machine
//!     .parse_program("mov s1 r2; cmp r1 r2; cmovg r2 r1; cmovg r1 s1")
//!     .unwrap();
//! cache
//!     .insert(CacheEntry { query: query.clone(), program, minimal_certified: true, search_millis: 5, gate_checksum: None })
//!     .unwrap();
//! assert_eq!(cache.get(&query).unwrap().program.len(), 4);
//! ```

pub mod disk;
mod entry;
mod index;
mod memory;
mod query;

use std::collections::hash_map::{Entry, HashMap};
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use sortsynth_obs::names;

use disk::FrameOffsets;
use index::Directory;

pub use disk::{LoadReport, LOG_FILE, VERSION};
pub use entry::CacheEntry;
pub use memory::ShardedLru;
pub use query::{fnv1a, CutSpec, KernelQuery};

/// Counters describing cache behaviour since open.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the in-memory front.
    pub memory_hits: u64,
    /// Lookups answered from the disk log, found through its directory,
    /// after a memory miss.
    pub disk_hits: u64,
    /// Lookups answered by neither.
    pub misses: u64,
    /// Entries inserted since open.
    pub insertions: u64,
    /// Entries evicted from the memory front (still on disk).
    pub evictions: u64,
    /// Entries refused by the static-verification gate since open
    /// (rejected inserts plus disk hits that failed re-verification).
    /// Open-time rejections are reported separately in
    /// [`LoadReport::verify_rejected`].
    pub verify_rejected: u64,
    /// Disk-hit promotions that skipped gate re-analysis because the record
    /// round-tripped with a valid gate stamp. Open-time skips are reported
    /// separately in [`LoadReport::verify_skipped`].
    pub verify_skipped: u64,
    /// What recovery found when the store was opened.
    pub load: LoadReport,
}

#[derive(Default)]
struct Counters {
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    verify_rejected: AtomicU64,
    verify_skipped: AtomicU64,
}

/// Mirrors one cache counter increment into the process-wide metrics
/// registry (so `sortsynth serve` exposes live cache efficacy without
/// polling [`KernelCache::stats`]).
fn obs_inc(name: &str, help: &str) {
    sortsynth_obs::registry().counter(name, help).inc();
}

/// Why the static-verification gate refused an entry.
fn gate_error(entry: &CacheEntry) -> Option<String> {
    if !entry.query.is_valid() {
        return Some(format!(
            "query n={} scratch={} out of range",
            entry.query.n, entry.query.scratch
        ));
    }
    sortsynth_verify::gate(&entry.query.machine(), &entry.program)
        .err()
        .map(|e| e.to_string())
}

/// The open log file and the directory over its frames. Kept behind one
/// mutex, so concurrent inserts can't interleave frames and a lookup never
/// reads a half-written one.
struct Log {
    /// The cache directory holding the log file.
    dir: PathBuf,
    /// Append handle.
    writer: File,
    /// Read handle; frame reads seek it.
    reader: File,
    /// Where each indexed frame starts, filed by fingerprint tag.
    directory: Directory,
    /// Every intact frame before this offset is in the directory. Frames
    /// from here on were appended by another process (or stop at a torn
    /// frame) and are indexed on the next look.
    end: u64,
}

impl Log {
    /// Opens both handles on the log in `dir`, whose frames hold `entries`
    /// at `offsets`.
    fn open(dir: &Path, entries: &[CacheEntry], offsets: FrameOffsets) -> io::Result<Self> {
        debug_assert_eq!(entries.len(), offsets.starts.len());
        let writer = disk::open_for_append(dir)?;
        let reader = File::open(disk::log_path(dir))?;
        let directory = Directory::build(
            entries
                .iter()
                .map(CacheEntry::fingerprint)
                .zip(offsets.starts),
        )?;
        Ok(Log {
            dir: dir.to_path_buf(),
            writer,
            reader,
            directory,
            // A log that had no header has one now (`open_for_append`
            // writes it), and frames only ever start after it.
            end: offsets.end.max(disk::HEADER_LEN),
        })
    }

    /// Brings the directory up to the log file as it is now and returns
    /// the file's length. Frames appended since the last look are indexed,
    /// each validated, stopping at the first bad one; a file that shrank
    /// (truncated, or replaced by another process's compaction) is re-read
    /// in full.
    fn refresh(&mut self) -> io::Result<u64> {
        let len = match fs::metadata(disk::log_path(&self.dir)) {
            Ok(meta) => meta.len(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e),
        };
        if len < self.end {
            let (entries, offsets, _) = disk::load_with_offsets(&self.dir)?;
            *self = Log::open(&self.dir, &entries, offsets)?;
            return Ok(self.writer.metadata()?.len());
        }
        while self.end < len {
            let Some((entry, next)) = disk::read_frame_at(&self.reader, self.end) else {
                break;
            };
            self.directory
                .push(index::slot(entry.fingerprint(), self.end)?);
            self.end = next;
        }
        Ok(len)
    }

    /// The newest intact frame holding `query` (whose fingerprint is
    /// `fingerprint`), if the log has one. Candidates sharing only the
    /// directory tag are read and skipped.
    fn find(&mut self, query: &KernelQuery, fingerprint: u64) -> Option<CacheEntry> {
        self.refresh().ok()?;
        let candidates = self.directory.candidates(fingerprint);
        if candidates.is_empty() {
            return None;
        }
        let read_start = Instant::now();
        let found = candidates.into_iter().find_map(|offset| {
            disk::read_frame_at(&self.reader, offset)
                .map(|(entry, _)| entry)
                .filter(|entry| entry.query == *query)
        });
        names::cache_disk_promotion_seconds().observe_duration(read_start.elapsed());
        found
    }

    /// Appends `entry` and files it in the directory.
    fn append(&mut self, entry: &CacheEntry) -> io::Result<()> {
        let offset = self.refresh()?;
        // Checked before writing, so an over-long log refuses the frame
        // rather than holding one the directory cannot file.
        let slot = index::slot(entry.fingerprint(), offset)?;
        let written = disk::append(&mut self.writer, entry)?;
        let after = self.writer.metadata()?.len();
        // Filed here only when the file grew by exactly this frame, so it
        // sits at `offset`. If another process appended around the write,
        // the next refresh files both frames in log order instead.
        if after == offset + written {
            self.directory.push(slot);
            if self.end == offset {
                self.end = after;
            }
        }
        Ok(())
    }
}

/// The kernel cache: LRU front, optional durable log behind it.
pub struct KernelCache {
    lru: ShardedLru,
    store: Option<Mutex<Log>>,
    counters: Counters,
    load: LoadReport,
}

impl KernelCache {
    /// A purely in-memory cache holding at most `capacity` entries.
    pub fn in_memory(capacity: usize) -> Self {
        KernelCache {
            lru: ShardedLru::new(capacity),
            store: None,
            counters: Counters::default(),
            load: LoadReport::default(),
        }
    }

    /// Opens (creating if needed) the durable cache in `dir`, recovering
    /// every intact entry into the memory front.
    ///
    /// If recovery rejected a corrupt or torn tail, the log is immediately
    /// compacted (atomic write-then-rename) so the corruption cannot be
    /// consulted again and subsequent appends don't extend a bad tail.
    /// Intact frames whose kernels fail the static-verification gate are
    /// dropped the same way (counted in [`LoadReport::verify_rejected`]).
    pub fn open(dir: impl AsRef<Path>, capacity: usize) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let (mut entries, mut offsets, mut load) = disk::load_with_offsets(&dir)?;
        let intact = entries.len();
        // A record whose gate stamp round-trips intact has already passed
        // this gate version for these exact bytes — the frame checksum rules
        // out torn writes and the stamp rules out hand edits, so re-running
        // the analysis would only reproduce the recorded verdict.
        let mut skipped = 0u64;
        entries.retain(|e| {
            if e.gate_stamp_valid() {
                skipped += 1;
                return true;
            }
            gate_error(e).is_none()
        });
        load.verify_rejected = (intact - entries.len()) as u64;
        load.verify_skipped = skipped;
        if skipped > 0 {
            sortsynth_obs::registry()
                .counter(
                    names::VERIFY_GATE_SKIPPED_TOTAL,
                    "Gate re-analyses skipped via a valid gate stamp.",
                )
                .add(skipped);
        }
        if load.rejected_tail || load.verify_rejected > 0 {
            offsets = disk::rewrite_atomic(&dir, entries.iter())?;
        }
        let log = Log::open(&dir, &entries, offsets)?;
        let lru = ShardedLru::new(capacity);
        for entry in entries {
            lru.insert(Arc::new(entry));
        }
        Ok(KernelCache {
            lru,
            store: Some(Mutex::new(log)),
            counters: Counters::default(),
            load,
        })
    }

    /// Looks up a query: memory front first, then (on miss, for durable
    /// caches whose front may have evicted) the log directory, reading only
    /// the frames it files under the query's tag. Disk hits are promoted
    /// back into the front. Fingerprint and tag collisions are ruled out by
    /// comparing the stored query for equality.
    pub fn get(&self, query: &KernelQuery) -> Option<Arc<CacheEntry>> {
        let fingerprint = query.fingerprint();
        if let Some(entry) = self.lru.get(fingerprint) {
            if entry.query == *query {
                self.counters.memory_hits.fetch_add(1, Ordering::Relaxed);
                obs_inc(names::CACHE_MEMORY_HITS_TOTAL, "In-memory cache hits.");
                return Some(entry);
            }
        }
        if let Some(store) = &self.store {
            // Held through promotion: a concurrent insert can't be
            // half-written under the read, and its newer entry can't be
            // overwritten in the front by an older one read here.
            let mut log = store.lock();
            if let Some(entry) = log.find(query, fingerprint) {
                // Re-verify before promotion: the log may have been
                // modified behind the append handle. A record whose gate
                // stamp still matches its bytes needs no re-analysis.
                let stamped = entry.gate_stamp_valid();
                if stamped {
                    self.counters.verify_skipped.fetch_add(1, Ordering::Relaxed);
                    obs_inc(
                        names::VERIFY_GATE_SKIPPED_TOTAL,
                        "Gate re-analyses skipped via a valid gate stamp.",
                    );
                }
                if stamped || gate_error(&entry).is_none() {
                    let entry = Arc::new(entry);
                    let evicted_before = self.lru.evictions();
                    self.lru.insert(Arc::clone(&entry));
                    self.note_evictions(evicted_before);
                    self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                    obs_inc(
                        names::CACHE_DISK_HITS_TOTAL,
                        "Disk-log hits promoted into memory.",
                    );
                    return Some(entry);
                }
                self.counters
                    .verify_rejected
                    .fetch_add(1, Ordering::Relaxed);
                obs_inc(
                    names::CACHE_VERIFY_REJECTED_TOTAL,
                    "Disk entries rejected by the verification gate.",
                );
            }
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        obs_inc(
            names::CACHE_MISSES_TOTAL,
            "Lookups that missed both cache tiers.",
        );
        None
    }

    /// Publishes LRU evictions that happened since `before` to the metrics
    /// registry (the local total lives in [`ShardedLru`] itself).
    fn note_evictions(&self, before: u64) {
        let evicted = self.lru.evictions() - before;
        if evicted > 0 {
            sortsynth_obs::registry()
                .counter(
                    names::CACHE_EVICTIONS_TOTAL,
                    "Entries evicted from the in-memory LRU.",
                )
                .add(evicted);
        }
    }

    /// Inserts an entry: appended to the log (durable caches) and published
    /// to the memory front. The entry is visible to other threads' `get` as
    /// soon as this returns.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] (without touching the log)
    /// when the kernel fails the static-verification gate: malformed for
    /// the query's machine, or refuted by a 0-1 input.
    pub fn insert(&self, mut entry: CacheEntry) -> io::Result<()> {
        // Inserts always run the gate — a caller-provided stamp is never
        // trusted as proof; only this cache stamps what it verified itself.
        if let Some(why) = gate_error(&entry) {
            self.counters
                .verify_rejected
                .fetch_add(1, Ordering::Relaxed);
            obs_inc(
                names::CACHE_VERIFY_REJECTED_TOTAL,
                "Disk entries rejected by the verification gate.",
            );
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("kernel refused by verification gate: {why}"),
            ));
        }
        entry.stamp_gate();
        let entry = Arc::new(entry);
        if let Some(store) = &self.store {
            store.lock().append(&entry)?;
        }
        let evicted_before = self.lru.evictions();
        self.lru.insert(entry);
        self.note_evictions(evicted_before);
        self.counters.insertions.fetch_add(1, Ordering::Relaxed);
        obs_inc(names::CACHE_INSERTIONS_TOTAL, "Cache entries inserted.");
        Ok(())
    }

    /// Rewrites the log atomically, deduplicating by fingerprint (latest
    /// entry wins). No-op for in-memory caches.
    pub fn compact(&self) -> io::Result<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let mut log = store.lock();
        let (entries, _) = disk::load(&log.dir)?;
        // Each fingerprint keeps the position of its first frame and the
        // content of its last.
        let mut position: HashMap<u64, usize> = HashMap::with_capacity(entries.len());
        let mut deduped: Vec<CacheEntry> = Vec::with_capacity(entries.len());
        for entry in entries {
            match position.entry(entry.fingerprint()) {
                Entry::Occupied(seen) => deduped[*seen.get()] = entry,
                Entry::Vacant(slot) => {
                    slot.insert(deduped.len());
                    deduped.push(entry);
                }
            }
        }
        let offsets = disk::rewrite_atomic(&log.dir, deduped.iter())?;
        *log = Log::open(&log.dir, &deduped, offsets)?;
        Ok(())
    }

    /// Entries resident in the memory front.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the memory front is empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Behaviour counters since open.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.counters.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            insertions: self.counters.insertions.load(Ordering::Relaxed),
            evictions: self.lru.evictions(),
            verify_rejected: self.counters.verify_rejected.load(Ordering::Relaxed),
            verify_skipped: self.counters.verify_skipped.load(Ordering::Relaxed),
            load: self.load,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_isa::{IsaMode, Machine};

    /// A correct (bubble-network, not minimal) kernel for each `n`, so test
    /// entries pass the verification gate.
    fn entry(n: u8) -> CacheEntry {
        let machine = Machine::new(n, 1, IsaMode::Cmov);
        let mut blocks = Vec::new();
        for pass in 0..n - 1 {
            for u in 1..n - pass {
                let v = u + 1;
                blocks.push(format!(
                    "mov s1 r{u}; cmp r{u} r{v}; cmovg r{u} r{v}; cmovg r{v} s1"
                ));
            }
        }
        CacheEntry {
            query: KernelQuery::best(n, 1, IsaMode::Cmov),
            program: machine.parse_program(&blocks.join("; ")).unwrap(),
            minimal_certified: false,
            search_millis: 3,
            gate_checksum: None,
        }
    }

    /// An entry whose kernel does not sort (refuted by the 0-1 gate).
    fn bogus_entry(n: u8) -> CacheEntry {
        let machine = Machine::new(n, 1, IsaMode::Cmov);
        CacheEntry {
            query: KernelQuery::best(n, 1, IsaMode::Cmov),
            program: machine.parse_program("mov s1 r1; mov r1 r2").unwrap(),
            minimal_certified: false,
            search_millis: 3,
            gate_checksum: None,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sskc-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn in_memory_hit_miss_counters() {
        let cache = KernelCache::in_memory(8);
        let e = entry(3);
        assert!(cache.get(&e.query).is_none());
        cache.insert(e.clone()).unwrap();
        assert!(cache.get(&e.query).is_some());
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.insertions, 1);
    }

    #[test]
    fn durable_cache_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let cache = KernelCache::open(&dir, 8).unwrap();
            cache.insert(entry(2)).unwrap();
            cache.insert(entry(3)).unwrap();
        }
        let cache = KernelCache::open(&dir, 8).unwrap();
        assert_eq!(cache.stats().load.loaded, 2);
        assert_eq!(cache.get(&entry(2).query).unwrap().program.len(), 4);
        assert!(cache.get(&entry(3).query).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insert_refuses_kernels_that_fail_the_gate() {
        let cache = KernelCache::in_memory(8);
        let bogus = bogus_entry(2);
        let err = cache.insert(bogus.clone()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(cache.get(&bogus.query).is_none());
        let stats = cache.stats();
        assert_eq!(stats.insertions, 0);
        assert_eq!(stats.verify_rejected, 1);
    }

    #[test]
    fn recovery_drops_refuted_entries_and_repairs_the_log() {
        let dir = tmp_dir("gate");
        {
            let cache = KernelCache::open(&dir, 8).unwrap();
            cache.insert(entry(2)).unwrap();
        }
        // Smuggle a refuted kernel past the gate by appending at the disk
        // layer directly (as a corrupted or hand-edited store would).
        {
            let mut file = disk::open_for_append(&dir).unwrap();
            disk::append(&mut file, &bogus_entry(3)).unwrap();
        }
        let cache = KernelCache::open(&dir, 8).unwrap();
        let load = cache.stats().load;
        assert_eq!(load.loaded, 2, "both frames were intact on disk");
        assert_eq!(load.verify_rejected, 1);
        assert!(cache.get(&entry(2).query).is_some());
        assert!(cache.get(&bogus_entry(3).query).is_none());
        drop(cache);
        // The rejected frame was compacted away, so the next open is clean.
        let reopened = KernelCache::open(&dir, 8).unwrap();
        assert_eq!(reopened.stats().load.loaded, 1);
        assert_eq!(reopened.stats().load.verify_rejected, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evicted_entries_still_served_from_disk() {
        let dir = tmp_dir("evict");
        // Capacity 1 → per-shard capacity 1; entries landing in the same
        // shard evict each other, but the log keeps both.
        let cache = KernelCache::open(&dir, 1).unwrap();
        for n in 2..=9u8 {
            cache.insert(entry(n)).unwrap();
        }
        for n in 2..=9u8 {
            assert!(cache.get(&entry(n).query).is_some(), "n = {n}");
        }
        let stats = cache.stats();
        assert_eq!(stats.memory_hits + stats.disk_hits, 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_dedups_and_preserves() {
        let dir = tmp_dir("compact");
        let cache = KernelCache::open(&dir, 8).unwrap();
        cache.insert(entry(2)).unwrap();
        cache.insert(entry(3)).unwrap();
        let mut updated = entry(2);
        updated.search_millis = 99;
        cache.insert(updated.clone()).unwrap();
        cache.compact().unwrap();
        // Post-compaction appends still work.
        cache.insert(entry(4)).unwrap();
        drop(cache);
        let reopened = KernelCache::open(&dir, 8).unwrap();
        assert_eq!(reopened.stats().load.loaded, 3);
        assert_eq!(reopened.get(&updated.query).unwrap().search_millis, 99);
        assert!(reopened.get(&entry(4).query).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `entry(n)` re-filed under a length bound, with a search time that
    /// tells versions apart, and stamped so recovery skips the gate.
    fn bounded(n: u8, max_len: u32, search_millis: u64) -> CacheEntry {
        let mut e = entry(n);
        e.query.max_len = Some(max_len);
        e.search_millis = search_millis;
        e.gate_checksum = Some(e.expected_gate_checksum());
        e
    }

    #[test]
    fn compaction_of_a_20000_frame_log_keeps_the_latest_of_each() {
        let dir = tmp_dir("compact-large");
        // 15,000 queries; the first 5,000 are written a second time.
        let frames: Vec<CacheEntry> = (0..15_000)
            .map(|k| bounded(2, k, 1))
            .chain((0..5_000).map(|k| bounded(2, k, 2)))
            .collect();
        disk::rewrite_atomic(&dir, frames.iter()).unwrap();
        let cache = KernelCache::open(&dir, 64).unwrap();
        cache.compact().unwrap();
        cache.insert(bounded(2, 20_000, 3)).unwrap();
        cache.insert(bounded(2, 7, 4)).unwrap();
        let expected = [
            (0, 2),
            (4_999, 2),
            (5_000, 1),
            (14_999, 1),
            (20_000, 3),
            (7, 4),
        ];
        for (max_len, millis) in expected {
            let got = cache.get(&bounded(2, max_len, 0).query).unwrap();
            assert_eq!(got.search_millis, millis, "max_len {max_len}");
        }
        assert!(cache.get(&bounded(2, 15_000, 0).query).is_none());
        drop(cache);
        let reopened = KernelCache::open(&dir, 64).unwrap();
        assert_eq!(reopened.stats().load.loaded, 15_002);
        for (max_len, millis) in expected {
            let got = reopened.get(&bounded(2, max_len, 0).query).unwrap();
            assert_eq!(got.search_millis, millis, "max_len {max_len} after reopen");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_frame_is_filed_once() {
        let dir = tmp_dir("filed-once");
        let cache = KernelCache::open(&dir, 8).unwrap();
        let filed = |cache: &KernelCache| {
            let log = cache.store.as_ref().unwrap().lock();
            let len = std::fs::metadata(disk::log_path(&dir)).unwrap().len();
            assert_eq!(log.end, len, "the directory covers the whole log");
            log.directory.len()
        };
        for n in 2..=4u8 {
            cache.insert(entry(n)).unwrap();
        }
        let mut other = disk::open_for_append(&dir).unwrap();
        disk::append(&mut other, &bounded(3, 1, 1)).unwrap();
        // The insert files the frame appended behind it, then its own.
        cache.insert(entry(5)).unwrap();
        assert!(cache.get(&bounded(3, 1, 0).query).is_some());
        assert_eq!(filed(&cache), 5);
        cache.insert(entry(2)).unwrap();
        assert_eq!(filed(&cache), 6);
        cache.compact().unwrap();
        assert_eq!(filed(&cache), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two queries whose fingerprints differ but share a directory tag,
    /// found by a birthday search over the length bound.
    fn tag_twins() -> (KernelQuery, KernelQuery) {
        let mut seen = std::collections::HashMap::new();
        for max_len in 0.. {
            let query = bounded(3, max_len, 0).query;
            if let Some(twin) = seen.insert(index::tag(query.fingerprint()), query.clone()) {
                return (twin, query);
            }
        }
        unreachable!("the length bounds outnumber the tags")
    }

    #[test]
    fn queries_sharing_a_directory_tag_are_told_apart() {
        let (a, b) = tag_twins();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let dir = tmp_dir("tag");
        let cache = KernelCache::open(&dir, 8).unwrap();
        // Appended behind the cache, as another process would, so neither
        // is in the memory front and every lookup goes through the
        // directory.
        let mut other = disk::open_for_append(&dir).unwrap();
        disk::append(&mut other, &bounded(3, a.max_len.unwrap(), 1)).unwrap();
        assert!(
            cache.get(&b).is_none(),
            "a match on the tag alone is a miss"
        );
        disk::append(&mut other, &bounded(3, b.max_len.unwrap(), 2)).unwrap();
        // `a`'s lookup reads `b`'s newer frame first and skips it.
        assert_eq!(cache.get(&a).unwrap().search_millis, 1);
        assert_eq!(cache.get(&b).unwrap().search_millis, 2);
        let stats = cache.stats();
        assert_eq!((stats.disk_hits, stats.misses), (2, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Opens a cache in a fresh `dir`, then appends `frames` behind it and
    /// looks up the last one, which files every frame in the directory
    /// while promoting only the last. Returns the cache and the offset of
    /// each frame.
    fn cache_over_foreign_frames(dir: &Path, frames: &[CacheEntry]) -> (KernelCache, Vec<u64>) {
        let cache = KernelCache::open(dir, 8).unwrap();
        let mut other = disk::open_for_append(dir).unwrap();
        let mut offsets = Vec::new();
        for frame in frames {
            offsets.push(other.metadata().unwrap().len());
            disk::append(&mut other, frame).unwrap();
        }
        assert!(cache.get(&frames.last().unwrap().query).is_some());
        (cache, offsets)
    }

    fn overwrite(dir: &Path, at: u64, bytes: &[u8]) {
        use std::io::{Seek, SeekFrom, Write};
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(disk::log_path(dir))
            .unwrap();
        file.seek(SeekFrom::Start(at)).unwrap();
        file.write_all(bytes).unwrap();
    }

    fn flip(dir: &Path, at: u64) {
        let bytes = std::fs::read(disk::log_path(dir)).unwrap();
        overwrite(dir, at, &[bytes[at as usize] ^ 0x40]);
    }

    #[test]
    fn frames_corrupted_in_place_after_open_are_never_served() {
        // Byte positions within a frame: fingerprint, payload length (low
        // and high byte), checksum, payload.
        for at in [0u64, 8, 11, 13, 40] {
            let dir = tmp_dir(&format!("corrupt-{at}"));
            let target = bounded(3, 1, 1);
            let (cache, offsets) = cache_over_foreign_frames(&dir, &[target.clone(), entry(2)]);
            flip(&dir, offsets[0] + at);
            assert!(cache.get(&target.query).is_none(), "byte {at}");
            drop(cache);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_corrupted_newest_frame_falls_back_to_an_older_intact_one() {
        let dir = tmp_dir("corrupt-newest");
        let (older, newer) = (bounded(3, 1, 1), bounded(3, 1, 2));
        let (cache, offsets) = cache_over_foreign_frames(&dir, &[older.clone(), newer, entry(2)]);
        flip(&dir, offsets[1] + 40);
        assert_eq!(*cache.get(&older.query).unwrap(), older);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_frame_rewritten_in_place_with_a_refuted_kernel_is_re_gated() {
        let dir = tmp_dir("rewritten");
        let target = entry(3);
        let (cache, offsets) = cache_over_foreign_frames(&dir, &[target.clone(), entry(2)]);
        // A well-formed frame (valid checksum and fingerprint) for the same
        // query whose kernel does not sort, shorter than the frame it
        // overwrites.
        let scratch = tmp_dir("rewritten-frame");
        let mut file = disk::open_for_append(&scratch).unwrap();
        disk::append(&mut file, &bogus_entry(3)).unwrap();
        let bogus =
            std::fs::read(disk::log_path(&scratch)).unwrap()[disk::HEADER_LEN as usize..].to_vec();
        assert!(bogus.len() as u64 <= offsets[1] - offsets[0]);
        overwrite(&dir, offsets[0], &bogus);
        assert!(cache.get(&target.query).is_none());
        assert_eq!(cache.stats().verify_rejected, 1);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
