//! The on-disk kernel log: an append-friendly sequence of checksummed,
//! self-delimiting entries behind a versioned header.
//!
//! # Format
//!
//! ```text
//! header:  "SSKCACHE"  (8 bytes magic)
//!          version     (u32 LE, currently 1)
//! entry*:  fingerprint (u64 LE — the KernelQuery fingerprint)
//!          payload_len (u32 LE)
//!          checksum    (u64 LE — FNV-1a of the payload bytes)
//!          payload     (payload_len bytes of canonical CacheEntry JSON)
//! ```
//!
//! Inserts append a single framed entry (one `write_all` + flush), so the
//! common path never rewrites the file. Recovery reads entries until the
//! first frame that is short, oversized, checksum-mismatched, or
//! unparsable, and treats everything from that point on as lost — the
//! standard write-ahead-log discipline: a torn tail from a crash costs the
//! tail, never the prefix. [`rewrite_atomic`] (used by compaction and
//! corruption repair) builds the file aside and renames it into place so
//! readers never observe a half-written store.
//!
//! [`load_with_offsets`] and [`rewrite_atomic`] report where each frame
//! starts, and [`read_frame_at`] reads one frame back by offset under the
//! same checks as recovery: that is what the cache's log directory is built
//! from and answers lookups with.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::entry::CacheEntry;
use crate::query::fnv1a;

/// File magic. Eight bytes so the header is naturally aligned.
pub const MAGIC: &[u8; 8] = b"SSKCACHE";
/// Current format version. Bumping it invalidates every existing store.
pub const VERSION: u32 = 1;
/// Hard cap on a single entry payload; anything larger is corruption.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;
/// Name of the log file inside a cache directory.
pub const LOG_FILE: &str = "kernels.sskc";
/// Bytes of header (magic plus version) before the first frame.
pub const HEADER_LEN: u64 = 12;

/// What [`load`] found on disk.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Entries recovered intact.
    pub loaded: u64,
    /// Bytes of log discarded as corrupt or torn (0 on a clean load).
    pub lost_bytes: u64,
    /// Whether a corrupt/torn tail (or a bad header) was encountered.
    pub rejected_tail: bool,
    /// Whether the header was missing/foreign/old-version, invalidating the
    /// whole file.
    pub invalidated: bool,
    /// Intact frames refused by the static-verification gate on open
    /// (malformed for their own query's machine, or refuted on a 0-1
    /// input). Set by [`crate::KernelCache::open`], not by [`load`] — the
    /// disk layer only validates framing.
    pub verify_rejected: u64,
    /// Intact frames whose gate stamp round-tripped valid, letting recovery
    /// skip gate re-analysis. Set by [`crate::KernelCache::open`], not by
    /// [`load`].
    pub verify_skipped: u64,
}

/// The log file inside `dir`.
pub fn log_path(dir: &Path) -> PathBuf {
    dir.join(LOG_FILE)
}

fn read_exact_or_eof(file: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(io::Error::new(ErrorKind::UnexpectedEof, "torn frame"))
                }
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// What [`read_frame`] found at the reader's position.
enum Frame {
    /// An intact frame and its length in bytes.
    Intact(CacheEntry, u64),
    /// A clean end of file.
    End,
    /// A frame that is short, oversized, checksum-mismatched, unparsable, or
    /// filed under a fingerprint that disagrees with its own payload.
    Bad,
}

/// Reads and validates one frame. Every check recovery applies lives here,
/// so a frame read back by offset passes exactly the checks [`load`] does.
fn read_frame(reader: &mut impl Read) -> Frame {
    let mut header = [0u8; 20];
    match read_exact_or_eof(reader, &mut header) {
        Ok(false) => return Frame::End,
        Ok(true) => {}
        Err(_) => return Frame::Bad,
    }
    let fingerprint = u64::from_le_bytes(header[0..8].try_into().unwrap());
    let payload_len = u32::from_le_bytes(header[8..12].try_into().unwrap());
    let checksum = u64::from_le_bytes(header[12..20].try_into().unwrap());
    if payload_len > MAX_PAYLOAD {
        return Frame::Bad;
    }
    let mut payload = vec![0u8; payload_len as usize];
    if !matches!(read_exact_or_eof(reader, &mut payload), Ok(true)) {
        return Frame::Bad;
    }
    if fnv1a(&payload) != checksum {
        return Frame::Bad;
    }
    let Ok(entry) = CacheEntry::from_payload(&payload) else {
        return Frame::Bad;
    };
    // A frame whose fingerprint disagrees with its own payload is as
    // corrupt as a bad checksum.
    if entry.fingerprint() != fingerprint {
        return Frame::Bad;
    }
    Frame::Intact(entry, (header.len() + payload.len()) as u64)
}

/// Where each frame of a log starts, and where the last intact frame ends.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FrameOffsets {
    /// Byte offset of each intact frame, in log order.
    pub starts: Vec<u64>,
    /// End of the intact prefix: the header's end for a log without
    /// frames, 0 when there is no usable header.
    pub end: u64,
}

/// Loads every intact entry from the log in `dir`. Missing file is an empty,
/// clean load. A bad header invalidates the file; a bad entry truncates the
/// logical log at that entry.
pub fn load(dir: &Path) -> io::Result<(Vec<CacheEntry>, LoadReport)> {
    let (entries, _, report) = load_with_offsets(dir)?;
    Ok((entries, report))
}

/// [`load`], also returning where each intact frame starts and where the
/// intact prefix ends.
pub fn load_with_offsets(dir: &Path) -> io::Result<(Vec<CacheEntry>, FrameOffsets, LoadReport)> {
    let path = log_path(dir);
    let mut report = LoadReport::default();
    let mut offsets = FrameOffsets::default();
    let file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok((Vec::new(), offsets, report)),
        Err(e) => return Err(e),
    };
    let total = file.metadata()?.len();
    let mut reader = BufReader::new(file);

    let mut header = [0u8; HEADER_LEN as usize];
    if !matches!(read_exact_or_eof(&mut reader, &mut header), Ok(true))
        || &header[..8] != MAGIC
        || u32::from_le_bytes(header[8..12].try_into().unwrap()) != VERSION
    {
        report.invalidated = true;
        report.rejected_tail = true;
        report.lost_bytes = total;
        return Ok((Vec::new(), offsets, report));
    }

    let mut entries = Vec::new();
    offsets.end = HEADER_LEN;
    loop {
        match read_frame(&mut reader) {
            Frame::End => break,
            Frame::Bad => {
                report.rejected_tail = true;
                break;
            }
            Frame::Intact(entry, len) => {
                offsets.starts.push(offsets.end);
                offsets.end += len;
                entries.push(entry);
                report.loaded += 1;
            }
        }
    }
    report.lost_bytes = total.saturating_sub(offsets.end);
    Ok((entries, offsets, report))
}

/// Reads back the frame starting at `offset`, applying every check [`load`]
/// applies, and returns its entry with the offset where the next frame
/// starts. `None` when the frame fails any check or lies past the end.
pub fn read_frame_at(file: &File, offset: u64) -> Option<(CacheEntry, u64)> {
    let mut file = file;
    file.seek(SeekFrom::Start(offset)).ok()?;
    match read_frame(&mut BufReader::new(file)) {
        Frame::Intact(entry, len) => Some((entry, offset + len)),
        Frame::End | Frame::Bad => None,
    }
}

fn encode_entry(entry: &CacheEntry, out: &mut Vec<u8>) {
    let payload = entry.to_payload();
    out.extend_from_slice(&entry.fingerprint().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Opens the log for appending, writing a fresh header if the file is new.
pub fn open_for_append(dir: &Path) -> io::Result<File> {
    fs::create_dir_all(dir)?;
    let path = log_path(dir);
    let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
    if file.metadata()?.len() == 0 {
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        file.write_all(&header)?;
        file.flush()?;
    }
    Ok(file)
}

/// Appends one framed entry and returns its length in bytes. The frame is
/// assembled in memory and written with a single `write_all`, so a crash
/// can tear at most the final frame — which recovery then drops.
pub fn append(file: &mut File, entry: &CacheEntry) -> io::Result<u64> {
    let mut buf = Vec::new();
    encode_entry(entry, &mut buf);
    file.write_all(&buf)?;
    file.flush()?;
    Ok(buf.len() as u64)
}

/// Rewrites the whole log atomically: serialize to `<log>.tmp`, fsync, then
/// rename over the live file. Used for compaction and to repair a store
/// whose tail was rejected. Returns where each written frame starts.
pub fn rewrite_atomic<'a>(
    dir: &Path,
    entries: impl IntoIterator<Item = &'a CacheEntry>,
) -> io::Result<FrameOffsets> {
    fs::create_dir_all(dir)?;
    let path = log_path(dir);
    let tmp = path.with_extension("sskc.tmp");
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    let mut starts = Vec::new();
    for entry in entries {
        starts.push(buf.len() as u64);
        encode_entry(entry, &mut buf);
    }
    let mut file = File::create(&tmp)?;
    file.write_all(&buf)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, &path)?;
    Ok(FrameOffsets {
        starts,
        end: buf.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::KernelQuery;
    use sortsynth_isa::{IsaMode, Machine};

    fn entry(n: u8) -> CacheEntry {
        let machine = Machine::new(n, 1, IsaMode::Cmov);
        let program = machine.parse_program("mov s1 r1").unwrap();
        CacheEntry {
            query: KernelQuery::best(n, 1, IsaMode::Cmov),
            program,
            minimal_certified: false,
            search_millis: 1,
            gate_checksum: None,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sskc-disk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_then_load_round_trips() {
        let dir = tmp_dir("rt");
        let mut file = open_for_append(&dir).unwrap();
        append(&mut file, &entry(2)).unwrap();
        append(&mut file, &entry(3)).unwrap();
        drop(file);
        let (entries, report) = load(&dir).unwrap();
        assert_eq!(entries, vec![entry(2), entry(3)]);
        assert_eq!(report.loaded, 2);
        assert!(!report.rejected_tail && report.lost_bytes == 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_keeps_prefix() {
        let dir = tmp_dir("trunc");
        let mut file = open_for_append(&dir).unwrap();
        append(&mut file, &entry(2)).unwrap();
        append(&mut file, &entry(3)).unwrap();
        drop(file);
        let path = log_path(&dir);
        let len = fs::metadata(&path).unwrap().len();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..len as usize - 5]).unwrap();
        let (entries, report) = load(&dir).unwrap();
        assert_eq!(entries, vec![entry(2)]);
        assert!(report.rejected_tail);
        assert!(report.lost_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_detected_by_checksum() {
        let dir = tmp_dir("flip");
        let mut file = open_for_append(&dir).unwrap();
        append(&mut file, &entry(2)).unwrap();
        drop(file);
        let path = log_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (entries, report) = load(&dir).unwrap();
        assert!(entries.is_empty());
        assert!(report.rejected_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_bump_invalidates() {
        let dir = tmp_dir("ver");
        let mut file = open_for_append(&dir).unwrap();
        append(&mut file, &entry(2)).unwrap();
        drop(file);
        let path = log_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 0xFF; // version LSB
        fs::write(&path, &bytes).unwrap();
        let (entries, report) = load(&dir).unwrap();
        assert!(entries.is_empty());
        assert!(report.invalidated);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frames_read_back_by_offset() {
        let dir = tmp_dir("offsets");
        let mut file = open_for_append(&dir).unwrap();
        let first = append(&mut file, &entry(2)).unwrap();
        let second = append(&mut file, &entry(3)).unwrap();
        drop(file);
        let (_, offsets, _) = load_with_offsets(&dir).unwrap();
        let end = HEADER_LEN + first + second;
        assert_eq!(offsets.starts, vec![HEADER_LEN, HEADER_LEN + first]);
        assert_eq!(offsets.end, end);
        let reader = File::open(log_path(&dir)).unwrap();
        assert_eq!(
            read_frame_at(&reader, offsets.starts[1]),
            Some((entry(3), end))
        );
        assert_eq!(read_frame_at(&reader, HEADER_LEN + 1), None, "mid-frame");
        assert_eq!(read_frame_at(&reader, end), None, "past the last frame");
        assert_eq!(
            rewrite_atomic(&dir, [&entry(2), &entry(3)]).unwrap(),
            offsets
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_atomic_replaces_contents() {
        let dir = tmp_dir("rw");
        let mut file = open_for_append(&dir).unwrap();
        append(&mut file, &entry(2)).unwrap();
        drop(file);
        rewrite_atomic(&dir, [&entry(3), &entry(4)]).unwrap();
        let (entries, report) = load(&dir).unwrap();
        assert_eq!(entries, vec![entry(3), entry(4)]);
        assert_eq!(report.loaded, 2);
        assert!(!log_path(&dir).with_extension("sskc.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
