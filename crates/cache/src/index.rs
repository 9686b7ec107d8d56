//! The log directory: where each frame of the durable log starts, filed
//! under a tag of its query fingerprint.
//!
//! A memory-front miss must learn whether the log holds the query. The
//! directory answers that without reading the log: it keeps one `u64` per
//! frame, the top 24 bits of the frame's fingerprint (its tag) above its
//! 40-bit byte offset. Slots are a sorted array followed by an unsorted tail
//! of at most [`TAIL_CAP`] appends, which is sorted and merged into the
//! array in place when full. A lookup binary-searches the array for the tag,
//! scans the tail, and returns the matching offsets newest first.
//!
//! A tag is a filing hint, not an identity: distinct queries may share one,
//! so every candidate is read back and checked by the caller. Nothing about
//! correctness rests on the directory; a wrong or stale slot costs one
//! rejected frame read.

use std::io;

/// Bits of byte offset per slot: logs up to 1 TiB.
const OFFSET_BITS: u32 = 40;
/// Largest byte offset a slot can hold.
const MAX_OFFSET: u64 = (1 << OFFSET_BITS) - 1;
/// Appends kept unsorted before they are merged into the sorted array.
const TAIL_CAP: usize = 512;

/// The directory tag of a query fingerprint.
pub(crate) fn tag(fingerprint: u64) -> u64 {
    fingerprint >> OFFSET_BITS
}

/// The slot for a frame, or an error when its offset does not fit.
pub(crate) fn slot(fingerprint: u64, offset: u64) -> io::Result<u64> {
    if offset > MAX_OFFSET {
        return Err(io::Error::new(
            io::ErrorKind::FileTooLarge,
            format!("log offset {offset} exceeds the directory's {OFFSET_BITS}-bit range"),
        ));
    }
    Ok(tag(fingerprint) << OFFSET_BITS | offset)
}

/// Frame offsets of the durable log, filed by fingerprint tag.
#[derive(Default)]
pub(crate) struct Directory {
    /// `slots[..sorted]` ascending, then the unsorted tail.
    slots: Vec<u64>,
    sorted: usize,
}

impl Directory {
    /// A directory over `(fingerprint, offset)` frames.
    pub(crate) fn build(frames: impl ExactSizeIterator<Item = (u64, u64)>) -> io::Result<Self> {
        let mut slots = Vec::with_capacity(frames.len());
        for (fingerprint, offset) in frames {
            slots.push(slot(fingerprint, offset)?);
        }
        slots.sort_unstable();
        Ok(Directory {
            sorted: slots.len(),
            slots,
        })
    }

    /// Files one frame's slot (from [`slot`]).
    pub(crate) fn push(&mut self, slot: u64) {
        self.slots.push(slot);
        if self.slots.len() - self.sorted >= TAIL_CAP {
            self.merge_tail();
        }
    }

    /// Sorts the tail and merges it into the sorted array, from the back so
    /// that every slot moves once and no second array is allocated.
    fn merge_tail(&mut self) {
        let mut buf = [0u64; TAIL_CAP];
        let tail = &mut buf[..self.slots.len() - self.sorted];
        tail.copy_from_slice(&self.slots[self.sorted..]);
        tail.sort_unstable();
        let (mut i, mut j, mut w) = (self.sorted, tail.len(), self.slots.len());
        while j > 0 {
            w -= 1;
            if i > 0 && self.slots[i - 1] > tail[j - 1] {
                self.slots[w] = self.slots[i - 1];
                i -= 1;
            } else {
                self.slots[w] = tail[j - 1];
                j -= 1;
            }
        }
        self.sorted = self.slots.len();
    }

    /// Offsets of every frame whose fingerprint shares `fingerprint`'s tag,
    /// newest (highest offset) first.
    pub(crate) fn candidates(&self, fingerprint: u64) -> Vec<u64> {
        let tag = tag(fingerprint);
        let (sorted, tail) = self.slots.split_at(self.sorted);
        let lo = sorted.partition_point(|&s| s >> OFFSET_BITS < tag);
        let hi = lo + sorted[lo..].partition_point(|&s| s >> OFFSET_BITS == tag);
        let mut offsets: Vec<u64> = sorted[lo..hi]
            .iter()
            .chain(tail.iter().filter(|&&s| s >> OFFSET_BITS == tag))
            .map(|&s| s & MAX_OFFSET)
            .collect();
        offsets.sort_unstable_by(|a, b| b.cmp(a));
        offsets
    }

    /// Frames filed.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fingerprint with the given tag and arbitrary low bits.
    fn fp(tag: u64, low: u64) -> u64 {
        tag << OFFSET_BITS | (low & MAX_OFFSET)
    }

    #[test]
    fn candidates_are_newest_first_across_array_and_tail() {
        let mut dir =
            Directory::build([(fp(7, 1), 100), (fp(3, 2), 50), (fp(7, 3), 20)].into_iter())
                .unwrap();
        dir.push(slot(fp(7, 4), 300).unwrap());
        dir.push(slot(fp(9, 5), 400).unwrap());
        assert_eq!(dir.candidates(fp(7, 99)), vec![300, 100, 20]);
        assert_eq!(dir.candidates(fp(3, 0)), vec![50]);
        assert!(dir.candidates(fp(8, 0)).is_empty());
        assert_eq!(dir.len(), 5);
    }

    #[test]
    fn merging_the_tail_keeps_every_slot() {
        let mut dir = Directory::default();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut frames = Vec::new();
        for offset in 0..(3 * TAIL_CAP as u64 + 17) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Few distinct tags, so every tag has many frames.
            let fingerprint = fp(state % 5, state);
            frames.push((fingerprint, offset));
            dir.push(slot(fingerprint, offset).unwrap());
        }
        assert!(dir.slots[..dir.sorted].windows(2).all(|w| w[0] <= w[1]));
        assert!(dir.slots.len() - dir.sorted < TAIL_CAP);
        for t in 0..5 {
            let mut expected: Vec<u64> = frames
                .iter()
                .filter(|(f, _)| tag(*f) == t)
                .map(|&(_, o)| o)
                .collect();
            expected.reverse();
            assert_eq!(dir.candidates(fp(t, 0)), expected, "tag {t}");
        }
    }

    #[test]
    fn offsets_past_the_slot_range_are_an_error() {
        assert!(slot(u64::MAX, MAX_OFFSET).is_ok());
        let err = slot(0, MAX_OFFSET + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::FileTooLarge);
        assert!(Directory::build([(0, 1u64 << 41)].into_iter()).is_err());
    }
}
