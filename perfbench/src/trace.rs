//! The traced replay: each request's stages re-run in process through the
//! public functions of `service`, `cache`, `search` and `verify`, timed
//! from outside, with spans kept in memory and written when the run ends.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use sortsynth_cache::{CacheEntry, KernelCache, KernelQuery};
use sortsynth_isa::Program;
use sortsynth_search::SearchStats;
use sortsynth_service::proto::{read_message, write_message};
use sortsynth_service::{Request, Response};
use sortsynth_verify::{gate_detail, GatePath};

use crate::service::{synthesize_query, CACHE_CAPACITY};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub request: u32,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Requests whose spans are kept. A `cache-hot` run traces over a hundred
/// thousand requests; its first ones show the same stages, and every
/// request still enters the per-layer metrics.
const SPAN_REQUESTS: u32 = 20_000;

/// Spans of a run, relative to its epoch. Span names are unique within a
/// request, so a parent is named, not numbered.
pub struct Spans {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    pub fn record(
        &mut self,
        request: u32,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        if request >= SPAN_REQUESTS {
            return;
        }
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(SpanRec {
            request,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Total self time per span name, in milliseconds: each span's
    /// duration minus the part its children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut children: BTreeMap<(u32, &str), u64> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *children.entry((span.request, parent)).or_default() += span.nanos();
            }
        }
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            let covered = children
                .get(&(span.request, span.name))
                .copied()
                .unwrap_or(0);
            *totals.entry(span.name).or_default() +=
                span.nanos().saturating_sub(covered) as f64 / 1e6;
        }
        totals
    }

    /// Writes the spans as tab-separated `request name parent start_ns
    /// end_ns` lines.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        writeln!(out, "request\tname\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.request,
                s.name,
                s.parent.unwrap_or("-"),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The engine run behind one replayed miss.
#[derive(Debug, Clone)]
pub struct SynthSample {
    pub wall: Duration,
    pub stats: SearchStats,
    pub program: Option<Program>,
}

impl SynthSample {
    /// The search part: the `synthesize` call minus the table build.
    pub fn search(&self) -> Duration {
        self.wall.saturating_sub(self.stats.distance_build)
    }

    /// The counts that must repeat exactly when the work is the same.
    pub fn work(&self) -> (u64, u64, u64) {
        (
            self.stats.generated,
            self.stats.expanded,
            self.stats.dedup_hits,
        )
    }
}

/// Stage timings of one replayed request.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub codec: Duration,
    pub get: Duration,
    pub hit: bool,
    /// Entries in the replay's log when the lookup ran.
    pub log_entries: u64,
    pub synth: Option<Box<SynthSample>>,
    pub gate: (Duration, GatePath),
    pub insert: Option<Duration>,
}

impl Replayed {
    /// Time of the stages the server runs for this request.
    pub fn server_stages(&self) -> Duration {
        self.codec
            + self.get
            + self.synth.as_ref().map_or(Duration::ZERO, |s| s.wall)
            + self.insert.unwrap_or_default()
    }
}

/// Writes then reads `message` through the wire codec on byte buffers.
fn round_trip<T: Serialize + Deserialize>(message: &T) -> io::Result<()> {
    let mut bytes = Vec::new();
    write_message(&mut bytes, message)?;
    read_message::<T>(&mut bytes.as_slice())?
        .map(|_| ())
        .ok_or_else(|| io::Error::other("codec lost the message"))
}

/// The benchmark's own copy of the cache, replaying each request's stages.
pub struct Replayer {
    cache: KernelCache,
    dir: std::path::PathBuf,
    entries: u64,
}

impl Replayer {
    /// Opens the cache in `dir` (a copy of the seeded directory).
    pub fn open(dir: &Path) -> io::Result<Replayer> {
        let cache = KernelCache::open(dir, CACHE_CAPACITY)?;
        let entries = cache.stats().load.loaded;
        Ok(Replayer {
            cache,
            dir: dir.to_path_buf(),
            entries,
        })
    }

    /// Replays `query`, whose reply the service answered with `response`
    /// and `kernel`: codec, cache lookup, engine on a miss, verification
    /// gate on the kernel, insert on a miss. Spans go to `spans` under
    /// `request`.
    pub fn replay(
        &mut self,
        spans: &mut Spans,
        request: u32,
        query: &KernelQuery,
        response: &Response,
        kernel: &Program,
    ) -> io::Result<Replayed> {
        let wire = Request::Synth {
            query: query.clone(),
            timeout_ms: None,
            backend: None,
        };
        let t0 = Instant::now();
        round_trip(&wire)?;
        let t1 = Instant::now();
        let log_entries = self.entries;
        let hit = self.cache.get(query).is_some();
        let t2 = Instant::now();
        let mut synth = None;
        if !hit {
            let result = synthesize_query(query, &self.dir);
            let program = result.first_program();
            synth = Some((result.stats, program, result.minimal_certified));
        }
        let t3 = Instant::now();
        let synth = synth.map(|(stats, program, minimal_certified)| {
            let sample = SynthSample {
                wall: t3 - t2,
                stats,
                program,
            };
            (Box::new(sample), minimal_certified)
        });
        let (gate_result, path) = gate_detail(&query.machine(), kernel);
        let t4 = Instant::now();
        if gate_result.is_err() {
            return Err(io::Error::other(
                "verification gate refused a served kernel",
            ));
        }
        if let Some((sample, minimal_certified)) = &synth {
            let program = sample
                .program
                .clone()
                .ok_or_else(|| io::Error::other("replayed search found no kernel"))?;
            self.cache.insert(CacheEntry {
                query: query.clone(),
                program,
                minimal_certified: *minimal_certified,
                search_millis: sample.wall.as_millis() as u64,
                gate_checksum: None,
            })?;
            self.entries += 1;
        }
        let t5 = Instant::now();
        round_trip(response)?;
        let t6 = Instant::now();

        // Spans are recorded after the stages, so bookkeeping stays out of
        // the timed intervals.
        spans.record(request, "codec.request", Some("request"), t0, t1);
        spans.record(request, "cache.get", Some("request"), t1, t2);
        if let Some((sample, _)) = &synth {
            let table_end = t2 + sample.stats.distance_build.min(t3 - t2);
            spans.record(request, "synthesize", Some("request"), t2, t3);
            spans.record(request, "search.table", Some("synthesize"), t2, table_end);
            spans.record(request, "search.engine", Some("synthesize"), table_end, t3);
        }
        spans.record(request, "verify.gate", Some("request"), t3, t4);
        if synth.is_some() {
            spans.record(request, "cache.insert", Some("request"), t4, t5);
        }
        spans.record(request, "codec.reply", Some("request"), t5, t6);
        Ok(Replayed {
            codec: (t1 - t0) + (t6 - t5),
            get: t2 - t1,
            hit,
            log_entries,
            insert: synth.as_ref().map(|_| t5 - t4),
            synth: synth.map(|(sample, _)| sample),
            gate: (t4 - t3, path),
        })
    }
}
