//! One benchmark run: seed the log, restart the service over it, drive one
//! closed-loop client for the requested time, check every reply, and
//! report end-to-end metrics (untraced) or per-layer metrics (traced).

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sortsynth_cache::KernelQuery;
use sortsynth_isa::{IsaMode, Machine, Program};
use sortsynth_search::DistanceTable;
use sortsynth_service::{Client, ReplySource, Request, Response};
use sortsynth_verify::GatePath;

use crate::check::{check_reply, Tally};
use crate::gen::{log_plan, Kind, Queries, LOG_ENTRIES};
use crate::host;
use crate::report::{result_line, Json, Metric};
use crate::service::{copy_dir, log_checksum, synthesize_query, Live};
use crate::stats::{median, percentile, Summary};
use crate::trace::{Replayed, Replayer, Spans};

/// Server restarts before and again after the timed phase; `setup_s` is
/// the median of these plus the restart that serves the timed phase, so
/// the samples span the run.
const SETUP_RESTARTS: usize = 10;
/// Latency samples held in a buffer touched before the run, so the
/// benchmark's own bookkeeping adds the same memory to every run. A run
/// that completes more requests keeps the samples of the first ones.
const LATENCY_SLOTS: usize = 1 << 21;
/// `KernelCache::open` repetitions behind `cache.open_ms`.
const OPEN_REPEATS: usize = 5;
/// Hit requests replayed after a cold traced run, for `cache.get_hit_us`.
const HIT_PROBES: usize = 50;
/// Miss requests replayed after a `cache-hot` traced run, for the miss-path
/// layers that workload never reaches.
const MISS_PROBES: usize = 7;
/// Alternating obs-off / obs-on windows behind `obs.on_overhead_pct`.
const OBS_WINDOWS: usize = 8;
const OBS_WINDOW: Duration = Duration::from_millis(250);
/// Seed perturbation for the cross-seed work pin.
const PIN_SEED: u64 = 0x5eed_5eed;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Provenance passed in by the runner script.
    pub commit: String,
    pub rustc: String,
    /// Scratch directory of this run; removed when it ends.
    pub work: PathBuf,
    /// Directory the result record (and spans) are written to.
    pub results: PathBuf,
}

/// The outcome of a run.
pub struct RunOutput {
    pub correct: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

/// Writes the seeded log from a child process, so kernel synthesis for the
/// log is not counted in this process's peak memory.
fn seed_log(seed: u64, dir: &Path) -> io::Result<()> {
    let status = Command::new(std::env::current_exe()?)
        .arg("seed")
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--dir")
        .arg(dir)
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "seeding the log failed: {status}"
        )));
    }
    Ok(())
}

/// Restarts the service over fresh copies of `seeded` `count` times,
/// stopping each one; returns the setup times in seconds.
fn restart_samples(seeded: &Path, work: &Path, tag: &str, count: usize) -> io::Result<Vec<f64>> {
    let mut setups = Vec::with_capacity(count);
    for k in 0..count {
        let dir = work.join(format!("{tag}-{k}"));
        let (live, setup) = Live::restart(seeded, &dir)?;
        setups.push(setup.as_secs_f64());
        live.stop()?;
        fs::remove_dir_all(&dir)?;
    }
    Ok(setups)
}

/// Round-trip times in milliseconds, in a buffer whose pages are touched
/// up front.
struct Latencies {
    slots: Vec<f32>,
    len: usize,
}

impl Latencies {
    fn new() -> Latencies {
        Latencies {
            slots: vec![f32::MAX; LATENCY_SLOTS],
            len: 0,
        }
    }

    fn push(&mut self, rtt: Duration) {
        if let Some(slot) = self.slots.get_mut(self.len) {
            *slot = ms(rtt) as f32;
            self.len += 1;
        }
    }

    fn to_vec(&self) -> Vec<f64> {
        self.slots[..self.len]
            .iter()
            .map(|&v| f64::from(v))
            .collect()
    }
}

/// Sends one synth request; returns the round trip and the reply.
fn send(client: &mut Client, query: &KernelQuery) -> (Duration, io::Result<Response>) {
    let request = Request::Synth {
        query: query.clone(),
        timeout_ms: None,
        backend: None,
    };
    let started = Instant::now();
    let response = client.request(&request);
    (started.elapsed(), response)
}

/// One timed request of a traced run.
struct Traced {
    rtt: Duration,
    /// Round trip plus the reply check: what the untraced loop spends.
    client: Duration,
    /// The whole iteration, replay and span bookkeeping included.
    total: Duration,
    replayed: Replayed,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn metric(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    if samples.is_empty() {
        return Metric {
            name,
            unit,
            value: f64::NAN,
            spread: None,
        };
    }
    let spread = Summary::of(samples);
    Metric {
        name,
        unit,
        value: spread.median,
        spread: Some(spread),
    }
}

fn scalar(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        spread: None,
    }
}

/// Runs one benchmark invocation. Scratch files live in `args.work`, which
/// is removed afterwards whatever the outcome.
pub fn run(args: &Args) -> io::Result<RunOutput> {
    fs::create_dir_all(&args.work)?;
    let outcome = run_in(args);
    let _ = fs::remove_dir_all(&args.work);
    outcome
}

fn run_in(args: &Args) -> io::Result<RunOutput> {
    let ref_before = host::ref_ms();
    let seeded = args.work.join("seed");
    seed_log(args.seed, &seeded)?;
    let checksum = log_checksum(&seeded)?;
    let log: HashSet<u64> = log_plan(args.seed)
        .iter()
        .map(|e| e.query.fingerprint())
        .collect();
    let mut problems: Vec<String> = Vec::new();

    let mut setups = restart_samples(&seeded, &args.work, "before", SETUP_RESTARTS)?;
    let (mut live, setup) = Live::restart(&seeded, &args.work.join("live"))?;
    setups.push(setup.as_secs_f64());

    let kind = args.kind;
    let expected = if kind.is_cold() {
        ReplySource::Computed
    } else {
        ReplySource::Cache
    };
    let mut queries = Queries::new(kind, args.seed);
    let mut next_query = |problems: &mut Vec<String>| {
        let query = queries.next_query();
        if kind.is_cold() && log.contains(&query.fingerprint()) {
            problems.push(format!(
                "timed query {} is in the seeded log",
                query.canonical_string()
            ));
        }
        query
    };

    let mut tracer = if args.trace {
        Some(Tracer::open(args, &seeded)?)
    } else {
        None
    };

    // The first request after a restart is untimed.
    let first_query = next_query(&mut problems);
    let (first_rtt, first) = send(&mut live.client, &first_query);
    match first
        .map_err(|e| e.to_string())
        .and_then(|r| check_reply(&first_query, &r, expected).map(|k| (r, k)))
    {
        Ok((response, kernel)) => {
            if let Some(tracer) = tracer.as_mut() {
                tracer.first = Some(tracer.replay(&first_query, &response, &kernel)?);
            }
        }
        Err(why) => problems.push(format!("first request failed: {why}")),
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();
    let mut latencies = Latencies::new();
    let mut traced = Vec::new();
    let started = Instant::now();
    loop {
        let iteration = Instant::now();
        let query = next_query(&mut problems);
        let (rtt, response) = send(&mut live.client, &query);
        let lost = response.is_err();
        let outcome = response
            .map_err(|e| format!("request error: {e}"))
            .and_then(|r| check_reply(&query, &r, expected).map(|k| (r, k)));
        let client = iteration.elapsed();
        latencies.push(rtt);
        if let (Some(tracer), Ok((response, kernel))) = (tracer.as_mut(), &outcome) {
            let replayed = tracer.replay(&query, response, kernel)?;
            traced.push(Traced {
                rtt,
                client,
                total: iteration.elapsed(),
                replayed,
            });
        }
        tally.record(&outcome);
        if lost || started.elapsed() >= budget {
            break;
        }
    }
    let wall = started.elapsed();

    let stats = live.handle.cache_stats();
    if kind == Kind::CacheHot && (stats.disk_hits != 0 || stats.misses != 0) {
        problems.push(format!(
            "cache-hot left the memory front: {} disk hits, {} misses",
            stats.disk_hits, stats.misses
        ));
    }
    let lookups = stats.memory_hits + stats.disk_hits + stats.misses;
    let hit_ratio = (stats.memory_hits + stats.disk_hits) as f64 / lookups.max(1) as f64;

    let traced_layers = match tracer {
        Some(mut tracer) => {
            let probes = tracer.probe(&mut live.client, kind, args.seed, &mut problems)?;
            let obs_overhead = obs_overhead_pct(&mut live.client, args.seed, &mut problems)?;
            Some((tracer, probes, obs_overhead))
        }
        None => None,
    };
    live.stop()?;
    setups.extend(restart_samples(
        &seeded,
        &args.work,
        "after",
        SETUP_RESTARTS,
    )?);
    // Read before the statistics below allocate.
    let peak_rss = host::peak_rss_mib().unwrap_or(f64::NAN);
    let latencies = latencies.to_vec();
    let ref_after = host::ref_ms();

    let mut record = vec![
        ("workload", Json::str(kind.name())),
        ("seed", Json::Int(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(args.seconds)),
        (
            "provenance",
            Json::obj([
                ("commit", Json::str(&args.commit)),
                ("nproc", Json::Int(host::nproc() as u64)),
                ("host_cpus", Json::Int(host::host_cpus() as u64)),
                ("cpu_model", Json::str(host::cpu_model())),
                ("rustc", Json::str(&args.rustc)),
                ("seed", Json::Int(args.seed)),
                ("requests_per_run", Json::Int(tally.attempted)),
                ("runs", Json::Int(1)),
                ("setup_restarts", Json::Int(setups.len() as u64)),
                ("log_entries", Json::Int(LOG_ENTRIES as u64)),
                ("log_checksum", Json::str(format!("{checksum:016x}"))),
            ]),
        ),
        (
            "host_ref_ms",
            Json::obj([
                ("before", Json::Num(ref_before)),
                ("after", Json::Num(ref_after)),
            ]),
        ),
        ("latency_ms", Json::summary(&Summary::of(&latencies))),
        ("setup_s", Json::summary(&Summary::of(&setups))),
    ];

    let metrics = match traced_layers {
        Some((tracer, probes, obs_overhead)) => {
            if let Err(why) = tracer.check_pins(kind, args.seed, &traced) {
                problems.push(why);
            }
            let layer = LayerInputs {
                traced: &traced,
                probes: &probes,
                first_rtt,
                hit_ratio,
                obs_overhead,
                host_ref: [ref_before, ref_after],
            };
            let metrics = tracer.metrics(&layer);
            record.push(("dominant", dominant_layer(kind, &metrics)));
            record.push((
                "self_ms",
                Json::obj(
                    tracer
                        .spans
                        .self_ms()
                        .into_iter()
                        .map(|(name, total)| (name, Json::Num(total))),
                ),
            ));
            let spans_path =
                args.results
                    .join(format!("{}-seed{}.spans.tsv", kind.name(), args.seed));
            tracer.spans.write(&spans_path)?;
            metrics
        }
        None => vec![
            scalar("setup_s", "s", median(&setups)),
            scalar(
                "req_per_s",
                "1/s",
                tally.attempted as f64 / wall.as_secs_f64(),
            ),
            scalar("latency_p50_ms", "ms", percentile(&latencies, 50.0)),
            scalar("latency_p90_ms", "ms", percentile(&latencies, 90.0)),
            scalar("peak_rss_mb", "MiB", peak_rss),
            scalar("ok_ratio", "1", tally.ok_ratio()),
        ],
    };
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} was not measured", m.name));
        }
    }
    let correct = tally.failed == 0 && problems.is_empty();
    for why in &problems {
        eprintln!("# problem: {why}");
    }
    record.push((
        "metrics",
        Json::obj(metrics.iter().map(|m| {
            let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
            if let Some(s) = &m.spread {
                fields.push(("within_run", Json::summary(s)));
            }
            (m.name, Json::obj(fields))
        })),
    ));
    record.push((
        "problems",
        Json::Arr(problems.iter().map(Json::str).collect()),
    ));
    record.push((
        "result",
        result_line(correct, tally.attempted, tally.failed, &metrics),
    ));
    let record_path = args.results.join(format!(
        "{}-seed{}-trace{}.json",
        kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    fs::write(record_path, format!("{}\n", Json::obj(record)))?;
    Ok(RunOutput {
        correct,
        tally,
        metrics,
    })
}

/// `obs.on_overhead_pct`: hit requests with obs tracing on (into a
/// `RingBuffer` subscriber) against off, over alternating windows.
fn obs_overhead_pct(client: &mut Client, seed: u64, problems: &mut Vec<String>) -> io::Result<f64> {
    let mut hits = Queries::new(Kind::CacheHot, seed);
    let ring = Arc::new(sortsynth_obs::RingBuffer::new(4096));
    let mut served = [0u64; 2];
    let mut spent = [Duration::ZERO; 2];
    for window in 0..OBS_WINDOWS {
        let on = window % 2 == 1;
        let subscriber = on.then(|| {
            let id = sortsynth_obs::add_subscriber(ring.clone());
            sortsynth_obs::set_enabled(true);
            id
        });
        let started = Instant::now();
        while started.elapsed() < OBS_WINDOW {
            let query = hits.next_query();
            let (_, response) = send(client, &query);
            if let Err(why) = check_reply(&query, &response?, ReplySource::Cache) {
                problems.push(format!("obs probe: {why}"));
                break;
            }
            served[usize::from(on)] += 1;
        }
        spent[usize::from(on)] += started.elapsed();
        if let Some(id) = subscriber {
            sortsynth_obs::set_enabled(false);
            sortsynth_obs::remove_subscriber(id);
        }
    }
    let rate = |i: usize| served[i] as f64 / spent[i].as_secs_f64();
    Ok(100.0 * (rate(0) - rate(1)) / rate(0))
}

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    traced: &'a [Traced],
    probes: &'a [Replayed],
    first_rtt: Duration,
    hit_ratio: f64,
    obs_overhead: f64,
    host_ref: [f64; 2],
}

/// The traced run's state: its own cache copy, spans, and table sizes.
struct Tracer {
    replayer: Replayer,
    spans: Spans,
    opens: Vec<f64>,
    requests: u32,
    first: Option<Replayed>,
    seeded: PathBuf,
    work: PathBuf,
    /// Machines whose misses were replayed, for `table.encodings`.
    machines: HashMap<(u8, u8, bool), Machine>,
}

impl Tracer {
    /// Times `KernelCache::open` on fresh copies of the seeded log and
    /// keeps the last copy open for the replay.
    fn open(args: &Args, seeded: &Path) -> io::Result<Tracer> {
        let mut opens = Vec::with_capacity(OPEN_REPEATS);
        let mut replayer = None;
        for k in 0..OPEN_REPEATS {
            let dir = args.work.join(format!("replay-{k}"));
            copy_dir(seeded, &dir)?;
            let started = Instant::now();
            let opened = Replayer::open(&dir)?;
            opens.push(ms(started.elapsed()));
            replayer = Some(opened);
        }
        Ok(Tracer {
            replayer: replayer.expect("at least one open"),
            spans: Spans::default(),
            opens,
            requests: 0,
            first: None,
            seeded: seeded.to_path_buf(),
            work: args.work.clone(),
            machines: HashMap::new(),
        })
    }

    fn replay(
        &mut self,
        query: &KernelQuery,
        response: &Response,
        kernel: &Program,
    ) -> io::Result<Replayed> {
        let request = self.requests;
        self.requests += 1;
        let started = Instant::now();
        let replayed = self
            .replayer
            .replay(&mut self.spans, request, query, response, kernel)?;
        self.spans
            .record(request, "request", None, started, Instant::now());
        if replayed.synth.is_some() {
            self.machines
                .entry((query.n, query.scratch, query.mode == IsaMode::MinMax))
                .or_insert_with(|| query.machine());
        }
        Ok(replayed)
    }

    /// After the timed phase: requests that reach the layers this workload
    /// bypasses (hits for cold workloads, misses for `cache-hot`), sent and
    /// replayed like timed ones but kept out of every timed figure.
    fn probe(
        &mut self,
        client: &mut Client,
        kind: Kind,
        seed: u64,
        problems: &mut Vec<String>,
    ) -> io::Result<Vec<Replayed>> {
        let (mut queries, count, expected) = if kind.is_cold() {
            (
                Queries::new(Kind::CacheHot, seed),
                HIT_PROBES,
                ReplySource::Cache,
            )
        } else {
            (
                Queries::new(Kind::MissSmall, seed),
                MISS_PROBES,
                ReplySource::Computed,
            )
        };
        let mut probes = Vec::with_capacity(count);
        for _ in 0..count {
            let query = queries.next_query();
            let (_, response) = send(client, &query);
            let response = response?;
            match check_reply(&query, &response, expected) {
                Ok(kernel) => probes.push(self.replay(&query, &response, &kernel)?),
                Err(why) => {
                    problems.push(format!("probe: {why}"));
                    break;
                }
            }
        }
        Ok(probes)
    }

    /// The work-identity and seed pins: equal engine counts on every
    /// fixed-work request and across two seeds, and a byte-identical log
    /// for one seed.
    fn check_pins(&self, kind: Kind, seed: u64, traced: &[Traced]) -> Result<(), String> {
        let again = self.work.join("seed-again");
        seed_log(seed, &again).map_err(|e| e.to_string())?;
        let (a, b) = (log_checksum(&self.seeded), log_checksum(&again));
        match (a, b) {
            (Ok(a), Ok(b)) if a == b => {}
            (a, b) => {
                return Err(format!(
                    "seeded log differs between two writes: {a:?} vs {b:?}"
                ))
            }
        }
        if !kind.fixed_work() {
            return Ok(());
        }
        let reference = self
            .first
            .as_ref()
            .and_then(|r| r.synth.as_ref())
            .map(|s| s.work())
            .ok_or("first request ran no search")?;
        for (i, t) in traced.iter().enumerate() {
            let work = t.replayed.synth.as_ref().map(|s| s.work());
            if work != Some(reference) {
                return Err(format!(
                    "request {i} did {work:?}, the first did {reference:?}"
                ));
            }
        }
        let other = Queries::new(kind, seed ^ PIN_SEED).next_query();
        let stats = synthesize_query(&other, &self.work.join("replay-0")).stats;
        let work = (stats.generated, stats.expanded, stats.dedup_hits);
        if work != reference {
            return Err(format!(
                "another seed did {work:?}, this seed {reference:?}"
            ));
        }
        Ok(())
    }

    fn metrics(&self, input: &LayerInputs<'_>) -> Vec<Metric> {
        let traced = input.traced;
        // Timed requests where they reach a layer; probes otherwise.
        let timed: Vec<&Replayed> = traced.iter().map(|t| &t.replayed).collect();
        let probes: Vec<&Replayed> = input.probes.iter().collect();
        let pick = |keep: &dyn Fn(&Replayed) -> bool| -> Vec<&Replayed> {
            let chosen: Vec<&Replayed> = timed.iter().copied().filter(|r| keep(r)).collect();
            if chosen.is_empty() {
                probes.iter().copied().filter(|r| keep(r)).collect()
            } else {
                chosen
            }
        };
        let hits = pick(&|r| r.hit);
        let misses = pick(&|r| !r.hit);
        let synths: Vec<_> = misses.iter().filter_map(|r| r.synth.as_ref()).collect();
        let of_synth = |f: &dyn Fn(&crate::trace::SynthSample) -> f64| -> Vec<f64> {
            synths.iter().map(|s| f(s)).collect()
        };
        let sum_rtt: f64 = traced.iter().map(|t| ms(t.rtt)).sum();
        let share = |f: &dyn Fn(&Traced) -> f64| traced.iter().map(f).sum::<f64>() / sum_rtt;
        let synth_ms = |t: &Traced, part: &dyn Fn(&crate::trace::SynthSample) -> Duration| {
            t.replayed.synth.as_ref().map_or(0.0, |s| ms(part(s)))
        };
        let gates: Vec<(Duration, GatePath)> = timed.iter().map(|r| r.gate).collect();
        let symbolic = gates.iter().filter(|g| g.1 == GatePath::Symbolic).count();
        let client: f64 = traced.iter().map(|t| t.client.as_secs_f64()).sum();
        let total: f64 = traced.iter().map(|t| t.total.as_secs_f64()).sum();
        let table_sizes: Vec<f64> = self
            .machines
            .values()
            .map(|m| DistanceTable::build(m, false).encodings() as f64)
            .collect();
        vec![
            metric(
                "service.codec_us",
                "us",
                &timed.iter().map(|r| us(r.codec)).collect::<Vec<_>>(),
            ),
            metric(
                "service.overhead_ms",
                "ms",
                &traced
                    .iter()
                    .map(|t| ms(t.rtt) - ms(t.replayed.server_stages()))
                    .collect::<Vec<_>>(),
            ),
            scalar("service.first_req_ms", "ms", ms(input.first_rtt)),
            metric("cache.open_ms", "ms", &self.opens),
            metric(
                "cache.get_hit_us",
                "us",
                &hits.iter().map(|r| us(r.get)).collect::<Vec<_>>(),
            ),
            scalar("cache.hit_ratio", "1", input.hit_ratio),
            metric(
                "cache.get_miss_ms",
                "ms",
                &misses.iter().map(|r| ms(r.get)).collect::<Vec<_>>(),
            ),
            metric(
                "cache.log_entries",
                "count",
                &misses
                    .iter()
                    .map(|r| r.log_entries as f64)
                    .collect::<Vec<_>>(),
            ),
            metric(
                "cache.insert_us",
                "us",
                &misses
                    .iter()
                    .filter_map(|r| r.insert)
                    .map(us)
                    .collect::<Vec<_>>(),
            ),
            metric(
                "table.build_ms",
                "ms",
                &of_synth(&|s| ms(s.stats.distance_build)),
            ),
            metric(
                "table.share",
                "1",
                &of_synth(&|s| s.stats.distance_build.as_secs_f64() / s.wall.as_secs_f64()),
            ),
            metric("table.encodings", "count", &table_sizes),
            metric("search.ms", "ms", &of_synth(&|s| ms(s.search()))),
            metric(
                "search.nodes_per_s",
                "1/s",
                &of_synth(&|s| s.stats.generated as f64 / s.search().as_secs_f64()),
            ),
            metric(
                "search.generated",
                "count",
                &of_synth(&|s| s.stats.generated as f64),
            ),
            metric(
                "search.expanded",
                "count",
                &of_synth(&|s| s.stats.expanded as f64),
            ),
            metric(
                "search.dedup_hits",
                "count",
                &of_synth(&|s| s.stats.dedup_hits as f64),
            ),
            metric(
                "search.viability_pruned",
                "count",
                &of_synth(&|s| s.stats.viability_pruned as f64),
            ),
            metric(
                "search.cut_pruned",
                "count",
                &of_synth(&|s| s.stats.cut_pruned as f64),
            ),
            metric(
                "search.states_kept",
                "count",
                &of_synth(&|s| s.stats.states_kept as f64),
            ),
            metric(
                "search.kept_ratio",
                "1",
                &of_synth(&|s| s.stats.states_kept as f64 / s.stats.generated.max(1) as f64),
            ),
            metric(
                "search.arena_bytes",
                "B",
                &of_synth(&|s| s.stats.arena_bytes as f64),
            ),
            metric(
                "search.resident_bytes",
                "B",
                &of_synth(&|s| s.stats.resident_bytes as f64),
            ),
            metric(
                "search.arena_reallocs",
                "count",
                &of_synth(&|s| s.stats.arena_reallocs as f64),
            ),
            metric(
                "verify.gate_us",
                "us",
                &gates.iter().map(|g| us(g.0)).collect::<Vec<_>>(),
            ),
            scalar(
                "verify.symbolic_share",
                "1",
                symbolic as f64 / gates.len().max(1) as f64,
            ),
            scalar("obs.on_overhead_pct", "%", input.obs_overhead),
            scalar("trace.overhead_pct", "%", 100.0 * (1.0 - client / total)),
            metric("host.ref_ms", "ms", &input.host_ref),
            scalar(
                "share.search",
                "1",
                share(&|t| synth_ms(t, &|s| s.search())),
            ),
            scalar(
                "share.table",
                "1",
                share(&|t| synth_ms(t, &|s| s.stats.distance_build)),
            ),
            scalar(
                "share.cache_get_miss",
                "1",
                share(&|t| {
                    if t.replayed.hit {
                        0.0
                    } else {
                        ms(t.replayed.get)
                    }
                }),
            ),
            scalar(
                "share.service",
                "1",
                share(&|t| {
                    let r = &t.replayed;
                    ms(t.rtt) - ms(r.get) - synth_ms(t, &|s| s.wall) - r.insert.map_or(0.0, ms)
                }),
            ),
        ]
    }
}

/// Whether the traced run confirms the workload's dominant layer.
fn dominant_layer(kind: Kind, metrics: &[Metric]) -> Json {
    let (layer, claim) = match kind {
        Kind::SearchCold => ("share.search", 0.85),
        Kind::TableCold => ("share.table", 0.70),
        Kind::MissSmall => ("share.cache_get_miss", 0.50),
        Kind::CacheHot => ("share.service", 0.90),
    };
    let measured = metrics
        .iter()
        .find(|m| m.name == layer)
        .map_or(f64::NAN, |m| m.value);
    let confirmed = measured >= claim;
    eprintln!(
        "# dominant layer {layer}: {:.1}% of a request (claim >= {:.0}%): {}",
        measured * 100.0,
        claim * 100.0,
        if confirmed {
            "confirmed"
        } else {
            "NOT confirmed"
        }
    );
    Json::obj([
        ("layer", Json::str(layer)),
        ("claim", Json::Num(claim)),
        ("measured", Json::Num(measured)),
        ("confirmed", Json::Bool(confirmed)),
    ])
}
