//! The system under test as a user deploys it: a durable cache directory
//! seeded with a long-lived server's log, and an in-process
//! `sortsynth_service::Server` restarted over it.

use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use sortsynth_cache::{fnv1a, CacheEntry, CutSpec, KernelCache, KernelQuery, LOG_FILE};
use sortsynth_search::{synthesize, Cut, SynthesisConfig, SynthesisResult};
use sortsynth_service::{Client, Response, Server, ServerHandle, ServiceConfig};

use crate::gen::{log_plan, CHEAP};

/// In-memory cache front capacity: holds the log plus every insert of a run.
pub const CACHE_CAPACITY: usize = 4096;
/// Worker threads of the server (the host's two cores).
const WORKERS: usize = 2;
/// File the service keeps its arena-sizing table in, next to the log.
const SIZING_FILE: &str = "sizing.txt";
/// How long the client waits for one reply before counting a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// The engine configuration the service's default route builds for
/// `query` (sequential engine, no deadline), without a sizing table.
fn engine_config(query: &KernelQuery) -> SynthesisConfig {
    let mut cfg = SynthesisConfig::new(query.machine());
    cfg.threads = 1;
    cfg.optimal_instrs_only = query.optimal_instrs_only;
    cfg.budget_viability = query.budget_viability;
    cfg.max_len = query.max_len;
    cfg.cut = query.cut.map(|cut| match cut {
        CutSpec::Factor { millis } => Cut::Factor(millis as f64 / 1000.0),
        CutSpec::Additive { add } => Cut::Additive(add),
    });
    cfg
}

/// [`engine_config`] with the sizing table in `cache_dir`, where the
/// service keeps it.
pub fn synth_config(query: &KernelQuery, cache_dir: &Path) -> SynthesisConfig {
    let mut cfg = engine_config(query);
    cfg.sizing_path = Some(cache_dir.join(SIZING_FILE));
    cfg
}

/// Whether the engine certifies `query`'s answers as minimal. The paper's
/// best configuration does not: its cut and optimal-instruction
/// restriction are not optimality-preserving in principle.
pub fn certifies_minimal(query: &KernelQuery) -> bool {
    engine_config(query).guarantees_minimal()
}

/// Runs `query` through the engine as the service would.
pub fn synthesize_query(query: &KernelQuery, cache_dir: &Path) -> SynthesisResult {
    synthesize(&synth_config(query, cache_dir))
}

/// Writes the seeded cache directory: one synthesized kernel per cheap
/// machine, stored under the `LOG_ENTRIES` planned queries. The log bytes
/// depend on the seed alone.
pub fn write_seeded_log(seed: u64, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut kernels = Vec::with_capacity(CHEAP.len());
    for (n, scratch, mode) in CHEAP {
        let result = synthesize_query(&KernelQuery::best(n, scratch, mode), dir);
        let program = result
            .first_program()
            .ok_or_else(|| io::Error::other(format!("no kernel for n={n} scratch={scratch}")))?;
        kernels.push((program, result.minimal_certified));
    }
    let cache = KernelCache::open(dir, CACHE_CAPACITY)?;
    for plan in log_plan(seed) {
        let (program, minimal_certified) = &kernels[plan.machine];
        cache.insert(CacheEntry {
            query: plan.query,
            program: program.clone(),
            minimal_certified: *minimal_certified,
            search_millis: plan.search_millis,
            gate_checksum: None,
        })?;
    }
    Ok(())
}

/// FNV-1a of the log file in `dir`.
pub fn log_checksum(dir: &Path) -> io::Result<u64> {
    Ok(fnv1a(&fs::read(dir.join(LOG_FILE))?))
}

/// Copies the flat cache directory `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    if to.exists() {
        fs::remove_dir_all(to)?;
    }
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// A running server and the benchmark's one client connection to it.
pub struct Live {
    pub handle: ServerHandle,
    pub client: Client,
}

impl Live {
    /// Restarts the service over a fresh copy of `seeded` in `dir`. The
    /// returned duration runs from `Server::bind` until the first `ping`
    /// is answered, so it covers cache recovery.
    pub fn restart(seeded: &Path, dir: &Path) -> io::Result<(Live, Duration)> {
        copy_dir(seeded, dir)?;
        let started = Instant::now();
        let server = Server::bind(ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            cache_dir: Some(dir.to_path_buf()),
            cache_capacity: CACHE_CAPACITY,
            search_threads: 1,
            ..ServiceConfig::default()
        })?;
        let handle = server.spawn();
        let mut client = Client::connect(handle.addr())?;
        let pong = client.ping()?;
        let setup = started.elapsed();
        if pong != Response::Pong {
            return Err(io::Error::other(format!("ping answered {pong:?}")));
        }
        client.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok((Live { handle, client }, setup))
    }

    /// Closes the connection, then stops the server and joins its threads.
    pub fn stop(self) -> io::Result<()> {
        drop(self.client);
        self.handle.shutdown()
    }
}
